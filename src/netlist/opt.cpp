#include "netlist/opt.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

namespace autolock::netlist {

namespace {

// The rewrite pass is generic over how the output graph is materialized:
// NetlistBuilder produces a real Netlist (names, name index, validation)
// for `optimize` / `optimize_with_key_bit`, AreaGraphBuilder appends to the
// plain type/fanin arrays behind KeyConeAreas' baseline, and
// KeyConeAreas::EditBuilder edits that baseline per design and per
// hypothesis. All assign
// ids in insertion order, so the instantiations build structurally
// identical graphs — the SCOPE differentials in test_workspace.cpp pin
// this.

/// Rewrite value of one input-netlist node: either a node id in the output
/// graph or a known constant, packed into one word (bit 31 = "is constant",
/// bit 0 = constant value when set, the node id otherwise).
using PackedValue = std::uint32_t;
constexpr PackedValue kConstFlag = 1U << 31;

constexpr PackedValue pack_node(NodeId id) noexcept { return id; }
constexpr PackedValue pack_const(bool b) noexcept {
  return kConstFlag | static_cast<PackedValue>(b);
}
constexpr bool is_const(PackedValue v) noexcept { return (v & kConstFlag) != 0; }
constexpr bool const_of(PackedValue v) noexcept { return (v & 1U) != 0; }
constexpr NodeId node_of(PackedValue v) noexcept {
  return static_cast<NodeId>(v);
}

class NetlistBuilder {
 public:
  // The output shares the input's name table (same design family), so node
  // and port NameIds can be copied over without ever materializing strings.
  explicit NetlistBuilder(const Netlist& input)
      : out_(input.name(), input.names()) {}

  NodeId add_input(const Node& node) {
    return out_.add_input(node.name, node.is_key_input);
  }
  NodeId add_const(bool b) {
    return out_.add_const(b, b ? "opt_const1" : "opt_const0");
  }
  NodeId add_gate(GateType type, const NodeId* fanins, std::size_t n) {
    return out_.add_gate(type, std::vector<NodeId>(fanins, fanins + n));
  }
  void mark_output(NodeId driver, NameId port_name) {
    out_.mark_output(driver, port_name);
  }
  std::size_t size() const noexcept { return out_.size(); }
  /// x when `id` is NOT(x), else kNoNode. Every NOT in the output graph is
  /// emitted by the rewriter's make_not, so this is its NOT(NOT) record.
  NodeId not_input(NodeId id) const {
    const Node& node = out_.node(id);
    return node.type == GateType::kNot ? node.fanins[0] : kNoNode;
  }

  Netlist& netlist() noexcept { return out_; }

 private:
  Netlist out_;
};

/// Appends to the flat output graph in OptScratch. Construction does not
/// clear it: KeyConeAreas first builds the baseline into an empty graph,
/// then appends each design's and each hypothesis' fresh nodes behind it.
/// Output ports land in `drivers` (null when the caller materializes them
/// itself).
class AreaGraphBuilder {
 public:
  AreaGraphBuilder(OptScratch& scratch, std::vector<NodeId>* drivers)
      : s_(&scratch), drivers_(drivers) {}

  NodeId add_input(const Node&) { return add_node(GateType::kInput, nullptr, 0); }
  NodeId add_const(bool b) {
    return add_node(b ? GateType::kConst1 : GateType::kConst0, nullptr, 0);
  }
  NodeId add_gate(GateType type, const NodeId* fanins, std::size_t n) {
    return add_node(type, fanins, n);
  }
  void mark_output(NodeId driver, NameId) { drivers_->push_back(driver); }
  std::size_t size() const noexcept { return s_->out_types.size(); }
  /// Reads the node's current row, so an in-place edit is seen.
  NodeId not_input(NodeId id) const {
    return static_cast<GateType>(s_->out_types[id]) == GateType::kNot
               ? s_->out_fanins[s_->out_fanin_begin[id]]
               : kNoNode;
  }

 private:
  NodeId add_node(GateType type, const NodeId* fanins, std::size_t n) {
    const auto id = static_cast<NodeId>(s_->out_types.size());
    s_->out_types.push_back(static_cast<std::uint8_t>(type));
    s_->out_fanin_begin.push_back(
        static_cast<std::uint32_t>(s_->out_fanins.size()));
    s_->out_fanin_count.push_back(static_cast<std::uint32_t>(n));
    s_->out_fanins.insert(s_->out_fanins.end(), fanins, fanins + n);
    return id;
  }

  OptScratch* s_;
  std::vector<NodeId>* drivers_;
};

template <class Builder>
class RewriterT {
 public:
  /// `const0`/`const1` seed the constant-node cache: a hypothesis reuses
  /// the constants its baseline run created.
  RewriterT(const Netlist& input, OptScratch& scratch, Builder& builder,
            NodeId const0 = kNoNode, NodeId const1 = kNoNode)
      : input_(&input),
        s_(&scratch),
        builder_(&builder),
        const0_(const0),
        const1_(const1) {}

  /// Rewrites `input` into the builder. `pinned_key` (kNoNode = none) keeps
  /// its input node, but its uses see the constant `value`. `stats` (when
  /// non-null) receives the fold/collapse counters; area fields are filled
  /// by the callers. `own` (when non-null) receives, per input node, 1 iff
  /// its value is a node its own rewrite emitted.
  void run(NodeId pinned_key, bool value, OptStats* stats,
           std::vector<std::uint8_t>* own = nullptr) {
    if (input_->size() >= kConstFlag / 2) {
      throw std::length_error("netlist optimizer: design too large");
    }
    OptStats local;
    s_->values.resize(input_->size());

    // Inputs first (interface stability).
    for (const NodeId id : input_->inputs()) {
      const NodeId fresh = builder_->add_input(input_->node(id));
      if (id == pinned_key) {
        s_->values[id] = pack_const(value);
        ++local.constants_folded;
      } else {
        s_->values[id] = pack_node(fresh);
      }
    }

    if (own != nullptr) own->assign(input_->size(), 0);
    for (const NodeId v : input_->topological_order()) {
      const Node& node = input_->node(v);
      if (node.type == GateType::kInput) continue;
      const std::size_t first_new = builder_->size();
      const PackedValue out = rewrite_gate(node, local);
      s_->values[v] = out;
      if (own != nullptr && !is_const(out) && node_of(out) >= first_new) {
        (*own)[v] = 1;
      }
    }

    for (const auto& port : input_->outputs()) {
      builder_->mark_output(materialize(s_->values[port.driver]), port.name);
    }
    if (stats != nullptr) *stats = local;
  }

  /// Re-rewrites gate `v` from the current values of its fanins; the
  /// caller stores the result.
  PackedValue rewrite(NodeId v) {
    OptStats unused;
    return rewrite_gate(input_->node(v), unused);
  }

  NodeId materialize(PackedValue value) {
    return is_const(value) ? get_const(const_of(value)) : node_of(value);
  }

  NodeId const0() const noexcept { return const0_; }
  NodeId const1() const noexcept { return const1_; }

 private:
  NodeId get_const(bool b) {
    NodeId& cache = b ? const1_ : const0_;
    if (cache == kNoNode) cache = builder_->add_const(b);
    return cache;
  }

  NodeId emit_gate(GateType type, const NodeId* fanins, std::size_t n) {
    return builder_->add_gate(type, fanins, n);
  }

  PackedValue make_not(NodeId node, OptStats& stats) {
    // NOT(NOT(x)) -> x.
    const NodeId inner = builder_->not_input(node);
    if (inner != kNoNode) {
      ++stats.buffers_collapsed;
      return pack_node(inner);
    }
    return pack_node(emit_gate(GateType::kNot, &node, 1));
  }

  PackedValue finish_andor(bool inverted, bool is_and) {
    std::vector<NodeId>& live = s_->live;
    // Deduplicate identical fanins (x AND x = x).
    std::sort(live.begin(), live.end());
    live.erase(std::unique(live.begin(), live.end()), live.end());
    if (live.empty()) {
      // All fanins were identity constants: AND() = 1, OR() = 0.
      return pack_const(is_and != inverted);
    }
    if (live.size() == 1) {
      if (!inverted) return pack_node(live[0]);
      // Historical behaviour: inversions introduced here do not count
      // towards buffers_collapsed.
      OptStats scratch_stats;
      return make_not(live[0], scratch_stats);
    }
    const GateType type =
        is_and ? (inverted ? GateType::kNand : GateType::kAnd)
               : (inverted ? GateType::kNor : GateType::kOr);
    return pack_node(emit_gate(type, live.data(), live.size()));
  }

  PackedValue rewrite_gate(const Node& node, OptStats& stats) {
    std::vector<PackedValue>& ins = s_->ins;
    ins.clear();
    for (const NodeId fanin : node.fanins) ins.push_back(s_->values[fanin]);

    switch (node.type) {
      case GateType::kConst0:
        return pack_const(false);
      case GateType::kConst1:
        return pack_const(true);
      case GateType::kBuf:
        ++stats.buffers_collapsed;
        return ins[0];
      case GateType::kNot:
        if (is_const(ins[0])) {
          ++stats.constants_folded;
          return pack_const(!const_of(ins[0]));
        }
        return make_not(node_of(ins[0]), stats);
      case GateType::kAnd:
      case GateType::kNand: {
        std::vector<NodeId>& live = s_->live;
        live.clear();
        for (const PackedValue in : ins) {
          if (is_const(in)) {
            ++stats.constants_folded;
            if (!const_of(in)) {
              return pack_const(node.type == GateType::kNand);
            }
            continue;  // AND with 1: drop
          }
          live.push_back(node_of(in));
        }
        return finish_andor(node.type == GateType::kNand, /*is_and=*/true);
      }
      case GateType::kOr:
      case GateType::kNor: {
        std::vector<NodeId>& live = s_->live;
        live.clear();
        for (const PackedValue in : ins) {
          if (is_const(in)) {
            ++stats.constants_folded;
            if (const_of(in)) {
              return pack_const(node.type != GateType::kNor);
            }
            continue;  // OR with 0: drop
          }
          live.push_back(node_of(in));
        }
        return finish_andor(node.type == GateType::kNor, /*is_and=*/false);
      }
      case GateType::kXor:
      case GateType::kXnor: {
        bool phase = node.type == GateType::kXnor;
        std::vector<NodeId>& live = s_->live;
        live.clear();
        for (const PackedValue in : ins) {
          if (is_const(in)) {
            ++stats.constants_folded;
            phase ^= const_of(in);
            continue;
          }
          live.push_back(node_of(in));
        }
        if (live.empty()) return pack_const(phase);
        if (live.size() == 1) {
          if (!phase) return pack_node(live[0]);
          return make_not(live[0], stats);
        }
        return pack_node(emit_gate(phase ? GateType::kXnor : GateType::kXor,
                                   live.data(), live.size()));
      }
      case GateType::kMux: {
        const PackedValue sel = ins[0];
        const PackedValue in0 = ins[1];
        const PackedValue in1 = ins[2];
        if (is_const(sel)) {
          ++stats.constants_folded;
          return const_of(sel) ? in1 : in0;
        }
        // MUX with equal data inputs is the data input.
        if (!is_const(in0) && !is_const(in1) &&
            node_of(in0) == node_of(in1)) {
          ++stats.constants_folded;
          return in0;
        }
        if (is_const(in0) && is_const(in1)) {
          ++stats.constants_folded;
          if (const_of(in0) == const_of(in1)) {
            return pack_const(const_of(in0));
          }
          // MUX(s, 0, 1) = s ; MUX(s, 1, 0) = ~s.
          if (!const_of(in0)) return pack_node(node_of(sel));
          return make_not(node_of(sel), stats);
        }
        const NodeId fanins[3] = {node_of(sel), materialize(in0),
                                  materialize(in1)};
        return pack_node(emit_gate(GateType::kMux, fanins, 3));
      }
      case GateType::kInput:
        break;  // unreachable
    }
    return pack_node(kNoNode);
  }

  const Netlist* input_;
  OptScratch* s_;
  Builder* builder_;
  NodeId const0_;
  NodeId const1_;
};

Netlist optimize_impl(const Netlist& input, OptStats* stats,
                      NodeId pinned_key, bool value) {
  OptScratch scratch;
  NetlistBuilder builder(input);
  RewriterT<NetlistBuilder> rewriter(input, scratch, builder);
  OptStats local;
  rewriter.run(pinned_key, value, stats != nullptr ? &local : nullptr);
  Netlist compact = builder.netlist().compacted();
  if (stats != nullptr) {
    local.gates_before = input.gate_count();
    local.gates_after = compact.gate_count();
    local.dead_removed = builder.netlist().gate_count() - local.gates_after;
    *stats = local;
  }
  return compact;
}

/// High bit of a KeyConeAreas reference count: the baseline count is
/// already in the walk's journal.
constexpr std::uint32_t kJournaled = 1U << 31;

/// Value of an appended node the design's walk has not reached yet: the
/// constant flag with node bits set, which no rewrite returns.
constexpr PackedValue kUnset = ~PackedValue{0};

}  // namespace

Netlist optimize(const Netlist& input, OptStats* stats) {
  return optimize_impl(input, stats, kNoNode, false);
}

Netlist optimize_with_key_bit(const Netlist& input, std::size_t bit,
                              bool value, OptStats* stats) {
  const auto keys = input.key_inputs();
  if (bit >= keys.size()) {
    throw std::invalid_argument("optimize_with_key_bit: bit out of range");
  }
  return optimize_impl(input, stats, keys[bit], value);
}

// ---- KeyConeAreas -----------------------------------------------------------

/// Output-graph builder of one walk. A gate that the input node being
/// re-rewritten emitted in the baseline (the target), re-emitted with the
/// same type, is edited in place: its new fanins go to a row appended behind
/// the graph and its id stays. Any other gate, and any constant, is
/// appended behind the baseline.
class KeyConeAreas::EditBuilder {
 public:
  explicit EditBuilder(KeyConeAreas& areas)
      : areas_(&areas), append_(areas.rewrite_, nullptr) {}

  /// The baseline node the next add_gate may edit; kNoNode for none.
  void set_target(NodeId node) noexcept { target_ = node; }

  NodeId add_input(const Node& node) { return append_.add_input(node); }
  NodeId add_const(bool b) { return append_.add_const(b); }

  NodeId add_gate(GateType type, const NodeId* fanins, std::size_t n) {
    if (target_ == kNoNode || type_of(target_) != type) {
      return append_.add_gate(type, fanins, n);
    }
    KeyConeAreas& a = *areas_;
    OptScratch& s = a.rewrite_;
    const auto row = a.fanins(target_);
    if (!std::equal(row.begin(), row.end(), fanins, fanins + n)) {
      const Row base{s.out_fanin_begin[target_], s.out_fanin_count[target_]};
      a.edits_.push_back({target_, base, {}, /*was_live=*/false});
      s.out_fanin_begin[target_] =
          static_cast<std::uint32_t>(s.out_fanins.size());
      s.out_fanin_count[target_] = static_cast<std::uint32_t>(n);
      s.out_fanins.insert(s.out_fanins.end(), fanins, fanins + n);
    }
    return target_;
  }

  std::size_t size() const noexcept { return append_.size(); }
  /// NOT(NOT) record, read through the edits.
  NodeId not_input(NodeId id) const { return append_.not_input(id); }

  /// True when `id` is a NOT whose fanin this walk edited.
  bool edited_not(NodeId id) const {
    return type_of(id) == GateType::kNot && areas_->is_edited(id);
  }

 private:
  GateType type_of(NodeId id) const {
    return static_cast<GateType>(areas_->rewrite_.out_types[id]);
  }

  KeyConeAreas* areas_;
  AreaGraphBuilder append_;
  NodeId target_ = kNoNode;
};

/// One event-driven re-rewrite over the baseline: seeds mark input nodes
/// dirty or queue them, run() re-rewrites the queued nodes in topological
/// order, and settle() counts the area the result has.
class KeyConeAreas::Walk {
 public:
  explicit Walk(KeyConeAreas& areas)
      : a_(&areas),
        builder_(areas),
        rewriter_(*areas.input_, areas.rewrite_, builder_, areas.base_.const0,
                  areas.base_.const1) {}

  /// Gives input node `v` the value `now` and queues its fanouts.
  void mark_dirty(NodeId v, PackedValue now, bool own) {
    KeyConeAreas& a = *a_;
    a.changed_.push_back({v, a.rewrite_.values[v], (a.flags_[v] & kOwn) != 0});
    set(v, now, own);
    for (const NodeId user : a.fanouts(v)) queue(user);
  }

  /// Nodes from `first` on take their values quietly: no fanout queued,
  /// nothing to roll back. The design's walk sets this for its appended
  /// nodes, whose readers are all seeds of their own.
  void set_quiet_from(NodeId first) noexcept { quiet_ = first; }

  void queue(NodeId v) {
    KeyConeAreas& a = *a_;
    if ((a.flags_[v] & kQueued) != 0) return;
    a.flags_[v] |= kQueued;
    a.heap_.push_back(a.position_[v]);
    std::push_heap(a.heap_.begin(), a.heap_.end(), std::greater<>());
  }

  /// Emits a fresh input node for appended input node `v`.
  void add_input(NodeId v) {
    set(v, pack_node(builder_.add_input(a_->input_->node(v))), /*own=*/false);
  }

  /// Re-rewrites the queued nodes: a node pops after all of its fanins.
  void run() {
    KeyConeAreas& a = *a_;
    const auto& order = a.input_->topological_order();
    while (!a.heap_.empty()) {
      std::pop_heap(a.heap_.begin(), a.heap_.end(), std::greater<>());
      const NodeId v = order[a.heap_.back()];
      a.heap_.pop_back();
      a.flags_[v] &= ~kQueued;
      const PackedValue was = a.rewrite_.values[v];
      const NodeId target = (a.flags_[v] & kOwn) != 0 ? node_of(was) : kNoNode;
      builder_.set_target(target);
      const std::size_t first_new = builder_.size();
      const PackedValue now = rewriter_.rewrite(v);
      const bool own = !is_const(now) &&
                       (node_of(now) == target || node_of(now) >= first_new);
      if (v >= quiet_) {
        set(v, now, own);
      } else if (now != was ||
                 (!is_const(now) && builder_.edited_not(node_of(now)))) {
        mark_dirty(v, now, own);
      }
    }
  }

  /// The area after the walk: the baseline's plus the delta along the
  /// changed edges. Fills new_drivers_ with the ports whose driver changed,
  /// from the dirty drivers and `moved` (ports the walk's input moved).
  std::size_t settle(std::span<const std::uint32_t> moved) {
    KeyConeAreas& a = *a_;
    OptScratch& s = a.rewrite_;
    // Ports driven by dirty nodes, materialized in ascending port order.
    auto& drivers = a.new_drivers_;
    drivers.clear();
    for (const Changed& changed : a.changed_) {
      const NodeId v = changed.node;
      if ((a.flags_[v] & kPort) == 0) continue;
      for (auto it = std::lower_bound(a.driver_ports_.begin(),
                                      a.driver_ports_.end(),
                                      std::pair{v, std::uint32_t{0}});
           it != a.driver_ports_.end() && it->first == v; ++it) {
        drivers.emplace_back(it->second, v);
      }
    }
    for (const std::uint32_t port : moved) {
      drivers.emplace_back(port, a.input_->outputs()[port].driver);
    }
    std::sort(drivers.begin(), drivers.end());
    drivers.erase(std::unique(drivers.begin(), drivers.end()), drivers.end());
    std::size_t kept = 0;
    for (const auto& [port, v] : drivers) {
      const NodeId driver = rewriter_.materialize(s.values[v]);
      if (driver != a.drivers_[port]) drivers[kept++] = {port, driver};
    }
    drivers.resize(kept);

    // References first, then releases. Every edit starts unapplied: its
    // node reads the old row until the edit is reached.
    a.refs_.resize(s.out_types.size(), 0);
    for (Edit& edit : a.edits_) {
      edit.edit = {s.out_fanin_begin[edit.node], s.out_fanin_count[edit.node]};
      set_row(edit.node, edit.base);
    }
    std::size_t area = a.base_.area;
    for (const auto& [port, driver] : drivers) area += a.ref(driver);
    for (Edit& edit : a.edits_) {
      edit.was_live = (a.refs_[edit.node] & ~kJournaled) != 0;
      if (edit.was_live) {
        for (const NodeId fanin : row(edit.edit)) area += a.ref(fanin);
      }
      set_row(edit.node, edit.edit);
    }
    for (const Edit& edit : a.edits_) {
      if (!edit.was_live) continue;
      for (const NodeId fanin : row(edit.base)) area -= a.deref(fanin);
    }
    for (const auto& [port, driver] : drivers) {
      area -= a.deref(a.drivers_[port]);
    }
    return area;
  }

  NodeId const0() const noexcept { return rewriter_.const0(); }
  NodeId const1() const noexcept { return rewriter_.const1(); }

 private:
  std::span<const NodeId> row(Row r) const {
    return {a_->rewrite_.out_fanins.data() + r.begin, r.count};
  }
  void set_row(NodeId v, Row r) {
    a_->rewrite_.out_fanin_begin[v] = r.begin;
    a_->rewrite_.out_fanin_count[v] = r.count;
  }
  void set(NodeId v, PackedValue now, bool own) {
    a_->rewrite_.values[v] = now;
    a_->flags_[v] = static_cast<std::uint8_t>((a_->flags_[v] & ~kOwn) |
                                              (own ? kOwn : 0));
  }

  KeyConeAreas* a_;
  EditBuilder builder_;
  RewriterT<EditBuilder> rewriter_;
  NodeId quiet_ = kNoNode;
};

void KeyConeAreas::reset(const Netlist& input) {
  build(input);
  family_ = nullptr;
}

void KeyConeAreas::reset(const Netlist& design, const Netlist& original,
                         const DecodeDelta& delta) {
  if (!delta.lists_wires(design, original)) {
    reset(design);
    return;
  }
  if (family_ == &original &&
      family_version_ == original.structural_version()) {
    roll_back_design();
  } else {
    build(original);
    family_ = &original;
    family_version_ = original.structural_version();
    family_level_ = base_;
  }
  patch(design, delta);
}

void KeyConeAreas::build(const Netlist& input) {
  input_ = &input;
  keys_ = input.key_inputs();
  patched_ = false;
  design_edits_.clear();
  design_journal_.clear();
  design_changed_.clear();
  design_drivers_.clear();
  ports_moved_ = false;
  row_patches_.clear();

  // The graph has at most a node per input node plus two constants, and at
  // most the input's fanins. Reserving that, with room for what designs
  // and hypotheses append, keeps growth from copying the arrays at their
  // largest.
  const std::size_t n = input.size();
  std::size_t edges = 0;
  for (NodeId v = 0; v < n; ++v) edges += input.node(v).fanins.size();
  const std::size_t nodes_room = n + n / 32 + 1024;
  OptScratch& s = rewrite_;
  s.values.reserve(nodes_room);
  s.out_types.clear();
  s.out_types.reserve(nodes_room);
  s.out_fanin_begin.clear();
  s.out_fanin_begin.reserve(nodes_room);
  s.out_fanin_count.clear();
  s.out_fanin_count.reserve(nodes_room);
  s.out_fanins.clear();
  s.out_fanins.reserve(edges + edges / 32 + 4096);
  flags_.reserve(nodes_room);
  refs_.reserve(nodes_room);
  position_.reserve(nodes_room);
  drivers_.clear();
  AreaGraphBuilder builder(s, &drivers_);
  RewriterT<AreaGraphBuilder> rewriter(input, s, builder);
  rewriter.run(kNoNode, false, nullptr, &flags_);
  base_.nodes = s.out_types.size();
  base_.fanins = s.out_fanins.size();
  base_.const0 = rewriter.const0();
  base_.const1 = rewriter.const1();

  // Reference counts = output ports + fanin edges of live nodes. The graph
  // is emitted fanins first, so a reverse sweep reaches every node after
  // all of its users.
  refs_.assign(base_.nodes, 0);
  for (const NodeId driver : drivers_) ++refs_[driver];
  base_.area = 0;
  for (std::size_t v = base_.nodes; v-- > 0;) {
    if (refs_[v] == 0) continue;
    if (!is_source(static_cast<GateType>(s.out_types[v]))) ++base_.area;
    for (const NodeId fanin : fanins(static_cast<NodeId>(v))) ++refs_[fanin];
  }

  fanouts_.build(input);
  tail_ = static_cast<NodeId>(input.size());
  const auto& order = input.topological_order();
  position_.resize(order.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) position_[order[i]] = i;
  index_ports(input);
}

void KeyConeAreas::index_ports(const Netlist& net) {
  const auto& outputs = net.outputs();
  driver_ports_.clear();
  for (std::uint32_t p = 0; p < outputs.size(); ++p) {
    driver_ports_.emplace_back(outputs[p].driver, p);
    flags_[outputs[p].driver] |= kPort;
  }
  std::sort(driver_ports_.begin(), driver_ports_.end());
}

void KeyConeAreas::patch(const Netlist& design,
                         const DecodeDelta& delta) {
  const std::size_t n = design.size();
  if (n >= kConstFlag / 2) {
    throw std::length_error("netlist optimizer: design too large");
  }
  input_ = &design;
  keys_ = design.key_inputs();
  rewrite_.values.resize(n, kUnset);
  flags_.resize(n, 0);
  patch_fanouts(delta);
  const auto& order = design.topological_order();
  position_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) position_[order[i]] = i;
  ports_moved_ = !delta.moved_ports.empty();
  if (ports_moved_) index_ports(design);

  // The design's differences are the walk's seeds: every appended node,
  // every rewired gate and every moved port. Only the rewired gates' changes
  // spread through the original's fanouts; the appended nodes are read by
  // appended nodes and rewired gates alone (what the checked delta says).
  Walk walk(*this);
  walk.set_quiet_from(tail_);
  for (NodeId y = tail_; y < n; ++y) {
    if (design.node(y).type == GateType::kInput) {
      walk.add_input(y);
    } else {
      walk.queue(y);
    }
  }
  for (const NodeId gate : delta.rewired) walk.queue(gate);
  walk.run();
  const std::size_t area = walk.settle(delta.moved_ports);

  // Keep the walk as the design's baseline, recording what it changed on
  // the family's.
  for (const auto& [port, driver] : new_drivers_) {
    design_drivers_.emplace_back(port, drivers_[port]);
    drivers_[port] = driver;
  }
  design_edits_.swap(edits_);
  for (const auto& [v, count] : journal_) refs_[v] &= ~kJournaled;
  design_journal_.swap(journal_);
  design_changed_.swap(changed_);
  base_ = {rewrite_.out_types.size(), rewrite_.out_fanins.size(), area,
           walk.const0(), walk.const1()};
  patched_ = true;
}

void KeyConeAreas::patch_fanouts(const DecodeDelta& delta) {
  const auto n0 = static_cast<NodeId>(family_->size());
  const auto n = static_cast<NodeId>(input_->size());
  touched_.clear();
  for (const auto& [driver, sink] : delta.added) {
    if (driver < n0) touched_.push_back(driver);
  }
  for (const auto& [driver, sink] : delta.cut) touched_.push_back(driver);
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()), touched_.end());

  // A touched original row is its family row minus the cut sinks, then its
  // added sinks; an appended node's row is its added sinks.
  patched_fanouts_.clear();
  auto add = delta.added.cbegin();
  auto cut = delta.cut.cbegin();
  for (const NodeId u : touched_) {
    const auto begin = static_cast<std::uint32_t>(patched_fanouts_.size());
    while (cut != delta.cut.cend() && cut->first < u) ++cut;
    const auto cut_end =
        std::find_if(cut, delta.cut.cend(),
                     [u](const auto& wire) { return wire.first != u; });
    for (const NodeId sink : fanouts_.fanouts(u)) {
      const bool gone = std::any_of(cut, cut_end, [sink](const auto& wire) {
        return wire.second == sink;
      });
      if (!gone) patched_fanouts_.push_back(sink);
    }
    cut = cut_end;
    while (add != delta.added.cend() && add->first < u) ++add;
    for (; add != delta.added.cend() && add->first == u; ++add) {
      patched_fanouts_.push_back(add->second);
    }
    row_patches_.push_back(
        {u, begin, static_cast<std::uint32_t>(patched_fanouts_.size())});
    flags_[u] |= kRowPatched;
  }
  tail_ = n0;
  tail_fanout_begin_.clear();
  while (add != delta.added.cend() && add->first < n0) ++add;
  for (NodeId y = n0; y < n; ++y) {
    tail_fanout_begin_.push_back(
        static_cast<std::uint32_t>(patched_fanouts_.size()));
    for (; add != delta.added.cend() && add->first == y; ++add) {
      patched_fanouts_.push_back(add->second);
    }
  }
  tail_fanout_begin_.push_back(
      static_cast<std::uint32_t>(patched_fanouts_.size()));
}

void KeyConeAreas::roll_back_design() {
  if (!patched_) return;
  OptScratch& s = rewrite_;
  for (const Edit& edit : design_edits_) {
    s.out_fanin_begin[edit.node] = edit.base.begin;
    s.out_fanin_count[edit.node] = edit.base.count;
  }
  design_edits_.clear();
  for (const auto& [v, count] : design_journal_) refs_[v] = count;
  design_journal_.clear();
  refs_.resize(family_level_.nodes);
  s.out_types.resize(family_level_.nodes);
  s.out_fanin_begin.resize(family_level_.nodes);
  s.out_fanin_count.resize(family_level_.nodes);
  s.out_fanins.resize(family_level_.fanins);
  for (const Changed& changed : design_changed_) {
    s.values[changed.node] = changed.value;
    flags_[changed.node] = static_cast<std::uint8_t>(
        (flags_[changed.node] & ~kOwn) | (changed.own ? kOwn : 0));
  }
  design_changed_.clear();
  for (const auto& [port, driver] : design_drivers_) drivers_[port] = driver;
  design_drivers_.clear();
  const std::size_t n0 = family_->size();
  s.values.resize(n0);
  flags_.resize(n0);
  for (const RowPatch& row : row_patches_) flags_[row.node] &= ~kRowPatched;
  row_patches_.clear();
  tail_ = static_cast<NodeId>(n0);
  if (ports_moved_) {
    index_ports(*family_);
    ports_moved_ = false;
  }
  input_ = family_;
  base_ = family_level_;
  patched_ = false;
}

void KeyConeAreas::roll_back_hypothesis() {
  OptScratch& s = rewrite_;
  for (const auto& [v, count] : journal_) refs_[v] = count;
  journal_.clear();
  refs_.resize(base_.nodes);
  for (const Edit& edit : edits_) {
    s.out_fanin_begin[edit.node] = edit.base.begin;
    s.out_fanin_count[edit.node] = edit.base.count;
  }
  edits_.clear();
  s.out_types.resize(base_.nodes);
  s.out_fanin_begin.resize(base_.nodes);
  s.out_fanin_count.resize(base_.nodes);
  s.out_fanins.resize(base_.fanins);
  for (const Changed& changed : changed_) {
    s.values[changed.node] = changed.value;
    flags_[changed.node] = static_cast<std::uint8_t>(
        (flags_[changed.node] & ~kOwn) | (changed.own ? kOwn : 0));
  }
  changed_.clear();
}

std::span<const NodeId> KeyConeAreas::fanouts(NodeId v) const {
  if (v >= tail_) {
    const std::uint32_t begin = tail_fanout_begin_[v - tail_];
    return {patched_fanouts_.data() + begin,
            tail_fanout_begin_[v - tail_ + 1] - begin};
  }
  if ((flags_[v] & kRowPatched) == 0) return fanouts_.fanouts(v);
  const RowPatch& row = *std::lower_bound(
      row_patches_.begin(), row_patches_.end(), v,
      [](const RowPatch& patch, NodeId node) { return patch.node < node; });
  return {patched_fanouts_.data() + row.begin, row.end - row.begin};
}

std::span<const NodeId> KeyConeAreas::fanins(NodeId v) const {
  const OptScratch& s = rewrite_;
  return {s.out_fanins.data() + s.out_fanin_begin[v], s.out_fanin_count[v]};
}

std::size_t KeyConeAreas::ref(NodeId root) {
  const OptScratch& s = rewrite_;
  std::size_t born = 0;
  stack_.assign(1, root);
  while (!stack_.empty()) {
    const NodeId v = stack_.back();
    stack_.pop_back();
    journal(v);
    if ((refs_[v]++ & ~kJournaled) != 0) continue;
    if (!is_source(static_cast<GateType>(s.out_types[v]))) ++born;
    const auto in = fanins(v);
    stack_.insert(stack_.end(), in.begin(), in.end());
  }
  return born;
}

std::size_t KeyConeAreas::deref(NodeId root) {
  const OptScratch& s = rewrite_;
  std::size_t died = 0;
  stack_.assign(1, root);
  while (!stack_.empty()) {
    const NodeId v = stack_.back();
    stack_.pop_back();
    journal(v);
    assert((refs_[v] & ~kJournaled) != 0);
    if ((--refs_[v] & ~kJournaled) != 0) continue;
    if (!is_source(static_cast<GateType>(s.out_types[v]))) ++died;
    const auto in = fanins(v);
    stack_.insert(stack_.end(), in.begin(), in.end());
  }
  return died;
}

void KeyConeAreas::journal(NodeId v) {
  // Nodes the walk appended vanish on rollback; a baseline count is saved
  // on its first change only.
  if (v >= base_.nodes || (refs_[v] & kJournaled) != 0) return;
  journal_.emplace_back(v, refs_[v]);
  refs_[v] |= kJournaled;
}

std::size_t KeyConeAreas::area(std::size_t bit, bool value) {
  if (bit >= keys_.size()) {
    throw std::invalid_argument("KeyConeAreas::area: bit out of range");
  }
  Walk walk(*this);
  walk.mark_dirty(keys_[bit], pack_const(value), /*own=*/false);
  walk.run();
  const std::size_t area = walk.settle({});
  roll_back_hypothesis();
  return area;
}

}  // namespace autolock::netlist
