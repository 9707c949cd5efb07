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
// KeyConeAreas::EditBuilder edits that baseline per hypothesis. All assign
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
/// then appends each hypothesis' fresh nodes behind it. Output ports land
/// in `drivers` (null when the caller materializes them itself).
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
  NodeId not_input(NodeId id) const {
    return static_cast<GateType>(s_->out_types[id]) == GateType::kNot
               ? s_->out_fanins[s_->out_fanin_begin[id]]
               : kNoNode;
  }

 private:
  NodeId add_node(GateType type, const NodeId* fanins, std::size_t n) {
    const auto id = static_cast<NodeId>(s_->out_types.size());
    s_->out_types.push_back(static_cast<std::uint8_t>(type));
    s_->out_fanins.insert(s_->out_fanins.end(), fanins, fanins + n);
    s_->out_fanin_begin.push_back(
        static_cast<std::uint32_t>(s_->out_fanins.size()));
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
/// already in the hypothesis' journal.
constexpr std::uint32_t kJournaled = 1U << 31;

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

/// Output-graph builder of one hypothesis. A gate that the input node being
/// re-rewritten emitted in the baseline (the target), re-emitted with the
/// same type, is edited in place: its new fanins go to the overlay and its
/// id stays. Any other gate, and any constant, is appended behind the
/// baseline.
class KeyConeAreas::EditBuilder {
 public:
  explicit EditBuilder(KeyConeAreas& areas)
      : areas_(&areas), append_(areas.rewrite_, nullptr) {}

  /// The baseline node the next add_gate may edit; kNoNode for none.
  void set_target(NodeId node) noexcept { target_ = node; }

  NodeId add_const(bool b) { return append_.add_const(b); }

  NodeId add_gate(GateType type, const NodeId* fanins, std::size_t n) {
    KeyConeAreas& a = *areas_;
    if (target_ == kNoNode || type_of(target_) != type) {
      return append_.add_gate(type, fanins, n);
    }
    const auto base = a.base_fanins(target_);
    if (!std::equal(base.begin(), base.end(), fanins, fanins + n)) {
      assert(a.edits_.empty() || a.edits_.back().node < target_);
      a.edited_[target_] = true;
      const auto begin = static_cast<std::uint32_t>(a.edit_fanins_.size());
      a.edit_fanins_.insert(a.edit_fanins_.end(), fanins, fanins + n);
      a.edits_.push_back(
          {target_, begin, static_cast<std::uint32_t>(a.edit_fanins_.size()),
           /*applied=*/false, /*was_live=*/false});
    }
    return target_;
  }

  /// NOT(NOT) record, read through the overlay.
  NodeId not_input(NodeId id) const {
    if (type_of(id) != GateType::kNot) return kNoNode;
    const KeyConeAreas& a = *areas_;
    return a.is_edited(id) ? a.edit_fanins(a.edit_of(id))[0]
                           : a.base_fanins(id)[0];
  }

  /// True when `id` is a NOT whose fanin this hypothesis edited.
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

void KeyConeAreas::reset(const Netlist& input) {
  input_ = &input;
  keys_ = input.key_inputs();

  OptScratch& s = rewrite_;
  s.out_types.clear();
  s.out_fanins.clear();
  s.out_fanin_begin.assign(1, 0);
  drivers_.clear();
  AreaGraphBuilder builder(s, &drivers_);
  RewriterT<AreaGraphBuilder> rewriter(input, s, builder);
  rewriter.run(kNoNode, false, nullptr, &flags_);
  const0_ = rewriter.const0();
  const1_ = rewriter.const1();
  base_nodes_ = s.out_types.size();
  base_fanins_ = s.out_fanins.size();
  edited_.assign(base_nodes_, false);

  // Reference counts = output ports + fanin edges of live nodes. The graph
  // is emitted fanins first, so a reverse sweep reaches every node after
  // all of its users.
  refs_.assign(base_nodes_, 0);
  for (const NodeId driver : drivers_) ++refs_[driver];
  base_area_ = 0;
  for (std::size_t v = base_nodes_; v-- > 0;) {
    if (refs_[v] == 0) continue;
    if (!is_source(static_cast<GateType>(s.out_types[v]))) ++base_area_;
    for (const NodeId fanin : base_fanins(static_cast<NodeId>(v))) {
      ++refs_[fanin];
    }
  }

  fanouts_.build(input);
  const auto& order = input.topological_order();
  position_.resize(order.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) position_[order[i]] = i;
  const auto& outputs = input.outputs();
  driver_ports_.clear();
  for (std::uint32_t p = 0; p < outputs.size(); ++p) {
    driver_ports_.emplace_back(outputs[p].driver, p);
    flags_[outputs[p].driver] |= kPort;
  }
  std::sort(driver_ports_.begin(), driver_ports_.end());
}

std::span<const NodeId> KeyConeAreas::base_fanins(NodeId v) const {
  const OptScratch& s = rewrite_;
  return {s.out_fanins.data() + s.out_fanin_begin[v],
          s.out_fanin_begin[v + 1] - s.out_fanin_begin[v]};
}

std::span<const NodeId> KeyConeAreas::edit_fanins(const Edit& edit) const {
  return {edit_fanins_.data() + edit.begin, edit.end - edit.begin};
}

const KeyConeAreas::Edit& KeyConeAreas::edit_of(NodeId v) const {
  return *std::lower_bound(
      edits_.begin(), edits_.end(), v,
      [](const Edit& edit, NodeId node) { return edit.node < node; });
}

std::span<const NodeId> KeyConeAreas::fanins(NodeId v) const {
  if (is_edited(v)) {
    const Edit& edit = edit_of(v);
    if (edit.applied) return edit_fanins(edit);
  }
  return base_fanins(v);
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
  // Fresh nodes vanish on rollback; a baseline count is saved on its first
  // change only.
  if (v >= base_nodes_ || (refs_[v] & kJournaled) != 0) return;
  journal_.emplace_back(v, refs_[v]);
  refs_[v] |= kJournaled;
}

std::size_t KeyConeAreas::area(std::size_t bit, bool value) {
  if (bit >= keys_.size()) {
    throw std::invalid_argument("KeyConeAreas::area: bit out of range");
  }
  // Pin the key, then re-rewrite the nodes with a dirty fanin in
  // topological order: a node turning dirty queues its fanouts on a
  // min-heap of positions, and a node pops after all of its fanins.
  OptScratch& s = rewrite_;
  EditBuilder builder(*this);
  RewriterT<EditBuilder> rewriter(*input_, s, builder, const0_, const1_);
  const auto mark_dirty = [&](NodeId v, PackedValue now) {
    changed_.emplace_back(v, s.values[v]);
    s.values[v] = now;
    flags_[v] |= kDirty;
    for (const NodeId user : fanouts_.fanouts(v)) {
      if ((flags_[user] & kQueued) != 0) continue;
      flags_[user] |= kQueued;
      heap_.push_back(position_[user]);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
  };
  mark_dirty(keys_[bit], pack_const(value));
  const auto& order = input_->topological_order();
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const NodeId v = order[heap_.back()];
    heap_.pop_back();
    flags_[v] &= ~kQueued;
    const PackedValue was = s.values[v];
    builder.set_target((flags_[v] & kOwn) != 0 ? node_of(was) : kNoNode);
    const PackedValue now = rewriter.rewrite(v);
    if (now != was || (!is_const(now) && builder.edited_not(node_of(now)))) {
      mark_dirty(v, now);
    }
  }

  // Ports driven by dirty nodes, materialized in ascending port order.
  new_drivers_.clear();
  for (const auto& [v, was] : changed_) {
    if ((flags_[v] & kPort) == 0) continue;
    for (auto it = std::lower_bound(driver_ports_.begin(), driver_ports_.end(),
                                    std::pair{v, std::uint32_t{0}});
         it != driver_ports_.end() && it->first == v; ++it) {
      new_drivers_.emplace_back(it->second, v);
    }
  }
  std::sort(new_drivers_.begin(), new_drivers_.end());
  std::size_t kept = 0;
  for (const auto& [port, v] : new_drivers_) {
    const NodeId driver = rewriter.materialize(s.values[v]);
    if (driver != drivers_[port]) new_drivers_[kept++] = {port, driver};
  }
  new_drivers_.resize(kept);

  // Area delta along the changed edges: references first, then releases.
  refs_.resize(s.out_types.size(), 0);
  std::size_t area = base_area_;
  for (const auto& [port, driver] : new_drivers_) area += ref(driver);
  for (Edit& edit : edits_) {
    edit.was_live = (refs_[edit.node] & ~kJournaled) != 0;
    if (edit.was_live) {
      for (const NodeId fanin : edit_fanins(edit)) area += ref(fanin);
    }
    edit.applied = true;
  }
  for (const Edit& edit : edits_) {
    if (!edit.was_live) continue;
    for (const NodeId fanin : base_fanins(edit.node)) area -= deref(fanin);
  }
  for (const auto& [port, driver] : new_drivers_) area -= deref(drivers_[port]);

  // Roll back to the baseline.
  for (const auto& [v, count] : journal_) refs_[v] = count;
  journal_.clear();
  refs_.resize(base_nodes_);
  for (const Edit& edit : edits_) edited_[edit.node] = false;
  edits_.clear();
  edit_fanins_.clear();
  s.out_types.resize(base_nodes_);
  s.out_fanin_begin.resize(base_nodes_ + 1);
  s.out_fanins.resize(base_fanins_);
  for (const auto& [v, was] : changed_) {
    s.values[v] = was;
    flags_[v] &= ~kDirty;
  }
  changed_.clear();
  return area;
}

}  // namespace autolock::netlist
