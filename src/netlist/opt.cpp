#include "netlist/opt.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
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
  /// `const0`/`const1` seed the constant-node cache: a cone rewrite reuses
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
  block_ = kNone;
  cone_bit_ = kNone;

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

  // Reference counts = output ports + fanin edges of live nodes. While
  // base_nodes_ is 0, ref() journals nothing and reads no overlay.
  journal_.clear();
  base_nodes_ = 0;
  refs_.assign(s.out_types.size(), 0);
  base_area_ = 0;
  for (const NodeId driver : drivers_) base_area_ += ref(driver);
  base_nodes_ = s.out_types.size();
  base_fanins_ = s.out_fanins.size();
  edited_.assign(base_nodes_, false);
}

void KeyConeAreas::load_cone(std::size_t bit) {
  const std::size_t block = bit / kBlockKeys;
  if (block != block_) load_block(block);
  const std::size_t j = bit % kBlockKeys;
  cone_ = std::span<const NodeId>(cone_nodes_)
              .subspan(cone_begin_[j], cone_begin_[j + 1] - cone_begin_[j]);
  cone_ports_ = std::span<const std::uint32_t>(cone_port_list_)
                    .subspan(port_begin_[j], port_begin_[j + 1] - port_begin_[j]);
  cone_bit_ = bit;

  // A hypothesis appends at most one node per cone node (plus the two
  // constants) and no more fanins than the cone has: reserve that once so
  // the appends never reallocate the baseline.
  OptScratch& s = rewrite_;
  const std::size_t max_nodes = base_nodes_ + cone_.size() + 2;
  s.out_types.reserve(max_nodes);
  s.out_fanin_begin.reserve(max_nodes + 1);
  s.out_fanins.reserve(base_fanins_ + cone_fanins_[j]);
  refs_.reserve(max_nodes);
}

void KeyConeAreas::load_block(std::size_t block) {
  const Netlist& input = *input_;
  const auto& order = input.topological_order();
  // One topological pass: a node is in key j's cone iff it is key j or one
  // of its fanins is in the cone. The same pass counts each cone's nodes
  // and fanins, and a second pass over the masks alone splits the block's
  // cones into per-bit runs (CSR by bit), each in topological order.
  masks_.assign(input.size(), 0);
  const std::size_t first = block * kBlockKeys;
  const std::size_t width = std::min(kBlockKeys, keys_.size() - first);
  for (std::size_t j = 0; j < width; ++j) {
    masks_[keys_[first + j]] = static_cast<std::uint8_t>(1U << j);
  }
  cone_begin_.fill(0);
  cone_fanins_.fill(0);
  for (const NodeId v : order) {
    const auto& fanins = input.node(v).fanins;
    std::uint8_t mask = masks_[v];
    for (const NodeId fanin : fanins) mask |= masks_[fanin];
    masks_[v] = mask;
    for (unsigned m = mask; m != 0; m &= m - 1) {
      const int j = std::countr_zero(m);
      ++cone_begin_[j + 1];
      cone_fanins_[j] += fanins.size();
    }
  }
  for (std::size_t j = 0; j < kBlockKeys; ++j) {
    cone_begin_[j + 1] += cone_begin_[j];
  }
  cone_nodes_.resize(cone_begin_[kBlockKeys]);
  std::array<std::size_t, kBlockKeys> fill = {};
  std::copy(cone_begin_.begin(), cone_begin_.end() - 1, fill.begin());
  for (const NodeId v : order) {
    for (unsigned m = masks_[v]; m != 0; m &= m - 1) {
      cone_nodes_[fill[std::countr_zero(m)]++] = v;
    }
  }
  const auto& ports = input.outputs();
  port_begin_.fill(0);
  for (const auto& port : ports) {
    for (unsigned m = masks_[port.driver]; m != 0; m &= m - 1) {
      ++port_begin_[std::countr_zero(m) + 1];
    }
  }
  for (std::size_t j = 0; j < kBlockKeys; ++j) {
    port_begin_[j + 1] += port_begin_[j];
  }
  cone_port_list_.resize(port_begin_[kBlockKeys]);
  std::copy(port_begin_.begin(), port_begin_.end() - 1, fill.begin());
  for (std::uint32_t p = 0; p < ports.size(); ++p) {
    for (unsigned m = masks_[ports[p].driver]; m != 0; m &= m - 1) {
      cone_port_list_[fill[std::countr_zero(m)]++] = p;
    }
  }
  block_ = block;
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
  if (bit != cone_bit_) load_cone(bit);

  // Pin the key, then re-rewrite the cone nodes with a dirty fanin, in
  // topological order.
  OptScratch& s = rewrite_;
  EditBuilder builder(*this);
  RewriterT<EditBuilder> rewriter(*input_, s, builder, const0_, const1_);
  const auto mark_dirty = [&](NodeId v, PackedValue now) {
    changed_.emplace_back(v, s.values[v]);
    s.values[v] = now;
    flags_[v] |= kDirty;
  };
  mark_dirty(cone_.front(), pack_const(value));
  for (const NodeId v : cone_.subspan(1)) {
    const auto& in = input_->node(v).fanins;
    if (std::none_of(in.begin(), in.end(),
                     [&](NodeId f) { return (flags_[f] & kDirty) != 0; })) {
      continue;
    }
    const PackedValue was = s.values[v];
    builder.set_target((flags_[v] & kOwn) != 0 ? node_of(was) : kNoNode);
    const PackedValue now = rewriter.rewrite(v);
    if (now != was || (!is_const(now) && builder.edited_not(node_of(now)))) {
      mark_dirty(v, now);
    }
  }
  const auto& outputs = input_->outputs();
  new_drivers_.clear();
  for (const std::uint32_t p : cone_ports_) {
    const NodeId port_driver = outputs[p].driver;
    if ((flags_[port_driver] & kDirty) == 0) continue;
    const NodeId driver = rewriter.materialize(s.values[port_driver]);
    if (driver != drivers_[p]) new_drivers_.emplace_back(p, driver);
  }

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
