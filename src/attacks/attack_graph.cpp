#include "attacks/attack_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace autolock::attack {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

void AttackGraph::build(const Netlist& locked) {
  locked_ = &locked;
  const std::size_t n = locked.size();
  present_.assign(n, true);

  // Identify key inputs (with their bit index = position among key inputs
  // in creation order) and key-MUX gates (MUX whose select is a key input).
  is_key_mux_.assign(n, false);
  bit_of_node_.assign(n, -1);
  int key_bit_count = 0;
  for (const NodeId v : locked.inputs()) {
    const auto& node = locked.node(v);
    if (node.is_key_input) {
      present_[v] = false;
      bit_of_node_[v] = key_bit_count++;
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    const auto& node = locked.node(v);
    if (node.type == GateType::kMux && !node.fanins.empty()) {
      const auto& sel = locked.node(node.fanins[0]);
      if (sel.type == GateType::kInput && sel.is_key_input) {
        is_key_mux_[v] = true;
        present_[v] = false;
      }
    }
  }

  // Adjacency (CSR) + positives over present nodes only. Degrees first,
  // then a prefix sum, then edge placement: a node's fanins fill its row
  // from the back, and its sinks arrive at the front through a per-row
  // cursor, in ascending order, a sink that lists it twice next to its
  // twin. So the front of row u holds u's positives in (driver, sink)
  // order: a counting sort on the driver, with the rows as buckets.
  adj_offsets_.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (!present_[v]) continue;
    for (const NodeId fanin : locked.node(v).fanins) {
      if (!present_[fanin]) continue;
      ++adj_offsets_[v + 1];
      ++adj_offsets_[fanin + 1];
    }
  }
  for (std::size_t v = 0; v < n; ++v) adj_offsets_[v + 1] += adj_offsets_[v];
  adj_edges_.resize(adj_offsets_[n]);
  cursor_.assign(adj_offsets_.begin(), adj_offsets_.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    if (!present_[v]) continue;
    std::uint32_t back = adj_offsets_[v + 1];
    for (const NodeId fanin : locked.node(v).fanins) {
      if (!present_[fanin]) continue;
      adj_edges_[--back] = fanin;
      adj_edges_[cursor_[fanin]++] = v;
    }
  }
  // Read each row's positives off its front, skipping repeats, then sort +
  // deduplicate the row, compacting the edge array in place (rows only ever
  // shrink, so the write cursor never overtakes a pending row).
  known_links_.clear();
  std::uint32_t write = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto row_begin = adj_edges_.begin() + adj_offsets_[v];
    const auto row_end = adj_edges_.begin() + adj_offsets_[v + 1];
    for (auto it = row_begin; it != adj_edges_.begin() + cursor_[v]; ++it) {
      if (it == row_begin || *it != it[-1]) {
        known_links_.push_back(CandidateLink{v, *it});
      }
    }
    std::sort(row_begin, row_end);
    const auto unique_end = std::unique(row_begin, row_end);
    const std::uint32_t new_begin = write;
    for (auto it = row_begin; it != unique_end; ++it) adj_edges_[write++] = *it;
    adj_offsets_[v] = new_begin;
  }
  adj_offsets_[n] = write;
  adj_edges_.resize(write);

  // Key-MUX sink rows (ascending, deduplicated — identical content to the
  // netlist's cached fanout rows for these nodes), collected in one
  // ascending pass over every fanin list instead of materializing the full
  // O(V) vector-of-vectors fanout cache just to read the key-MUX rows.
  // Sinks arrive in ascending v order; a mux listed twice in one fanin list
  // is deduplicated by scanning the (tiny) earlier operands.
  mux_slot_.assign(n, -1);
  std::int32_t mux_count = 0;
  for (NodeId m = 0; m < n; ++m) {
    if (is_key_mux_[m]) mux_slot_[m] = mux_count++;
  }
  mux_sink_offsets_.assign(mux_count + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    const auto& fi = locked.node(v).fanins;
    for (std::size_t i = 0; i < fi.size(); ++i) {
      const std::int32_t s = mux_slot_[fi[i]];
      if (s < 0) continue;
      bool dup = false;
      for (std::size_t j = 0; j < i && !dup; ++j) dup = fi[j] == fi[i];
      if (!dup) ++mux_sink_offsets_[s + 1];
    }
  }
  for (std::int32_t s = 0; s < mux_count; ++s) {
    mux_sink_offsets_[s + 1] += mux_sink_offsets_[s];
  }
  mux_sink_edges_.resize(mux_sink_offsets_[mux_count]);
  cursor_.assign(mux_sink_offsets_.begin(), mux_sink_offsets_.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    const auto& fi = locked.node(v).fanins;
    for (std::size_t i = 0; i < fi.size(); ++i) {
      const std::int32_t s = mux_slot_[fi[i]];
      if (s < 0) continue;
      bool dup = false;
      for (std::size_t j = 0; j < i && !dup; ++j) dup = fi[j] == fi[i];
      if (!dup) mux_sink_edges_[cursor_[s]++] = v;
    }
  }

  // Decision problems: group key-MUXes by their key input's bit index into
  // per-bit slots (replacing the historical std::map), then emit non-empty
  // slots in ascending bit order.
  if (slots_.size() < static_cast<std::size_t>(key_bit_count)) {
    slots_.resize(key_bit_count);
  }
  for (auto& slot : slots_) {
    slot.key_bit_index = -1;
    slot.if_zero.clear();
    slot.if_one.clear();
  }
  for (NodeId m = 0; m < n; ++m) {
    if (!is_key_mux_[m]) continue;
    const auto& mux = locked.node(m);
    const int bit = bit_of_node_[mux.fanins[0]];
    if (bit < 0) {
      throw std::logic_error("AttackGraph: key MUX select is not a key input");
    }
    const NodeId in0 = mux.fanins[1];
    const NodeId in1 = mux.fanins[2];
    if (!present_[in0] || !present_[in1]) {
      // A MUX fed by another key MUX (chained locking). Skip such
      // candidates: MuxLink cannot place them in the clean graph either.
      continue;
    }
    auto& problem = slots_[bit];
    problem.key_bit_index = bit;
    const std::int32_t slot = mux_slot_[m];
    for (std::uint32_t e = mux_sink_offsets_[slot];
         e < mux_sink_offsets_[slot + 1]; ++e) {
      const NodeId sink = mux_sink_edges_[e];
      if (!present_[sink]) continue;
      // Key value 0 selects in0 as the true driver of `sink`.
      problem.if_zero.push_back(CandidateLink{in0, sink});
      problem.if_one.push_back(CandidateLink{in1, sink});
    }
  }
  std::size_t emitted = 0;
  for (int bit = 0; bit < key_bit_count; ++bit) {
    auto& slot = slots_[bit];
    if (slot.key_bit_index < 0 || slot.if_zero.empty()) continue;
    if (problems_.size() <= emitted) problems_.emplace_back();
    KeyBitProblem& dst = problems_[emitted++];
    dst.key_bit_index = slot.key_bit_index;
    // Swap rather than move: the slot inherits the previous build's pair
    // storage, so neither side reallocates once the buffers are warm.
    dst.if_zero.swap(slot.if_zero);
    dst.if_one.swap(slot.if_one);
    slot.key_bit_index = -1;
  }
  problems_.resize(emitted);
}

std::vector<std::vector<NodeId>> AttackGraph::adjacency_lists() const {
  std::vector<std::vector<NodeId>> lists(present_.size());
  for (NodeId v = 0; v < present_.size(); ++v) {
    const auto row = neighbors(v);
    lists[v].assign(row.begin(), row.end());
  }
  return lists;
}

}  // namespace autolock::attack
