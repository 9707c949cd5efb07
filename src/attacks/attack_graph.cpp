#include "attacks/attack_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace autolock::attack {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

namespace {

/// True for a MUX whose select is a key input: absent from the view.
bool is_key_mux(const Netlist& locked, const netlist::Node& node) {
  if (node.type != GateType::kMux || node.fanins.empty()) return false;
  const auto& sel = locked.node(node.fanins[0]);
  return sel.type == GateType::kInput && sel.is_key_input;
}

}  // namespace

void AttackGraph::build(const Netlist& locked) {
  locked_ = &locked;
  base_ = &locked;
  base_version_ = locked.structural_version();
  patched_ = false;
  saved_rows_.clear();
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
  present_nodes_.clear();
  present_sinks_.clear();
  for (NodeId v = 0; v < n; ++v) {
    const auto& node = locked.node(v);
    if (is_key_mux(locked, node)) {
      is_key_mux_[v] = true;
      present_[v] = false;
    }
    if (!present_[v]) continue;
    present_nodes_.push_back(v);
    if (!node.fanins.empty()) present_sinks_.push_back(v);
  }

  // Adjacency (CSR) + positives over present nodes only. Degrees first,
  // then a prefix sum, then edge placement: a node's fanins fill its row
  // from the back, and its sinks arrive at the front through a per-row
  // cursor, in ascending order, a sink that lists it twice next to its
  // twin. So the front of row u holds u's positives in (driver, sink)
  // order: a counting sort on the driver, with the rows as buckets.
  // row_begin_ serves as the CSR offsets (n + 1 entries) until the end.
  std::vector<std::uint32_t>& offsets = row_begin_;
  offsets.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (!present_[v]) continue;
    for (const NodeId fanin : locked.node(v).fanins) {
      if (!present_[fanin]) continue;
      ++offsets[v + 1];
      ++offsets[fanin + 1];
    }
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  adj_edges_.resize(offsets[n]);
  cursor_.assign(offsets.begin(), offsets.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    if (!present_[v]) continue;
    std::uint32_t back = offsets[v + 1];
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
    const auto row_begin = adj_edges_.begin() + offsets[v];
    const auto row_end = adj_edges_.begin() + offsets[v + 1];
    for (auto it = row_begin; it != adj_edges_.begin() + cursor_[v]; ++it) {
      if (it == row_begin || *it != it[-1]) {
        known_links_.push_back(CandidateLink{v, *it});
      }
    }
    std::sort(row_begin, row_end);
    const auto unique_end = std::unique(row_begin, row_end);
    const std::uint32_t new_begin = write;
    for (auto it = row_begin; it != unique_end; ++it) adj_edges_[write++] = *it;
    offsets[v] = new_begin;
  }
  offsets[n] = write;
  adj_edges_.resize(write);
  row_size_.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    row_size_[v] = row_begin_[v + 1] - row_begin_[v];
  }
  row_begin_.pop_back();
  base_nodes_ = n;
  base_edges_ = write;
  base_present_nodes_ = present_nodes_.size();
  base_present_sinks_ = present_sinks_.size();

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
  begin_problems(key_bit_count);
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
  emit_problems(key_bit_count);
}

void AttackGraph::begin_problems(int key_bit_count) {
  if (slots_.size() < static_cast<std::size_t>(key_bit_count)) {
    slots_.resize(key_bit_count);
  }
  for (auto& slot : slots_) {
    slot.key_bit_index = -1;
    slot.if_zero.clear();
    slot.if_one.clear();
  }
}

void AttackGraph::emit_problems(int key_bit_count) {
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

bool AttackGraph::patch(const Netlist& design, const Netlist& original,
                        const netlist::DecodeDelta& delta) {
  if (!based_on(original)) return false;
  roll_back();
  if (apply_patch(design, original, delta)) return true;
  roll_back();
  return false;
}

void AttackGraph::roll_back() {
  if (!patched_) return;
  for (const SavedRow& row : saved_rows_) {
    row_begin_[row.node] = row.begin;
    row_size_[row.node] = row.size;
  }
  saved_rows_.clear();
  row_begin_.resize(base_nodes_);
  row_size_.resize(base_nodes_);
  adj_edges_.resize(base_edges_);
  present_.resize(base_nodes_);
  present_nodes_.resize(base_present_nodes_);
  present_sinks_.resize(base_present_sinks_);
  // Only a key-free base is ever patched, and it has no problems. The
  // patch's problem storage goes back to the slots for the next patch.
  for (KeyBitProblem& problem : problems_) {
    KeyBitProblem& slot = slots_[problem.key_bit_index];
    slot.if_zero.swap(problem.if_zero);
    slot.if_one.swap(problem.if_one);
  }
  problems_.clear();
  locked_ = base_;
  patched_ = false;
}

bool AttackGraph::apply_patch(const Netlist& locked, const Netlist& original,
                              const netlist::DecodeDelta& delta) {
  const std::size_t n0 = original.size();
  const std::size_t n = locked.size();
  // The base must be key-free (every node present), so the design's key
  // inputs are all in its tail; the delta must list this pair's wires.
  if (base_present_nodes_ != n0 || !delta.lists_wires(locked, original)) {
    return false;
  }

  // Tail nodes: key inputs (numbered in creation order) and key MUXes are
  // absent, everything else present. Original nodes stay present: a
  // rewired gate only ever reads new tail logic, never a key input.
  tail_present_.assign(n - n0, 1);
  tail_bit_.assign(n - n0, -1);
  int key_bit_count = 0;
  for (NodeId y = static_cast<NodeId>(n0); y < n; ++y) {
    const auto& node = locked.node(y);
    if (node.type == GateType::kInput && node.is_key_input) {
      tail_present_[y - n0] = 0;
      tail_bit_[y - n0] = key_bit_count++;
    } else if (is_key_mux(locked, node)) {
      tail_present_[y - n0] = 0;
    }
  }
  const auto present = [&](NodeId v) {
    return v < n0 || tail_present_[v - n0] != 0;
  };
  // The delta lists a tail wire once per fanin slot; the view has it once.
  const auto repeat = [&](std::vector<Wire>::const_iterator wire) {
    return wire != delta.added.cbegin() && *wire == wire[-1];
  };

  // The row entries the cut wires and the tail's present wires change.
  cut_entries_.clear();
  for (const auto& [driver, sink] : delta.cut) {
    cut_entries_.emplace_back(driver, sink);
    cut_entries_.emplace_back(sink, driver);
  }
  std::sort(cut_entries_.begin(), cut_entries_.end());
  added_entries_.clear();
  for (const auto& [driver, sink] : delta.added) {
    if (!present(driver) || !present(sink)) continue;
    added_entries_.emplace_back(driver, sink);
    added_entries_.emplace_back(sink, driver);
  }
  std::sort(added_entries_.begin(), added_entries_.end());
  added_entries_.erase(
      std::unique(added_entries_.begin(), added_entries_.end()),
      added_entries_.end());
  const std::size_t added_links = added_entries_.size() / 2;
  touched_.clear();
  for (const auto& [row, neighbour] : cut_entries_) touched_.push_back(row);
  for (const auto& [row, neighbour] : added_entries_) {
    if (row < n0) touched_.push_back(row);
  }
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());

  // From here on the view is written; roll_back() undoes all of it.
  patched_ = true;
  locked_ = &locked;
  present_.resize(n, true);
  for (NodeId y = static_cast<NodeId>(n0); y < n; ++y) {
    if (!present(y)) {
      present_[y] = false;
      continue;
    }
    present_nodes_.push_back(y);
    if (!locked.node(y).fanins.empty()) present_sinks_.push_back(y);
  }

  // Rows. A touched row is its base row minus the cut entries, then its
  // tail neighbours (which sort after every original id); a tail row is
  // its added entries. Both are appended after the base's rows, and the
  // touched rows' base extents are saved for the roll-back.
  std::size_t appended = added_entries_.size() - cut_entries_.size();
  for (const NodeId u : touched_) appended += row_size_[u];
  adj_edges_.resize(base_edges_ + appended);
  row_begin_.resize(n);
  row_size_.resize(n);
  std::uint32_t write = static_cast<std::uint32_t>(base_edges_);
  auto cut = cut_entries_.cbegin();
  auto add = added_entries_.cbegin();
  for (const NodeId u : touched_) {
    saved_rows_.push_back({u, row_begin_[u], row_size_[u]});
    const std::uint32_t begin = write;
    for (std::uint32_t e = row_begin_[u]; e < row_begin_[u] + row_size_[u];
         ++e) {
      const NodeId x = adj_edges_[e];
      if (cut != cut_entries_.cend() && cut->first == u && cut->second == x) {
        ++cut;
        continue;
      }
      adj_edges_[write++] = x;
    }
    if (cut != cut_entries_.cend() && cut->first == u) return false;
    for (; add != added_entries_.cend() && add->first == u; ++add) {
      adj_edges_[write++] = add->second;
    }
    row_begin_[u] = begin;
    row_size_[u] = write - begin;
  }
  for (NodeId y = static_cast<NodeId>(n0); y < n; ++y) {
    row_begin_[y] = write;
    for (; add != added_entries_.cend() && add->first == y; ++add) {
      adj_edges_[write++] = add->second;
    }
    row_size_[y] = write - row_begin_[y];
  }
  if (cut != cut_entries_.cend() || add != added_entries_.cend() ||
      write != adj_edges_.size()) {
    return false;
  }

  // Positives: the base's runs between changed drivers are copied whole; a
  // changed driver's run loses its cut sinks and gains its present tail
  // sinks (which sort last); tail drivers follow in id order.
  patched_links_.resize(known_links_.size() - delta.cut.size() + added_links);
  std::size_t link = 0;
  auto base_link = known_links_.cbegin();
  const auto base_end = known_links_.cend();
  auto cut_wire = delta.cut.cbegin();
  auto tail_wire = delta.added.cbegin();
  const auto emit_tail_sinks = [&](NodeId driver) {
    for (; tail_wire != delta.added.cend() && tail_wire->first == driver;
         ++tail_wire) {
      if (!repeat(tail_wire) && present(driver) &&
          present(tail_wire->second)) {
        patched_links_[link++] = CandidateLink{driver, tail_wire->second};
      }
    }
  };
  for (const NodeId u : touched_) {
    const auto run = std::lower_bound(
        base_link, base_end, u,
        [](const CandidateLink& l, NodeId driver) { return l.u < driver; });
    link = std::copy(base_link, run, patched_links_.begin() + link) -
           patched_links_.begin();
    for (base_link = run; base_link != base_end && base_link->u == u;
         ++base_link) {
      if (cut_wire != delta.cut.cend() && cut_wire->first == u &&
          cut_wire->second == base_link->v) {
        ++cut_wire;
        continue;
      }
      patched_links_[link++] = *base_link;
    }
    while (tail_wire != delta.added.cend() && tail_wire->first < u) {
      ++tail_wire;
    }
    emit_tail_sinks(u);
  }
  link = std::copy(base_link, base_end, patched_links_.begin() + link) -
         patched_links_.begin();
  while (tail_wire != delta.added.cend() && tail_wire->first < n0) ++tail_wire;
  for (NodeId y = static_cast<NodeId>(n0); y < n; ++y) emit_tail_sinks(y);
  if (cut_wire != delta.cut.cend() || link != patched_links_.size()) {
    return false;
  }

  // Decision problems: every key MUX is in the tail, and so are all its
  // sinks' wires from it.
  begin_problems(key_bit_count);
  for (NodeId m = static_cast<NodeId>(n0); m < n; ++m) {
    const auto& mux = locked.node(m);
    if (present(m) || mux.type != GateType::kMux) continue;
    const int bit = tail_bit_[mux.fanins[0] - n0];
    const NodeId in0 = mux.fanins[1];
    const NodeId in1 = mux.fanins[2];
    if (!present(in0) || !present(in1)) continue;  // chained key MUX
    auto& problem = slots_[bit];
    problem.key_bit_index = bit;
    for (auto wire = std::lower_bound(delta.added.cbegin(), delta.added.cend(),
                                      Wire{m, 0});
         wire != delta.added.cend() && wire->first == m; ++wire) {
      if (repeat(wire) || !present(wire->second)) continue;
      problem.if_zero.push_back(CandidateLink{in0, wire->second});
      problem.if_one.push_back(CandidateLink{in1, wire->second});
    }
  }
  emit_problems(key_bit_count);
  return true;
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
