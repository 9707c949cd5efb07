#include "locking/decode_topo.hpp"

#include <algorithm>
#include <stdexcept>

namespace autolock::lock {

using netlist::NodeId;

void DecodeTopo::reset(const netlist::CsrFanins& base,
                       const std::vector<std::uint64_t>& seed_ranks,
                       std::uint64_t context_token) {
  if (context_token != 0 && context_token == last_token_ && journal_ok_) {
    // Same family, intact journal: restore the seed state in O(touched)
    // instead of O(V + E). Undo base-edge patches in reverse (a slot
    // patched twice unwinds through its intermediate value), restore the
    // ranks that moved, and drop the appended tail.
    for (std::size_t i = edge_journal_.size(); i-- > 0;) {
      edges_[edge_journal_[i].first] = edge_journal_[i].second;
    }
    edge_journal_.clear();
    for (const NodeId v : dirty_nodes_) {
      if (v < base_nodes_) rank_[v] = seed_ranks[v];
    }
    dirty_nodes_.clear();
    dirty_.begin_epoch(base_nodes_);
    tail_offsets_.assign(1, 0);
    tail_edges_.clear();
    rank_.resize(base_nodes_);
    max_rank_ = seed_max_rank_;
    renumbers_ = 0;
    touched_ = 0;
    ++incremental_resets_;
    return;
  }
  base_nodes_ = base.node_count();
  base_offsets_ = &base.offsets();
  edges_.assign(base.edges().begin(), base.edges().end());
  tail_offsets_.assign(1, 0);
  tail_edges_.clear();
  rank_.assign(seed_ranks.begin(), seed_ranks.end());
  seed_max_rank_ = 0;
  for (const std::uint64_t r : rank_) seed_max_rank_ = std::max(seed_max_rank_, r);
  max_rank_ = seed_max_rank_;
  renumbers_ = 0;
  touched_ = 0;
  last_token_ = context_token;
  journal_ok_ = context_token != 0;
  edge_journal_.clear();
  dirty_nodes_.clear();
  dirty_.begin_epoch(base_nodes_);
}

void DecodeTopo::order_into(const std::vector<netlist::NodeId>& seed_order,
                            const std::vector<std::uint64_t>& seed_order_ranks,
                            const std::vector<std::uint32_t>& seed_pos,
                            std::vector<netlist::NodeId>& out) {
  // Two sorted-by-(rank, id) streams merge into the full order:
  //   - seed_order minus the rank-dirty nodes. Non-dirty base ranks still
  //     equal their seeds, so the stream stays sorted; after a renumber the
  //     re-spacing preserves relative order, so it stays monotone too.
  //   - the dirty lane: base nodes whose rank moved plus every appended
  //     node, sorted here — O(D log D) for D touched nodes.
  dirty_sorted_.clear();
  for (const NodeId v : dirty_nodes_) {
    if (v < base_nodes_) dirty_sorted_.emplace_back(rank_[v], v);
  }
  for (std::size_t v = base_nodes_; v < node_count(); ++v) {
    dirty_sorted_.emplace_back(rank_[v], static_cast<NodeId>(v));
  }
  std::sort(dirty_sorted_.begin(), dirty_sorted_.end());
  out.clear();
  out.reserve(node_count());
  std::size_t d = 0;
  const std::size_t nd = dirty_sorted_.size();
  if (renumbers_ == 0) {
    // No renumber this decode: every non-dirty base rank still equals its
    // seed, so the base lane's merge keys come from the position-aligned
    // seed arrays and the skip test from position-marked flags — the whole
    // merge reads memory in seed-order positions, sequentially. (After a
    // renumber the current ranks live on another scale than the seeds, so
    // the keys must be gathered from rank_ below instead.)
    skip_.begin_epoch(seed_order.size());
    for (const NodeId v : dirty_nodes_) {
      if (v < base_nodes_) skip_.mark(seed_pos[v]);
    }
    for (std::size_t i = 0; i < seed_order.size(); ++i) {
      if (skip_.marked(i)) continue;
      const NodeId v = seed_order[i];
      const std::uint64_t r = seed_order_ranks[i];
      while (d < nd && (dirty_sorted_[d].first < r ||
                        (dirty_sorted_[d].first == r &&
                         dirty_sorted_[d].second < v))) {
        out.push_back(dirty_sorted_[d++].second);
      }
      out.push_back(v);
    }
  } else {
    for (const NodeId v : seed_order) {
      if (dirty_.marked(v)) continue;
      const std::uint64_t r = rank_[v];
      while (d < nd && (dirty_sorted_[d].first < r ||
                        (dirty_sorted_[d].first == r &&
                         dirty_sorted_[d].second < v))) {
        out.push_back(dirty_sorted_[d++].second);
      }
      out.push_back(v);
    }
  }
  while (d < nd) out.push_back(dirty_sorted_[d++].second);
}

void DecodeTopo::mark_rank_dirty(NodeId v) {
  dirty_.ensure(v + 1);
  if (dirty_.try_mark(v)) dirty_nodes_.push_back(v);
}

void DecodeTopo::reserve(std::size_t base_nodes, std::size_t base_edges,
                         std::size_t extra_nodes) {
  const std::size_t nodes = base_nodes + extra_nodes;
  edges_.reserve(base_edges);
  tail_offsets_.reserve(extra_nodes + 1);
  tail_edges_.reserve(3 * extra_nodes);  // appended MUXes carry 3 fanins
  rank_.reserve(nodes);
  visited_.begin_epoch(nodes);
  stack_.reserve(64);
  window_.reserve(64);
}

bool DecodeTopo::ensure_order(NodeId node, NodeId pivot) {
  if (node == pivot) return false;
  if (rank_[node] < rank_[pivot]) return true;  // ordered => no path possible
  // Collect the window: node plus every dependency of node ranked at or
  // above pivot. If pivot turns up among them the prospective edge closes a
  // cycle; otherwise all of them must end up below pivot (node itself so
  // the new MUX fits between them, its dependencies so node stays above
  // them). Every fanin the rank prune rejects is external to the window,
  // so the DFS doubles as the scan for the relabel's lower bound `lo`.
  const std::uint64_t floor = rank_[pivot];
  std::uint64_t lo = 0;
  visited_.begin_epoch(node_count());
  stack_.clear();
  window_.clear();
  visited_.mark(node);
  stack_.push_back(node);
  window_.emplace_back(rank_[node], node);
  while (!stack_.empty()) {
    const NodeId v = stack_.back();
    stack_.pop_back();
    ++touched_;
    for (NodeId f : fanins(v)) {
      if (f == pivot) return false;
      const std::uint64_t r = rank_[f];
      if (r < floor) {
        if (r > lo) lo = r;
        continue;
      }
      if (visited_.try_mark(f)) {
        stack_.push_back(f);
        window_.emplace_back(r, f);
      }
    }
  }
  relabel_window_below(pivot, lo);
  return true;
}

void DecodeTopo::demote_before(NodeId node, NodeId pivot) {
  if (rank_[node] < rank_[pivot]) return;
  if (!ensure_order(node, pivot)) {
    throw std::logic_error(
        "DecodeTopo::demote_before: pivot is a dependency (cycle check "
        "missing)");
  }
}

void DecodeTopo::relabel_window_below(NodeId pivot, std::uint64_t lo) {
  // Relabel in current relative order (rank, then id for unordered ties —
  // any tiebreak is a valid linearization; this one is deterministic).
  std::uint64_t floor = rank_[pivot];
  std::sort(window_.begin(), window_.end());
  for (int attempt = 0;; ++attempt) {
    // New ranks sit strictly between `lo` (the highest-ranked edge into the
    // window from outside it — by closure every such fanin already ranks
    // below pivot) and pivot.
    const std::uint64_t step = (floor - lo) / (window_.size() + 1);
    if (step == 0) {
      // Gap below pivot exhausted: re-space globally and retry (order and
      // window membership are rank-order-preserving, so nothing else moves).
      if (attempt != 0) {
        throw std::logic_error("DecodeTopo::relabel_window_below: no space");
      }
      renumber();
      floor = rank_[pivot];
      lo = 0;
      for (const auto& entry : window_) {
        for (NodeId f : fanins(entry.second)) {
          if (!visited_.marked(f)) lo = std::max(lo, rank_[f]);
        }
      }
      continue;
    }
    touched_ += window_.size();
    for (std::size_t i = 0; i < window_.size(); ++i) {
      mark_rank_dirty(window_[i].second);
      rank_[window_[i].second] = lo + (i + 1) * step;
    }
    return;
  }
}

void DecodeTopo::renumber() {
  // Every rank moves, so the seed-restore journal can no longer reproduce
  // the reset state: force the next reset onto the full-copy path. The
  // derived order stays exact — order_into falls back to a full sort of
  // the dirty lane (renumber preserves relative (rank, id) order, so the
  // merge against seed_order remains monotone).
  journal_ok_ = false;
  const std::size_t n = node_count();
  order_scratch_.resize(n);
  for (NodeId v = 0; v < n; ++v) order_scratch_[v] = v;
  std::sort(order_scratch_.begin(), order_scratch_.end(),
            [&](NodeId x, NodeId y) {
              return rank_[x] != rank_[y] ? rank_[x] < rank_[y] : x < y;
            });
  // Gap must exceed any window size so a post-renumber relabel always fits.
  const std::uint64_t gap = std::max<std::uint64_t>(kRankGap, n + 2);
  for (std::size_t i = 0; i < n; ++i) {
    rank_[order_scratch_[i]] = (i + 1) * gap;
  }
  max_rank_ = n * gap;
  touched_ += n;
  ++renumbers_;
}

void DecodeTopo::append_node(NodeId id, std::span<const NodeId> node_fanins,
                             std::uint64_t r) {
  if (id != node_count()) {
    throw std::logic_error("DecodeTopo::append_node: ids out of step");
  }
  for (NodeId f : node_fanins) tail_edges_.push_back(f);
  tail_offsets_.push_back(static_cast<std::uint32_t>(tail_edges_.size()));
  rank_.push_back(r);
  max_rank_ = std::max(max_rank_, r);
  ++touched_;
}

std::size_t DecodeTopo::patch_fanin(NodeId gate, NodeId old_fanin,
                                    NodeId new_fanin) {
  std::size_t replaced = 0;
  NodeId* begin;
  NodeId* end;
  if (gate < base_nodes_) {
    begin = edges_.data() + (*base_offsets_)[gate];
    end = edges_.data() + (*base_offsets_)[gate + 1];
  } else {
    const std::uint32_t t = gate - static_cast<std::uint32_t>(base_nodes_);
    begin = tail_edges_.data() + tail_offsets_[t];
    end = tail_edges_.data() + tail_offsets_[t + 1];
  }
  const bool journal = gate < base_nodes_;
  for (NodeId* f = begin; f != end; ++f) {
    if (*f == old_fanin) {
      if (journal) {
        // Base-edge slots must be restorable by the incremental reset; tail
        // slots are simply truncated with their nodes.
        edge_journal_.emplace_back(
            static_cast<std::uint32_t>(f - edges_.data()), *f);
      }
      *f = new_fanin;
      ++replaced;
    }
  }
  return replaced;
}

void DecodeTopo::insert_mux_pair(NodeId f_i, NodeId f_j, NodeId g_i,
                                 NodeId g_j, NodeId a0, NodeId a1, NodeId sel,
                                 NodeId m1, NodeId m2) {
  // After these, both drivers rank strictly below both gates (the caller's
  // cycle checks guarantee neither gate is a dependency of a driver).
  demote_before(f_j, g_i);
  demote_before(f_i, g_j);
  for (int attempt = 0;; ++attempt) {
    const std::uint64_t low = std::max(rank_[f_i], rank_[f_j]);
    const std::uint64_t high = std::min(rank_[g_i], rank_[g_j]);
    const std::uint64_t step = (high - low) / 4;
    if (step == 0) {
      if (attempt != 0) {
        throw std::logic_error("DecodeTopo::insert_mux_pair: no rank space");
      }
      renumber();
      continue;
    }
    append_node(sel, {}, low + step);
    append_node(m1, {sel, a0, a1}, low + 2 * step);
    append_node(m2, {sel, a1, a0}, low + 3 * step);
    break;
  }
  if (patch_fanin(g_i, f_i, m1) == 0 || patch_fanin(g_j, f_j, m2) == 0) {
    throw std::logic_error("DecodeTopo::insert_mux_pair: edge not mirrored");
  }
}

void DecodeTopo::insert_rll_gate(NodeId driver, NodeId sink, NodeId key_in,
                                 NodeId gate) {
  // The edge driver -> sink exists, so rank(driver) < rank(sink) strictly;
  // the key input and key gate slot into that gap.
  for (int attempt = 0;; ++attempt) {
    const std::uint64_t low = rank_[driver];
    const std::uint64_t high = rank_[sink];
    const std::uint64_t step = (high - low) / 3;
    if (step == 0) {
      if (attempt != 0) {
        throw std::logic_error("DecodeTopo::insert_rll_gate: no rank space");
      }
      renumber();
      continue;
    }
    append_node(key_in, {}, low + step);
    append_node(gate, {key_in, driver}, low + 2 * step);
    break;
  }
  if (patch_fanin(sink, driver, gate) == 0) {
    throw std::logic_error("DecodeTopo::insert_rll_gate: edge not mirrored");
  }
}

DecodeTopo::BlockSlots DecodeTopo::block_slots(std::span<const NodeId> lows,
                                               NodeId sink,
                                               std::size_t levels) {
  if (sink == netlist::kNoNode) {
    // No downstream constraint: the block sits above the whole graph.
    std::uint64_t base = max_rank_;
    for (const NodeId v : lows) base = std::max(base, rank_[v]);
    return {base, kRankGap};
  }
  for (int attempt = 0;; ++attempt) {
    std::uint64_t low = 0;
    for (const NodeId v : lows) low = std::max(low, rank_[v]);
    const std::uint64_t high = rank_[sink];
    const std::uint64_t step = high > low ? (high - low) / (levels + 1) : 0;
    if (step == 0) {
      if (attempt != 0) {
        throw std::logic_error("DecodeTopo::block_slots: no rank space");
      }
      renumber();
      continue;
    }
    return {low, step};
  }
}

}  // namespace autolock::lock
