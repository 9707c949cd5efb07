// Lock-site primitives for MUX-based locking.
//
// A MUX gene (locking/gene.hpp) names a *locality* {f_i, f_j, g_i, g_j, k}
// in the original netlist: f_i currently drives g_i, f_j currently drives
// g_j, and a key-controlled MUX pair will be inserted so that a wrong key
// swaps the two paths. SiteContext validates and samples such genes against
// one original netlist; ReachScratch is the per-worker state the checks and
// the decode reuse.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "locking/decode_topo.hpp"
#include "locking/gene.hpp"
#include "netlist/netlist.hpp"
#include "util/epoch_flags.hpp"
#include "util/rng.hpp"

namespace autolock::lock {

/// Reusable per-worker decode state: DFS marks for reachability / cycle
/// checks (every site-validity query otherwise allocates an O(V) visited
/// vector; decode repairs and GA mutations run hundreds per genotype), the
/// decode-local dynamic topological order, the buffer for the merged
/// cache-priming topological order, the warm decode's delta storage, and
/// the interned ids of the decode-generated names. It holds no state that
/// ties it to a design: whether a decode is warm is the design's own
/// business (lock::replay_records).
struct ReachScratch {
  util::EpochFlags visited;
  std::vector<netlist::NodeId> stack;
  /// Working-netlist ranks + CSR fanin mirror for the incremental cycle
  /// checks; apply_genes reseeds it from the SiteContext per decode. The
  /// ranks are a decode-local overlay — nothing in the Netlist itself
  /// refers to them.
  DecodeTopo topo;
  /// The decode-final topological order DecodeTopo::order_into merges and
  /// the decode primes the design's traversal cache with.
  std::vector<netlist::NodeId> topo_order;
  /// The previous design's decode delta, which the warm decode undoes
  /// (see apply_genotype_into); storage only, refilled per decode.
  DecodeDelta delta;
  /// key_names[t] = interned {keyinput<t>, keymux<t>a, keymux<t>b,
  /// keyxor<t>}, built lazily against `key_name_table` (and rebuilt if the
  /// scratch moves to a different design family). With the cache warm,
  /// apply_genotype_into never builds a name string. Holding the shared_ptr
  /// keeps the table alive, so the identity check can never be fooled by a
  /// new family's table reusing a dead table's address.
  std::shared_ptr<const netlist::NameTable> key_name_table;
  std::vector<std::array<netlist::NameId, 4>> key_names;
  /// Internal-splice candidate wires for anti-SAT gene decode (rebuilt per
  /// gene — the pool depends on the working netlist at that point).
  std::vector<std::pair<netlist::NodeId, netlist::NodeId>> splice_pool;
  /// Fanin-id assembly buffer for appended n-ary block gates.
  std::vector<netlist::NodeId> gene_fanins;
};

/// Reusable context for validating/sampling sites against one original
/// netlist (precomputes fanouts and caches reachability queries).
class SiteContext {
 public:
  explicit SiteContext(const netlist::Netlist& original);

  const netlist::Netlist& original() const noexcept { return *original_; }

  /// Deduplicated, ascending fanouts of `v` in the original netlist (a CSR
  /// built at construction, so sampling and reachability walk contiguous
  /// spans).
  std::span<const netlist::NodeId> fanouts(netlist::NodeId v) const noexcept {
    return {fanout_edges_.data() + fanout_offsets_[v],
            fanout_offsets_[v + 1] - fanout_offsets_[v]};
  }

  /// Structural validity of MUX gene `site` against the ORIGINAL netlist:
  ///  - all four nodes exist; f_i != f_j;
  ///  - g_i is a fanout of f_i and g_j a fanout of f_j;
  ///  - neither g_i nor g_j is a primary-output-only pseudo node (always true
  ///    here since outputs reference gates);
  ///  - inserting the cross edges keeps the graph acyclic:
  ///    f_j must not be reachable from g_i, f_i not reachable from g_j.
  /// (Pairwise interactions between multiple sites are re-checked at decode
  /// time against the working netlist.)
  bool structurally_valid(const Gene& site) const;

  /// Scratch-reusing variant (identical verdicts, no allocation once warm).
  bool structurally_valid(const Gene& site, ReachScratch& scratch) const;

  /// True iff MUX gene `site`'s two edges (f_i,g_i) and (f_j,g_j) are
  /// disjoint from the edges of every MUX gene in `taken` (no edge may be
  /// MUX-locked twice). RLL and anti-SAT genes in `taken` are skipped.
  static bool edges_available(const Gene& site, const Genotype& taken);

  /// Samples a uniformly random structurally-valid MUX gene whose edges do
  /// not collide with the MUX genes of `taken`. Returns false if none was
  /// found within the attempt budget (tiny or saturated circuits).
  bool sample_site(util::Rng& rng, const Genotype& taken, Gene& out) const;

  /// Scratch-reusing variant (identical sampling stream for a given rng).
  bool sample_site(util::Rng& rng, const Genotype& taken, Gene& out,
                   ReachScratch& scratch) const;

  /// All gates that have at least one gate fanout (candidate f nodes).
  const std::vector<netlist::NodeId>& candidate_drivers() const noexcept {
    return candidate_drivers_;
  }

  /// Lockable single wires of the original netlist as (driver, sink gate)
  /// pairs, each listed once — the RLL gene domain. Excludes constant
  /// drivers (locking a constant leaks the key bit) and deduplicates
  /// multi-slot fanins (replace_fanin rewires every duplicate slot at
  /// once). Built lazily on first use; thread-safe.
  const std::vector<std::pair<netlist::NodeId, netlist::NodeId>>& rll_wires()
      const;

  /// The original's primary (non-key) inputs in creation order — the
  /// anti-SAT tap domain, cached once per context.
  const std::vector<netlist::NodeId>& primary_inputs() const noexcept {
    return primary_inputs_;
  }

  /// CSR view of the original's fanin adjacency. DecodeTopo::reset copies
  /// its edge array as the decode-time working mirror.
  const netlist::CsrFanins& fanin_csr() const noexcept { return fanin_csr_; }

  /// Sparse seed ranks for the decode-local dynamic topological order: the
  /// original's longest-path levels spaced DecodeTopo::kRankGap apart.
  /// Levels (not dense topological positions) are deliberate: they tie
  /// every pair of nodes the edges do not order, which keeps the relabel
  /// windows of accepted site insertions small.
  const std::vector<std::uint64_t>& seed_ranks() const noexcept {
    return seed_ranks_;
  }

  /// The original's topological order (its cached topological_order(),
  /// sorted by (level, id) and so by (seed rank, id)) — the base stream
  /// DecodeTopo::order_into merges the decode's touched nodes into, so the
  /// decode-final topological order costs O(V) instead of a re-sort.
  const std::vector<netlist::NodeId>& seed_order() const noexcept {
    return seed_order_;
  }

  /// seed_order's merge keys, position-aligned: entry i is the seed rank of
  /// seed_order()[i]. Lets order_into's common case stream the base lane
  /// sequentially instead of gathering rank[v] per node — at a million
  /// nodes those random reads were the last design-sized per-decode cost.
  const std::vector<std::uint64_t>& seed_order_ranks() const noexcept {
    return seed_order_ranks_;
  }

  /// Inverse of seed_order: seed_pos()[v] is the position of node v in
  /// seed_order(). order_into marks the decode's dirty nodes by position so
  /// the skip test during the merge is a sequential read too.
  const std::vector<std::uint32_t>& seed_pos() const noexcept {
    return topo_rank_;
  }

  /// Process-unique identity of this context's (fanin_csr, seed_ranks)
  /// pair. apply_genes hands it to DecodeTopo::reset so consecutive decodes
  /// against the same context take the incremental O(touched) rebind.
  std::uint64_t decode_token() const noexcept { return decode_token_; }

 private:
  bool reaches(netlist::NodeId from, netlist::NodeId target,
               ReachScratch& scratch) const;

  const netlist::Netlist* original_;
  /// The original's cached topological order (not a copy: the original
  /// outlives this context and is never mutated while it is in use).
  const std::vector<netlist::NodeId>& seed_order_;
  /// CSR of the original's deduplicated fanout lists.
  std::vector<std::uint32_t> fanout_offsets_;
  std::vector<netlist::NodeId> fanout_edges_;
  std::vector<netlist::NodeId> candidate_drivers_;
  std::vector<netlist::NodeId> primary_inputs_;
  mutable std::once_flag rll_wires_once_;
  mutable std::vector<std::pair<netlist::NodeId, netlist::NodeId>> rll_wires_;
  /// Position of every node in seed_order_ (seed_pos()). A forward path
  /// from `from` to `target` can only pass through nodes whose rank lies
  /// strictly between the endpoints' ranks, which bounds every reachability
  /// DFS (the original netlist is immutable, so the ranks never go stale).
  std::vector<std::uint32_t> topo_rank_;
  netlist::CsrFanins fanin_csr_;
  std::vector<std::uint64_t> seed_ranks_;
  std::vector<std::uint64_t> seed_order_ranks_;
  std::uint64_t decode_token_ = 0;
};

}  // namespace autolock::lock
