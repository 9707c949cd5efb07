// Netlist → CNF (Tseitin) encoding, miter construction, and equivalence
// checking.
//
// encode_netlist assigns one SAT variable per netlist node, with key inputs
// as free variables: the SAT attack solves for them. check_equivalent does
// not encode netlists directly. It folds both sides, under their fixed keys,
// into one structurally hashed graph and hands the SAT solver only the
// output pairs that hashing did not merge. check_unlocks first tries to
// prove a decoded design from its difference to the original alone.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"
#include "sat/solver.hpp"

namespace autolock::sat {

/// Mapping from a netlist's nodes to solver variables after encoding.
struct Encoding {
  std::vector<Var> node_var;          // indexed by NodeId
  std::vector<Var> primary_input_var; // in primary_inputs() order
  std::vector<Var> key_var;           // in key_inputs() order
  std::vector<Var> output_var;        // in outputs() order
};

/// Encodes the functional constraints of `netlist` into `solver`, with
/// fresh variables for its key inputs.
/// If `share_primary_inputs` is provided (same length as the netlist's
/// primary inputs), those existing variables are reused instead of fresh
/// ones — this is how a miter shares inputs across two circuit copies.
Encoding encode_netlist(
    Solver& solver, const netlist::Netlist& netlist,
    const std::optional<std::vector<Var>>& share_primary_inputs = std::nullopt);

/// Builds a miter over two encodings that already share primary inputs:
/// returns a variable that is true iff some output differs.
Var make_miter(Solver& solver, const Encoding& a, const Encoding& b);

/// Encode-once DIP constraint template for the incremental SAT attack.
///
/// The netlist is split once (at construction) into the key-dependent cone
/// — nodes forward-reachable from key inputs — and the key-independent
/// remainder. Per DIP, bind_dip() *simulates* the remainder to constants
/// exactly once (that work is shared by every circuit copy), and
/// encode_copy() then encodes only the cone per key-variable set, with
/// constant folding and literal aliasing: a cone gate whose fanins folded
/// to constants or a single literal costs zero fresh variables and zero
/// clauses. Compared with encoding a fresh pinned copy of the whole
/// netlist per DIP, the per-DIP formula growth is proportional to the key
/// cone, not the circuit.
///
/// bind_dip() doubles as the oracle consistency check: a key-independent
/// output that already contradicts the response proves NO key can match
/// (the oracle does not implement any completion of the locked circuit).
class ConeTemplate {
 public:
  /// `netlist` must outlive the template.
  explicit ConeTemplate(const netlist::Netlist& netlist);

  /// Nodes in the key-dependent cone (encoded per copy per DIP).
  std::size_t cone_size() const noexcept { return cone_count_; }

  /// Words in one key-support bitset: ⌈K/64⌉ for K key inputs.
  std::size_t support_words() const noexcept { return support_words_; }

  /// The key inputs in node `v`'s transitive fanin, as a bitset over
  /// key-input order (bit j % 64 of word j / 64 is key input j). Non-empty
  /// exactly on the cone. Two copies whose keys agree on these bits
  /// compute the same value at `v` for every input.
  std::span<const std::uint64_t> key_support(netlist::NodeId v) const {
    return {support_.data() + std::size_t{v} * support_words_,
            support_words_};
  }

  /// Encodes a second *symbolic* copy of the netlist that shares the
  /// key-independent remainder with `base` (one encoding of it serves both
  /// copies) and encodes only the key-dependent cone fresh, under fresh
  /// key variables. The incremental attack builds its initial miter from
  /// encode_netlist + this: the formula grows by one cone instead of one
  /// whole circuit, and make_miter skips output pairs that share a driver
  /// (a key-independent output can never differ between copies). Throws
  /// std::invalid_argument if `base` does not encode this netlist.
  Encoding encode_shared_copy(Solver& solver, const Encoding& base) const;

  /// Simulates the key-independent remainder under `dip` and stores the
  /// binding for subsequent encode_copy() calls. Returns false iff a
  /// key-independent output differs from `response` — no key is
  /// consistent, the attack is infeasible.
  bool bind_dip(const std::vector<bool>& dip,
                const std::vector<bool>& response);

  /// Encodes one circuit copy against the last bind_dip() binding, with
  /// key inputs bound to `key_vars`, and pins every key-dependent output
  /// to the bound response. Returns false if a constant-folded output
  /// contradicts the response or the solver goes UNSAT at level 0 (key
  /// space empty either way).
  bool encode_copy(Solver& solver, const std::vector<Var>& key_vars);

 private:
  const netlist::Netlist* netlist_;
  std::vector<std::uint8_t> in_cone_;       // per node
  std::vector<std::int32_t> input_index_;   // PI order or key order, per node
  std::size_t cone_count_ = 0;
  std::size_t max_fanin_ = 0;
  std::size_t support_words_ = 0;
  std::vector<std::uint64_t> support_;  // support_words_ per node

  // bind_dip() state consumed by encode_copy().
  std::vector<std::uint8_t> value_;  // key-independent node values
  std::vector<bool> response_;
  bool bound_ = false;

  // Scratch reused across copies (no per-DIP allocations at steady state).
  std::vector<Lit> state_;   // per-node literal-or-constant, one copy
  std::vector<Lit> lits_;    // reduced fanin literals
  std::vector<Lit> big_;     // wide-clause buffer
  std::unique_ptr<bool[]> fanin_values_;  // eval_gate_bits input buffer
};

/// What one check_equivalent call did.
struct EquivalenceStats {
  std::size_t residual_outputs = 0;  // output pairs hashing did not merge
  std::size_t sat_calls = 0;         // 0 or 1: the residual miter solve
  /// check_unlocks only: the delta proof decided, and no full check ran.
  bool delta_proof = false;
};

/// Proves or refutes equivalence of two netlists under fixed keys.
/// Netlists with different primary-input or output counts are reported
/// different without further work. A key whose length does not match its
/// netlist's key inputs throws std::invalid_argument.
///
/// Both netlists go into one hash-consed graph of complementable literals
/// (node 0 is constant false). Primary inputs are shared by position and
/// key inputs become their constants. Each gate is normalized on insertion:
/// BUF/NOT are literal operations; AND/NAND/OR/NOR become an n-ary AND
/// over sorted, deduplicated literals, where a constant or x ∧ ¬x folds;
/// XOR/XNOR become an n-ary XOR of positive literals with an output phase,
/// where equal pairs cancel; a MUX folds on a constant select or equal
/// data, a complemented select swaps the data, and constant data turns it
/// into an AND. Under the correct key of the repo's schemes (D-MUX, RLL,
/// Anti-SAT and their compound) every output merges, so the proof costs
/// no SAT call at all.
///
/// Output pairs whose literals differ are the residual. One seeded 64-lane
/// random simulation of both netlists looks for a witness first; failing
/// that, only the residual outputs' transitive fanin in the shared graph
/// is Tseitin-encoded (one variable per shared node) and a single miter
/// over those pairs is solved: UNSAT means equivalent. Returns true iff
/// equivalent. `stats`, if given, receives what the call did.
bool check_equivalent(const netlist::Netlist& a, const netlist::Key& a_key,
                      const netlist::Netlist& b, const netlist::Key& b_key,
                      EquivalenceStats* stats = nullptr);

/// Proves or refutes that `locked` under `key` is equivalent to its
/// `original`, with the same verdict as check_equivalent(locked, key,
/// original, {}), at a cost set by what the lock changed.
///
/// First it finds where `locked` differs from `original`, comparing every
/// original id's node (type and fanin list), the inputs (the original's, in
/// order, then only key inputs) and the output-port drivers in O(N + E),
/// without hashing. It then hashes only the difference into a fresh strash
/// graph: the key logic (ids from original.size() on, key inputs as their
/// constants) and the original gates whose type or fanins changed, in
/// `locked`'s topological order, with every original node as a free
/// literal. It accepts when each changed gate merges with the original
/// gate over the same literals and each moved port's driver with the
/// original driver; by induction over that order every node then computes
/// its original function. The compare is part of the proof, so it holds
/// whatever produced `locked`.
///
/// Otherwise (a wrong key, a difference hashing cannot merge, ids that do
/// not line up as after a .bench round trip, or a difference larger than
/// the original itself) it runs the full check_equivalent. `stats`, if
/// given, receives what the call did; `delta_proof` says which path
/// decided.
bool check_unlocks(const netlist::Netlist& locked, const netlist::Key& key,
                   const netlist::Netlist& original,
                   EquivalenceStats* stats = nullptr);

}  // namespace autolock::sat
