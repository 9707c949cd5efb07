// Netlist → CNF (Tseitin) encoding, miter construction, and equivalence
// checking.
//
// encode_netlist assigns one SAT variable per netlist node, with key inputs
// as free variables: the SAT attack solves for them. check_equivalent does
// not encode netlists directly. It folds both sides, under their fixed keys,
// into one structurally hashed graph and hands the SAT solver only the
// output pairs that hashing did not merge.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
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

/// Convenience: locked netlist vs. its original under the correct key.
bool check_unlocks(const netlist::Netlist& locked, const netlist::Key& key,
                   const netlist::Netlist& original);

}  // namespace autolock::sat
