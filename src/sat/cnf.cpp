#include "sat/cnf.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace autolock::sat {

namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

/// Clauses for out_lit <-> AND(ins): (~out_lit | in_i) for all i;
/// (out_lit | ~in_1 | ...). Passing a negated out_lit encodes NAND. `big`
/// is a caller-provided scratch buffer (reused across gates so the
/// encoding loop performs no per-gate allocations).
void encode_and(Solver& solver, Lit out_lit, const std::vector<Lit>& ins,
                std::vector<Lit>& big) {
  big.clear();
  for (Lit in : ins) {
    solver.add_clause(lit_neg(out_lit), in);
    big.push_back(lit_neg(in));
  }
  big.push_back(out_lit);
  solver.add_clause(std::span<const Lit>(big));
}

/// Clauses for out_lit <-> OR(ins); a negated out_lit encodes NOR.
void encode_or(Solver& solver, Lit out_lit, const std::vector<Lit>& ins,
               std::vector<Lit>& big) {
  big.clear();
  for (Lit in : ins) {
    solver.add_clause(out_lit, lit_neg(in));
    big.push_back(in);
  }
  big.push_back(lit_neg(out_lit));
  solver.add_clause(std::span<const Lit>(big));
}

/// out <-> a XOR b (binary). For n-ary XOR we chain through fresh vars.
void encode_xor2(Solver& solver, Var out, Lit a, Lit b) {
  solver.add_clause(make_lit(out, true), a, b);
  solver.add_clause(make_lit(out, true), lit_neg(a), lit_neg(b));
  solver.add_clause(make_lit(out, false), a, lit_neg(b));
  solver.add_clause(make_lit(out, false), lit_neg(a), b);
}

/// out <-> ITE(sel, in1, in0)  (MUX semantics: sel ? in1 : in0).
void encode_mux(Solver& solver, Var out, Lit sel, Lit in0, Lit in1) {
  // sel=1 -> out == in1
  solver.add_clause(lit_neg(sel), make_lit(out, true), in1);
  solver.add_clause(lit_neg(sel), make_lit(out, false), lit_neg(in1));
  // sel=0 -> out == in0
  solver.add_clause(sel, make_lit(out, true), in0);
  solver.add_clause(sel, make_lit(out, false), lit_neg(in0));
  // Redundant but propagation-strengthening clauses:
  solver.add_clause(make_lit(out, true), in0, in1);
  solver.add_clause(make_lit(out, false), lit_neg(in0), lit_neg(in1));
}

/// Full Tseitin encoding of one gate: out <-> type(ins). Shared by
/// encode_netlist and ConeTemplate::encode_shared_copy.
void encode_gate(Solver& solver, GateType type, Var out,
                 const std::vector<Lit>& ins, std::vector<Lit>& big) {
  switch (type) {
    case GateType::kConst0:
      solver.add_clause(make_lit(out, true));
      break;
    case GateType::kConst1:
      solver.add_clause(make_lit(out, false));
      break;
    case GateType::kBuf:
      solver.add_clause(make_lit(out, true), ins[0]);
      solver.add_clause(make_lit(out, false), lit_neg(ins[0]));
      break;
    case GateType::kNot:
      solver.add_clause(make_lit(out, true), lit_neg(ins[0]));
      solver.add_clause(make_lit(out, false), ins[0]);
      break;
    case GateType::kAnd:
      encode_and(solver, make_lit(out), ins, big);
      break;
    case GateType::kNand:
      // out <-> NAND(ins) == ~out <-> AND(ins).
      encode_and(solver, make_lit(out, true), ins, big);
      break;
    case GateType::kOr:
      encode_or(solver, make_lit(out), ins, big);
      break;
    case GateType::kNor:
      // out <-> NOR(ins) == ~out <-> OR(ins).
      encode_or(solver, make_lit(out, true), ins, big);
      break;
    case GateType::kXor:
    case GateType::kXnor: {
      // Chain binary XORs through fresh intermediates.
      Lit acc = ins[0];
      for (std::size_t i = 1; i + 1 < ins.size(); ++i) {
        const Var mid = solver.new_var();
        encode_xor2(solver, mid, acc, ins[i]);
        acc = make_lit(mid, false);
      }
      if (type == GateType::kXor) {
        encode_xor2(solver, out, acc, ins.back());
      } else {
        // out <-> XNOR(acc, last) == ~out <-> XOR(acc, last):
        const Var mid = solver.new_var();
        encode_xor2(solver, mid, acc, ins.back());
        solver.add_clause(make_lit(out, true), make_lit(mid, true));
        solver.add_clause(make_lit(out, false), make_lit(mid, false));
      }
      break;
    }
    case GateType::kMux:
      encode_mux(solver, out, ins[0], ins[1], ins[2]);
      break;
    case GateType::kInput:
      break;  // unreachable
  }
}

}  // namespace

Encoding encode_netlist(
    Solver& solver, const Netlist& netlist,
    const std::optional<std::vector<Var>>& share_primary_inputs) {
  const auto primary = netlist.primary_inputs();
  const auto keys = netlist.key_inputs();
  if (share_primary_inputs && share_primary_inputs->size() != primary.size()) {
    throw std::invalid_argument("encode_netlist: shared PI count mismatch");
  }

  Encoding enc;
  enc.node_var.assign(netlist.size(), -1);
  solver.reserve_vars(solver.num_vars() + netlist.size());

  // Inputs first (shared or fresh).
  for (std::size_t i = 0; i < primary.size(); ++i) {
    enc.node_var[primary[i]] =
        share_primary_inputs ? (*share_primary_inputs)[i] : solver.new_var();
  }
  for (const NodeId k : keys) enc.node_var[k] = solver.new_var();

  std::vector<Lit> ins;   // reused across gates (no per-gate allocation)
  std::vector<Lit> big;   // scratch for the wide AND/OR/NAND/NOR clause
  for (NodeId v : netlist.topological_order()) {
    const auto& node = netlist.node(v);
    if (node.type == GateType::kInput) continue;
    const Var out = solver.new_var();
    enc.node_var[v] = out;
    ins.clear();
    for (NodeId fanin : node.fanins) {
      ins.push_back(make_lit(enc.node_var[fanin], false));
    }
    encode_gate(solver, node.type, out, ins, big);
  }

  for (std::size_t i = 0; i < primary.size(); ++i) {
    enc.primary_input_var.push_back(enc.node_var[primary[i]]);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    enc.key_var.push_back(enc.node_var[keys[i]]);
  }
  for (const auto& port : netlist.outputs()) {
    enc.output_var.push_back(enc.node_var[port.driver]);
  }
  return enc;
}

Var make_miter(Solver& solver, const Encoding& a, const Encoding& b) {
  if (a.output_var.size() != b.output_var.size()) {
    throw std::invalid_argument("make_miter: output count mismatch");
  }
  std::vector<Lit> any_diff;
  for (std::size_t o = 0; o < a.output_var.size(); ++o) {
    if (a.output_var[o] == b.output_var[o]) {
      continue;  // shared driver (encode_shared_copy): can never differ
    }
    const Var diff = solver.new_var();
    encode_xor2(solver, diff, make_lit(a.output_var[o], false),
                make_lit(b.output_var[o], false));
    any_diff.push_back(make_lit(diff, false));
  }
  const Var miter = solver.new_var();
  std::vector<Lit> scratch;
  encode_or(solver, make_lit(miter), any_diff, scratch);
  return miter;
}

// ---------------------------------------------------------------------------
// Strashed equivalence

namespace {

/// Literal of the shared graph: node << 1 | complement. Node 0 is constant
/// false, so literal 0 is false and literal 1 is true.
using GLit = std::uint32_t;
constexpr GLit kFalse = 0;
constexpr GLit kTrue = 1;
constexpr std::uint32_t node_of(GLit lit) noexcept { return lit >> 1; }
constexpr bool is_complemented(GLit lit) noexcept { return (lit & 1) != 0; }

enum class Kind : std::uint8_t { kConst, kInput, kAnd, kXor, kMux };

/// Hash-consed graph both sides of an equivalence check are inserted into.
/// Nodes are created after their fanins, so node ids are a topological
/// order. AND nodes hold sorted literals, XOR nodes sorted positive
/// literals and MUX nodes {positive select, positive d0, d1}; a node is
/// created only if no node with the same kind and fanins exists.
class StrashGraph {
 public:
  explicit StrashGraph(std::size_t inputs) {
    kind_.push_back(Kind::kConst);
    begin_.assign(1, 0);
    for (std::size_t i = 0; i < inputs; ++i) {
      kind_.push_back(Kind::kInput);
      begin_.push_back(0);
    }
    begin_.push_back(0);
    table_.assign(1024, 0);
  }

  std::size_t size() const noexcept { return kind_.size(); }
  Kind kind(std::uint32_t node) const { return kind_[node]; }
  std::span<const GLit> fanins(std::uint32_t node) const {
    return {fanins_.data() + begin_[node], fanins_.data() + begin_[node + 1]};
  }

  /// Inserts `netlist` with primary input i as graph input i and key input
  /// j as the constant key[j]; returns one literal per output port.
  std::vector<GLit> insert(const Netlist& netlist, const netlist::Key& key) {
    std::vector<GLit> lit(netlist.size(), kFalse);
    const auto primary = netlist.primary_inputs();
    for (std::size_t i = 0; i < primary.size(); ++i) {
      lit[primary[i]] = static_cast<GLit>(1 + i) << 1;
    }
    const auto keys = netlist.key_inputs();
    for (std::size_t j = 0; j < keys.size(); ++j) {
      lit[keys[j]] = key[j] ? kTrue : kFalse;
    }
    for (const NodeId v : netlist.topological_order()) {
      const auto& node = netlist.node(v);
      if (node.type == GateType::kInput) continue;
      ins_.clear();
      for (const NodeId fanin : node.fanins) ins_.push_back(lit[fanin]);
      lit[v] = add_gate(node.type);
    }
    std::vector<GLit> outputs;
    for (const auto& port : netlist.outputs()) {
      outputs.push_back(lit[port.driver]);
    }
    return outputs;
  }

  /// A fresh free input.
  GLit add_input() {
    kind_.push_back(Kind::kInput);
    begin_.push_back(static_cast<std::uint32_t>(fanins_.size()));
    return static_cast<GLit>(kind_.size() - 1) << 1;
  }

  /// The literal of a `type` gate over `fanins`.
  GLit gate(GateType type, std::span<const GLit> fanins) {
    ins_.assign(fanins.begin(), fanins.end());
    return add_gate(type);
  }

 private:
  /// The literal of `type` over the literals staged in ins_.
  GLit add_gate(GateType type) {
    switch (type) {
      case GateType::kConst0:
        return kFalse;
      case GateType::kConst1:
        return kTrue;
      case GateType::kBuf:
        return ins_[0];
      case GateType::kNot:
        return ins_[0] ^ 1;
      case GateType::kAnd:
        return make_and();
      case GateType::kNand:
        return make_and() ^ 1;
      case GateType::kOr:
      case GateType::kNor: {
        // De Morgan: OR(ins) == ¬AND(¬ins).
        for (GLit& in : ins_) in ^= 1;
        return make_and() ^ (type == GateType::kOr ? 1 : 0);
      }
      case GateType::kXor:
        return make_xor(false);
      case GateType::kXnor:
        return make_xor(true);
      case GateType::kMux:
        return make_mux(ins_[0], ins_[1], ins_[2]);
      case GateType::kInput:
        break;
    }
    throw std::logic_error("StrashGraph: input node has no gate literal");
  }

  /// n-ary AND over ins_: constants fold, duplicates drop, x ∧ ¬x is 0.
  GLit make_and() {
    std::size_t kept = 0;
    for (const GLit in : ins_) {
      if (in == kFalse) return kFalse;
      if (in != kTrue) ins_[kept++] = in;
    }
    ins_.resize(kept);
    std::sort(ins_.begin(), ins_.end());
    ins_.erase(std::unique(ins_.begin(), ins_.end()), ins_.end());
    // Sorted, x (2n) and ¬x (2n + 1) are neighbours.
    for (std::size_t i = 1; i < ins_.size(); ++i) {
      if ((ins_[i - 1] ^ 1) == ins_[i]) return kFalse;
    }
    if (ins_.empty()) return kTrue;
    if (ins_.size() == 1) return ins_[0];
    return lookup(Kind::kAnd);
  }

  /// n-ary XOR over ins_ with output `phase`: complements and constants
  /// move into the phase, equal pairs cancel.
  GLit make_xor(bool phase) {
    std::size_t kept = 0;
    for (const GLit in : ins_) {
      phase = phase != is_complemented(in);
      if (node_of(in) != 0) ins_[kept++] = in & ~GLit{1};
    }
    ins_.resize(kept);
    std::sort(ins_.begin(), ins_.end());
    kept = 0;
    for (const GLit in : ins_) {
      if (kept > 0 && ins_[kept - 1] == in) {
        --kept;  // x ⊕ x = 0
      } else {
        ins_[kept++] = in;
      }
    }
    ins_.resize(kept);
    const GLit phase_bit = phase ? 1 : 0;
    if (ins_.empty()) return phase_bit;
    if (ins_.size() == 1) return ins_[0] ^ phase_bit;
    return lookup(Kind::kXor) ^ phase_bit;
  }

  /// select ? d1 : d0.
  GLit make_mux(GLit select, GLit d0, GLit d1) {
    if (select == kFalse) return d0;
    if (select == kTrue) return d1;
    if (d0 == d1) return d0;
    if (is_complemented(select)) {
      select ^= 1;
      std::swap(d0, d1);
    }
    if (d0 == kFalse || d0 == kTrue) {
      // s ? d1 : 0 == s ∧ d1;  s ? d1 : 1 == ¬(s ∧ ¬d1).
      ins_.assign({select, d1 ^ d0});
      return make_and() ^ d0;
    }
    if (d1 == kFalse || d1 == kTrue) {
      // s ? 0 : d0 == ¬s ∧ d0;  s ? 1 : d0 == ¬(¬s ∧ ¬d0).
      ins_.assign({select ^ 1, d0 ^ d1});
      return make_and() ^ d1;
    }
    // MUX(s, ¬a, b) == ¬MUX(s, a, ¬b): keep d0 positive.
    const GLit phase = d0 & 1;
    ins_.assign({select, d0 ^ phase, d1 ^ phase});
    return lookup(Kind::kMux) ^ phase;
  }

  static std::uint64_t hash(Kind kind, std::span<const GLit> fanins) {
    std::uint64_t h = static_cast<std::uint64_t>(kind) + 1;
    for (const GLit in : fanins) {
      h = (h ^ in) * 0x9E3779B97F4A7C15ULL;
      h ^= h >> 29;
    }
    return h;
  }

  /// Positive literal of the node (kind, ins_), created if it is new.
  GLit lookup(Kind kind) {
    const std::span<const GLit> key(ins_);
    const std::size_t mask = table_.size() - 1;
    for (std::size_t slot = hash(kind, key) & mask;; slot = (slot + 1) & mask) {
      const std::uint32_t node = table_[slot];
      if (node == 0) break;  // node 0 is the constant, never hashed
      if (kind_[node] == kind && std::ranges::equal(fanins(node), key)) {
        return static_cast<GLit>(node) << 1;
      }
    }
    const auto node = static_cast<std::uint32_t>(kind_.size());
    kind_.push_back(kind);
    fanins_.insert(fanins_.end(), key.begin(), key.end());
    begin_.push_back(static_cast<std::uint32_t>(fanins_.size()));
    place(node);
    if (++hashed_ * 2 > table_.size()) grow();
    return static_cast<GLit>(node) << 1;
  }

  void place(std::uint32_t node) {
    const std::size_t mask = table_.size() - 1;
    std::size_t slot = hash(kind_[node], fanins(node)) & mask;
    while (table_[slot] != 0) slot = (slot + 1) & mask;
    table_[slot] = node;
  }

  void grow() {
    table_.assign(table_.size() * 2, 0);
    for (std::uint32_t node = 0; node < kind_.size(); ++node) {
      if (kind_[node] != Kind::kConst && kind_[node] != Kind::kInput) {
        place(node);
      }
    }
  }

  std::vector<Kind> kind_;
  std::vector<std::uint32_t> begin_;  // CSR offsets into fanins_, size()+1
  std::vector<GLit> fanins_;
  std::vector<std::uint32_t> table_;  // open addressing, 0 = empty slot
  std::size_t hashed_ = 0;
  std::vector<GLit> ins_;  // fanin literals of the gate being inserted
};

/// Seed of the 64-lane witness search: fixed, so verdicts and costs are
/// reproducible run to run.
constexpr std::uint64_t kWitnessSeed = 0x5EED0E0ULL;

/// Tseitin-encodes the transitive fanin of the residual output pairs in
/// `graph` and solves one miter over them: true iff no pair can differ.
bool prove_residual(const StrashGraph& graph,
                    const std::vector<std::pair<GLit, GLit>>& residual) {
  std::vector<std::uint8_t> needed(graph.size(), 0);
  for (const auto& [la, lb] : residual) {
    needed[node_of(la)] = 1;
    needed[node_of(lb)] = 1;
  }
  // Node ids are topological, so one descending sweep marks the fanin.
  for (std::size_t v = graph.size(); v-- > 0;) {
    if (needed[v] == 0) continue;
    for (const GLit in : graph.fanins(static_cast<std::uint32_t>(v))) {
      needed[node_of(in)] = 1;
    }
  }

  Solver solver;
  std::vector<Var> var(graph.size(), -1);
  const auto sat_lit = [&](GLit lit) {
    return make_lit(var[node_of(lit)], is_complemented(lit));
  };
  std::vector<Lit> ins;
  std::vector<Lit> big;
  for (std::uint32_t v = 0; v < graph.size(); ++v) {
    if (needed[v] == 0) continue;
    const Var out = solver.new_var();
    var[v] = out;
    ins.clear();
    for (const GLit in : graph.fanins(v)) ins.push_back(sat_lit(in));
    switch (graph.kind(v)) {
      case Kind::kConst:
        solver.add_clause(make_lit(out, true));
        break;
      case Kind::kInput:
        break;
      case Kind::kAnd:
        encode_and(solver, make_lit(out), ins, big);
        break;
      case Kind::kXor:
        encode_gate(solver, GateType::kXor, out, ins, big);
        break;
      case Kind::kMux:
        encode_mux(solver, out, ins[0], ins[1], ins[2]);
        break;
    }
  }

  std::vector<Lit> any_diff;
  for (const auto& [la, lb] : residual) {
    const Var diff = solver.new_var();
    encode_xor2(solver, diff, sat_lit(la), sat_lit(lb));
    any_diff.push_back(make_lit(diff));
  }
  solver.add_clause(std::span<const Lit>(any_diff));
  const SolveResult result = solver.solve();
  if (result == SolveResult::kUnknown) {
    throw std::runtime_error("check_equivalent: budget exhausted");
  }
  return result == SolveResult::kUnsat;
}

}  // namespace

bool check_equivalent(const Netlist& a, const netlist::Key& a_key,
                      const Netlist& b, const netlist::Key& b_key,
                      EquivalenceStats* stats) {
  EquivalenceStats local;
  EquivalenceStats& out = stats != nullptr ? *stats : local;
  out = EquivalenceStats{};
  if (a.primary_inputs().size() != b.primary_inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    return false;
  }
  if (a.key_inputs().size() != a_key.size() ||
      b.key_inputs().size() != b_key.size()) {
    throw std::invalid_argument("check_equivalent: key length mismatch");
  }

  StrashGraph graph(a.primary_inputs().size());
  const std::vector<GLit> outputs_a = graph.insert(a, a_key);
  const std::vector<GLit> outputs_b = graph.insert(b, b_key);

  std::vector<std::pair<GLit, GLit>> residual;
  for (std::size_t o = 0; o < outputs_a.size(); ++o) {
    if (outputs_a[o] != outputs_b[o]) {
      residual.emplace_back(outputs_a[o], outputs_b[o]);
    }
  }
  out.residual_outputs = residual.size();
  if (residual.empty()) return true;

  util::Rng rng(kWitnessSeed);
  if (!netlist::Simulator::equivalent_on_random_vectors(
          netlist::Simulator(a), a_key, netlist::Simulator(b), b_key, 64,
          rng)) {
    return false;
  }
  out.sat_calls = 1;
  return prove_residual(graph, residual);
}

namespace {

/// Proves `locked` under `key` equivalent to `original` from what differs
/// between the two, or returns false when this cannot be shown (the caller
/// then runs the full check). Every original node is a free literal that
/// stands for its function in `original`. Key logic (ids past the
/// original's) and the original gates whose type or fanins changed are
/// hashed over those literals, in `locked`'s topological order. If each
/// changed gate hashes to its original gate over the same literals, then by
/// induction over that order every original node computes in `locked` what
/// it computes in `original`; the output ports then have to agree too.
bool prove_delta(const Netlist& locked, const netlist::Key& key,
                 const Netlist& original) {
  const std::size_t n = original.size();
  const auto& inputs = original.inputs();
  const auto& locked_inputs = locked.inputs();
  if (locked.size() < n ||
      locked.outputs().size() != original.outputs().size() ||
      locked_inputs.size() != inputs.size() + key.size() ||
      !std::equal(inputs.begin(), inputs.end(), locked_inputs.begin())) {
    return false;
  }
  for (const NodeId v : inputs) {
    if (original.node(v).is_key_input) return false;
  }
  for (std::size_t j = inputs.size(); j < locked_inputs.size(); ++j) {
    if (!locked.node(locked_inputs[j]).is_key_input) return false;
  }
  // A delta larger than the original costs about as much as the full check
  // it would have to be followed by when it fails.
  std::size_t delta = locked.size() - n;
  if (delta > n) return false;
  std::vector<std::uint8_t> rewired(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    const auto& now = locked.node(v);
    const auto& was = original.node(v);
    if (now.type == was.type && now.is_key_input == was.is_key_input &&
        now.fanins == was.fanins) {
      continue;
    }
    if (now.type == GateType::kInput || was.type == GateType::kInput ||
        ++delta > n) {
      return false;
    }
    rewired[v] = 1;
  }

  constexpr GLit kUnset = ~GLit{0};
  StrashGraph graph(0);
  std::vector<GLit> lit(locked.size(), kUnset);
  for (std::size_t j = 0; j < key.size(); ++j) {
    lit[locked_inputs[inputs.size() + j]] = key[j] ? kTrue : kFalse;
  }
  // Original ids get their free literal on first use; key logic is set in
  // topological order before any reader asks for it.
  const auto literal = [&](NodeId v) {
    if (lit[v] == kUnset) lit[v] = graph.add_input();
    return lit[v];
  };
  std::vector<GLit> fanins;
  for (const NodeId v : locked.topological_order()) {
    if (v < n && rewired[v] == 0) continue;
    const auto& node = locked.node(v);
    if (node.type == GateType::kInput) continue;  // a key input, set above
    fanins.clear();
    for (const NodeId fanin : node.fanins) fanins.push_back(literal(fanin));
    const GLit now = graph.gate(node.type, fanins);
    if (v >= n) {
      lit[v] = now;
      continue;
    }
    const auto& was = original.node(v);
    fanins.clear();
    for (const NodeId fanin : was.fanins) fanins.push_back(literal(fanin));
    if (graph.gate(was.type, fanins) != now) return false;
  }
  for (std::size_t o = 0; o < original.outputs().size(); ++o) {
    const NodeId now = locked.outputs()[o].driver;
    const NodeId was = original.outputs()[o].driver;
    if (now != was && literal(now) != literal(was)) return false;
  }
  return true;
}

}  // namespace

bool check_unlocks(const Netlist& locked, const netlist::Key& key,
                   const Netlist& original, EquivalenceStats* stats) {
  if (prove_delta(locked, key, original)) {
    if (stats != nullptr) *stats = EquivalenceStats{.delta_proof = true};
    return true;
  }
  return check_equivalent(locked, key, original, netlist::Key{}, stats);
}

// ---------------------------------------------------------------------------
// ConeTemplate

namespace {

// Literal-or-constant states for the folding encoder. Real literals are
// non-negative; these sentinels share the Lit type so one per-node array
// holds both.
constexpr Lit kStateFalse = -2;
constexpr Lit kStateTrue = -3;
constexpr Lit kStateUnset = -4;

constexpr bool state_is_const(Lit s) noexcept {
  return s == kStateFalse || s == kStateTrue;
}
constexpr bool state_const_value(Lit s) noexcept { return s == kStateTrue; }
constexpr Lit const_state(bool value) noexcept {
  return value ? kStateTrue : kStateFalse;
}
constexpr Lit state_neg(Lit s) noexcept {
  if (state_is_const(s)) return const_state(!state_const_value(s));
  return lit_neg(s);
}

/// Fresh-var AND over >= 2 literals (`ins` is clobbered as scratch).
Lit encode_and_fresh(Solver& solver, std::vector<Lit>& ins,
                     std::vector<Lit>& big) {
  const Var out = solver.new_var();
  encode_and(solver, make_lit(out), ins, big);
  return make_lit(out);
}

Lit encode_or_fresh(Solver& solver, std::vector<Lit>& ins,
                    std::vector<Lit>& big) {
  const Var out = solver.new_var();
  encode_or(solver, make_lit(out), ins, big);
  return make_lit(out);
}

}  // namespace

ConeTemplate::ConeTemplate(const Netlist& netlist) : netlist_(&netlist) {
  const std::size_t n = netlist.size();
  in_cone_.assign(n, 0);
  input_index_.assign(n, -1);
  value_.assign(n, 0);
  state_.assign(n, kStateUnset);

  const auto primary = netlist.primary_inputs();
  for (std::size_t i = 0; i < primary.size(); ++i) {
    input_index_[primary[i]] = static_cast<std::int32_t>(i);
  }
  const auto keys = netlist.key_inputs();
  support_words_ = (keys.size() + 63) / 64;
  support_.assign(n * support_words_, 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    input_index_[keys[i]] = static_cast<std::int32_t>(i);
    support_[std::size_t{keys[i]} * support_words_ + i / 64] |=
        std::uint64_t{1} << (i % 64);
  }

  for (const NodeId v : netlist.topological_order()) {
    const auto& node = netlist.node(v);
    max_fanin_ = std::max(max_fanin_, node.fanins.size());
    bool in_cone = node.type == GateType::kInput && node.is_key_input;
    std::uint64_t* support = support_.data() + std::size_t{v} * support_words_;
    for (const NodeId fanin : node.fanins) {
      if (in_cone_[fanin] == 0) continue;
      in_cone = true;
      const std::uint64_t* from =
          support_.data() + std::size_t{fanin} * support_words_;
      for (std::size_t w = 0; w < support_words_; ++w) support[w] |= from[w];
    }
    in_cone_[v] = in_cone ? 1 : 0;
    cone_count_ += in_cone ? 1 : 0;
  }
  fanin_values_ = std::make_unique<bool[]>(std::max<std::size_t>(max_fanin_, 1));
}

Encoding ConeTemplate::encode_shared_copy(Solver& solver,
                                          const Encoding& base) const {
  const Netlist& netlist = *netlist_;
  if (base.node_var.size() != netlist.size()) {
    throw std::invalid_argument(
        "ConeTemplate::encode_shared_copy: base encodes a different netlist");
  }
  Encoding enc;
  enc.node_var.assign(netlist.size(), -1);
  std::vector<Lit> ins;
  std::vector<Lit> big;
  for (const NodeId v : netlist.topological_order()) {
    if (in_cone_[v] == 0) {
      // Key-independent remainder: one encoding serves every copy.
      enc.node_var[v] = base.node_var[v];
      continue;
    }
    const auto& node = netlist.node(v);
    const Var out = solver.new_var();
    enc.node_var[v] = out;
    if (node.type == GateType::kInput) continue;  // fresh key variable
    ins.clear();
    for (const NodeId fanin : node.fanins) {
      ins.push_back(make_lit(enc.node_var[fanin], false));
    }
    encode_gate(solver, node.type, out, ins, big);
  }
  enc.primary_input_var = base.primary_input_var;
  for (const NodeId k : netlist.key_inputs()) {
    enc.key_var.push_back(enc.node_var[k]);
  }
  for (const auto& port : netlist.outputs()) {
    enc.output_var.push_back(enc.node_var[port.driver]);
  }
  return enc;
}

bool ConeTemplate::bind_dip(const std::vector<bool>& dip,
                            const std::vector<bool>& response) {
  response_ = response;
  bound_ = true;
  for (const NodeId v : netlist_->topological_order()) {
    if (in_cone_[v] != 0) continue;
    const auto& node = netlist_->node(v);
    if (node.type == GateType::kInput) {
      value_[v] = dip[static_cast<std::size_t>(input_index_[v])] ? 1 : 0;
      continue;
    }
    // Fanins of a key-independent node are key-independent themselves.
    for (std::size_t i = 0; i < node.fanins.size(); ++i) {
      fanin_values_[i] = value_[node.fanins[i]] != 0;
    }
    value_[v] = netlist::eval_gate_bits(node.type, fanin_values_.get(),
                                        node.fanins.size())
                    ? 1
                    : 0;
  }
  const auto& outputs = netlist_->outputs();
  for (std::size_t o = 0; o < outputs.size(); ++o) {
    const NodeId driver = outputs[o].driver;
    if (in_cone_[driver] == 0 && (value_[driver] != 0) != response[o]) {
      return false;  // key-independent output contradicts the oracle
    }
  }
  return true;
}

bool ConeTemplate::encode_copy(Solver& solver,
                               const std::vector<Var>& key_vars) {
  if (!bound_) {
    throw std::logic_error("ConeTemplate::encode_copy before bind_dip");
  }
  for (const NodeId v : netlist_->topological_order()) {
    if (in_cone_[v] == 0) {
      state_[v] = const_state(value_[v] != 0);
      continue;
    }
    const auto& node = netlist_->node(v);
    if (node.type == GateType::kInput) {  // key input (cone ∩ inputs = keys)
      state_[v] =
          make_lit(key_vars[static_cast<std::size_t>(input_index_[v])], false);
      continue;
    }
    Lit out = kStateUnset;
    switch (node.type) {
      case GateType::kConst0:
      case GateType::kConst1:
        out = const_state(node.type == GateType::kConst1);
        break;
      case GateType::kBuf:
        out = state_[node.fanins[0]];
        break;
      case GateType::kNot:
        out = state_neg(state_[node.fanins[0]]);
        break;
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        // AND-family folding (OR handled through De Morgan duality):
        // absorbing constant -> constant, identity constants dropped,
        // single survivor -> alias, else a fresh definitional var.
        const bool or_like =
            node.type == GateType::kOr || node.type == GateType::kNor;
        const Lit absorbing = or_like ? kStateTrue : kStateFalse;
        bool absorbed = false;
        lits_.clear();
        for (const NodeId fanin : node.fanins) {
          const Lit s = state_[fanin];
          if (s == absorbing) {
            absorbed = true;
            break;
          }
          if (state_is_const(s)) continue;  // identity element
          lits_.push_back(s);
        }
        if (absorbed) {
          out = absorbing;
        } else if (lits_.empty()) {
          out = state_neg(absorbing);
        } else if (lits_.size() == 1) {
          out = lits_[0];
        } else {
          out = or_like ? encode_or_fresh(solver, lits_, big_)
                        : encode_and_fresh(solver, lits_, big_);
        }
        if (node.type == GateType::kNand || node.type == GateType::kNor) {
          out = state_neg(out);
        }
        break;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        // Constants fold into an output-polarity flip; the remaining
        // literals chain through fresh XOR2 vars.
        bool flip = node.type == GateType::kXnor;
        lits_.clear();
        for (const NodeId fanin : node.fanins) {
          const Lit s = state_[fanin];
          if (state_is_const(s)) {
            flip = flip != state_const_value(s);
          } else {
            lits_.push_back(s);
          }
        }
        if (lits_.empty()) {
          out = const_state(flip);
        } else {
          Lit acc = lits_[0];
          for (std::size_t i = 1; i < lits_.size(); ++i) {
            const Var mid = solver.new_var();
            encode_xor2(solver, mid, acc, lits_[i]);
            acc = make_lit(mid, false);
          }
          out = flip ? state_neg(acc) : acc;
        }
        break;
      }
      case GateType::kMux: {
        const Lit sel = state_[node.fanins[0]];
        const Lit in0 = state_[node.fanins[1]];
        const Lit in1 = state_[node.fanins[2]];
        if (state_is_const(sel)) {
          out = state_const_value(sel) ? in1 : in0;
        } else if (state_is_const(in0) && state_is_const(in1)) {
          const bool v0 = state_const_value(in0);
          const bool v1 = state_const_value(in1);
          out = v0 == v1 ? in0 : (v1 ? sel : state_neg(sel));
        } else if (state_is_const(in1)) {
          // sel ? const : in0  ==  const ? (sel | in0) : (~sel & in0)
          lits_.assign(
              {state_const_value(in1) ? sel : state_neg(sel), in0});
          out = state_const_value(in1) ? encode_or_fresh(solver, lits_, big_)
                                       : encode_and_fresh(solver, lits_, big_);
        } else if (state_is_const(in0)) {
          // sel ? in1 : const  ==  const ? (~sel | in1) : (sel & in1)
          lits_.assign(
              {state_const_value(in0) ? state_neg(sel) : sel, in1});
          out = state_const_value(in0) ? encode_or_fresh(solver, lits_, big_)
                                       : encode_and_fresh(solver, lits_, big_);
        } else {
          const Var fresh = solver.new_var();
          encode_mux(solver, fresh, sel, in0, in1);
          out = make_lit(fresh, false);
        }
        break;
      }
      case GateType::kInput:
        break;  // unreachable (handled above)
    }
    state_[v] = out;
  }

  const auto& outputs = netlist_->outputs();
  for (std::size_t o = 0; o < outputs.size(); ++o) {
    const NodeId driver = outputs[o].driver;
    if (in_cone_[driver] == 0) continue;  // checked by bind_dip
    const Lit s = state_[driver];
    if (state_is_const(s)) {
      // The cone folded to a key-independent value under this DIP.
      if (state_const_value(s) != response_[o]) return false;
      continue;
    }
    if (!solver.add_clause(response_[o] ? s : lit_neg(s))) {
      return false;  // IO constraints UNSAT at level 0: key space empty
    }
  }
  return solver.okay();
}

}  // namespace autolock::sat
