#include "sat/cnf.hpp"

#include <algorithm>
#include <stdexcept>

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
    const std::optional<std::vector<Var>>& share_primary_inputs,
    const std::optional<std::vector<Var>>& share_keys) {
  const auto primary = netlist.primary_inputs();
  const auto keys = netlist.key_inputs();
  if (share_primary_inputs && share_primary_inputs->size() != primary.size()) {
    throw std::invalid_argument("encode_netlist: shared PI count mismatch");
  }
  if (share_keys && share_keys->size() != keys.size()) {
    throw std::invalid_argument("encode_netlist: shared key count mismatch");
  }

  Encoding enc;
  enc.node_var.assign(netlist.size(), -1);
  solver.reserve_vars(solver.num_vars() + netlist.size());

  // Inputs first (shared or fresh).
  for (std::size_t i = 0; i < primary.size(); ++i) {
    enc.node_var[primary[i]] =
        share_primary_inputs ? (*share_primary_inputs)[i] : solver.new_var();
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    enc.node_var[keys[i]] = share_keys ? (*share_keys)[i] : solver.new_var();
  }

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

std::vector<Var> pin_constants(Solver& solver, const std::vector<bool>& bits) {
  std::vector<Var> vars;
  vars.reserve(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const Var v = solver.new_var();
    solver.add_clause(make_lit(v, !bits[i]));
    vars.push_back(v);
  }
  return vars;
}

bool check_equivalent(const Netlist& a, const netlist::Key& a_key,
                      const Netlist& b, const netlist::Key& b_key) {
  if (a.primary_inputs().size() != b.primary_inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    return false;
  }
  if (a.key_inputs().size() != a_key.size() ||
      b.key_inputs().size() != b_key.size()) {
    throw std::invalid_argument("check_equivalent: key length mismatch");
  }
  Solver solver;
  const Encoding enc_a =
      encode_netlist(solver, a, std::nullopt, pin_constants(solver, a_key));
  const Encoding enc_b = encode_netlist(solver, b, enc_a.primary_input_var,
                                        pin_constants(solver, b_key));
  const Var miter = make_miter(solver, enc_a, enc_b);
  const SolveResult result = solver.solve({make_lit(miter, false)});
  if (result == SolveResult::kUnknown) {
    throw std::runtime_error("check_equivalent: budget exhausted");
  }
  return result == SolveResult::kUnsat;
}

bool check_unlocks(const Netlist& locked, const netlist::Key& key,
                   const Netlist& original) {
  return check_equivalent(locked, key, original, netlist::Key{});
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
  for (std::size_t i = 0; i < keys.size(); ++i) {
    input_index_[keys[i]] = static_cast<std::int32_t>(i);
  }

  for (const NodeId v : netlist.topological_order()) {
    const auto& node = netlist.node(v);
    max_fanin_ = std::max(max_fanin_, node.fanins.size());
    bool in_cone = node.type == GateType::kInput && node.is_key_input;
    for (const NodeId fanin : node.fanins) {
      in_cone = in_cone || in_cone_[fanin] != 0;
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
