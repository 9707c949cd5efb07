#include "netlist/bench_stream.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netlist/bench_io.hpp"

namespace autolock::netlist::bench {

namespace {

/// std::isspace in the "C" locale (the program never sets another),
/// without a library call per character.
constexpr bool is_space(char ch) noexcept {
  return ch == ' ' || (ch >= '\t' && ch <= '\r');
}

std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& message) {
  throw std::runtime_error("bench parse error at line " +
                           std::to_string(line_no) + ": " + message);
}

/// True iff `name` is "keyinput" followed by one or more digits — the key
/// naming *shape*, regardless of whether the index fits kMaxKeyBitIndex.
/// Turns out-of-range indices into parse errors instead of silently
/// demoting them to primary inputs.
bool has_key_input_shape(std::string_view name) noexcept {
  constexpr std::string_view kPrefix = "keyinput";
  if (name.size() <= kPrefix.size()) return false;
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  for (char ch : name.substr(kPrefix.size())) {
    if (!std::isdigit(static_cast<unsigned char>(ch))) return false;
  }
  return true;
}

constexpr std::uint32_t kNoTid = static_cast<std::uint32_t>(-1);

/// Scan-local string interner: every distinct signal name is copied once
/// into a flat char arena and afterwards addressed by a dense u32 id, so
/// no pending record owns a heap string. Open-addressed (power-of-two,
/// linear probing) over name_hash, the hash NameTable indexes by: each
/// bucket keeps the name's hash as a tag beside its id, so a probe
/// compares text only on a tag match, growth never rehashes text, and the
/// build phase hands the hashes on to NameTable::intern_batch.
class NamePool {
 public:
  /// Interns `names` in order, their ids into `tids`. The names are hashed
  /// first and each probe prefetches the bucket of the name a few places
  /// ahead, so the cache misses of a run of lines overlap.
  void intern_all(std::span<const std::string_view> names,
                  std::vector<std::uint32_t>& tids) {
    reserve(names.size());
    hashes_.resize(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
      hashes_[i] = name_hash(names[i]);
    }
    constexpr std::size_t kAhead = 8;
    const std::size_t mask = buckets_.size() - 1;
    for (std::size_t i = 0; i < std::min(kAhead, names.size()); ++i) {
      __builtin_prefetch(&buckets_[hashes_[i] & mask]);
    }
    tids.resize(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i + kAhead < names.size()) {
        __builtin_prefetch(&buckets_[hashes_[i + kAhead] & mask]);
      }
      tids[i] = probe(names[i], hashes_[i]);
    }
  }

  std::string_view text(std::uint32_t tid) const noexcept {
    return {arena_.data() + entries_[tid].offset, entries_[tid].length};
  }

  std::uint32_t hash(std::uint32_t tid) const noexcept {
    return entries_[tid].hash;
  }

  std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
    std::uint32_t hash = 0;
  };

  std::uint32_t probe(std::string_view s, std::uint32_t hash) {
    const std::uint64_t tag = std::uint64_t{hash} << 32;
    const std::size_t mask = buckets_.size() - 1;
    std::size_t b = hash & mask;
    for (; buckets_[b] != 0; b = (b + 1) & mask) {
      if ((buckets_[b] & ~std::uint64_t{0xFFFFFFFF}) != tag) continue;
      const auto tid = static_cast<std::uint32_t>(buckets_[b]) - 1;
      if (text(tid) == s) return tid;
    }
    const auto tid = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back({static_cast<std::uint32_t>(arena_.size()),
                        static_cast<std::uint32_t>(s.size()), hash});
    arena_.insert(arena_.end(), s.begin(), s.end());
    buckets_[b] = tag | (std::uint64_t{tid} + 1);
    return tid;
  }

  /// Keeps the buckets at most half full for `extra` more names.
  void reserve(std::size_t extra) {
    const std::size_t wanted = (entries_.size() + extra) * 2;
    if (wanted <= buckets_.size()) return;
    const std::size_t cap = std::bit_ceil(std::max<std::size_t>(wanted, 1024));
    std::vector<std::uint64_t> fresh(cap, 0);
    for (const std::uint64_t bucket : buckets_) {
      if (bucket == 0) continue;
      std::size_t b = (bucket >> 32) & (cap - 1);
      while (fresh[b] != 0) b = (b + 1) & (cap - 1);
      fresh[b] = bucket;
    }
    buckets_.swap(fresh);
  }

  std::vector<char> arena_;
  std::vector<Entry> entries_;
  std::vector<std::uint64_t> buckets_;  // hash << 32 | (tid + 1); 0 = empty
  std::vector<std::uint32_t> hashes_;   // intern_all's scratch
};

/// Pending declarations, recorded during the scan and materialized after
/// it: names are pool ids, operands live in one shared flat vector. A line
/// first records each name as its index into ScanState::names;
/// intern_names() swaps in the pool ids.
struct PendingPort {
  std::uint32_t tid = kNoTid;
  std::size_t line_no = 0;
};

struct PendingGate {
  std::uint32_t tid = kNoTid;
  GateType type = GateType::kBuf;
  std::uint32_t op_begin = 0;
  std::uint32_t op_end = 0;
  std::size_t line_no = 0;
};

struct ScanState {
  NamePool pool;
  std::vector<PendingPort> inputs;
  std::vector<PendingPort> outputs;
  std::vector<PendingGate> gates;
  std::vector<std::uint32_t> operands;  // flat [op_begin, op_end) storage

  /// The names the lines since the last intern_names() refer to: views
  /// into the chunk buffer, so they are interned before it moves.
  std::vector<std::string_view> names;
  std::vector<std::uint32_t> tids;  // intern_names' scratch
  /// The records intern_names() has already given pool ids.
  std::size_t interned_inputs = 0;
  std::size_t interned_outputs = 0;
  std::size_t interned_gates = 0;
  std::size_t interned_operands = 0;

  /// Records `name` for the next intern_names(); returns its index.
  std::uint32_t defer(std::string_view name) {
    names.push_back(name);
    return static_cast<std::uint32_t>(names.size() - 1);
  }
};

/// Interns every deferred name in one pool batch and rewrites the records
/// added since the last call from name indices to pool ids.
void intern_names(ScanState& s) {
  s.pool.intern_all(s.names, s.tids);
  for (; s.interned_inputs < s.inputs.size(); ++s.interned_inputs) {
    s.inputs[s.interned_inputs].tid = s.tids[s.inputs[s.interned_inputs].tid];
  }
  for (; s.interned_outputs < s.outputs.size(); ++s.interned_outputs) {
    s.outputs[s.interned_outputs].tid =
        s.tids[s.outputs[s.interned_outputs].tid];
  }
  for (; s.interned_gates < s.gates.size(); ++s.interned_gates) {
    s.gates[s.interned_gates].tid = s.tids[s.gates[s.interned_gates].tid];
  }
  for (; s.interned_operands < s.operands.size(); ++s.interned_operands) {
    s.operands[s.interned_operands] = s.tids[s.operands[s.interned_operands]];
  }
  s.names.clear();
}

/// One line of the grammar, operating on views into the chunk buffer.
void scan_line(std::string_view line, std::size_t line_no, ScanState& s) {
  constexpr std::size_t npos = std::string_view::npos;
  const std::size_t hash_pos = line.find('#');
  if (hash_pos != npos) line = line.substr(0, hash_pos);
  line = trim(line);
  if (line.empty()) return;

  const std::size_t eq = line.find('=');
  const std::size_t first_open = line.find('(');
  const std::size_t last_close = line.rfind(')');
  // An '=' inside the parentheses of a directive ("INPUT(a=b)") would slip
  // through as a bogus BUF alias named "INPUT(a"; diagnose it.
  if (eq != npos && first_open != npos && first_open < eq) {
    fail(line_no, "unexpected '=' after '('");
  }
  if (eq == npos) {
    // INPUT(...) or OUTPUT(...)
    const std::size_t open = first_open;
    const std::size_t close = last_close;
    if (open == npos || close == npos || close < open) {
      fail(line_no, "expected INPUT(name) or OUTPUT(name)");
    }
    if (!trim(line.substr(close + 1)).empty()) {
      fail(line_no, "trailing characters after ')'");
    }
    const std::string_view keyword = trim(line.substr(0, open));
    const std::string_view arg = trim(line.substr(open + 1, close - open - 1));
    if (arg.empty()) fail(line_no, "empty port name");
    std::string upper;
    for (char ch : keyword) {
      upper.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(ch))));
    }
    if (upper == "INPUT") {
      s.inputs.push_back({s.defer(arg), line_no});
    } else if (upper == "OUTPUT") {
      s.outputs.push_back({s.defer(arg), line_no});
    } else {
      fail(line_no, "unknown directive '" + std::string{keyword} + "'");
    }
    return;
  }

  // A gate: the first '(' is right of '=' (checked above), so it opens the
  // right-hand side; a ')' left of '=' is part of the name.
  PendingGate gate;
  gate.line_no = line_no;
  const std::string_view gate_name = trim(line.substr(0, eq));
  if (gate_name.empty()) fail(line_no, "missing signal name before '='");
  gate.op_begin = static_cast<std::uint32_t>(s.operands.size());
  const std::size_t close = last_close != npos && last_close > eq ? last_close
                                                                  : npos;
  if (first_open == npos) {
    // CONST0 / CONST1 extension, or bare alias "a = b" (treated as BUF).
    if (close != npos) fail(line_no, "')' without matching '('");
    const std::string_view keyword = trim(line.substr(eq + 1));
    if (const auto type = parse_gate_type(keyword);
        type && (*type == GateType::kConst0 || *type == GateType::kConst1)) {
      gate.type = *type;
      gate.tid = s.defer(gate_name);
      gate.op_end = gate.op_begin;
      s.gates.push_back(gate);
      return;
    }
    if (keyword.empty()) fail(line_no, "empty right-hand side");
    gate.type = GateType::kBuf;
    gate.tid = s.defer(gate_name);
    s.operands.push_back(s.defer(keyword));
    gate.op_end = static_cast<std::uint32_t>(s.operands.size());
    s.gates.push_back(gate);
    return;
  }
  if (close == npos || close < first_open) {
    fail(line_no, "unbalanced parentheses");
  }
  if (!trim(line.substr(close + 1)).empty()) {
    fail(line_no, "trailing characters after ')'");
  }
  const std::string_view keyword =
      trim(line.substr(eq + 1, first_open - eq - 1));
  const auto type = parse_gate_type(keyword);
  if (!type) fail(line_no, "unknown gate type '" + std::string{keyword} + "'");
  if (is_source(*type) && *type == GateType::kInput) {
    fail(line_no, "INPUT used as a gate");
  }
  gate.type = *type;
  gate.tid = s.defer(gate_name);
  const std::string_view args =
      line.substr(first_open + 1, close - first_open - 1);
  if (!trim(args).empty()) {
    std::size_t start = 0;
    while (start <= args.size()) {
      std::size_t comma = args.find(',', start);
      if (comma == npos) comma = args.size();
      const std::string_view operand = trim(args.substr(start, comma - start));
      // "AND(a,,b)" / "AND(a,)" must not drop the empty slot: that would
      // shift every later operand (fatal for MUX fanin order).
      if (operand.empty()) fail(line_no, "empty operand");
      s.operands.push_back(s.defer(operand));
      start = comma + 1;
    }
  }
  gate.op_end = static_cast<std::uint32_t>(s.operands.size());
  if (gate.op_end == gate.op_begin && *type != GateType::kConst0 &&
      *type != GateType::kConst1) {
    fail(line_no, "gate with no operands");
  }
  s.gates.push_back(gate);
}

/// Scan phase: reads `in` chunk by chunk, feeding complete lines (views
/// into the chunk buffer) to scan_line and carrying the partial last line
/// to the front of the next read. A line longer than the buffer doubles it.
/// A read that fails with bad() (e.g. EISDIR on a directory) throws rather
/// than ending the scan as if it were end of file.
void scan_stream(std::istream& in, std::size_t chunk_bytes, ScanState& s) {
  // Names are interned a few hundred at a time, enough for the probes'
  // prefetches to run ahead, few enough to stay in cache.
  constexpr std::size_t kInternBatch = 256;
  std::vector<char> buf(std::max<std::size_t>(chunk_bytes, 64));
  std::size_t have = 0;
  std::size_t line_no = 0;
  bool eof = false;
  while (!eof || have > 0) {
    if (!eof) {
      if (have == buf.size()) buf.resize(buf.size() * 2);
      in.read(buf.data() + have, static_cast<std::streamsize>(buf.size() - have));
      if (in.bad()) throw std::runtime_error("bench read error");
      const std::size_t got = static_cast<std::size_t>(in.gcount());
      have += got;
      if (got == 0) eof = true;
    }
    std::size_t pos = 0;
    while (pos < have) {
      const void* nl = std::memchr(buf.data() + pos, '\n', have - pos);
      if (nl == nullptr) break;
      const std::size_t eol =
          static_cast<std::size_t>(static_cast<const char*>(nl) - buf.data());
      scan_line({buf.data() + pos, eol - pos}, ++line_no, s);
      pos = eol + 1;
      if (s.names.size() >= kInternBatch) intern_names(s);
    }
    if (eof && pos < have) {  // final line without a trailing newline
      scan_line({buf.data() + pos, have - pos}, ++line_no, s);
      pos = have;
    }
    intern_names(s);
    std::memmove(buf.data(), buf.data() + pos, have - pos);
    have -= pos;
  }
}

}  // namespace

Netlist stream_parse(std::istream& in, std::string circuit_name,
                     std::size_t chunk_bytes) {
  ScanState s;
  scan_stream(in, chunk_bytes, s);

  // Build phase: definition checks and a dependency DFS over pool ids.
  // def_flag marks defined names (inputs + materialized gates; 2 once an
  // output port names them), gate_of maps a name to the gate declaring it.
  const std::size_t pool_n = s.pool.size();
  std::vector<std::uint8_t> def_flag(pool_n, 0);
  std::vector<std::uint32_t> gate_of(pool_n, kNoTid);
  for (const PendingPort& input : s.inputs) {
    const std::string_view text = s.pool.text(input.tid);
    if (def_flag[input.tid]) {
      fail(input.line_no, "duplicate input '" + std::string{text} + "'");
    }
    if (has_key_input_shape(text) && !is_key_input_name(text)) {
      fail(input.line_no,
           "key input index out of range in '" + std::string{text} + "'");
    }
    def_flag[input.tid] = 1;
  }
  for (std::uint32_t i = 0; i < s.gates.size(); ++i) {
    const std::uint32_t tid = s.gates[i].tid;
    if (def_flag[tid] || gate_of[tid] != kNoTid) {
      fail(s.gates[i].line_no, "duplicate definition of '" +
                                   std::string{s.pool.text(tid)} + "'");
    }
    gate_of[tid] = i;
  }

  // Dependency DFS in declaration order (bench files may use a signal
  // before defining it), pushing every unresolved operand per visit:
  // mat_order is the node-creation order, and with it the NameId order.
  std::vector<std::uint8_t> state(s.gates.size(), 0);  // 0=new 1=visiting 2=done
  std::vector<std::uint32_t> stack;
  std::vector<std::uint32_t> mat_order;
  mat_order.reserve(s.gates.size());
  for (std::uint32_t root = 0; root < s.gates.size(); ++root) {
    if (state[root] == 2) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const std::uint32_t g = stack.back();
      if (state[g] == 2) {
        stack.pop_back();
        continue;
      }
      state[g] = 1;
      bool ready = true;
      for (std::uint32_t e = s.gates[g].op_begin; e < s.gates[g].op_end; ++e) {
        const std::uint32_t op = s.operands[e];
        if (def_flag[op]) continue;
        if (gate_of[op] == kNoTid) {
          fail(s.gates[g].line_no,
               "undefined operand '" + std::string{s.pool.text(op)} + "'");
        }
        if (state[gate_of[op]] == 1) {
          fail(s.gates[g].line_no, "combinational cycle through '" +
                                       std::string{s.pool.text(op)} + "'");
        }
        if (state[gate_of[op]] == 0) {
          stack.push_back(gate_of[op]);
          ready = false;
        }
      }
      if (!ready) continue;
      mat_order.push_back(g);
      def_flag[s.gates[g].tid] = 1;
      state[g] = 2;
      stack.pop_back();
    }
  }
  for (const PendingPort& output : s.outputs) {
    const std::string_view text = s.pool.text(output.tid);
    if (def_flag[output.tid] == 0) {
      fail(output.line_no, "undefined output '" + std::string{text} + "'");
    }
    if (def_flag[output.tid] == 2) {
      fail(output.line_no, "duplicate output '" + std::string{text} + "'");
    }
    def_flag[output.tid] = 2;
  }

  // Materialize. One intern_batch in node-creation order assigns every
  // name its NameId, reusing the pool's hashes.
  Netlist netlist(std::move(circuit_name));
  const std::size_t node_count = s.inputs.size() + mat_order.size();
  netlist.names()->reserve(node_count);
  std::vector<std::string_view> texts;
  std::vector<std::uint32_t> hashes;
  texts.reserve(node_count);
  hashes.reserve(node_count);
  for (const PendingPort& input : s.inputs) {
    texts.push_back(s.pool.text(input.tid));
    hashes.push_back(s.pool.hash(input.tid));
  }
  for (const std::uint32_t g : mat_order) {
    texts.push_back(s.pool.text(s.gates[g].tid));
    hashes.push_back(s.pool.hash(s.gates[g].tid));
  }
  std::vector<NameId> ids;
  netlist.names()->intern_batch(texts, hashes, ids);
  // After the batch, so the nodes' names count as checked (reserve_nodes).
  netlist.reserve_nodes(node_count, s.inputs.size());
  std::vector<NodeId> node_of(pool_n, kNoNode);
  // Longest-path level of every node as it is created (its fanins exist
  // already), for the (level, id) topological order primed below.
  std::vector<std::uint32_t> level(node_count, 0);
  for (std::size_t i = 0; i < s.inputs.size(); ++i) {
    const std::uint32_t tid = s.inputs[i].tid;
    node_of[tid] = netlist.add_input(ids[i], is_key_input_name(texts[i]));
  }
  for (std::size_t i = 0; i < mat_order.size(); ++i) {
    const PendingGate& gate = s.gates[mat_order[i]];
    const NameId name = ids[s.inputs.size() + i];
    if (gate.type == GateType::kConst0 || gate.type == GateType::kConst1) {
      node_of[gate.tid] =
          netlist.add_const(gate.type == GateType::kConst1, name);
      continue;
    }
    std::vector<NodeId> fanins;
    fanins.reserve(gate.op_end - gate.op_begin);
    std::uint32_t gate_level = 0;
    for (std::uint32_t e = gate.op_begin; e < gate.op_end; ++e) {
      const NodeId fanin = node_of[s.operands[e]];
      fanins.push_back(fanin);
      gate_level = std::max(gate_level, level[fanin]);
    }
    const NodeId id = netlist.add_gate(gate.type, std::move(fanins), name);
    level[id] = gate_level + 1;
    node_of[gate.tid] = id;
  }
  for (const PendingPort& output : s.outputs) {
    netlist.mark_output(node_of[output.tid]);
  }
  std::vector<NodeId> order;
  order_by_level(level, order);
  netlist.prime_topological_order(order);
  netlist.validate();
  return netlist;
}

Netlist stream_load_file(const std::string& path, std::size_t chunk_bytes) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open bench file: " + path);
  std::string circuit_name = path;
  if (const auto slash = circuit_name.find_last_of('/');
      slash != std::string::npos) {
    circuit_name = circuit_name.substr(slash + 1);
  }
  if (const auto dot = circuit_name.find_last_of('.');
      dot != std::string::npos) {
    circuit_name = circuit_name.substr(0, dot);
  }
  return stream_parse(in, std::move(circuit_name), chunk_bytes);
}

void stream_write(const Netlist& netlist, std::ostream& out) {
  out << "# " << netlist.name() << "\n";
  const auto s = netlist.stats();
  out << "# " << s.primary_inputs << " primary inputs, " << s.key_inputs
      << " key inputs, " << s.outputs << " outputs, " << s.gates
      << " gates, depth " << s.depth << "\n";
  // Output ports whose name differs from the driver need an alias BUF line.
  // An output splice (anti-SAT, compound) leaves the displaced driver in
  // the netlist under the port's old name; emitting both the alias and that
  // gate would define the name twice, so any non-driver node that still
  // holds an aliased port name is written under a fresh mangled name.
  std::vector<std::pair<NameId, NodeId>> aliases;
  std::unordered_map<NodeId, std::string> renamed;
  for (const auto& port : netlist.outputs()) {
    if (port.name == netlist.name_id(port.driver)) continue;
    aliases.emplace_back(port.name, port.driver);
    const NodeId holder = netlist.find(port.name);
    if (holder != kNoNode && holder != port.driver &&
        !renamed.contains(holder)) {
      std::string fresh(netlist.name_text(port.name));
      fresh += "_displaced";
      while (netlist.names()->find(fresh) != kNoName) fresh += '_';
      renamed.emplace(holder, std::move(fresh));
    }
  }
  // Printed names are fetched one block of lines at a time, under one
  // shared lock of the name table per block, so the write holds O(block)
  // texts rather than one per node. A line's names are collected, then
  // printed in the same order.
  constexpr std::size_t kBlockNames = std::size_t{1} << 14;
  std::vector<NameId> ids;
  std::vector<std::string_view> text;
  const auto write_lines = [&](std::size_t count, auto collect, auto print) {
    std::size_t next = 0;
    while (next < count) {
      const std::size_t first = next;
      ids.clear();
      while (next < count && ids.size() < kBlockNames) collect(next++);
      netlist.names()->text_batch(ids, text);
      const std::string_view* fetched = text.data();
      for (std::size_t line = first; line < next; ++line) print(line, fetched);
    }
  };
  const auto node_text = [&](NodeId id, std::string_view fetched) {
    if (!renamed.empty()) {
      if (const auto it = renamed.find(id); it != renamed.end()) {
        return std::string_view(it->second);
      }
    }
    return fetched;
  };

  const auto& inputs = netlist.inputs();
  write_lines(
      inputs.size(),
      [&](std::size_t i) { ids.push_back(netlist.name_id(inputs[i])); },
      [&](std::size_t i, const std::string_view*& fetched) {
        out << "INPUT(" << node_text(inputs[i], *fetched++) << ")\n";
      });
  const auto& outputs = netlist.outputs();
  write_lines(
      outputs.size(), [&](std::size_t j) { ids.push_back(outputs[j].name); },
      [&](std::size_t, const std::string_view*& fetched) {
        out << "OUTPUT(" << *fetched++ << ")\n";
      });
  const auto& order = netlist.topological_order();
  write_lines(
      order.size(),
      [&](std::size_t i) {
        const Node& node = netlist.node(order[i]);
        if (node.type == GateType::kInput) return;
        ids.push_back(netlist.name_id(order[i]));
        for (const NodeId fanin : node.fanins) {
          ids.push_back(netlist.name_id(fanin));
        }
      },
      [&](std::size_t i, const std::string_view*& fetched) {
        const NodeId id = order[i];
        const Node& node = netlist.node(id);
        if (node.type == GateType::kInput) return;
        out << node_text(id, *fetched++) << " = ";
        if (node.type == GateType::kConst0 || node.type == GateType::kConst1) {
          out << gate_type_name(node.type) << "\n";
          return;
        }
        out << gate_type_name(node.type) << "(";
        for (std::size_t k = 0; k < node.fanins.size(); ++k) {
          if (k) out << ", ";
          out << node_text(node.fanins[k], *fetched++);
        }
        out << ")\n";
      });
  write_lines(
      aliases.size(),
      [&](std::size_t j) {
        ids.push_back(aliases[j].first);
        ids.push_back(netlist.name_id(aliases[j].second));
      },
      [&](std::size_t j, const std::string_view*& fetched) {
        out << *fetched << " = BUF(";
        out << node_text(aliases[j].second, fetched[1]) << ")\n";
        fetched += 2;
      });
}

void stream_save_file(const Netlist& netlist, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write bench file: " + path);
  stream_write(netlist, out);
  out.flush();
  if (!out) throw std::runtime_error("I/O error writing: " + path);
}

}  // namespace autolock::netlist::bench
