#include "netlist/netlist.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace autolock::netlist {

std::uint64_t Netlist::fresh_version() noexcept {
  // Each thread draws from its own block of a process-wide counter, so a
  // mutation costs an atomic operation only once per block. 0 is never
  // issued: callers may use it for "no version".
  constexpr std::uint64_t kBlock = std::uint64_t{1} << 16;
  static std::atomic<std::uint64_t> next_block{1};
  thread_local std::uint64_t next = 0;
  thread_local std::uint64_t end = 0;
  if (next == end) {
    next = next_block.fetch_add(kBlock, std::memory_order_relaxed);
    end = next + kBlock;
  }
  return next++;
}

Netlist::Netlist(const Netlist& other)
    : name_(other.name_),
      names_(other.names_),
      nodes_(other.nodes_),
      inputs_(other.inputs_),
      outputs_(other.outputs_),
      node_of_name_(other.node_of_name_),
      port_names_(other.port_names_),
      issued_names_(other.issued_names_),
      empty_name_(other.empty_name_),
      structural_version_(other.structural_version_) {}

Netlist& Netlist::operator=(const Netlist& other) {
  if (this == &other) return *this;
  name_ = other.name_;
  names_ = other.names_;
  nodes_ = other.nodes_;
  inputs_ = other.inputs_;
  outputs_ = other.outputs_;
  node_of_name_ = other.node_of_name_;
  port_names_ = other.port_names_;
  issued_names_ = other.issued_names_;
  empty_name_ = other.empty_name_;
  cache_ = TraversalCache{};
  structural_version_ = other.structural_version_;  // same structure
  return *this;
}

Netlist::Netlist(Netlist&& other) noexcept
    : name_(std::move(other.name_)),
      names_(other.names_),  // keep the source usable: tables are shared
      nodes_(std::move(other.nodes_)),
      inputs_(std::move(other.inputs_)),
      outputs_(std::move(other.outputs_)),
      node_of_name_(std::move(other.node_of_name_)),
      port_names_(std::move(other.port_names_)),
      issued_names_(other.issued_names_),
      empty_name_(other.empty_name_),
      cache_(std::move(other.cache_)),
      structural_version_(other.structural_version_) {
  other.cache_ = TraversalCache{};
  other.structural_version_ = fresh_version();
}

Netlist& Netlist::operator=(Netlist&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  names_ = other.names_;
  nodes_ = std::move(other.nodes_);
  inputs_ = std::move(other.inputs_);
  outputs_ = std::move(other.outputs_);
  node_of_name_ = std::move(other.node_of_name_);
  port_names_ = std::move(other.port_names_);
  issued_names_ = other.issued_names_;
  empty_name_ = other.empty_name_;
  cache_ = std::move(other.cache_);
  other.cache_ = TraversalCache{};
  structural_version_ = other.structural_version_;
  other.structural_version_ = fresh_version();
  return *this;
}

void Netlist::invalidate_traversal_cache() noexcept {
  cache_.topo_valid = false;
  cache_.topo_primed = false;
  structural_version_ = fresh_version();
}

void Netlist::index_name(NameId symbol, NodeId id) {
  if (node_of_name_.size() <= symbol) {
    node_of_name_.resize(symbol + 1, kNoNode);
  }
  node_of_name_[symbol] = id;
}

void Netlist::reserve_nodes(std::size_t nodes, std::size_t input_nodes) {
  nodes_.reserve(nodes_.size() + nodes);
  inputs_.reserve(inputs_.size() + input_nodes);
  // New names intern densely at the end of the shared table, so the name
  // index grows to about (table size + new nodes) entries.
  node_of_name_.reserve(names_->size() + nodes);
  note_issued_names();
}

void Netlist::note_issued_names() {
  issued_names_ = static_cast<NameId>(names_->size());
  empty_name_ = names_->find("");  // after size(): "" is below it if issued
}

NodeId Netlist::add_node(Node node) {
  const auto id = static_cast<NodeId>(nodes_.size());
  if (node.name == kNoName) {
    node.name = fresh_name(id);
  } else {
    // A symbol interned since the last note (a decode's key names) moves
    // the mark up once; the nodes after it pass without the table's lock.
    if (node.name >= issued_names_) note_issued_names();
    if (node.name >= issued_names_) {
      // The NameId overloads must not accept symbols from a foreign table.
      throw std::out_of_range("Netlist: unknown NameId " +
                              std::to_string(node.name));
    }
    if (node.name == empty_name_) {
      throw std::invalid_argument("Netlist: empty node name");
    }
  }
  if (lookup_name(node.name) != kNoNode) {
    throw std::invalid_argument("Netlist: duplicate node name '" +
                                std::string(names_->text(node.name)) + "'");
  }
  index_name(node.name, id);
  nodes_.push_back(std::move(node));
  invalidate_traversal_cache();
  return id;
}

NameId Netlist::fresh_name(NodeId id) const {
  std::string candidate = "n" + std::to_string(id);
  NameId symbol = names_->intern(candidate);
  while (lookup_name(symbol) != kNoNode) {
    candidate += "_";
    symbol = names_->intern(candidate);
  }
  return symbol;
}

NodeId Netlist::add_input(std::string_view node_name, bool is_key) {
  if (node_name.empty()) {
    throw std::invalid_argument("Netlist::add_input: empty name");
  }
  return add_input(names_->intern(node_name), is_key);
}

NodeId Netlist::add_input(NameId node_name, bool is_key) {
  // Inputs are never auto-named; range/emptiness is checked by add_node.
  if (node_name == kNoName) {
    throw std::invalid_argument("Netlist::add_input: empty name");
  }
  Node node;
  node.type = GateType::kInput;
  node.is_key_input = is_key;
  node.name = node_name;
  const NodeId id = add_node(std::move(node));
  inputs_.push_back(id);
  return id;
}

NodeId Netlist::add_const(bool value, std::string_view node_name) {
  return add_const(value,
                   node_name.empty() ? kNoName : names_->intern(node_name));
}

NodeId Netlist::add_const(bool value, NameId node_name) {
  Node node;
  node.type = value ? GateType::kConst1 : GateType::kConst0;
  node.name = node_name;
  return add_node(std::move(node));
}

NodeId Netlist::add_gate(GateType type, std::vector<NodeId> fanins,
                         std::string_view node_name) {
  return add_gate(type, std::move(fanins),
                  node_name.empty() ? kNoName : names_->intern(node_name));
}

NodeId Netlist::add_gate(GateType type, std::vector<NodeId> fanins,
                         NameId node_name) {
  if (is_source(type)) {
    throw std::invalid_argument("Netlist::add_gate: use add_input/add_const");
  }
  const Arity arity = gate_arity(type);
  if (fanins.size() < arity.min ||
      (arity.max != 0 && fanins.size() > arity.max)) {
    throw std::invalid_argument(
        std::string("Netlist::add_gate: bad fanin count for ") +
        std::string(gate_type_name(type)));
  }
  for (NodeId fanin : fanins) {
    if (!valid_id(fanin)) {
      throw std::invalid_argument("Netlist::add_gate: fanin id out of range");
    }
  }
  Node node;
  node.type = type;
  node.name = node_name;
  node.fanins = std::move(fanins);
  return add_node(std::move(node));
}

void Netlist::mark_output(NodeId id, std::string_view port_name) {
  mark_output(id, port_name.empty() ? kNoName : names_->intern(port_name));
}

void Netlist::mark_output(NodeId id, NameId port_name) {
  if (!valid_id(id)) {
    throw std::invalid_argument("Netlist::mark_output: id out of range");
  }
  if (port_name == kNoName) {
    port_name = nodes_[id].name;
  } else {
    (void)names_->text(port_name);  // throws for ids from a foreign table
  }
  if (port_names_.size() <= port_name) port_names_.resize(port_name + 1);
  if (port_names_[port_name]) {
    throw std::invalid_argument("Netlist::mark_output: duplicate port '" +
                                std::string(names_->text(port_name)) + "'");
  }
  port_names_[port_name] = true;
  outputs_.push_back(OutputPort{port_name, id});
  // Output ports are not traversal edges (no cache invalidation needed),
  // but they are structure: the warm decode must see this.
  structural_version_ = fresh_version();
}

void Netlist::set_output_driver(std::size_t output_index, NodeId new_driver) {
  if (output_index >= outputs_.size() || !valid_id(new_driver)) {
    throw std::invalid_argument("Netlist::set_output_driver: bad argument");
  }
  outputs_[output_index].driver = new_driver;
  invalidate_traversal_cache();
}

std::size_t Netlist::replace_fanin(NodeId gate, NodeId old_fanin,
                                   NodeId new_fanin) {
  if (!valid_id(gate) || !valid_id(new_fanin)) {
    throw std::invalid_argument("Netlist::replace_fanin: id out of range");
  }
  std::size_t replaced = 0;
  for (NodeId& fanin : nodes_[gate].fanins) {
    if (fanin == old_fanin) {
      fanin = new_fanin;
      ++replaced;
    }
  }
  if (replaced != 0) invalidate_traversal_cache();
  return replaced;
}

void Netlist::append_fanin(NodeId gate, NodeId fanin) {
  if (!valid_id(gate) || !valid_id(fanin)) {
    throw std::invalid_argument("Netlist::append_fanin: id out of range");
  }
  const Arity arity = gate_arity(nodes_[gate].type);
  if (arity.max != 0) {
    throw std::invalid_argument(
        "Netlist::append_fanin: gate type has bounded arity");
  }
  nodes_[gate].fanins.push_back(fanin);
  invalidate_traversal_cache();
}

void Netlist::truncate(std::size_t count) {
  if (count > nodes_.size()) {
    throw std::invalid_argument("Netlist::truncate: count exceeds size");
  }
  for (const OutputPort& port : outputs_) {
    if (port.driver >= count) {
      throw std::invalid_argument(
          "Netlist::truncate: an output port drives a removed node");
    }
  }
  if (count == nodes_.size()) return;
  for (std::size_t v = count; v < nodes_.size(); ++v) {
    node_of_name_[nodes_[v].name] = kNoNode;
  }
  nodes_.resize(count);
  while (!inputs_.empty() && inputs_.back() >= count) inputs_.pop_back();
  invalidate_traversal_cache();
}

std::vector<NodeId> Netlist::primary_inputs() const {
  std::vector<NodeId> result;
  for (NodeId id : inputs_) {
    if (!nodes_[id].is_key_input) result.push_back(id);
  }
  return result;
}

std::vector<NodeId> Netlist::key_inputs() const {
  std::vector<NodeId> result;
  for (NodeId id : inputs_) {
    if (nodes_[id].is_key_input) result.push_back(id);
  }
  return result;
}

NodeId Netlist::find(std::string_view node_name) const noexcept {
  const NameId symbol = names_->find(node_name);
  return symbol == kNoName ? kNoNode : lookup_name(symbol);
}

NodeId Netlist::find(NameId node_name) const noexcept {
  return node_name == kNoName ? kNoNode : lookup_name(node_name);
}

bool Netlist::is_acyclic() const {
  const std::scoped_lock lock(cache_mutex_);
  if (cache_.topo_primed) {
    check_order(cache_.topo);
    cache_.topo_primed = false;
  }
  if (!cache_.topo_valid) {
    cache_.topo_valid = compute_topological_order(cache_.topo);
  }
  return cache_.topo_valid;
}

const std::vector<NodeId>& Netlist::topological_order() const {
  const std::scoped_lock lock(cache_mutex_);
  if (!cache_.topo_valid) {
    cache_.topo_valid = compute_topological_order(cache_.topo);
    if (!cache_.topo_valid) {
      throw std::runtime_error("Netlist::topological_order: graph is cyclic");
    }
  }
  return cache_.topo;
}

void Netlist::prime_topological_order(std::vector<NodeId>& order) const {
#ifndef NDEBUG
  check_order(order);
#endif
  const std::scoped_lock lock(cache_mutex_);
  cache_.topo.swap(order);
  cache_.topo_valid = true;
  cache_.topo_primed = true;
}

void Netlist::check_order(const std::vector<NodeId>& order) const {
  // A permutation of all node ids in which every fanin precedes its gate.
  if (order.size() != nodes_.size()) {
    throw std::logic_error("primed topological order: wrong length");
  }
  std::vector<std::uint32_t> position(nodes_.size(), kNoNode);
  for (std::uint32_t i = 0; i < order.size(); ++i) {
    if (order[i] >= nodes_.size() || position[order[i]] != kNoNode) {
      throw std::logic_error("primed topological order: not a permutation");
    }
    position[order[i]] = i;
  }
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    for (const NodeId f : nodes_[v].fanins) {
      if (position[f] >= position[v]) {
        throw std::logic_error("primed topological order: edge out of order");
      }
    }
  }
}

bool Netlist::compute_topological_order(std::vector<NodeId>& order) const {
  // One Kahn pass records every node's longest-path level (sources 0, a
  // gate one above its highest fanin); a counting sort by level, each level
  // filled in ascending id, then yields the (level, id) order. The Kahn
  // queue is never popped, so once every node has entered it the buffer is
  // free to receive the sorted order.
  const std::size_t n = nodes_.size();
  CsrFanouts fanouts;
  fanouts.build(*this);
  std::vector<std::uint32_t> pending(n);
  std::vector<std::uint32_t> level(n, 0);
  order.clear();
  order.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    pending[v] = static_cast<std::uint32_t>(nodes_[v].fanins.size());
    if (pending[v] == 0) order.push_back(v);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId v = order[head];
    const std::uint32_t next = level[v] + 1;
    for (const NodeId w : fanouts.fanouts(v)) {
      level[w] = std::max(level[w], next);
      if (--pending[w] == 0) order.push_back(w);
    }
  }
  if (order.size() != n) return false;
  order_by_level(level, order);
  return true;
}

std::vector<bool> Netlist::live_mask() const {
  std::vector<bool> live(nodes_.size(), false);
  std::vector<NodeId> stack;
  for (const auto& port : outputs_) {
    if (!live[port.driver]) {
      live[port.driver] = true;
      stack.push_back(port.driver);
    }
  }
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (NodeId fanin : nodes_[v].fanins) {
      if (!live[fanin]) {
        live[fanin] = true;
        stack.push_back(fanin);
      }
    }
  }
  return live;
}

std::size_t Netlist::depth() const {
  std::vector<std::size_t> level;
  node_levels_into(*this, level);
  return level.empty() ? 0 : *std::max_element(level.begin(), level.end());
}

void node_levels_into(const Netlist& netlist, std::vector<std::size_t>& out) {
  out.assign(netlist.size(), 0);
  for (NodeId v : netlist.topological_order()) {
    std::size_t best = 0;
    for (NodeId fanin : netlist.node(v).fanins) {
      best = std::max(best, out[fanin] + 1);
    }
    out[v] = best;
  }
}

void order_by_level(std::span<const std::uint32_t> level,
                    std::vector<NodeId>& order) {
  const std::uint32_t max_level =
      level.empty() ? 0 : *std::max_element(level.begin(), level.end());
  std::vector<std::uint32_t> level_start(std::size_t{max_level} + 2, 0);
  for (const std::uint32_t l : level) ++level_start[l + 1];
  for (std::size_t l = 1; l < level_start.size(); ++l) {
    level_start[l] += level_start[l - 1];
  }
  order.resize(level.size());
  for (NodeId v = 0; v < level.size(); ++v) order[level_start[level[v]]++] = v;
}

std::size_t Netlist::gate_count() const noexcept {
  std::size_t gates = 0;
  for (const Node& node : nodes_) {
    if (!is_source(node.type)) ++gates;
  }
  return gates;
}

NetlistStats Netlist::stats() const {
  NetlistStats s;
  for (NodeId id : inputs_) {
    if (nodes_[id].is_key_input) ++s.key_inputs;
    else ++s.primary_inputs;
  }
  s.outputs = outputs_.size();
  for (const Node& node : nodes_) {
    if (!is_source(node.type)) ++s.gates;
  }
  s.depth = depth();
  return s;
}

Netlist Netlist::compacted() const {
  const auto live = live_mask();
  Netlist out(name_, names_);  // same design family: NameIds carry over
  std::vector<NodeId> remap(nodes_.size(), kNoNode);
  // Keep every input (interface stability), in order.
  for (NodeId id : inputs_) {
    remap[id] = out.add_input(nodes_[id].name, nodes_[id].is_key_input);
  }
  for (NodeId v : topological_order()) {
    if (remap[v] != kNoNode) continue;           // already added (input)
    if (!live[v]) continue;                      // dead node
    const Node& node = nodes_[v];
    if (node.type == GateType::kConst0 || node.type == GateType::kConst1) {
      remap[v] = out.add_const(node.type == GateType::kConst1, node.name);
      continue;
    }
    std::vector<NodeId> fanins;
    fanins.reserve(node.fanins.size());
    for (NodeId fanin : node.fanins) fanins.push_back(remap[fanin]);
    remap[v] = out.add_gate(node.type, std::move(fanins), node.name);
  }
  for (const auto& port : outputs_) {
    out.mark_output(remap[port.driver], port.name);
  }
  return out;
}

void Netlist::validate() const {
  // The table only grows, so one look covers every node's name.
  const std::size_t issued = names_->size();
  const NameId empty_name = names_->find("");
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    const Node& node = nodes_[v];
    if (node.name != kNoName && node.name >= issued) {
      (void)names_->text(node.name);  // throws: a foreign table's id
    }
    if (node.name == kNoName || node.name == empty_name) {
      throw std::runtime_error("Netlist::validate: unnamed node");
    }
    if (lookup_name(node.name) != v) {
      throw std::runtime_error("Netlist::validate: name index broken for '" +
                               std::string(names_->text(node.name)) + "'");
    }
    if (is_source(node.type)) {
      if (!node.fanins.empty()) {
        throw std::runtime_error("Netlist::validate: source with fanins");
      }
      continue;
    }
    const Arity arity = gate_arity(node.type);
    if (node.fanins.size() < arity.min ||
        (arity.max != 0 && node.fanins.size() > arity.max)) {
      throw std::runtime_error("Netlist::validate: bad arity at '" +
                               std::string(names_->text(node.name)) + "'");
    }
    for (NodeId fanin : node.fanins) {
      if (!valid_id(fanin)) {
        throw std::runtime_error("Netlist::validate: dangling fanin at '" +
                                 std::string(names_->text(node.name)) + "'");
      }
    }
  }
  for (const auto& port : outputs_) {
    if (!valid_id(port.driver)) {
      throw std::runtime_error("Netlist::validate: dangling output port");
    }
  }
  if (!is_acyclic()) {
    throw std::runtime_error("Netlist::validate: cyclic");
  }
}

}  // namespace autolock::netlist
