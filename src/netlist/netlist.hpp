// Gate-level combinational netlist container.
//
// A Netlist is a DAG of gates over named signals. Primary inputs and key
// inputs are `kInput` nodes (key inputs carry `is_key_input`); primary
// outputs are references to nodes. The container is value-semantic
// (copyable), which the GA relies on: each individual decodes into its own
// locked Netlist.
//
// Names are interned: every Netlist holds a shared_ptr to a NameTable and
// nodes store u32 NameIds, not strings. Copies share the table, so the
// decode hot path (copy the original, splice key logic in) never touches a
// string — nodes, ports and the flat NameId -> NodeId index all copy as
// plain vectors. String-facing APIs remain: construction accepts
// string_views (interned on entry), `name(NodeId)` / `name_text(NameId)` /
// `output_name(i)` return string_views into the table, and `find()` looks
// up by text. Id-taking overloads exist for hot paths and for rebuilding
// netlists within the same design family (compacted(), the optimizer).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/csr.hpp"
#include "netlist/name_table.hpp"
#include "netlist/types.hpp"

namespace autolock::netlist {

struct Node {
  GateType type = GateType::kInput;
  bool is_key_input = false;
  NameId name = kNoName;
  std::vector<NodeId> fanins;  // kMux order: {select, in0, in1}
};

struct NetlistStats {
  std::size_t primary_inputs = 0;
  std::size_t key_inputs = 0;
  std::size_t outputs = 0;
  std::size_t gates = 0;  // non-source nodes
  std::size_t depth = 0;  // longest input->output path, in gates
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}
  /// Constructs an empty netlist sharing `names` — the same design family
  /// as every other netlist holding that table, so NameIds are exchangeable.
  Netlist(std::string name, std::shared_ptr<NameTable> names)
      : name_(std::move(name)), names_(std::move(names)) {}

  // Copies do not inherit the traversal cache (a freshly decoded individual
  // is mutated immediately, which would discard it anyway); moves keep it.
  // Both share the name table (names are append-only family state).
  Netlist(const Netlist& other);
  Netlist& operator=(const Netlist& other);
  Netlist(Netlist&& other) noexcept;
  Netlist& operator=(Netlist&& other) noexcept;

  // ---- construction ------------------------------------------------------

  /// Pre-allocates node, input and name-index storage for about `nodes`
  /// nodes (of which about `input_nodes` are inputs). Bulk-construction
  /// paths — the streaming .bench reader, the synthetic generators — call
  /// this once before their add_input/add_gate loop so a million-node build
  /// never pays a geometric-growth reallocation storm. It also notes which
  /// names the table has issued so far: nodes added under those names skip
  /// the per-node table lookup.
  void reserve_nodes(std::size_t nodes, std::size_t input_nodes = 0);

  /// Adds a primary input (or key input). Name must be unique and non-empty.
  NodeId add_input(std::string_view node_name, bool is_key = false);
  /// Id-taking overload (symbol must come from this netlist's table).
  NodeId add_input(NameId node_name, bool is_key = false);

  /// Adds a constant-0 / constant-1 source.
  NodeId add_const(bool value, std::string_view node_name = {});
  NodeId add_const(bool value, NameId node_name);

  /// Adds a combinational gate. Checks arity and fanin validity. Name may be
  /// empty, in which case a unique one is generated (n<id>).
  NodeId add_gate(GateType type, std::vector<NodeId> fanins,
                  std::string_view node_name = {});
  NodeId add_gate(GateType type, std::vector<NodeId> fanins, NameId node_name);

  /// Marks a node as a primary output under `port_name` (defaults to the
  /// node's own name). A node may drive multiple output ports.
  void mark_output(NodeId id, std::string_view port_name = {});
  void mark_output(NodeId id, NameId port_name);

  /// Redirects the output port at `output_index` to drive `new_driver`.
  void set_output_driver(std::size_t output_index, NodeId new_driver);

  /// Replaces every occurrence of `old_fanin` in `gate`'s fanin list with
  /// `new_fanin`. Returns the number of replacements made.
  std::size_t replace_fanin(NodeId gate, NodeId old_fanin, NodeId new_fanin);

  /// Appends an extra fanin to an n-ary gate (AND/NAND/OR/NOR/XOR/XNOR).
  /// Throws if the gate's type has bounded arity. Caller is responsible for
  /// keeping the graph acyclic (safe when fanin < gate in creation order).
  void append_fanin(NodeId gate, NodeId fanin);

  /// Removes every node with id >= `count`: their name index entries are
  /// reset (so the names can be added again) and removed inputs leave
  /// inputs(). The warm genotype decode drops the previous decode's
  /// key-logic tail this way before appending the next one. Throws
  /// std::invalid_argument if `count` exceeds size() or an output port
  /// still drives a removed node. The caller must make sure no kept node
  /// reads a removed one (validate() reports a dangling fanin).
  void truncate(std::size_t count);

  // ---- accessors ---------------------------------------------------------

  const std::string& name() const noexcept { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  /// The interner shared by this netlist's design family.
  const std::shared_ptr<NameTable>& names() const noexcept { return names_; }

  std::size_t size() const noexcept { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_.at(id); }
  bool valid_id(NodeId id) const noexcept { return id < nodes_.size(); }

  /// Identifies the current structure. Construction and every structural
  /// mutation (node additions and removals, fanin rewrites, output
  /// redirection) draw a version no netlist object in the process has held
  /// before; a copy takes its source's version, and a move hands the
  /// source's version to the destination and gives the source a fresh one.
  /// So two observations with equal versions — on the same object or on
  /// two — saw the same structure. The warm decode (append after undo)
  /// uses this to detect any mutation between decodes, and attacks use it
  /// to tie a decoded design to the original it was decoded from
  /// (lock::LockedDesign::original_version).
  std::uint64_t structural_version() const noexcept {
    return structural_version_;
  }

  /// The node's name text (view into the shared table; stays valid for the
  /// table's lifetime).
  std::string_view name(NodeId id) const { return names_->text(nodes_.at(id).name); }
  /// The node's interned name symbol.
  NameId name_id(NodeId id) const { return nodes_.at(id).name; }
  /// Text of an arbitrary symbol from this family's table.
  std::string_view name_text(NameId symbol) const { return names_->text(symbol); }

  /// All input nodes in creation order (primary inputs and key inputs).
  const std::vector<NodeId>& inputs() const noexcept { return inputs_; }
  /// Inputs that are not key inputs.
  std::vector<NodeId> primary_inputs() const;
  /// Key inputs in creation order (key bit i = i-th element).
  std::vector<NodeId> key_inputs() const;

  struct OutputPort {
    NameId name = kNoName;
    NodeId driver = kNoNode;
  };
  const std::vector<OutputPort>& outputs() const noexcept { return outputs_; }
  /// Port name text of the output at `output_index`.
  std::string_view output_name(std::size_t output_index) const {
    return names_->text(outputs_.at(output_index).name);
  }

  /// Looks up a node by name; returns kNoNode if absent.
  NodeId find(std::string_view node_name) const noexcept;
  NodeId find(NameId node_name) const noexcept;

  // ---- structure ---------------------------------------------------------

  /// True iff the fanin graph is acyclic (always true for graphs built only
  /// with add_gate on existing ids; may be violated transiently by locking
  /// transforms that rewire, which must re-check). Runs the same pass as
  /// topological_order() and, on success, caches its order. A primed order
  /// is proven here, in every build, the first time: std::logic_error if it
  /// is not a topological order of this netlist.
  bool is_acyclic() const;

  /// Topological order over all nodes: ascending longest-path level
  /// (node_levels_into), ascending id within a level — unless a caller
  /// primed another one (prime_topological_order; the genotype decode
  /// does). Throws std::runtime_error if cyclic.
  ///
  /// The result is computed once and cached until the next structural
  /// mutation (add_*/replace_fanin/append_fanin/set_output_driver/
  /// truncate); repeated calls on an unchanged netlist are O(1). Concurrent const access is
  /// safe; the reference stays valid until mutation recomputes it.
  const std::vector<NodeId>& topological_order() const;

  /// Installs `order` (contents swapped in; `order` receives the cache's
  /// previous buffer) as the cached topological order, replacing the
  /// recomputation the next traversal accessor would run. The caller must
  /// guarantee `order` is a valid topological order over exactly the
  /// current nodes — the genotype decode merges one from its dynamic rank
  /// structure (DecodeTopo) instead of re-sorting the whole design, which
  /// is what makes per-decode cost independent of design size. Debug
  /// builds verify the claim here in O(V+E); every build verifies it in
  /// the next is_acyclic(), and so validate(). Traversals trust it.
  void prime_topological_order(std::vector<NodeId>& order) const;

  /// Nodes from which at least one output port is reachable ("live" nodes).
  std::vector<bool> live_mask() const;

  /// Structural statistics (computes depth; O(V+E)).
  NetlistStats stats() const;

  /// Number of non-source nodes — the same value as stats().gates without
  /// the depth computation (hot paths compare areas thousands of times).
  std::size_t gate_count() const noexcept;

  /// Longest path length in gate levels (sources are level 0).
  std::size_t depth() const;

  /// Returns a compacted copy with dead nodes removed (inputs are always
  /// kept so interfaces stay stable). Node ids change; names (and the name
  /// table) are preserved.
  Netlist compacted() const;

  /// Internal consistency check (fanin ids in range, arities respected,
  /// names unique, outputs valid, acyclic). Throws std::runtime_error on
  /// violation; std::logic_error when a primed order is wrong.
  void validate() const;

 private:
  // The CSR builders iterate every node's fanin list in one pass; friend
  // access lets them walk nodes_ directly instead of bounds-checking each
  // node() call.
  friend class CsrFanins;
  friend class CsrFanouts;

  NodeId add_node(Node node);
  NameId fresh_name(NodeId id) const;
  /// This netlist's node for `symbol`, or kNoNode (index lookup, no lock).
  NodeId lookup_name(NameId symbol) const noexcept {
    return symbol < node_of_name_.size() ? node_of_name_[symbol] : kNoNode;
  }
  void index_name(NameId symbol, NodeId id);
  /// Re-reads issued_names_ and empty_name_ from the table (two lock round
  /// trips).
  void note_issued_names();
  void invalidate_traversal_cache() noexcept;
  /// A structural version no netlist has held before (process-wide).
  static std::uint64_t fresh_version() noexcept;
  /// The (level, id) order into `order`; false (order unspecified) if the
  /// graph is cyclic.
  bool compute_topological_order(std::vector<NodeId>& order) const;
  /// Throws std::logic_error unless `order` is a permutation of the node
  /// ids in which every fanin precedes its gate.
  void check_order(const std::vector<NodeId>& order) const;

  std::string name_;
  std::shared_ptr<NameTable> names_ = std::make_shared<NameTable>();
  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<OutputPort> outputs_;
  /// Flat name index: node_of_name_[NameId] = NodeId (kNoNode = unused in
  /// this netlist). Sized to the largest symbol this netlist uses; copies
  /// as one POD vector — the replacement for the per-copy rebuild of the
  /// old unordered_map<string, NodeId>.
  std::vector<NodeId> node_of_name_;
  /// port_names_[NameId]: the symbol names an output port (mark_output's
  /// O(1) duplicate check). Sized to the largest port symbol.
  std::vector<bool> port_names_;
  /// Symbols below issued_names_ were issued by names_ (which only grows),
  /// and among them only empty_name_ (kNoName if none) has empty text:
  /// add_node's name check without the table's lock. Set by reserve_nodes,
  /// and by add_node when it meets a symbol at or above issued_names_.
  NameId issued_names_ = 0;
  NameId empty_name_ = kNoName;

  // Lazily filled by the const traversal accessors; guarded so that
  // concurrent readers (parallel fitness evaluation over a shared original
  // netlist) never race on first computation.
  struct TraversalCache {
    bool topo_valid = false;
    bool topo_primed = false;  // topo came from a caller, not yet proven
    std::vector<NodeId> topo;
  };
  mutable TraversalCache cache_;
  mutable std::mutex cache_mutex_;
  std::uint64_t structural_version_ = fresh_version();
};

/// Gate level of every node into `out` (sources at 0; level = 1 + max
/// fanin level); depth() is the largest entry. Buffer-reusing, for attack
/// hot paths that recompute levels for every candidate design.
void node_levels_into(const Netlist& netlist, std::vector<std::size_t>& out);

/// Node ids [0, level.size()) into `order`, ascending by (level[v], v): a
/// counting sort in O(N + max level). Given every node's longest-path level
/// this is the order topological_order() computes, which a builder that
/// knows the levels primes (prime_topological_order) instead.
void order_by_level(std::span<const std::uint32_t> level,
                    std::vector<NodeId>& order);

}  // namespace autolock::netlist
