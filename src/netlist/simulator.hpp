// 64-way bit-parallel functional simulator.
//
// Lane semantics — the 64 bits of a simulation word are "lanes". A sweep
// visits gates in topological order and evaluates C independent word
// columns per visit (values are node-major, `values[node * C + c]`): C = 1
// for run_word_into and every caller built on it, C = 4 for the wrong-key
// corruption estimator.
//
//   - lanes = input patterns (run_word_into and the equivalence screen):
//     bit i of every signal word belongs to test vector i, and the key is
//     broadcast (`key[j] ? ~0 : 0`). One column answers 64 input vectors
//     for ONE key.
//   - lanes = keys (inside key_error_rates): the primary inputs are
//     broadcast (one fixed vector) and bit k of every key-input word belongs
//     to wrong key k of a KeyBatch. One column answers ONE input vector for
//     up to 64 DISTINCT keys.
//
// rebind() orders the flattened steps of a keyed netlist key-independent
// first: the steps no key input reaches, then the key-dependent ones, each
// part by longest-path level and, within a level, by gate type and arity.
// Every fanin has a lower level, so the order stays topological, and the
// sweep's per-gate branches become predictable (measured 2-3x faster sweeps
// on a 100k-gate design). A keyless netlist keeps the netlist's topological
// order and skips that pass.
//
// key_error_rates probes K keys on V vectors in whichever orientation needs
// fewer columns: min(V, K * ceil(V/64)) columns, evaluated in
// ceil(columns / 4) four-column passes, plus ceil(V/64) reference sweeps
// the caller can share across designs (draw_reference_blocks). Vectors in
// lanes, the key-independent steps do not depend on the column's key, so
// they are swept once per input block and only the key-dependent steps run
// per pass. A per-key loop of run_word_into sweeps instead pays
// K * 2 * ceil(V/64) full sweeps (tests/support/simulation.hpp's
// output_error_rate, the reference the estimator is pinned against).
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace autolock::netlist {

/// A key assignment: bit i = value of key input i (in key_inputs() order).
using Key = std::vector<bool>;

/// Reusable simulation buffers (one per worker thread). Every run_word call
/// otherwise allocates an O(V) value array; evaluation hot paths simulate
/// hundreds of words per individual, so the buffers live in the caller's
/// workspace and are resized (never reallocated once warm) per call.
struct SimScratch {
  std::vector<std::uint64_t> values;  // C words per netlist node, node-major
  std::vector<std::uint64_t> in;      // random input words
  std::vector<std::uint64_t> out_a;   // DUT output words
  std::vector<std::uint64_t> out_b;   // reference output words
};

/// Packs up to 64 distinct keys into lane-transposed key words: bit k of
/// word(j) is key k's value for key input j. Lanes are assigned in push()
/// order; lanes >= size() are zero and must be masked out via lane_mask().
class KeyBatch {
 public:
  /// Starts a fresh batch over `key_bits` key inputs (buffer reused).
  void reset(std::size_t key_bits) {
    words_.assign(key_bits, 0);
    count_ = 0;
  }

  /// Appends one key into the next free lane. Throws when the batch is full
  /// or the key width does not match reset()'s `key_bits`.
  void push(const Key& key);

  /// Number of keys packed so far (= occupied lanes).
  std::size_t size() const noexcept { return count_; }
  bool full() const noexcept { return count_ == 64; }
  std::size_t key_bits() const noexcept { return words_.size(); }
  /// Low size() bits set — ANDed with output words to drop unused lanes.
  std::uint64_t lane_mask() const noexcept {
    return count_ == 64 ? ~0ULL : ((1ULL << count_) - 1ULL);
  }
  /// Lane-transposed word for key input j.
  std::uint64_t word(std::size_t j) const { return words_[j]; }

 private:
  std::vector<std::uint64_t> words_;  // one word per key input
  std::size_t count_ = 0;
};

class Simulator {
 public:
  /// Captures the topological order once; the netlist must outlive the
  /// simulator and must not be structurally modified afterwards.
  explicit Simulator(const Netlist& netlist) { rebind(netlist); }

  /// Creates an unbound simulator (a reusable workspace slot); rebind()
  /// must be called before any run_* method.
  Simulator() = default;

  /// Re-captures `netlist` (same contract as the constructor), reusing the
  /// order/input buffers from the previous binding — evaluation loops
  /// rebind one workspace simulator per decoded design instead of
  /// constructing a fresh one. Also flattens the sweep into step arrays
  /// (gate type + CSR fanins per non-input node) so the inner loop chases
  /// no per-Node heap vectors. On a keyed netlist the steps no key input
  /// reaches come first, then the key-dependent ones, each part ordered by
  /// (level, gate type, arity); a keyless one keeps topological_order().
  void rebind(const Netlist& netlist);

  const Netlist& netlist() const noexcept { return *netlist_; }

  /// Gates a key input reaches: the steps key_error_rates re-evaluates per
  /// pass when vectors are in lanes (0 on a keyless netlist).
  std::size_t key_dependent_steps() const noexcept {
    return step_ids_.size() - first_key_step_;
  }

  /// Simulates one word with lanes = input patterns. `primary_words[i]`
  /// feeds primary input i (in primary_inputs() order); key bit j (in
  /// key_inputs() order) is broadcast across the word. Returns one word per
  /// output port.
  std::vector<std::uint64_t> run_word(
      const std::vector<std::uint64_t>& primary_words, const Key& key) const;

  /// Allocation-free run_word: node values go through `scratch`, output
  /// words are written into `out` (resized to the output-port count).
  /// Identical results to run_word.
  void run_word_into(const std::vector<std::uint64_t>& primary_words,
                     const Key& key, SimScratch& scratch,
                     std::vector<std::uint64_t>& out) const;

  /// Single-vector convenience (bools in primary_inputs() order).
  std::vector<bool> run_single(const std::vector<bool>& primary_bits,
                               const Key& key) const;

  // ---- wrong-key corruption -------------------------------------------------

  /// Draws ceil(vectors/64) input blocks and the reference response in one
  /// pass: `in_words` receives blocks * primary_inputs words (one rng()
  /// draw per primary input per block, a partial tail block included) and
  /// `ref_words`
  /// receives blocks * outputs words of `reference` under `reference_key`.
  /// The pair can be reused across many key_error_rates calls — this is how
  /// a population batch amortizes oracle sweeps over every wrong-key sample
  /// set.
  static void draw_reference_blocks(const Simulator& reference,
                                    const Key& reference_key,
                                    std::size_t vectors, util::Rng& rng,
                                    SimScratch& scratch,
                                    std::vector<std::uint64_t>& in_words,
                                    std::vector<std::uint64_t>& ref_words);

  /// Per-key corruption against precomputed reference blocks: `rates[k]` is
  /// the fraction of the `vectors` * outputs (vector, output) pairs where
  /// `dut` under key k of `keys` differs from the reference response.
  /// Exactly `vectors` vectors count (the tail block is masked), and the
  /// results are bit-identical to a per-key error-rate loop over the same
  /// input blocks (the reference output_error_rate in
  /// tests/support/simulation.hpp).
  ///
  /// The orientation follows the shape, whichever needs fewer columns:
  /// keys in lanes costs `vectors` columns, vectors in lanes (key k
  /// broadcast) costs keys.size() * ceil(vectors/64). Both count the same
  /// pairs under the same masks. Keys in lanes, every pass sweeps the whole
  /// netlist. Vectors in lanes, the columns run block by block: the
  /// key-independent steps are swept once per input block (once per change
  /// of the columns' blocks when a pass straddles two) and each pass
  /// evaluates only the key-dependent steps. The counts are integers, so
  /// the column order cannot move a rate. Returns the number of
  /// four-column passes.
  static std::size_t key_error_rates(
      const Simulator& dut, const KeyBatch& keys,
      const std::vector<std::uint64_t>& in_words,
      const std::vector<std::uint64_t>& ref_words, std::size_t vectors,
      SimScratch& scratch, std::vector<double>& rates);

  /// Random-vector equivalence screening: true if no difference was observed
  /// on `vectors` random vectors, rounded up to whole 64-lane words (a
  /// stricter screen never hurts; necessary, not sufficient, for
  /// equivalence — use sat::check_equivalent for a proof). Throws
  /// std::invalid_argument on zero vectors, which would test nothing.
  static bool equivalent_on_random_vectors(const Simulator& a, const Key& a_key,
                                           const Simulator& b, const Key& b_key,
                                           std::size_t vectors,
                                           util::Rng& rng);

 private:
  /// Sweeps steps [begin, end) of the flattened arrays, C word columns per
  /// gate visit (`value[node * C + c]`); their fanins' columns must be
  /// loaded. kBroadcast computes column 0 only and stores it into all C
  /// columns (for steps whose inputs are equal in every column).
  template <std::size_t C, bool kBroadcast = false>
  void sweep(std::uint64_t* value, std::size_t begin, std::size_t end) const;

  /// Flattens a keyed netlist's steps key-independent first, each part by
  /// (level, gate type, arity); sets first_key_step_.
  void flatten_grouped();

  const Netlist* netlist_ = nullptr;
  /// The bound netlist's structural_version() at capture — rebind() against
  /// the same object at the same version is an O(1) no-op.
  std::uint64_t bound_version_ = 0;
  std::vector<NodeId> order_;
  std::vector<NodeId> primary_inputs_;
  std::vector<NodeId> key_inputs_;
  // Flattened sweep (non-input nodes, key-independent ones first, CSR
  // fanins); steps from first_key_step_ on are reached by a key input.
  std::size_t first_key_step_ = 0;
  std::vector<NodeId> step_ids_;
  std::vector<GateType> step_types_;
  std::vector<std::uint32_t> step_offsets_;
  std::vector<NodeId> step_fanins_;
};

}  // namespace autolock::netlist
