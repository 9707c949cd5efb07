#include "netlist/simulator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

namespace autolock::netlist {

void KeyBatch::push(const Key& key) {
  if (count_ == 64) {
    throw std::invalid_argument("KeyBatch::push: batch already holds 64 keys");
  }
  if (key.size() != words_.size()) {
    throw std::invalid_argument("KeyBatch::push: key width mismatch (want " +
                                std::to_string(words_.size()) + ", got " +
                                std::to_string(key.size()) + ")");
  }
  const std::uint64_t lane = 1ULL << count_;
  for (std::size_t j = 0; j < key.size(); ++j) {
    if (key[j]) words_[j] |= lane;
  }
  ++count_;
}

void Simulator::rebind(const Netlist& netlist) {
  // Same object, no structural mutation since the previous rebind: the
  // captured order and flattened step arrays are still exact — skip the
  // O(V + E) rebuild. Repeated probes against an unchanged design (the
  // corruption loop re-probing one locked netlist with many key batches)
  // make this O(1).
  if (netlist_ == &netlist &&
      bound_version_ == netlist.structural_version() &&
      order_.size() == netlist.size()) {
    return;
  }
  netlist_ = &netlist;
  bound_version_ = netlist.structural_version();
  order_ = netlist.topological_order();  // copy-assign: reuses capacity
  primary_inputs_.clear();
  key_inputs_.clear();
  for (const NodeId id : netlist.inputs()) {
    if (netlist.node(id).is_key_input) {
      key_inputs_.push_back(id);
    } else {
      primary_inputs_.push_back(id);
    }
  }
  // Flatten the sweep: the old inner loop dereferenced Node::fanins (a heap
  // vector) per gate per word; the flat arrays below make it three linear
  // streams.
  step_ids_.clear();
  step_types_.clear();
  step_offsets_.clear();
  step_fanins_.clear();
  step_offsets_.push_back(0);
  if (!key_inputs_.empty()) {
    flatten_grouped();
    return;
  }
  for (const NodeId v : order_) {
    const Node& node = netlist.node(v);
    if (node.type == GateType::kInput) continue;
    step_ids_.push_back(v);
    step_types_.push_back(node.type);
    step_fanins_.insert(step_fanins_.end(), node.fanins.begin(),
                        node.fanins.end());
    step_offsets_.push_back(static_cast<std::uint32_t>(step_fanins_.size()));
  }
  first_key_step_ = step_ids_.size();
}

void Simulator::flatten_grouped() {
  const Netlist& netlist = *netlist_;
  // Per node: the longest-path level, with kKeyed set when a key input
  // reaches it, and the gate class (type, arity up to 7). order_ is
  // topological, so fanins come first.
  constexpr std::uint32_t kKeyed = 1U << 31;
  constexpr std::size_t kArities = 8;
  std::vector<std::uint32_t> rank(netlist.size(), 0);
  std::vector<std::uint8_t> gate_class(netlist.size(), 0);
  for (const NodeId k : key_inputs_) rank[k] = kKeyed;
  std::uint32_t max_level = 0;
  std::size_t steps = 0;
  std::size_t edges = 0;
  for (const NodeId v : order_) {
    const Node& node = netlist.node(v);
    if (node.type == GateType::kInput) continue;
    std::uint32_t level = 0;
    std::uint32_t keyed = 0;
    for (const NodeId fanin : node.fanins) {
      keyed |= rank[fanin] & kKeyed;
      level = std::max(level, (rank[fanin] & ~kKeyed) + 1);
    }
    rank[v] = keyed | level;
    max_level = std::max(max_level, level);
    gate_class[v] = static_cast<std::uint8_t>(
        static_cast<std::size_t>(node.type) * kArities +
        std::min(node.fanins.size(), kArities - 1));
    ++steps;
    edges += node.fanins.size();
  }

  // One counting sort places every step in its bucket (key-dependent,
  // level, gate class). Every fanin has a lower level and a key-independent
  // step reads only key-independent nodes, so the order stays topological;
  // within a level the sweep's type dispatch and fanin loops then branch
  // predictably. A design too deep for one bucket per class and level
  // (more buckets than about four per step) is bucketed by level alone.
  const std::size_t levels = static_cast<std::size_t>(max_level) + 1;
  std::size_t classes = kGateTypeCount * kArities;
  if (2 * levels * classes > 4 * steps + 4096) classes = 1;
  const auto bucket = [&](NodeId v) {
    const std::uint32_t r = rank[v];
    const std::size_t part_level =
        ((r & kKeyed) != 0 ? levels : 0) + (r & ~kKeyed);
    return part_level * classes + (classes == 1 ? 0 : gate_class[v]);
  };
  std::vector<std::uint32_t> step_at(2 * levels * classes + 1, 0);
  std::vector<std::uint32_t> fanin_at(step_at.size(), 0);
  for (const NodeId v : order_) {
    const Node& node = netlist.node(v);
    if (node.type == GateType::kInput) continue;
    const std::size_t b = bucket(v) + 1;
    ++step_at[b];
    fanin_at[b] += static_cast<std::uint32_t>(node.fanins.size());
  }
  for (std::size_t b = 1; b < step_at.size(); ++b) {
    step_at[b] += step_at[b - 1];
    fanin_at[b] += fanin_at[b - 1];
  }
  first_key_step_ = step_at[levels * classes];
  step_ids_.resize(steps);
  step_types_.resize(steps);
  step_offsets_.resize(steps + 1);
  step_fanins_.resize(edges);
  for (const NodeId v : order_) {
    const Node& node = netlist.node(v);
    if (node.type == GateType::kInput) continue;
    const std::size_t b = bucket(v);
    const std::uint32_t s = step_at[b]++;
    std::uint32_t f = fanin_at[b];
    step_ids_[s] = v;
    step_types_[s] = node.type;
    for (const NodeId fanin : node.fanins) step_fanins_[f++] = fanin;
    fanin_at[b] = f;
    step_offsets_[s + 1] = f;
  }
}

template <std::size_t C, bool kBroadcast>
void Simulator::sweep(std::uint64_t* __restrict value, std::size_t begin,
                      std::size_t end) const {
  // Columns computed per visit: all C, or column 0 stored into all C.
  constexpr std::size_t L = kBroadcast ? 1 : C;
  const NodeId* __restrict ids = step_ids_.data();
  const GateType* __restrict types = step_types_.data();
  const std::uint32_t* __restrict offsets = step_offsets_.data();
  const NodeId* __restrict fanins = step_fanins_.data();
  const auto column = [value](NodeId node) {
    return value + static_cast<std::size_t>(node) * C;
  };
  // Gate kernels inline, folding straight from the value array (no fanin
  // gather, whatever the arity). Semantics match eval_gate_words exactly.
  for (std::size_t s = begin; s < end; ++s) {
    const NodeId* f = fanins + offsets[s];
    const std::size_t n = offsets[s + 1] - offsets[s];
    std::uint64_t acc[L]{};
    std::uint64_t invert = 0;
    switch (types[s]) {
      case GateType::kNand:
        invert = ~0ULL;
        [[fallthrough]];
      case GateType::kAnd:
        for (std::size_t c = 0; c < L; ++c) acc[c] = ~0ULL;
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t* in = column(f[i]);
          for (std::size_t c = 0; c < L; ++c) acc[c] &= in[c];
        }
        break;
      case GateType::kNor:
        invert = ~0ULL;
        [[fallthrough]];
      case GateType::kOr:
        for (std::size_t c = 0; c < L; ++c) acc[c] = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t* in = column(f[i]);
          for (std::size_t c = 0; c < L; ++c) acc[c] |= in[c];
        }
        break;
      case GateType::kXnor:
        invert = ~0ULL;
        [[fallthrough]];
      case GateType::kXor:
        for (std::size_t c = 0; c < L; ++c) acc[c] = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t* in = column(f[i]);
          for (std::size_t c = 0; c < L; ++c) acc[c] ^= in[c];
        }
        break;
      case GateType::kNot:
        invert = ~0ULL;
        [[fallthrough]];
      case GateType::kBuf: {
        const std::uint64_t* in = column(f[0]);
        for (std::size_t c = 0; c < L; ++c) acc[c] = in[c];
        break;
      }
      case GateType::kMux: {
        // fanins = {select, in0, in1}
        const std::uint64_t* sel = column(f[0]);
        const std::uint64_t* in0 = column(f[1]);
        const std::uint64_t* in1 = column(f[2]);
        for (std::size_t c = 0; c < L; ++c) {
          acc[c] = (~sel[c] & in0[c]) | (sel[c] & in1[c]);
        }
        break;
      }
      case GateType::kConst1:
        invert = ~0ULL;
        [[fallthrough]];
      default:  // kConst0 (kInput is never a step: rebind() skips inputs)
        for (std::size_t c = 0; c < L; ++c) acc[c] = 0;
        break;
    }
    std::uint64_t* out = column(ids[s]);
    for (std::size_t c = 0; c < C; ++c) {
      out[c] = acc[kBroadcast ? 0 : c] ^ invert;
    }
  }
}

std::vector<std::uint64_t> Simulator::run_word(
    const std::vector<std::uint64_t>& primary_words, const Key& key) const {
  SimScratch scratch;
  std::vector<std::uint64_t> out;
  run_word_into(primary_words, key, scratch, out);
  return out;
}

void Simulator::run_word_into(const std::vector<std::uint64_t>& primary_words,
                              const Key& key, SimScratch& scratch,
                              std::vector<std::uint64_t>& out) const {
  if (key.size() != key_inputs_.size()) {
    throw std::invalid_argument("Simulator: key length mismatch (want " +
                                std::to_string(key_inputs_.size()) + ", got " +
                                std::to_string(key.size()) + ")");
  }
  if (primary_words.size() != primary_inputs_.size()) {
    throw std::invalid_argument("Simulator: primary input word count mismatch");
  }
  // No zero-fill needed: every input is written here and every non-input
  // node during the sweep.
  scratch.values.resize(netlist_->size());
  std::uint64_t* value = scratch.values.data();
  for (std::size_t i = 0; i < primary_inputs_.size(); ++i) {
    value[primary_inputs_[i]] = primary_words[i];
  }
  for (std::size_t j = 0; j < key_inputs_.size(); ++j) {
    value[key_inputs_[j]] = key[j] ? ~0ULL : 0ULL;
  }
  sweep<1>(value, 0, step_ids_.size());
  out.resize(netlist_->outputs().size());
  std::size_t o = 0;
  for (const auto& port : netlist_->outputs()) out[o++] = value[port.driver];
}

std::vector<bool> Simulator::run_single(const std::vector<bool>& primary_bits,
                                        const Key& key) const {
  std::vector<std::uint64_t> words(primary_bits.size());
  for (std::size_t i = 0; i < primary_bits.size(); ++i) {
    words[i] = primary_bits[i] ? 1ULL : 0ULL;
  }
  const auto out_words = run_word(words, key);
  std::vector<bool> out(out_words.size());
  for (std::size_t i = 0; i < out_words.size(); ++i) {
    out[i] = (out_words[i] & 1ULL) != 0;
  }
  return out;
}

namespace {

/// Valid-lane mask for 64-vector block `block` of a `vectors`-long run.
std::uint64_t tail_mask(std::size_t vectors, std::size_t block) noexcept {
  const std::size_t remaining = vectors - block * 64;
  return remaining >= 64 ? ~0ULL : ((1ULL << remaining) - 1ULL);
}

}  // namespace

double Simulator::output_error_rate(const Simulator& dut, const Key& dut_key,
                                    const Simulator& reference,
                                    const Key& reference_key,
                                    std::size_t vectors, util::Rng& rng) {
  SimScratch scratch;
  return output_error_rate(dut, dut_key, reference, reference_key, vectors,
                           rng, scratch);
}

double Simulator::output_error_rate(const Simulator& dut, const Key& dut_key,
                                    const Simulator& reference,
                                    const Key& reference_key,
                                    std::size_t vectors, util::Rng& rng,
                                    SimScratch& scratch) {
  if (dut.primary_inputs_.size() != reference.primary_inputs_.size() ||
      dut.netlist_->outputs().size() != reference.netlist_->outputs().size()) {
    throw std::invalid_argument(
        "Simulator::output_error_rate: interface mismatch");
  }
  if (vectors == 0) return 0.0;
  const std::size_t words = (vectors + 63) / 64;
  std::size_t diff_bits = 0;
  std::vector<std::uint64_t>& in = scratch.in;
  in.resize(dut.primary_inputs_.size());
  for (std::size_t w = 0; w < words; ++w) {
    for (auto& word : in) word = rng();
    dut.run_word_into(in, dut_key, scratch, scratch.out_a);
    reference.run_word_into(in, reference_key, scratch, scratch.out_b);
    // Only the first `vectors` lanes count; the final word is masked so a
    // ragged vector count is not silently rounded up.
    const std::uint64_t valid = tail_mask(vectors, w);
    for (std::size_t o = 0; o < scratch.out_a.size(); ++o) {
      diff_bits += static_cast<std::size_t>(
          std::popcount((scratch.out_a[o] ^ scratch.out_b[o]) & valid));
    }
  }
  const double total =
      static_cast<double>(vectors) *
      static_cast<double>(dut.netlist_->outputs().size());
  return static_cast<double>(diff_bits) / total;
}

void Simulator::draw_reference_blocks(const Simulator& reference,
                                      const Key& reference_key,
                                      std::size_t vectors, util::Rng& rng,
                                      SimScratch& scratch,
                                      std::vector<std::uint64_t>& in_words,
                                      std::vector<std::uint64_t>& ref_words) {
  const std::size_t blocks = (vectors + 63) / 64;
  const std::size_t num_in = reference.primary_inputs_.size();
  const std::size_t num_out = reference.netlist_->outputs().size();
  in_words.resize(blocks * num_in);
  ref_words.resize(blocks * num_out);
  std::vector<std::uint64_t>& in = scratch.in;
  in.resize(num_in);
  for (std::size_t b = 0; b < blocks; ++b) {
    // Draw-order contract: one rng() word per primary input per 64-vector
    // block, exactly like output_error_rate — a partial tail block draws
    // the same words as a full one.
    for (auto& word : in) word = rng();
    reference.run_word_into(in, reference_key, scratch, scratch.out_b);
    std::copy(in.begin(), in.end(), in_words.begin() + b * num_in);
    std::copy(scratch.out_b.begin(), scratch.out_b.end(),
              ref_words.begin() + b * num_out);
  }
}

std::size_t Simulator::key_error_rates(
    const Simulator& dut, const KeyBatch& keys,
    const std::vector<std::uint64_t>& in_words,
    const std::vector<std::uint64_t>& ref_words, std::size_t vectors,
    SimScratch& scratch, std::vector<double>& rates) {
  // Four columns per gate visit: eight ran faster per column in isolation
  // but grew the value array (and peak RSS at 100k gates) for little gain.
  constexpr std::size_t C = 4;
  const std::size_t num_in = dut.primary_inputs_.size();
  const std::size_t num_out = dut.netlist_->outputs().size();
  const std::size_t blocks = (vectors + 63) / 64;
  if (keys.key_bits() != dut.key_inputs_.size()) {
    throw std::invalid_argument(
        "Simulator::key_error_rates: key batch width mismatch (want " +
        std::to_string(dut.key_inputs_.size()) + ", got " +
        std::to_string(keys.key_bits()) + ")");
  }
  if (in_words.size() != blocks * num_in ||
      ref_words.size() != blocks * num_out) {
    throw std::invalid_argument(
        "Simulator::key_error_rates: reference block size mismatch");
  }
  rates.assign(keys.size(), 0.0);
  if (keys.size() == 0 || vectors == 0) return 0;

  // Column c is one (vector, all keys) pair with keys in lanes, or one
  // (key, 64-vector block) pair with vectors in lanes — whichever shape
  // needs fewer columns. Both count the same (key, vector, output) triples.
  // Vectors in lanes, the columns run block-major (column = block * keys +
  // key), so a block's passes come back to back and its key-independent
  // steps are swept once for all of them; only the key-dependent steps run
  // per pass.
  const bool keys_in_lanes = vectors < keys.size() * blocks;
  const std::size_t columns = keys_in_lanes ? vectors : keys.size() * blocks;
  const std::uint64_t key_lanes = keys.lane_mask();
  const std::size_t steps = dut.step_ids_.size();
  const std::size_t split = dut.first_key_step_;
  std::array<std::size_t, 64> diffs{};
  scratch.values.resize(dut.netlist_->size() * C);
  std::uint64_t* value = scratch.values.data();
  // Vectors in lanes: the block whose key-independent values each column
  // holds (`blocks` = none yet).
  std::size_t loaded[C];
  std::fill(loaded, loaded + C, blocks);
  std::size_t passes = 0;
  for (std::size_t first = 0; first < columns; first += C, ++passes) {
    const std::size_t width = std::min(C, columns - first);
    // Per column: its 64-vector block and, keys in lanes, the vector's bit
    // within the block, else the broadcast key. Spare columns of the last
    // pass repeat its final column; they are swept but never counted.
    std::size_t block[C]{};
    std::size_t sub[C]{};
    for (std::size_t c = 0; c < C; ++c) {
      const std::size_t col = first + std::min(c, width - 1);
      block[c] = keys_in_lanes ? col / 64 : col / keys.size();
      sub[c] = keys_in_lanes ? col % 64 : col % keys.size();
    }
    if (keys_in_lanes) {
      for (std::size_t i = 0; i < num_in; ++i) {
        std::uint64_t* cell = value + dut.primary_inputs_[i] * C;
        for (std::size_t c = 0; c < C; ++c) {
          const std::uint64_t word = in_words[block[c] * num_in + i];
          cell[c] = ((word >> sub[c]) & 1ULL) ? ~0ULL : 0ULL;
        }
      }
      for (std::size_t j = 0; j < dut.key_inputs_.size(); ++j) {
        std::uint64_t* cell = value + dut.key_inputs_[j] * C;
        for (std::size_t c = 0; c < C; ++c) cell[c] = keys.word(j);
      }
      dut.sweep<C>(value, 0, steps);
    } else {
      if (!std::equal(block, block + C, loaded)) {
        for (std::size_t i = 0; i < num_in; ++i) {
          std::uint64_t* cell = value + dut.primary_inputs_[i] * C;
          for (std::size_t c = 0; c < C; ++c) {
            cell[c] = in_words[block[c] * num_in + i];
          }
        }
        if (std::all_of(block, block + C,
                        [&block](std::size_t b) { return b == block[0]; })) {
          dut.sweep<C, true>(value, 0, split);
        } else {
          dut.sweep<C>(value, 0, split);
        }
        std::copy(block, block + C, loaded);
      }
      for (std::size_t j = 0; j < dut.key_inputs_.size(); ++j) {
        std::uint64_t* cell = value + dut.key_inputs_[j] * C;
        const std::uint64_t word = keys.word(j);
        for (std::size_t c = 0; c < C; ++c) {
          cell[c] = ((word >> sub[c]) & 1ULL) ? ~0ULL : 0ULL;
        }
      }
      dut.sweep<C>(value, split, steps);
    }
    std::size_t o = 0;
    for (const auto& port : dut.netlist_->outputs()) {
      const std::uint64_t* cell = value + port.driver * C;
      for (std::size_t c = 0; c < width; ++c) {
        const std::uint64_t ref = ref_words[block[c] * num_out + o];
        if (keys_in_lanes) {
          const std::uint64_t ref_bit = ((ref >> sub[c]) & 1ULL) ? ~0ULL : 0ULL;
          std::uint64_t diff = (cell[c] ^ ref_bit) & key_lanes;
          while (diff) {
            ++diffs[static_cast<std::size_t>(std::countr_zero(diff))];
            diff &= diff - 1;
          }
        } else {
          diffs[sub[c]] += static_cast<std::size_t>(
              std::popcount((cell[c] ^ ref) & tail_mask(vectors, block[c])));
        }
      }
      ++o;
    }
  }
  const double total = static_cast<double>(vectors) *
                       static_cast<double>(num_out);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    rates[k] = static_cast<double>(diffs[k]) / total;
  }
  return passes;
}

bool Simulator::equivalent_on_random_vectors(const Simulator& a,
                                             const Key& a_key,
                                             const Simulator& b,
                                             const Key& b_key,
                                             std::size_t vectors,
                                             util::Rng& rng) {
  if (a.primary_inputs_.size() != b.primary_inputs_.size() ||
      a.netlist_->outputs().size() != b.netlist_->outputs().size()) {
    return false;
  }
  if (vectors == 0) {
    throw std::invalid_argument(
        "Simulator::equivalent_on_random_vectors: zero vectors test nothing");
  }
  const std::size_t words = (vectors + 63) / 64;
  SimScratch scratch;
  scratch.in.resize(a.primary_inputs_.size());
  for (std::size_t w = 0; w < words; ++w) {
    for (auto& word : scratch.in) word = rng();
    a.run_word_into(scratch.in, a_key, scratch, scratch.out_a);
    b.run_word_into(scratch.in, b_key, scratch, scratch.out_b);
    for (std::size_t o = 0; o < scratch.out_a.size(); ++o) {
      if (scratch.out_a[o] != scratch.out_b[o]) return false;
    }
  }
  return true;
}

bool Simulator::equivalent_exhaustive(const Simulator& a, const Key& a_key,
                                      const Simulator& b, const Key& b_key) {
  const std::size_t n = a.primary_inputs_.size();
  if (n != b.primary_inputs_.size() ||
      a.netlist_->outputs().size() != b.netlist_->outputs().size()) {
    return false;
  }
  if (n > 24) {
    throw std::invalid_argument(
        "Simulator::equivalent_exhaustive: too many inputs");
  }
  const std::uint64_t total = 1ULL << n;
  SimScratch scratch;
  scratch.in.resize(n);
  for (std::uint64_t base = 0; base < total; base += 64) {
    // Vector (base + i) occupies bit i of the word.
    for (std::size_t bit = 0; bit < n; ++bit) {
      std::uint64_t word = 0;
      for (std::uint64_t i = 0; i < 64 && base + i < total; ++i) {
        if (((base + i) >> bit) & 1ULL) word |= (1ULL << i);
      }
      scratch.in[bit] = word;
    }
    const std::uint64_t valid =
        (total - base >= 64) ? ~0ULL : ((1ULL << (total - base)) - 1);
    a.run_word_into(scratch.in, a_key, scratch, scratch.out_a);
    b.run_word_into(scratch.in, b_key, scratch, scratch.out_b);
    for (std::size_t o = 0; o < scratch.out_a.size(); ++o) {
      if (((scratch.out_a[o] ^ scratch.out_b[o]) & valid) != 0) return false;
    }
  }
  return true;
}

}  // namespace autolock::netlist
