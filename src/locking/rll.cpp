#include "locking/rll.hpp"

#include <stdexcept>
#include <string>

#include "locking/compound.hpp"
#include "util/rng.hpp"

namespace autolock::lock {

using netlist::Netlist;

LockedDesign rll_lock(const Netlist& original, std::size_t key_bits,
                      std::uint64_t seed) {
  if (key_bits == 0) {
    throw std::invalid_argument("rll_lock: key_bits must be >= 1");
  }
  util::Rng rng(seed);
  const SiteContext context(original);
  // The context's wire pool is exactly the pool this scheme historically
  // built inline: every fanin edge, constants excluded, deduplicated.
  const auto& wires = context.rll_wires();
  if (wires.size() < key_bits) {
    throw std::runtime_error("rll_lock: circuit has only " +
                             std::to_string(wires.size()) +
                             " lockable wires, need " +
                             std::to_string(key_bits));
  }
  const auto chosen = rng.sample_indices(wires.size(), key_bits);
  Genotype genes;
  genes.reserve(key_bits);
  for (std::size_t t = 0; t < key_bits; ++t) {
    genes.push_back(Gene::rll(wires[chosen[t]].first, wires[chosen[t]].second,
                              rng.next_bool()));
  }
  auto design = apply_genotype(original, context, genes, rng);
  design.netlist.set_name(original.name() + "_rll");
  return design;
}

}  // namespace autolock::lock
