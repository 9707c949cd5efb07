// Peak heap of campaign::run must not grow with the number of lock jobs.
//
// A lock job leaves its decoded winner in its shard's workspace, and the
// job's attack cells read it there, so a worker holds one decoded design at
// a time however many jobs it runs. This binary replaces the global
// operator new/delete with counting versions (that is why it is its own
// test binary) and compares the peak live heap of one lock job with that
// of eight jobs which differ only by their seeds: the two peaks may differ
// by less than one copy of a decoded design.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>

#include "campaign/campaign.hpp"
#include "locking/mux_lock.hpp"
#include "netlist/generator.hpp"

namespace {

std::atomic<std::size_t> live_bytes{0};
std::atomic<std::size_t> peak_bytes{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) return nullptr;
  const std::size_t live =
      live_bytes.fetch_add(malloc_usable_size(p)) + malloc_usable_size(p);
  std::size_t peak = peak_bytes.load();
  while (live > peak && !peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return p;
}

void* counted_new(std::size_t size, std::size_t align) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  live_bytes.fetch_sub(malloc_usable_size(p));
  std::free(p);
}

constexpr std::size_t kPlain = alignof(std::max_align_t);

}  // namespace

// Every replaceable form, so no allocation bypasses the count and no block
// is freed by a different allocator than the one that made it.
void* operator new(std::size_t size) { return counted_new(size, kPlain); }
void* operator new[](std::size_t size) { return counted_new(size, kPlain); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_new(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_new(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, kPlain);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, kPlain);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace autolock {
namespace {

constexpr std::size_t kKeyBits = 8;

/// `jobs` lock jobs on c432 that differ only by their seeds: identical
/// D-MUX schemes under the names d1 ... d<jobs>, one optimizer, and the two
/// structural attacks, all sequential.
campaign::CampaignSpec identical_jobs(std::size_t jobs) {
  campaign::CampaignSpec spec;
  spec.name = "memory";
  spec.circuits = {{"c432", {}, {}}};
  for (std::size_t i = 1; i <= jobs; ++i) {
    spec.schemes.push_back(
        {"d" + std::to_string(i), lock::GenotypeSpec{.mux_sites = kKeyBits}});
  }
  spec.attacks = {"scope", "structural"};
  spec.optimizers = {"hillclimb"};
  spec.budget.heuristic_evaluations = 2;
  spec.threads = 1;
  return spec;
}

/// Peak live heap bytes during campaign::run(spec), above what is live once
/// it has returned. The result, which does grow with the job count, is live
/// at both points, so it cancels; what is left is the working set.
std::size_t working_peak(const campaign::CampaignSpec& spec) {
  peak_bytes.store(live_bytes.load());
  const campaign::CampaignResult result = campaign::run(spec);
  EXPECT_TRUE(result.all_passed());
  EXPECT_EQ(result.locks.size(), spec.schemes.size());
  return peak_bytes.load() - live_bytes.load();
}

TEST(CampaignMemory, PeakDoesNotGrowWithLockJobs) {
  // One run first, so lazily built process-wide state (the attack
  // registry, the name tables of the generated circuit) counts in neither
  // measurement.
  working_peak(identical_jobs(1));
  const std::size_t one_job = working_peak(identical_jobs(1));
  const std::size_t eight_jobs = working_peak(identical_jobs(8));

  const netlist::Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432);
  const lock::LockedDesign design = lock::dmux_lock(original, kKeyBits, 1);
  const std::size_t before = live_bytes.load();
  const lock::LockedDesign copy = design;
  const std::size_t design_bytes = live_bytes.load() - before;
  ASSERT_EQ(copy.key, design.key);

  EXPECT_LT(eight_jobs, one_job + design_bytes)
      << "one job peaks at " << one_job << " B, eight at " << eight_jobs
      << " B; a decoded design copy is " << design_bytes << " B";
}

}  // namespace
}  // namespace autolock
