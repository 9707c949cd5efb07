#include "netlist/name_table.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>

namespace autolock::netlist {

namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
constexpr std::size_t kMinIndex = 16;
// Arena chunks double from 4 KiB up to 1 MiB (a name longer than the
// chunk gets a chunk of its own size).
constexpr std::size_t kMinChunkShift = 12;
constexpr std::size_t kMaxChunkShift = 20;

}  // namespace

std::uint32_t name_hash(std::string_view text) noexcept {
  std::uint64_t h = text.size();
  const char* p = text.data();
  std::size_t n = text.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kGolden;
    h ^= h >> 29;
  }
  if (n > 0) {
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < n; ++i) {
      word |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
    }
    h = (h ^ word) * kGolden;
  }
  h ^= h >> 32;
  h *= 0xD6E8FEB86659FD93ULL;
  h ^= h >> 32;
  return static_cast<std::uint32_t>(h);
}

NameId NameTable::lookup(std::string_view text, std::uint32_t hash,
                         std::size_t& slot) const noexcept {
  const std::size_t mask = index_.size() - 1;
  const Slot tag = Slot{hash} << 32;
  for (std::size_t b = hash & mask;; b = (b + 1) & mask) {
    const Slot s = index_[b];
    if (s == 0) {
      slot = b;
      return kNoName;
    }
    if ((s & ~Slot{0xFFFFFFFF}) == tag) {
      const auto id = static_cast<NameId>(s) - 1;
      if (texts_[id] == text) return id;
    }
  }
}

std::string_view NameTable::store(std::string_view text) {
  if (text.size() > chunk_left_) {
    const std::size_t shift =
        std::min(kMinChunkShift + chunks_.size(), kMaxChunkShift);
    const std::size_t bytes = std::max(text.size(), std::size_t{1} << shift);
    chunks_.push_back(std::make_unique_for_overwrite<char[]>(bytes));
    chunk_free_ = chunks_.back().get();
    chunk_left_ = bytes;
  }
  std::copy(text.begin(), text.end(), chunk_free_);
  const std::string_view stored(chunk_free_, text.size());
  chunk_free_ += text.size();
  chunk_left_ -= text.size();
  return stored;
}

NameId NameTable::insert(std::string_view text, std::uint32_t hash,
                         std::size_t slot) {
  if (texts_.size() >= kNoName) {
    throw std::length_error("NameTable: NameId space exhausted");
  }
  const auto id = static_cast<NameId>(texts_.size());
  texts_.push_back(store(text));
  index_[slot] = (Slot{hash} << 32) | (Slot{id} + 1);
  return id;
}

void NameTable::grow_index(std::size_t extra) {
  const std::size_t wanted = (texts_.size() + extra) * 2;
  if (wanted <= index_.size()) return;
  const std::size_t capacity = std::bit_ceil(std::max(wanted, kMinIndex));
  std::vector<Slot> fresh(capacity, 0);
  for (const Slot s : index_) {
    if (s == 0) continue;
    std::size_t b = (s >> 32) & (capacity - 1);
    while (fresh[b] != 0) b = (b + 1) & (capacity - 1);
    fresh[b] = s;
  }
  index_.swap(fresh);
}

NameId NameTable::intern(std::string_view text) {
  const std::uint32_t hash = name_hash(text);
  std::size_t slot = 0;
  {
    const std::shared_lock lock(mutex_);
    if (!index_.empty()) {
      const NameId id = lookup(text, hash, slot);
      if (id != kNoName) return id;
    }
  }
  const std::unique_lock lock(mutex_);
  // Grow first, then re-check: another thread may have interned it
  // between the locks, and growth moves every slot.
  grow_index(1);
  const NameId id = lookup(text, hash, slot);
  return id != kNoName ? id : insert(text, hash, slot);
}

void NameTable::reserve(std::size_t expected) {
  const std::unique_lock lock(mutex_);
  grow_index(expected);
  texts_.reserve(texts_.size() + expected);
}

void NameTable::intern_batch(std::span<const std::string_view> texts,
                             std::span<const std::uint32_t> hashes,
                             std::vector<NameId>& out) {
  if (hashes.size() != texts.size()) {
    throw std::invalid_argument("NameTable::intern_batch: one hash per text");
  }
  out.resize(texts.size());
  const std::unique_lock lock(mutex_);
  grow_index(texts.size());
  // The hashes are known up front, so each probe's slot is prefetched a
  // few names ahead: a large batch lands in an index far bigger than the
  // cache, and the misses then overlap instead of queueing.
  constexpr std::size_t kAhead = 8;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    if (i + kAhead < texts.size()) {
      __builtin_prefetch(&index_[hashes[i + kAhead] & mask]);
    }
    std::size_t slot = 0;
    const NameId id = lookup(texts[i], hashes[i], slot);
    out[i] = id != kNoName ? id : insert(texts[i], hashes[i], slot);
  }
}

NameId NameTable::find(std::string_view text) const noexcept {
  const std::uint32_t hash = name_hash(text);
  const std::shared_lock lock(mutex_);
  if (index_.empty()) return kNoName;
  std::size_t slot = 0;
  return lookup(text, hash, slot);
}

std::string_view NameTable::text(NameId id) const {
  const std::shared_lock lock(mutex_);
  if (id >= texts_.size()) {
    throw std::out_of_range("NameTable::text: unknown NameId " +
                            std::to_string(id));
  }
  return texts_[id];
}

void NameTable::text_batch(std::span<const NameId> ids,
                           std::vector<std::string_view>& out) const {
  out.resize(ids.size());
  const std::shared_lock lock(mutex_);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= texts_.size()) {
      throw std::out_of_range("NameTable::text_batch: unknown NameId " +
                              std::to_string(ids[i]));
    }
    out[i] = texts_[ids[i]];
  }
}

std::size_t NameTable::size() const noexcept {
  const std::shared_lock lock(mutex_);
  return texts_.size();
}

}  // namespace autolock::netlist
