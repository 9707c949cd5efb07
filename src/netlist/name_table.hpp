// Interned signal names.
//
// A NameTable maps signal-name strings to dense u32 NameIds and back. One
// table is shared by a whole design family — an original netlist, every
// locked copy decoded from it, optimizer outputs, compacted views — which
// is what makes Netlist copies allocation-free: nodes store NameIds, the
// name -> node index copies as a POD vector, and the strings themselves
// are interned once and never copied again. The GA decode hot path
// (apply_genotype_into) interns its generated names ("keyinput<t>",
// "keymux<t>a/b") exactly once per family and reuses the ids thereafter.
//
// Storage: name text is copied into a chunked arena whose chunks never
// move, and the text -> id index is one flat open-addressed array of
// (hash tag, id) slots, so a lookup hashes once and compares text only
// when a slot's tag matches.
//
// Thread safety: intern/find/text/size are safe to call concurrently
// (parallel decode workers share one table); lookups take a shared lock,
// interning a *new* name upgrades to an exclusive lock. Returned
// string_views point into the arena, so they stay valid for the table's
// lifetime regardless of later growth.
#pragma once

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string_view>
#include <vector>

namespace autolock::netlist {

/// Index of an interned name inside a NameTable. Ids are dense and stable;
/// names are never removed.
using NameId = std::uint32_t;
inline constexpr NameId kNoName = static_cast<NameId>(-1);

/// The hash a NameTable indexes `text` by, eight bytes at a time. Bulk
/// loaders that already hash their names (the .bench reader's scan-local
/// pool) hand these values to NameTable::intern_batch instead of having
/// every name hashed twice.
std::uint32_t name_hash(std::string_view text) noexcept;

class NameTable {
 public:
  NameTable() = default;
  NameTable(const NameTable&) = delete;
  NameTable& operator=(const NameTable&) = delete;

  /// Returns the id of `text`, interning it first if absent.
  NameId intern(std::string_view text);

  /// Pre-sizes the lookup index for about `expected` additional names.
  /// Bulk loaders (the streaming .bench reader, the synthetic generators)
  /// call this once so a million inserts never rehash mid-load.
  void reserve(std::size_t expected);

  /// Interns every view in `texts` under ONE exclusive lock (vs one
  /// shared+exclusive round-trip per new name through intern()), writing
  /// ids into `out` (resized to `texts.size()`). Ids are issued in `texts`
  /// order, so a batch over fresh names produces the same ids a sequential
  /// intern() loop would. The views need only live for the call — text is
  /// copied into the table. `hashes[i]` must be name_hash(texts[i]): bulk
  /// loaders hash their names already. Throws std::invalid_argument when
  /// the two spans differ in length.
  void intern_batch(std::span<const std::string_view> texts,
                    std::span<const std::uint32_t> hashes,
                    std::vector<NameId>& out);

  /// Returns the id of `text`, or kNoName if it was never interned.
  NameId find(std::string_view text) const noexcept;

  /// The interned text for `id`. The view stays valid for the table's
  /// lifetime. Throws std::out_of_range for ids this table never issued.
  std::string_view text(NameId id) const;

  /// Number of interned names (issued ids are exactly [0, size())).
  std::size_t size() const noexcept;

 private:
  /// Index slot: hash tag in the high half, id + 1 in the low half
  /// (0 = empty).
  using Slot = std::uint64_t;

  /// The id of `text` (hash `hash`), or kNoName; `slot` receives the slot
  /// a new entry would take. Caller holds the lock.
  NameId lookup(std::string_view text, std::uint32_t hash,
                std::size_t& slot) const noexcept;
  /// Appends `text` as a new id at `slot`; caller holds the exclusive lock
  /// and has made room (grow_index).
  NameId insert(std::string_view text, std::uint32_t hash, std::size_t slot);
  /// Keeps the index at most half full for `extra` more names.
  void grow_index(std::size_t extra);
  /// Copies `text` into the arena; the result never moves.
  std::string_view store(std::string_view text);

  mutable std::shared_mutex mutex_;
  std::vector<std::string_view> texts_;  // id -> text in the arena
  std::vector<Slot> index_;  // linear probing from hash & (size - 1)
  std::vector<std::unique_ptr<char[]>> chunks_;  // arena; chunks never move
  char* chunk_free_ = nullptr;           // unused tail of the last chunk
  std::size_t chunk_left_ = 0;
};

}  // namespace autolock::netlist
