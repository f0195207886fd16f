// Insertion-order-preserving hash map and set, and the position index
// behind them.
//
// The datasets and classification output are saved, snapshotted, and
// re-exported; byte-identical roundtrips require that iteration order be
// a property of the data, not of a hash table's layout. StableMap/StableSet
// keep entries in a vector (insertion order) and find them through a
// PositionIndex, which stores positions into that vector and never a key,
// so its layout cannot leak into iteration. Erase is deliberately
// unsupported — the datasets only ever accumulate.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace cellspot::util {

/// Open-addressing index from keys to their positions in a sequence the
/// caller owns. Each 8-byte slot holds a 32-bit position and a 32-bit
/// tag of the key's hash; `key_at(position)` is compared only on a tag
/// match. Linear probing in a power-of-two table at most half full;
/// growth re-places the slots by their tags without touching a key, and
/// nothing is allocated per entry. Positions are 32-bit, so an index
/// holds at most 2^32 - 1 entries.
template <typename Key, typename Hash = std::hash<Key>>
class PositionIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Position of `key`, or npos; `key_at(i)` is the key at position i.
  template <typename KeyAt>
  [[nodiscard]] std::size_t Find(const Key& key, const KeyAt& key_at) const noexcept {
    if (slots_.empty()) return npos;
    const std::uint32_t tag = TagOf(key);
    for (std::size_t s = tag & mask(); slots_[s].pos != kEmpty; s = (s + 1) & mask()) {
      if (slots_[s].tag == tag && key_at(slots_[s].pos) == key) return slots_[s].pos;
    }
    return npos;
  }

  /// (position, false) when `key` is present; otherwise records it at
  /// `next` — where the caller appends it — and returns (next, true).
  /// Throws std::length_error when `next` does not fit in 32 bits.
  template <typename KeyAt>
  std::pair<std::size_t, bool> Insert(const Key& key, std::size_t next, const KeyAt& key_at) {
    if (next >= kEmpty) throw std::length_error("PositionIndex: more than 2^32 - 1 entries");
    if (2 * (size_ + 1) > slots_.size()) Rehash(std::max<std::size_t>(16, 2 * slots_.size()));
    const std::uint32_t tag = TagOf(key);
    std::size_t s = tag & mask();
    for (; slots_[s].pos != kEmpty; s = (s + 1) & mask()) {
      if (slots_[s].tag == tag && key_at(slots_[s].pos) == key) return {slots_[s].pos, false};
    }
    slots_[s] = {static_cast<std::uint32_t>(next), tag};
    ++size_;
    return {next, true};
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t slot_count() const noexcept { return slots_.size(); }

  /// Size the table for `n` entries without further growth.
  void reserve(std::size_t n) {
    std::size_t want = 16;
    while (want < 2 * n) want *= 2;
    if (want > slots_.size()) Rehash(want);
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFU;

  struct Slot {
    std::uint32_t pos = kEmpty;
    std::uint32_t tag = 0;
  };

  /// Multiply-xorshift finaliser, so hashes that are the identity
  /// (std::hash of an integer) still spread over the table.
  std::uint32_t TagOf(const Key& key) const noexcept {
    std::uint64_t h = static_cast<std::uint64_t>(hash_(key));
    h ^= h >> 32;
    h *= 0x9E3779B97F4A7C15ULL;
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }

  std::size_t mask() const noexcept { return slots_.size() - 1; }

  void Rehash(std::size_t slot_count) {
    const std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(slot_count));
    for (const Slot& slot : old) {
      if (slot.pos == kEmpty) continue;
      std::size_t s = slot.tag & mask();
      while (slots_[s].pos != kEmpty) s = (s + 1) & mask();
      slots_[s] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  [[no_unique_address]] Hash hash_;
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class StableMap {
 public:
  using Entry = std::pair<Key, Value>;

  StableMap() = default;

  /// Entries in list order; a repeated key keeps its first value.
  StableMap(std::initializer_list<Entry> init) {
    reserve(init.size());
    for (const Entry& e : init) Emplace(e.first, e.second);
  }

  /// Value for `key`, default-constructed and appended on first access.
  Value& operator[](const Key& key) {
    const auto [pos, inserted] = index_.Insert(key, entries_.size(), KeyAt());
    if (inserted) entries_.emplace_back(key, Value{});
    return entries_[pos].second;
  }

  /// Insert (key, value) if absent; returns false (and leaves the map
  /// unchanged) when the key already exists.
  bool Emplace(const Key& key, Value value) {
    const bool inserted = index_.Insert(key, entries_.size(), KeyAt()).second;
    if (inserted) entries_.emplace_back(key, std::move(value));
    return inserted;
  }

  [[nodiscard]] const Value* Find(const Key& key) const noexcept {
    const std::size_t pos = index_.Find(key, KeyAt());
    return pos == index_.npos ? nullptr : &entries_[pos].second;
  }
  [[nodiscard]] Value* Find(const Key& key) noexcept {
    const std::size_t pos = index_.Find(key, KeyAt());
    return pos == index_.npos ? nullptr : &entries_[pos].second;
  }
  [[nodiscard]] bool Contains(const Key& key) const noexcept {
    return index_.Find(key, KeyAt()) != index_.npos;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  void reserve(std::size_t n) {
    entries_.reserve(n);
    index_.reserve(n);
  }

  /// The entries in insertion order, contiguous: entry i is the i-th key
  /// inserted.
  [[nodiscard]] std::span<const Entry> entries() const noexcept { return entries_; }

  /// Iteration in insertion order. Mutable iteration exposes the key by
  /// reference too; callers must not modify it (the index would go stale).
  [[nodiscard]] auto begin() noexcept { return entries_.begin(); }
  [[nodiscard]] auto end() noexcept { return entries_.end(); }
  [[nodiscard]] auto begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] auto end() const noexcept { return entries_.end(); }

  /// Map equality: same entries, insertion order ignored.
  [[nodiscard]] bool operator==(const StableMap& other) const {
    if (entries_.size() != other.entries_.size()) return false;
    for (const auto& [key, value] : entries_) {
      const Value* theirs = other.Find(key);
      if (theirs == nullptr || !(*theirs == value)) return false;
    }
    return true;
  }

 private:
  [[nodiscard]] auto KeyAt() const noexcept {
    return [this](std::size_t pos) -> const Key& { return entries_[pos].first; };
  }

  std::vector<Entry> entries_;
  PositionIndex<Key, Hash> index_;
};

template <typename Key, typename Hash = std::hash<Key>>
class StableSet {
 public:
  StableSet() = default;

  /// Members in iteration order of [first, last), duplicates dropped.
  template <typename It>
  StableSet(It first, It last) {
    for (; first != last; ++first) Insert(*first);
  }

  /// Insert `key` if absent; returns false when it was already present.
  bool Insert(const Key& key) {
    const bool inserted = index_.Insert(key, entries_.size(), KeyAt()).second;
    if (inserted) entries_.push_back(key);
    return inserted;
  }

  [[nodiscard]] bool Contains(const Key& key) const noexcept {
    return index_.Find(key, KeyAt()) != index_.npos;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  void reserve(std::size_t n) {
    entries_.reserve(n);
    index_.reserve(n);
  }

  /// The members in insertion order, contiguous.
  [[nodiscard]] std::span<const Key> entries() const noexcept { return entries_; }

  [[nodiscard]] auto begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] auto end() const noexcept { return entries_.end(); }

  /// Set equality: same members, insertion order ignored.
  [[nodiscard]] bool operator==(const StableSet& other) const {
    if (entries_.size() != other.entries_.size()) return false;
    for (const auto& key : entries_) {
      if (!other.Contains(key)) return false;
    }
    return true;
  }

 private:
  [[nodiscard]] auto KeyAt() const noexcept {
    return [this](std::size_t pos) -> const Key& { return entries_[pos]; };
  }

  std::vector<Key> entries_;
  PositionIndex<Key, Hash> index_;
};

}  // namespace cellspot::util
