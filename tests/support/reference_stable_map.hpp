// Reference StableMap/StableSet for the differential tests: the
// vector-plus-std::unordered_map design util::StableMap/StableSet had
// before they moved to util::PositionIndex. Same API, same insertion-
// order iteration; every heap node per entry included.
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cellspot::test_support {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ReferenceStableMap {
 public:
  using Entry = std::pair<Key, Value>;

  ReferenceStableMap() = default;

  /// Entries in list order; a repeated key keeps its first value.
  ReferenceStableMap(std::initializer_list<Entry> init) {
    reserve(init.size());
    for (const Entry& e : init) Emplace(e.first, e.second);
  }

  /// Value for `key`, default-constructed and appended on first access.
  Value& operator[](const Key& key) {
    const auto [it, inserted] = index_.try_emplace(key, entries_.size());
    if (inserted) entries_.emplace_back(key, Value{});
    return entries_[it->second].second;
  }

  /// Insert (key, value) if absent; returns false (and leaves the map
  /// unchanged) when the key already exists.
  bool Emplace(const Key& key, Value value) {
    const auto [it, inserted] = index_.try_emplace(key, entries_.size());
    if (inserted) entries_.emplace_back(key, std::move(value));
    return inserted;
  }

  [[nodiscard]] const Value* Find(const Key& key) const noexcept {
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &entries_[it->second].second;
  }
  [[nodiscard]] Value* Find(const Key& key) noexcept {
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &entries_[it->second].second;
  }
  [[nodiscard]] bool Contains(const Key& key) const noexcept {
    return index_.contains(key);
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  void reserve(std::size_t n) {
    entries_.reserve(n);
    index_.reserve(n);
  }

  /// Iteration in insertion order. Mutable iteration exposes the key by
  /// reference too; callers must not modify it (the index would go stale).
  [[nodiscard]] auto begin() noexcept { return entries_.begin(); }
  [[nodiscard]] auto end() noexcept { return entries_.end(); }
  [[nodiscard]] auto begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] auto end() const noexcept { return entries_.end(); }

  /// Map equality: same entries, insertion order ignored.
  [[nodiscard]] bool operator==(const ReferenceStableMap& other) const {
    if (entries_.size() != other.entries_.size()) return false;
    for (const auto& [key, value] : entries_) {
      const Value* theirs = other.Find(key);
      if (theirs == nullptr || !(*theirs == value)) return false;
    }
    return true;
  }

 private:
  std::vector<Entry> entries_;
  std::unordered_map<Key, std::size_t, Hash> index_;
};

template <typename Key, typename Hash = std::hash<Key>>
class ReferenceStableSet {
 public:
  ReferenceStableSet() = default;

  /// Members in iteration order of [first, last), duplicates dropped.
  template <typename It>
  ReferenceStableSet(It first, It last) {
    for (; first != last; ++first) Insert(*first);
  }

  /// Insert `key` if absent; returns false when it was already present.
  bool Insert(const Key& key) {
    const auto [it, inserted] = index_.try_emplace(key, entries_.size());
    if (inserted) entries_.push_back(key);
    return inserted;
  }

  [[nodiscard]] bool Contains(const Key& key) const noexcept {
    return index_.contains(key);
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  void reserve(std::size_t n) {
    entries_.reserve(n);
    index_.reserve(n);
  }

  [[nodiscard]] auto begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] auto end() const noexcept { return entries_.end(); }

  /// Set equality: same members, insertion order ignored.
  [[nodiscard]] bool operator==(const ReferenceStableSet& other) const {
    if (entries_.size() != other.entries_.size()) return false;
    for (const auto& key : entries_) {
      if (!other.Contains(key)) return false;
    }
    return true;
  }

 private:
  std::vector<Key> entries_;
  std::unordered_map<Key, std::size_t, Hash> index_;
};

}  // namespace cellspot::test_support
