// Reference longest-prefix match for the differential tests: the binary
// (uncompressed-path) radix trie the routing table kept before it became
// one sorted route vector. Insert overwrites, so a later announcement of
// the same prefix wins; ForEach visits in pre-order (family, then
// address, covering before covered), which is exactly Prefix order.
// netaddr::FlatLpm and asdb::RoutingTable must agree with it on every
// lookup.
//
// Nodes for both families live in one arena (vector) with 32-bit child
// indices; roots are kept per family. Insertions are O(length); lookups
// walk at most 32/128 nodes.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cellspot/netaddr/prefix.hpp"

namespace cellspot::test_support {

template <typename T>
class PrefixTrie {
 public:
  using Family = netaddr::Family;
  using IpAddress = netaddr::IpAddress;
  using Prefix = netaddr::Prefix;

  PrefixTrie() {
    nodes_.push_back(Node{});  // v4 root
    nodes_.push_back(Node{});  // v6 root
  }

  /// Insert or overwrite the value at `prefix`. Returns true if the
  /// prefix was newly inserted, false if an existing value was replaced.
  bool Insert(const Prefix& prefix, T value) {
    std::uint32_t node = RootFor(prefix.family());
    for (int i = 0; i < prefix.length(); ++i) {
      const int bit = prefix.address().GetBit(i) ? 1 : 0;
      std::uint32_t child = nodes_[node].children[bit];
      if (child == kNull) {
        child = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back(Node{});
        nodes_[node].children[bit] = child;
      }
      node = child;
    }
    const bool fresh = !nodes_[node].value.has_value();
    nodes_[node].value = std::move(value);
    if (fresh) ++size_;
    return fresh;
  }

  /// Value stored exactly at `prefix`, if any.
  [[nodiscard]] const T* Exact(const Prefix& prefix) const {
    std::uint32_t node = RootFor(prefix.family());
    for (int i = 0; i < prefix.length(); ++i) {
      const int bit = prefix.address().GetBit(i) ? 1 : 0;
      node = nodes_[node].children[bit];
      if (node == kNull) return nullptr;
    }
    return nodes_[node].value ? &*nodes_[node].value : nullptr;
  }

  /// Longest-prefix match for `addr`: the value at the most specific
  /// stored prefix containing the address, or nullptr.
  [[nodiscard]] const T* LongestMatch(const IpAddress& addr) const {
    std::uint32_t node = RootFor(addr.family());
    const T* best = nodes_[node].value ? &*nodes_[node].value : nullptr;
    for (int i = 0; i < addr.bit_width(); ++i) {
      const int bit = addr.GetBit(i) ? 1 : 0;
      node = nodes_[node].children[bit];
      if (node == kNull) break;
      if (nodes_[node].value) best = &*nodes_[node].value;
    }
    return best;
  }

  /// Longest-prefix match along with the matched prefix length.
  [[nodiscard]] std::optional<std::pair<int, const T*>> LongestMatchWithLength(
      const IpAddress& addr) const {
    std::uint32_t node = RootFor(addr.family());
    std::optional<std::pair<int, const T*>> best;
    if (nodes_[node].value) best = {0, &*nodes_[node].value};
    for (int i = 0; i < addr.bit_width(); ++i) {
      const int bit = addr.GetBit(i) ? 1 : 0;
      node = nodes_[node].children[bit];
      if (node == kNull) break;
      if (nodes_[node].value) best = {i + 1, &*nodes_[node].value};
    }
    return best;
  }

  /// Number of stored prefixes.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Visit every (prefix, value) pair; order is family then bitwise.
  template <typename Visitor>
  void ForEach(Visitor&& visit) const {
    WalkFrom(RootFor(Family::kIpv4), Prefix{}, visit);
    Prefix v6_root(IpAddress::V6({}), 0);
    WalkFrom(RootFor(Family::kIpv6), v6_root, visit);
  }

 private:
  static constexpr std::uint32_t kNull = 0xFFFFFFFFU;

  struct Node {
    std::uint32_t children[2] = {kNull, kNull};
    std::optional<T> value;
  };

  [[nodiscard]] std::uint32_t RootFor(Family f) const noexcept {
    return f == Family::kIpv4 ? 0U : 1U;
  }

  template <typename Visitor>
  void WalkFrom(std::uint32_t node, const Prefix& at, Visitor&& visit) const {
    if (nodes_[node].value) visit(at, *nodes_[node].value);
    for (int bit = 0; bit < 2; ++bit) {
      const std::uint32_t child = nodes_[node].children[bit];
      if (child == kNull) continue;
      Prefix next(at.address().WithBit(at.length(), bit == 1), at.length() + 1);
      WalkFrom(child, next, visit);
    }
  }

  std::vector<Node> nodes_;
  std::size_t size_ = 0;
};

}  // namespace cellspot::test_support
