// FlatLpm: an immutable, build-once longest-prefix-match engine compiled
// from prefixes in Prefix order.
//
// Instead of walking a pointer-chasing binary trie one bit per step, the
// stored prefixes are flattened into sorted, disjoint address ranges —
// for every address the innermost covering prefix is precomputed — so a
// lookup is one bucketed binary search over packed arrays:
//
//   per family (v4 uses 4 address bytes, v6 all 16):
//     starts[]  big-endian address bytes, strictly increasing
//     ends[]    inclusive range ends, ranges pairwise disjoint
//     vidx[]    u32 LE index into the shared value table
//     index[]   optional 65537-entry bucket table over the top 16
//               address bits: index[b] = first segment whose start
//               lies at or beyond bucket b (narrows the search to a
//               handful of probes on routing-table-sized inputs)
//
// Big-endian byte order makes memcmp() the numeric comparison, and every
// array is read through unaligned-safe byte loads, so the same blob
// serves three ways: built in memory, decoded from a snapshot section
// (copying), or viewed zero-copy straight out of a memory-mapped
// snapshot with a keepalive handle. The build input is already sorted
// (family, then address, covering before covered: Prefix's own order,
// the pre-order of a binary trie), so one nested-interval sweep per
// family emits at most 2n-1 segments for n prefixes, and the value
// table is in input order. Lookup results are byte-identical to a
// binary trie's; the differential property test locks this.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cellspot/netaddr/prefix.hpp"

namespace cellspot::netaddr {

/// Thrown when a FlatLpm payload fails validation (truncated, malformed,
/// or inconsistent bytes). The snapshot layer maps this onto
/// SnapshotError{kMalformed} so the stage cache quarantines the file.
class FlatLpmError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Fixed-width value codec: FlatLpm stores values as u32 little-endian
/// slots in its payload. Specialize for each stored type; Decode must
/// reject encodings Encode cannot produce so corrupt slots are caught.
template <typename T>
struct FlatLpmCodec;

template <>
struct FlatLpmCodec<bool> {
  [[nodiscard]] static std::uint32_t Encode(bool v) noexcept { return v ? 1U : 0U; }
  [[nodiscard]] static bool Decode(std::uint32_t raw) {
    if (raw > 1U) throw FlatLpmError("FlatLpm: bool value slot out of range");
    return raw != 0U;
  }
};

template <>
struct FlatLpmCodec<std::uint32_t> {
  [[nodiscard]] static std::uint32_t Encode(std::uint32_t v) noexcept { return v; }
  [[nodiscard]] static std::uint32_t Decode(std::uint32_t raw) noexcept { return raw; }
};

template <typename T>
class FlatLpm {
 public:
  /// An empty engine: every lookup misses. Equivalent to building from
  /// no entries.
  FlatLpm() = default;

  /// Compile the packed-range layout from (prefix, value) entries in
  /// strictly ascending Prefix order. O(n) in entries; throws
  /// FlatLpmError on an entry out of order or a repeated prefix. The
  /// result is immutable.
  [[nodiscard]] static FlatLpm Build(std::span<const std::pair<Prefix, T>> entries) {
    return Decode(EncodeSorted(
        entries.size(), [&](std::size_t i) -> const Prefix& { return entries[i].first; },
        [&](std::size_t i) -> const T& { return entries[i].second; }));
  }

  /// As above, with every prefix mapped to `value`.
  [[nodiscard]] static FlatLpm Build(std::span<const Prefix> prefixes, const T& value) {
    return Decode(EncodeSorted(
        prefixes.size(), [&](std::size_t i) -> const Prefix& { return prefixes[i]; },
        [&](std::size_t) -> const T& { return value; }));
  }

  /// Parse and validate a payload, copying the bytes into an owned
  /// buffer. Throws FlatLpmError on any defect.
  [[nodiscard]] static FlatLpm Decode(std::string_view payload) {
    auto owned = std::make_shared<const std::string>(payload);
    const std::string_view stable(*owned);
    FlatLpm lpm = View(stable, std::move(owned));
    lpm.view_ = false;
    return lpm;
  }

  /// Zero-copy view over externally owned bytes (e.g. a memory-mapped
  /// snapshot section). `keepalive` must keep `payload` valid for the
  /// lifetime of the FlatLpm and every copy of it. Validation is a full
  /// structural pass (exact length, ordering, disjointness, index
  /// consistency, value range), so a view is as trustworthy as a build —
  /// only the compilation is skipped.
  [[nodiscard]] static FlatLpm View(std::string_view payload,
                                    std::shared_ptr<const void> keepalive) {
    FlatLpm lpm;
    lpm.keepalive_ = std::move(keepalive);
    lpm.view_ = true;
    lpm.InitFromPayload(payload);
    return lpm;
  }

  /// The canonical payload these bytes round-trip through. For a
  /// default-constructed engine this is the (valid) empty layout.
  [[nodiscard]] std::string Encode() const {
    if (!payload_.empty()) return std::string(payload_);
    return Build(std::span<const Prefix>{}, T{}).Encode();
  }

  /// Value at the most specific stored prefix containing `addr`, or
  /// nullptr.
  [[nodiscard]] const T* LongestMatch(const IpAddress& addr) const {
    const FamilyView& fv = ViewFor(addr.family());
    const std::size_t seg = FindSegment(fv, addr.bytes().data());
    if (seg == kNone) return nullptr;
    return &values_[ReadU32(fv.vidx + 4 * seg)].v;
  }

  /// Longest match along with the matched prefix length.
  [[nodiscard]] std::optional<std::pair<int, const T*>> LongestMatchWithLength(
      const IpAddress& addr) const {
    const FamilyView& fv = ViewFor(addr.family());
    const std::size_t seg = FindSegment(fv, addr.bytes().data());
    if (seg == kNone) return std::nullopt;
    const std::uint32_t vidx = ReadU32(fv.vidx + 4 * seg);
    return std::pair<int, const T*>{static_cast<int>(value_len_[vidx]), &values_[vidx].v};
  }

  /// Batch lookup: out[i] = the value of LongestMatch(addrs[i]), or
  /// `miss` when unmatched. The spans must have equal lengths; callers
  /// fan out over subspans inside their own executor ParallelFor.
  void LongestMatchBatch(std::span<const IpAddress> addrs, std::span<T> out,
                         const T& miss) const {
    if (addrs.size() != out.size()) {
      throw std::invalid_argument("FlatLpm::LongestMatchBatch: span size mismatch");
    }
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      const T* found = LongestMatch(addrs[i]);
      out[i] = (found != nullptr) ? *found : miss;
    }
  }

  /// Number of stored prefixes (== the number of build entries).
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }

  /// Total packed ranges across both families (≤ 2·size() − 1 each).
  [[nodiscard]] std::size_t segment_count() const noexcept {
    return v4_.count + v6_.count;
  }

  /// True when this engine reads someone else's bytes (mmap view) rather
  /// than an owned buffer.
  [[nodiscard]] bool is_view() const noexcept { return view_ && !payload_.empty(); }

  [[nodiscard]] std::size_t payload_bytes() const noexcept { return payload_.size(); }

 private:
  static constexpr std::string_view kMagic = "FLPM";
  static constexpr std::uint32_t kVersion = 1;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  static constexpr std::size_t kBuckets = 65536;
  /// Families below this many segments skip the bucket table: the plain
  /// binary search is already a couple of probes and the table would be
  /// 256 KiB of dead weight.
  static constexpr std::size_t kIndexThreshold = 64;
  static constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8 + 1 + 1;

  using Byte = unsigned char;
  using AddrBytes = std::array<Byte, 16>;

  struct FamilyView {
    const Byte* starts = nullptr;
    const Byte* ends = nullptr;
    const Byte* vidx = nullptr;   // u32 LE per segment
    const Byte* index = nullptr;  // 65537 u32 LE entries, or nullptr
    std::size_t count = 0;
    std::size_t width = 4;  // address bytes per entry: 4 (v4) or 16 (v6)
  };

  [[nodiscard]] const FamilyView& ViewFor(Family f) const noexcept {
    return f == Family::kIpv4 ? v4_ : v6_;
  }

  // ---- unaligned little-endian loads/stores -------------------------

  [[nodiscard]] static std::uint32_t ReadU32(const Byte* p) noexcept {
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  }

  [[nodiscard]] static std::uint64_t ReadU64(const Byte* p) noexcept {
    return static_cast<std::uint64_t>(ReadU32(p)) |
           (static_cast<std::uint64_t>(ReadU32(p + 4)) << 32);
  }

  static void PutU32(std::string& out, std::uint32_t v) {
    out.push_back(static_cast<char>(v & 0xFF));
    out.push_back(static_cast<char>((v >> 8) & 0xFF));
    out.push_back(static_cast<char>((v >> 16) & 0xFF));
    out.push_back(static_cast<char>((v >> 24) & 0xFF));
  }

  static void PutU64(std::string& out, std::uint64_t v) {
    PutU32(out, static_cast<std::uint32_t>(v));
    PutU32(out, static_cast<std::uint32_t>(v >> 32));
  }

  // ---- big-endian address-byte arithmetic ---------------------------

  /// memcmp is the numeric order because the bytes are big-endian.
  [[nodiscard]] static int CmpAddr(const Byte* a, const Byte* b, std::size_t w) noexcept {
    return std::memcmp(a, b, w);
  }

  /// a += 1 over the first `w` bytes; false on wraparound past all-ones.
  static bool IncAddr(AddrBytes& a, std::size_t w) noexcept {
    for (std::size_t i = w; i-- > 0;) {
      if (++a[i] != 0) return true;
    }
    return false;
  }

  /// a -= 1 over the first `w` bytes. Requires a != 0.
  static void DecAddr(AddrBytes& a, std::size_t w) noexcept {
    for (std::size_t i = w; i-- > 0;) {
      if (a[i]-- != 0) return;
    }
  }

  // ---- build: nested-interval sweep over sorted prefixes ------------

  struct BuildPrefix {
    AddrBytes start{};
    AddrBytes end{};
    std::uint32_t vidx = 0;
  };

  struct BuildSegment {
    AddrBytes start{};
    AddrBytes end{};
    std::uint32_t vidx = 0;
  };

  /// Flatten one family's prefixes (Prefix order: ascending starts,
  /// covering before covered, no duplicates) into sorted
  /// disjoint segments labelled with the innermost covering prefix. A
  /// stack of currently open prefixes plays the nesting; a cursor marks
  /// the first address not yet assigned to a segment.
  static std::vector<BuildSegment> SweepFamily(const std::vector<BuildPrefix>& prefixes,
                                               std::size_t w) {
    std::vector<BuildSegment> segments;
    segments.reserve(prefixes.size() * 2);
    std::vector<const BuildPrefix*> open;
    AddrBytes cursor{};
    const auto emit = [&](const AddrBytes& from, const AddrBytes& to, std::uint32_t vidx) {
      segments.push_back(BuildSegment{from, to, vidx});
    };
    for (const BuildPrefix& p : prefixes) {
      // Close every open prefix that ends before this one starts.
      while (!open.empty() && CmpAddr(open.back()->end.data(), p.start.data(), w) < 0) {
        const BuildPrefix* top = open.back();
        open.pop_back();
        if (CmpAddr(cursor.data(), top->end.data(), w) <= 0) {
          emit(cursor, top->end, top->vidx);
          cursor = top->end;
          IncAddr(cursor, w);  // top->end < p.start <= max: no wraparound
        }
      }
      // The gap between the cursor and this start belongs to the
      // enclosing prefix, if one is open.
      if (!open.empty() && CmpAddr(cursor.data(), p.start.data(), w) < 0) {
        AddrBytes gap_end = p.start;
        DecAddr(gap_end, w);
        emit(cursor, gap_end, open.back()->vidx);
      }
      cursor = p.start;
      open.push_back(&p);
    }
    while (!open.empty()) {
      const BuildPrefix* top = open.back();
      open.pop_back();
      if (CmpAddr(cursor.data(), top->end.data(), w) <= 0) {
        emit(cursor, top->end, top->vidx);
        cursor = top->end;
        if (!IncAddr(cursor, w)) break;  // covered through the top address
      }
    }
    return segments;
  }

  /// The payload for `n` entries, the i-th being (prefix_at(i),
  /// value_at(i)); checks the order Build() requires as it goes.
  template <typename PrefixAt, typename ValueAt>
  [[nodiscard]] static std::string EncodeSorted(std::size_t n, PrefixAt&& prefix_at,
                                                ValueAt&& value_at) {
    if (n > 0xFFFFFFFFULL) {
      throw FlatLpmError("FlatLpm: more than 2^32-1 prefixes");
    }
    std::vector<BuildPrefix> v4p;
    std::vector<BuildPrefix> v6p;
    std::string value_len;
    std::string value_enc;
    value_len.reserve(n);
    value_enc.reserve(n * 4);
    for (std::size_t i = 0; i < n; ++i) {
      const Prefix& prefix = prefix_at(i);
      if (i > 0 && !(prefix_at(i - 1) < prefix)) {
        throw FlatLpmError("FlatLpm::Build: " + prefix.ToString() +
                           (prefix_at(i - 1) == prefix ? " repeated"
                                                       : " out of Prefix order"));
      }
      BuildPrefix bp;
      const auto& bytes = prefix.address().bytes();
      const std::size_t w = prefix.family() == Family::kIpv4 ? 4U : 16U;
      std::memcpy(bp.start.data(), bytes.data(), 16);
      bp.end = bp.start;
      // Set every host bit: the inclusive top of the prefix's range.
      const auto boundary = static_cast<std::size_t>(prefix.length() / 8);
      if (boundary < w) {
        bp.end[boundary] |= static_cast<Byte>(0xFFU >> (prefix.length() % 8));
        std::memset(bp.end.data() + boundary + 1, 0xFF, w - boundary - 1);
      }
      bp.vidx = static_cast<std::uint32_t>(i);
      value_len.push_back(static_cast<char>(prefix.length()));
      PutU32(value_enc, FlatLpmCodec<T>::Encode(value_at(i)));
      (prefix.family() == Family::kIpv4 ? v4p : v6p).push_back(bp);
    }
    const std::vector<BuildSegment> v4s = SweepFamily(v4p, 4);
    const std::vector<BuildSegment> v6s = SweepFamily(v6p, 16);

    const bool idx4 = v4s.size() >= kIndexThreshold;
    const bool idx6 = v6s.size() >= kIndexThreshold;
    std::string out;
    out.reserve(kHeaderBytes + value_len.size() * 5 + v4s.size() * 12 +
                v6s.size() * 36 + (idx4 ? (kBuckets + 1) * 4 : 0) +
                (idx6 ? (kBuckets + 1) * 4 : 0));
    out.append(kMagic);
    PutU32(out, kVersion);
    PutU64(out, value_len.size());
    PutU64(out, v4s.size());
    PutU64(out, v6s.size());
    out.push_back(idx4 ? 1 : 0);
    out.push_back(idx6 ? 1 : 0);
    out.append(value_len);
    out.append(value_enc);
    const auto append_family = [&](const std::vector<BuildSegment>& segs, std::size_t w,
                                   bool with_index) {
      for (const BuildSegment& s : segs) {
        out.append(reinterpret_cast<const char*>(s.start.data()), w);
      }
      for (const BuildSegment& s : segs) {
        out.append(reinterpret_cast<const char*>(s.end.data()), w);
      }
      for (const BuildSegment& s : segs) PutU32(out, s.vidx);
      if (!with_index) return;
      // index[b] = first segment whose start's top 16 bits are >= b.
      std::size_t seg = 0;
      for (std::size_t b = 0; b <= kBuckets; ++b) {
        while (seg < segs.size() &&
               (static_cast<std::size_t>(segs[seg].start[0]) << 8 |
                segs[seg].start[1]) < b) {
          ++seg;
        }
        PutU32(out, static_cast<std::uint32_t>(seg));
      }
    };
    append_family(v4s, 4, idx4);
    append_family(v6s, 16, idx6);
    return out;
  }

  // ---- validate + wire up a payload ---------------------------------

  void InitFromPayload(std::string_view payload) {
    const auto fail = [](const std::string& what) -> void {
      throw FlatLpmError("FlatLpm payload: " + what);
    };
    if (payload.size() < kHeaderBytes) fail("shorter than its header");
    const Byte* base = reinterpret_cast<const Byte*>(payload.data());
    if (payload.substr(0, 4) != kMagic) fail("bad magic");
    if (ReadU32(base + 4) != kVersion) fail("unsupported layout version");
    const std::uint64_t n_prefixes = ReadU64(base + 8);
    const std::uint64_t s4 = ReadU64(base + 16);
    const std::uint64_t s6 = ReadU64(base + 24);
    const Byte idx4_flag = base[32];
    const Byte idx6_flag = base[33];
    if (idx4_flag > 1 || idx6_flag > 1) fail("bad index flag");
    if (n_prefixes > 0xFFFFFFFFULL) fail("prefix count exceeds 32-bit indices");
    // The per-family bounds make the sum and the size arithmetic below
    // overflow-free: counts are capped near 2^33 each.
    if (s4 > 2 * n_prefixes || s6 > 2 * n_prefixes || s4 + s6 > 2 * n_prefixes) {
      fail("more segments than prefixes allow");
    }
    const std::uint64_t index_bytes = (kBuckets + 1) * 4;
    const std::uint64_t expected = kHeaderBytes + n_prefixes * 5 + s4 * 12 + s6 * 36 +
                                   (idx4_flag ? index_bytes : 0) +
                                   (idx6_flag ? index_bytes : 0);
    if (payload.size() != expected) fail("length does not match its counts");

    const Byte* p = base + kHeaderBytes;
    value_len_ = p;
    p += n_prefixes;
    const Byte* value_enc = p;
    p += n_prefixes * 4;

    const auto wire_family = [&](FamilyView& fv, std::uint64_t count, std::size_t w,
                                 bool with_index) {
      fv.width = w;
      fv.count = static_cast<std::size_t>(count);
      fv.starts = p;
      p += count * w;
      fv.ends = p;
      p += count * w;
      fv.vidx = p;
      p += count * 4;
      fv.index = nullptr;
      if (with_index) {
        fv.index = p;
        p += index_bytes;
      }
    };
    wire_family(v4_, s4, 4, idx4_flag != 0);
    wire_family(v6_, s6, 16, idx6_flag != 0);

    // Structural checks, one O(count) pass per family: ordered disjoint
    // ranges, value indices in range, prefix lengths consistent with the
    // family, and a bucket table that matches the starts it indexes.
    const auto check_family = [&](const FamilyView& fv, const char* name) {
      const int width_bits = static_cast<int>(fv.width) * 8;
      for (std::size_t i = 0; i < fv.count; ++i) {
        const Byte* start = fv.starts + i * fv.width;
        const Byte* end = fv.ends + i * fv.width;
        if (CmpAddr(start, end, fv.width) > 0) {
          fail(std::string(name) + " segment with start past its end");
        }
        if (i > 0 &&
            CmpAddr(fv.ends + (i - 1) * fv.width, start, fv.width) >= 0) {
          fail(std::string(name) + " segments out of order or overlapping");
        }
        const std::uint32_t vidx = ReadU32(fv.vidx + 4 * i);
        if (vidx >= n_prefixes) fail(std::string(name) + " value index out of range");
        if (value_len_[vidx] > width_bits) {
          fail(std::string(name) + " prefix length exceeds the family width");
        }
      }
      if (fv.index != nullptr) {
        std::size_t seg = 0;
        for (std::size_t b = 0; b <= kBuckets; ++b) {
          while (seg < fv.count &&
                 (static_cast<std::size_t>(fv.starts[seg * fv.width]) << 8 |
                  fv.starts[seg * fv.width + 1]) < b) {
            ++seg;
          }
          if (ReadU32(fv.index + 4 * b) != seg) {
            fail(std::string(name) + " bucket index disagrees with segment starts");
          }
        }
      }
    };
    check_family(v4_, "v4");
    check_family(v6_, "v6");

    values_.clear();
    values_.reserve(static_cast<std::size_t>(n_prefixes));
    for (std::uint64_t i = 0; i < n_prefixes; ++i) {
      values_.push_back({FlatLpmCodec<T>::Decode(ReadU32(value_enc + 4 * i))});
    }
    payload_ = payload;
  }

  // ---- lookup core --------------------------------------------------

  /// Index of the segment containing `key`, or kNone. One bucketed
  /// upper-bound binary search plus one range check.
  [[nodiscard]] std::size_t FindSegment(const FamilyView& fv, const Byte* key) const {
    if (fv.count == 0) return kNone;
    std::size_t lo = 0;
    std::size_t hi = fv.count;
    if (fv.index != nullptr) {
      // Segments whose start shares the key's top 16 bits live in
      // [index[b], index[b+1]); the global upper bound lands inside or
      // at the edge of that window (see the layout comment up top).
      const std::size_t bucket = (static_cast<std::size_t>(key[0]) << 8) | key[1];
      lo = ReadU32(fv.index + 4 * bucket);
      hi = ReadU32(fv.index + 4 * (bucket + 1));
    }
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (CmpAddr(fv.starts + mid * fv.width, key, fv.width) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    // lo is now the first segment with start > key; its predecessor is
    // the only candidate (possibly from an earlier bucket).
    if (lo == 0) return kNone;
    const std::size_t cand = lo - 1;
    if (CmpAddr(key, fv.ends + cand * fv.width, fv.width) > 0) return kNone;
    return cand;
  }

  std::shared_ptr<const void> keepalive_;
  bool view_ = false;         // bytes come from an external mapping
  std::string_view payload_;  // the validated blob, owned via keepalive_
  // One decoded value per prefix. The wrapper keeps the container an
  // ordinary vector for every T — vector<bool>'s packed specialization
  // has no element addresses, and lookups hand out `const T*`.
  struct ValueSlot {
    T v;
  };
  std::vector<ValueSlot> values_;
  const Byte* value_len_ = nullptr;  // matched prefix lengths, per slot
  FamilyView v4_{};
  FamilyView v6_{};
};

}  // namespace cellspot::netaddr
