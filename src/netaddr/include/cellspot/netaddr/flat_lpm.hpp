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
    return Own(EncodeSorted(
        entries.size(), [&](std::size_t i) -> const Prefix& { return entries[i].first; },
        [&](std::size_t i) -> const T& { return entries[i].second; }));
  }

  /// As above, with every prefix mapped to `value`.
  [[nodiscard]] static FlatLpm Build(std::span<const Prefix> prefixes, const T& value) {
    return Own(EncodeSorted(
        prefixes.size(), [&](std::size_t i) -> const Prefix& { return prefixes[i]; },
        [&](std::size_t) -> const T& { return value; }));
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

  /// Store `v` at the cursor and advance it.
  static void PutU32(Byte*& p, std::uint32_t v) noexcept {
    p[0] = static_cast<Byte>(v);
    p[1] = static_cast<Byte>(v >> 8);
    p[2] = static_cast<Byte>(v >> 16);
    p[3] = static_cast<Byte>(v >> 24);
    p += 4;
  }

  static void PutU64(Byte*& p, std::uint64_t v) noexcept {
    PutU32(p, static_cast<std::uint32_t>(v));
    PutU32(p, static_cast<std::uint32_t>(v >> 32));
  }

  static void PutBytes(Byte*& p, const void* src, std::size_t n) noexcept {
    if (n == 0) return;  // an empty vector's data() may be null, which memcpy forbids
    std::memcpy(p, src, n);
    p += n;
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
    std::vector<Byte> value_len(n);
    std::vector<Byte> value_enc(n * 4);
    Byte* enc = value_enc.data();
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
      value_len[i] = static_cast<Byte>(prefix.length());
      PutU32(enc, FlatLpmCodec<T>::Encode(value_at(i)));
      (prefix.family() == Family::kIpv4 ? v4p : v6p).push_back(bp);
    }
    const std::vector<BuildSegment> v4s = SweepFamily(v4p, 4);
    const std::vector<BuildSegment> v6s = SweepFamily(v6p, 16);

    // The layout's exact size is known here: size the payload once and
    // store every field through one cursor.
    const Header h{.n_prefixes = n,
                   .s4 = v4s.size(),
                   .s6 = v6s.size(),
                   .idx4 = v4s.size() >= kIndexThreshold,
                   .idx6 = v6s.size() >= kIndexThreshold};
    std::string out(PayloadBytes(h), '\0');
    Byte* p = reinterpret_cast<Byte*>(out.data());
    PutBytes(p, kMagic.data(), kMagic.size());
    PutU32(p, kVersion);
    PutU64(p, h.n_prefixes);
    PutU64(p, h.s4);
    PutU64(p, h.s6);
    *p++ = h.idx4 ? 1 : 0;
    *p++ = h.idx6 ? 1 : 0;
    PutBytes(p, value_len.data(), value_len.size());
    PutBytes(p, value_enc.data(), value_enc.size());
    const auto put_family = [&p](const std::vector<BuildSegment>& segs, std::size_t w,
                                 bool with_index) {
      for (const BuildSegment& s : segs) PutBytes(p, s.start.data(), w);
      for (const BuildSegment& s : segs) PutBytes(p, s.end.data(), w);
      for (const BuildSegment& s : segs) PutU32(p, s.vidx);
      if (!with_index) return;
      // index[b] = first segment whose start's top 16 bits are >= b.
      std::size_t seg = 0;
      for (std::size_t b = 0; b <= kBuckets; ++b) {
        while (seg < segs.size() &&
               (static_cast<std::size_t>(segs[seg].start[0]) << 8 |
                segs[seg].start[1]) < b) {
          ++seg;
        }
        PutU32(p, static_cast<std::uint32_t>(seg));
      }
    };
    put_family(v4s, 4, h.idx4);
    put_family(v6s, 16, h.idx6);
    return out;
  }

  // ---- validate + wire up a payload ---------------------------------

  struct Header {
    std::uint64_t n_prefixes = 0;
    std::uint64_t s4 = 0;  // v4 segments
    std::uint64_t s6 = 0;  // v6 segments
    bool idx4 = false;     // the v4 family carries a bucket table
    bool idx6 = false;
  };

  static constexpr std::uint64_t kIndexBytes = (kBuckets + 1) * 4;

  /// The exact payload length a header's counts imply. Overflow-free
  /// for any header ReadHeader accepts.
  [[nodiscard]] static std::uint64_t PayloadBytes(const Header& h) noexcept {
    return kHeaderBytes + h.n_prefixes * 5 + h.s4 * 12 + h.s6 * 36 +
           (h.idx4 ? kIndexBytes : 0) + (h.idx6 ? kIndexBytes : 0);
  }

  [[nodiscard]] static FlatLpmError PayloadError(std::string_view what) {
    return FlatLpmError("FlatLpm payload: " + std::string(what));
  }

  /// Reads the header without reading past it, checking magic, version,
  /// flags, count bounds, and the payload length against the counts.
  /// Throws FlatLpmError on the first defect.
  [[nodiscard]] static Header ReadHeader(std::string_view payload) {
    if (payload.size() < kHeaderBytes) throw PayloadError("shorter than its header");
    const Byte* base = reinterpret_cast<const Byte*>(payload.data());
    if (payload.substr(0, 4) != kMagic) throw PayloadError("bad magic");
    if (ReadU32(base + 4) != kVersion) throw PayloadError("unsupported layout version");
    if (base[32] > 1 || base[33] > 1) throw PayloadError("bad index flag");
    const Header h{.n_prefixes = ReadU64(base + 8),
                   .s4 = ReadU64(base + 16),
                   .s6 = ReadU64(base + 24),
                   .idx4 = base[32] == 1,
                   .idx6 = base[33] == 1};
    if (h.n_prefixes > 0xFFFFFFFFULL) throw PayloadError("prefix count exceeds 32-bit indices");
    // The per-family bounds make the sum and the size arithmetic
    // overflow-free: counts are capped near 2^33 each.
    if (h.s4 > 2 * h.n_prefixes || h.s6 > 2 * h.n_prefixes ||
        h.s4 + h.s6 > 2 * h.n_prefixes) {
      throw PayloadError("more segments than prefixes allow");
    }
    if (payload.size() != PayloadBytes(h)) throw PayloadError("length does not match its counts");
    return h;
  }

  /// Validate `payload` in place and keep it as the engine's own buffer.
  [[nodiscard]] static FlatLpm Own(std::string payload) {
    auto owned = std::make_shared<const std::string>(std::move(payload));
    const std::string_view stable(*owned);
    FlatLpm lpm = View(stable, std::move(owned));
    lpm.view_ = false;
    return lpm;
  }

  void InitFromPayload(std::string_view payload) {
    const Header h = ReadHeader(payload);
    const std::uint64_t n_prefixes = h.n_prefixes;
    const Byte* base = reinterpret_cast<const Byte*>(payload.data());
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
        p += kIndexBytes;
      }
    };
    wire_family(v4_, h.s4, 4, h.idx4);
    wire_family(v6_, h.s6, 16, h.idx6);

    // Structural checks, one O(count) pass per family: ordered disjoint
    // ranges, value indices in range, prefix lengths consistent with the
    // family, and a bucket table that matches the starts it indexes.
    const auto check_family = [&](const FamilyView& fv, const char* name) {
      const int width_bits = static_cast<int>(fv.width) * 8;
      for (std::size_t i = 0; i < fv.count; ++i) {
        const Byte* start = fv.starts + i * fv.width;
        const Byte* end = fv.ends + i * fv.width;
        if (CmpAddr(start, end, fv.width) > 0) {
          throw PayloadError(std::string(name) + " segment with start past its end");
        }
        if (i > 0 &&
            CmpAddr(fv.ends + (i - 1) * fv.width, start, fv.width) >= 0) {
          throw PayloadError(std::string(name) + " segments out of order or overlapping");
        }
        const std::uint32_t vidx = ReadU32(fv.vidx + 4 * i);
        if (vidx >= n_prefixes) {
          throw PayloadError(std::string(name) + " value index out of range");
        }
        if (value_len_[vidx] > width_bits) {
          throw PayloadError(std::string(name) + " prefix length exceeds the family width");
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
            throw PayloadError(std::string(name) + " bucket index disagrees with segment starts");
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
