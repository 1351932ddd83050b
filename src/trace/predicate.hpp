// Scan predicate: the pushdown filter the analysis engine applies to a
// trace scan.  Two granularities share one definition:
//
//   * mayMatch(ExtentInfo) — zone-map test against a v2 footer entry;
//     false means no record in the extent can match, so the whole
//     extent is skipped before its payload is even read.
//   * matches(TraceRecord) — the exact record-level test, applied to
//     whatever survives pruning (and to every record on index-less
//     inputs, where it is the only filter).
//
// The zone-map test must never prune a matching record, so it answers
// "possibly" wherever the footer's ranges are conservative.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "trace/record.hpp"
#include "trace/v2.hpp"
#include "util/time.hpp"

namespace nfstrace {

/// Bit for one op in an op-set mask, matching the v2 footer's per-extent
/// op bitmask convention: ops >= 31 collapse into bit 31.
inline constexpr std::uint32_t opMaskBit(NfsOp op) {
  std::uint32_t bit = static_cast<std::uint32_t>(op);
  return bit < 31 ? (1u << bit) : (1u << 31);
}

/// All ops — the mask that filters nothing.
inline constexpr std::uint32_t kAllOpsMask = ~std::uint32_t{0};

struct ScanPredicate {
  /// Inclusive request-timestamp window.
  MicroTime from = std::numeric_limits<MicroTime>::min();
  MicroTime to = std::numeric_limits<MicroTime>::max();
  /// Op set as an opMaskBit() union.
  std::uint32_t ops = kAllOpsMask;
  /// Exact uid, when present.
  std::optional<std::uint32_t> uid;

  bool trivial() const {
    return from == std::numeric_limits<MicroTime>::min() &&
           to == std::numeric_limits<MicroTime>::max() &&
           ops == kAllOpsMask && !uid.has_value();
  }

  bool matches(const TraceRecord& rec) const {
    if (rec.ts < from || rec.ts > to) return false;
    if ((ops & opMaskBit(rec.op)) == 0) return false;
    if (uid && rec.uid != *uid) return false;
    return true;
  }

  /// Zone-map test: can any record in this extent match?  Because ops
  /// >= 31 share bit 31, a bit-31 hit is "possibly" for any such op —
  /// conservative in exactly the way pruning requires.
  bool mayMatch(const tracev2::ExtentInfo& e) const {
    if (e.tsMax < from || e.tsMin > to) return false;
    if ((ops & e.opMask) == 0) return false;
    if (uid && (*uid < e.uidMin || *uid > e.uidMax)) return false;
    return true;
  }
};

}  // namespace nfstrace
