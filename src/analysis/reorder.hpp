// Reorder-window sorting (§4.2, Figure 1).
//
// nfsiod scheduling delivers calls to the server out of application order;
// analyzed naively this makes genuinely sequential streams look random.
// The fix: within each file's access stream, look ahead a small temporal
// window and swap requests that are out of offset order.  The window must
// be just large enough to undo scheduler jitter — an infinite window would
// make *any* access pattern that touches every block look sequential.
//
// The sort, per (file, direction) group in time order: at each position,
// pick the smallest offset (earliest on ties) among the accesses no later
// than `window` after the access now at that position, and rotate it
// there, shifting the others right by one; a pick from further ahead
// counts as one swap.  A rotation only moves the pick forward, so the
// accesses not yet placed stay in time order and the position always
// holds the first of them.  Each step's window is therefore the unplaced
// accesses with ts <= ts(first unplaced) + window, and the pick is their
// minimum (offset, time position) — which ReorderKernel draws from a
// min-heap fed as the window's end advances, in O(n log n) instead of the
// rotation's O(n * window).  tests/reorder_kernel_test.cpp pins it
// against the rotation loop.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/record.hpp"

namespace nfstrace {

/// The records the reorder sort and run detection derive anything from:
/// READ and WRITE calls on a file handle.
inline bool isDataAccess(const TraceRecord& rec) {
  return (rec.op == NfsOp::Read || rec.op == NfsOp::Write) && rec.fh.len > 0;
}

/// The kernel group of an access: reads and writes of a file sort apart,
/// as they come from different client-side queues.
inline std::uint32_t reorderGroup(std::uint32_t handleId, bool isWrite) {
  return handleId * 2 + (isWrite ? 1 : 0);
}

inline double swappedFraction(std::uint64_t swapped, std::uint64_t total) {
  return total ? static_cast<double>(swapped) / static_cast<double>(total)
               : 0.0;
}

/// One access as the kernel sees it (24 bytes).
struct ReorderKey {
  MicroTime ts = 0;
  std::uint64_t offset = 0;
  /// Dense (file, direction) id; kNoGroup keeps the key in the time sort
  /// but out of every group (records that are not data accesses).
  std::uint32_t group = 0;
};
static_assert(sizeof(ReorderKey) == 24);

/// The reorder sort over a fixed key set: one stable time sort and one
/// grouping, shared by every window run() is asked for.
class ReorderKernel {
 public:
  static constexpr std::uint32_t kNoGroup = ~std::uint32_t{0};

  explicit ReorderKernel(const std::vector<ReorderKey>& keys);

  /// Keys in some group: the accesses the swap fraction is taken over.
  std::uint64_t accessesTotal() const { return members_.size(); }

  /// Sort with `windowUs` and return the swap count.  With `order`, also
  /// return which key (index into the constructor's vector) sits at each
  /// time-sorted position.  A window <= 0 keeps the time order and counts
  /// nothing swapped.
  std::uint64_t run(MicroTime windowUs,
                    std::vector<std::uint32_t>* order = nullptr) const;

 private:
  // Per time position: the key's timestamp, offset and index.
  std::vector<MicroTime> ts_;
  std::vector<std::uint64_t> offset_;
  std::vector<std::uint32_t> timeOrder_;
  // Group g's time positions, in time order, are
  // members_[groupStart_[g], groupStart_[g + 1]).
  std::vector<std::uint32_t> groupStart_;
  std::vector<std::uint32_t> members_;
};

struct ReorderResult {
  std::vector<TraceRecord> records;  // time-sorted output
  std::uint64_t accessesSwapped = 0;
  std::uint64_t accessesTotal = 0;   // read/write accesses considered
  double swappedFraction() const {
    return nfstrace::swappedFraction(accessesSwapped, accessesTotal);
  }
};

/// Apply the reorder-window sort with the given window (microseconds).
/// Only READ/WRITE records participate; other records pass through.  A
/// window of zero returns the input order and counts nothing swapped.
ReorderResult sortWithReorderWindow(const std::vector<TraceRecord>& input,
                                    MicroTime windowUs);

/// Figure 1 helper: fraction of accesses swapped for each window size.
std::vector<std::pair<MicroTime, double>> sweepReorderWindows(
    const std::vector<TraceRecord>& input,
    const std::vector<MicroTime>& windows);

}  // namespace nfstrace
