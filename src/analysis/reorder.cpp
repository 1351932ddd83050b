#include "analysis/reorder.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "analysis/namespace.hpp"

namespace nfstrace {

ReorderKernel::ReorderKernel(const std::vector<ReorderKey>& keys) {
  if (keys.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("reorder: more than 2^32 keys");
  }
  const std::size_t n = keys.size();
  timeOrder_.resize(n);
  std::iota(timeOrder_.begin(), timeOrder_.end(), 0u);
  std::stable_sort(timeOrder_.begin(), timeOrder_.end(),
                   [&keys](std::uint32_t a, std::uint32_t b) {
                     return keys[a].ts < keys[b].ts;
                   });
  ts_.resize(n);
  offset_.resize(n);
  std::size_t groups = 0;
  for (std::size_t p = 0; p < n; ++p) {
    const ReorderKey& key = keys[timeOrder_[p]];
    ts_[p] = key.ts;
    offset_[p] = key.offset;
    if (key.group != kNoGroup) {
      groups = std::max<std::size_t>(groups, std::size_t{key.group} + 1);
    }
  }

  // Group the time positions (offsets into one flat member array), each
  // group's in time order: a counting sort by group id.
  groupStart_.assign(groups + 1, 0);
  for (const ReorderKey& key : keys) {
    if (key.group != kNoGroup) ++groupStart_[key.group + 1];
  }
  for (std::size_t g = 1; g <= groups; ++g) {
    groupStart_[g] += groupStart_[g - 1];
  }
  members_.resize(groupStart_[groups]);
  std::vector<std::uint32_t> fill(groupStart_.begin(), groupStart_.end() - 1);
  for (std::size_t p = 0; p < n; ++p) {
    std::uint32_t group = keys[timeOrder_[p]].group;
    if (group != kNoGroup) {
      members_[fill[group]++] = static_cast<std::uint32_t>(p);
    }
  }
}

std::uint64_t ReorderKernel::run(MicroTime windowUs,
                                 std::vector<std::uint32_t>* order) const {
  if (order) *order = timeOrder_;
  if (windowUs <= 0) return 0;

  // Min-heap of (offset, member index): the member index is the time
  // order within the group, so offset ties go to the earliest access.
  using Entry = std::pair<std::uint64_t, std::uint32_t>;
  std::vector<Entry> heap;
  std::vector<std::uint8_t> placed;
  std::uint64_t swapped = 0;
  for (std::size_t g = 0; g + 1 < groupStart_.size(); ++g) {
    const std::uint32_t* m = members_.data() + groupStart_[g];
    const std::size_t n = groupStart_[g + 1] - groupStart_[g];
    if (n < 2) continue;  // a lone access never moves
    heap.clear();
    placed.assign(n, 0);
    std::size_t first = 0;  // first unplaced member
    std::size_t end = 0;    // first member not yet in the heap
    for (std::size_t i = 0; i < n; ++i) {
      while (placed[first]) ++first;
      const MicroTime tsFirst = ts_[m[first]];
      for (; end < n && ts_[m[end]] - tsFirst <= windowUs; ++end) {
        heap.emplace_back(offset_[m[end]], static_cast<std::uint32_t>(end));
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
      }
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const std::uint32_t pick = heap.back().second;
      heap.pop_back();
      placed[pick] = 1;
      if (pick != first) ++swapped;
      if (order) (*order)[m[i]] = timeOrder_[m[pick]];
    }
  }
  return swapped;
}

namespace {

/// Kernel keys for whole records: data accesses grouped per (handle,
/// direction), everything else in the time sort only.
std::vector<ReorderKey> keysOf(const std::vector<TraceRecord>& records) {
  HandleIds ids;
  std::vector<ReorderKey> keys;
  keys.reserve(records.size());
  for (const TraceRecord& rec : records) {
    std::uint32_t group = ReorderKernel::kNoGroup;
    if (isDataAccess(rec)) {
      group = reorderGroup(ids.of(rec).fh, rec.op == NfsOp::Write);
    }
    keys.push_back({rec.ts, rec.offset, group});
  }
  return keys;
}

}  // namespace

ReorderResult sortWithReorderWindow(const std::vector<TraceRecord>& input,
                                    MicroTime windowUs) {
  ReorderKernel kernel(keysOf(input));
  std::vector<std::uint32_t> order;
  ReorderResult out;
  out.accessesSwapped = kernel.run(windowUs, &order);
  out.accessesTotal = kernel.accessesTotal();
  out.records.reserve(input.size());
  for (std::uint32_t k : order) out.records.push_back(input[k]);
  return out;
}

std::vector<std::pair<MicroTime, double>> sweepReorderWindows(
    const std::vector<TraceRecord>& input,
    const std::vector<MicroTime>& windows) {
  ReorderKernel kernel(keysOf(input));
  std::vector<std::pair<MicroTime, double>> out;
  out.reserve(windows.size());
  for (MicroTime w : windows) {
    out.emplace_back(w, swappedFraction(kernel.run(w),
                                        kernel.accessesTotal()));
  }
  return out;
}

}  // namespace nfstrace
