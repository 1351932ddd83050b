#include "analysis/reorder.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "analysis/namespace.hpp"
#include "util/runqueue.hpp"

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
  std::size_t groups = 0;
  for (const ReorderKey& key : keys) {
    if (key.group != kNoGroup) {
      groups = std::max<std::size_t>(groups, std::size_t{key.group} + 1);
    }
  }

  // Group the time positions (offsets into flat member arrays), each
  // group's in time order: a counting sort by group id.  Each member
  // carries its key's timestamp and offset, so run() reads a group's
  // keys from contiguous memory.
  groupStart_.assign(groups + 1, 0);
  for (const ReorderKey& key : keys) {
    if (key.group != kNoGroup) ++groupStart_[key.group + 1];
  }
  for (std::size_t g = 1; g <= groups; ++g) {
    groupStart_[g] += groupStart_[g - 1];
  }
  const std::size_t members = groupStart_[groups];
  members_.resize(members);
  memberTs_.resize(members);
  memberOffset_.resize(members);
  std::vector<std::uint32_t> fill(groupStart_.begin(), groupStart_.end() - 1);
  for (std::size_t p = 0; p < n; ++p) {
    const ReorderKey& key = keys[timeOrder_[p]];
    if (key.group == kNoGroup) continue;
    const std::uint32_t j = fill[key.group]++;
    members_[j] = static_cast<std::uint32_t>(p);
    memberTs_[j] = key.ts;
    memberOffset_[j] = key.offset;
  }
}

std::uint64_t ReorderKernel::run(MicroTime windowUs,
                                 std::vector<std::uint32_t>* order) const {
  if (order) *order = timeOrder_;
  if (windowUs <= 0) return 0;

  // The window as (offset, member index): the member index is the time
  // order within the group, so offset ties go to the earliest access.
  // Indices enter in increasing order, so a stretch of offsets that does
  // not descend goes to the queue's FIFO.
  RunQueue<std::pair<std::uint64_t, std::uint32_t>> window;
  std::vector<std::uint8_t> placed;
  std::uint64_t swapped = 0;
  for (std::size_t g = 0; g + 1 < groupStart_.size(); ++g) {
    const std::size_t base = groupStart_[g];
    const std::size_t n = groupStart_[g + 1] - base;
    if (n < 2) continue;  // a lone access never moves
    const MicroTime* ts = memberTs_.data() + base;
    const std::uint64_t* offset = memberOffset_.data() + base;
    window.clear();
    placed.assign(n, 0);
    std::size_t first = 0;  // first unplaced member
    std::size_t end = 0;    // first member not yet in the window
    for (std::size_t i = 0; i < n; ++i) {
      while (placed[first]) ++first;
      // Members are in time order, so ts[end] >= ts[first]: the unsigned
      // difference is exact and cannot overflow.
      const auto tsFirst = static_cast<std::uint64_t>(ts[first]);
      for (; end < n && static_cast<std::uint64_t>(ts[end]) - tsFirst <=
                            static_cast<std::uint64_t>(windowUs);
           ++end) {
        window.push({offset[end], static_cast<std::uint32_t>(end)});
      }
      const std::uint32_t pick = window.top().second;
      window.pop();
      placed[pick] = 1;
      if (pick != first) ++swapped;
      if (order) {
        (*order)[members_[base + i]] = timeOrder_[members_[base + pick]];
      }
    }
  }
  return swapped;
}

std::vector<std::uint64_t> ReorderKernel::sweep(
    const std::vector<MicroTime>& windows) const {
  std::vector<std::uint64_t> swapped;
  swapped.reserve(windows.size());
  for (MicroTime w : windows) swapped.push_back(run(w));
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
  const std::vector<std::uint64_t> swapped = kernel.sweep(windows);
  std::vector<std::pair<MicroTime, double>> out;
  out.reserve(windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    out.emplace_back(windows[i],
                     swappedFraction(swapped[i], kernel.accessesTotal()));
  }
  return out;
}

}  // namespace nfstrace
