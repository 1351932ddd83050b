// The reorder kernel against the rotation loop it replaced.
//
// referenceSort() below is the original O(n * window) implementation of
// sortWithReorderWindow, kept verbatim as the oracle: the kernel must
// make the same picks (output order, by a per-record id in `xid`), count
// the same swaps, and — through the row-based detectRuns in kernel order
// — split the same runs, on randomized traces with heavy ties in
// timestamp and offset, several files, reads and writes interleaved on
// one handle, records without a handle and ops that are not data ops,
// and on long streams whose windows fill both sides of the kernel's
// RunQueue.  One kernel swept from several threads at once must sweep
// to the same counts as run() on every thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/namespace.hpp"
#include "analysis/reorder.hpp"
#include "analysis/runs.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace nfstrace {
namespace {

// ------------------------------------------------- the reference loop

bool isDataAccessRef(const TraceRecord& rec) {
  return (rec.op == NfsOp::Read || rec.op == NfsOp::Write) && rec.fh.len > 0;
}

ReorderResult referenceSort(const std::vector<TraceRecord>& input,
                            MicroTime windowUs) {
  ReorderResult out;
  out.records = input;
  std::stable_sort(out.records.begin(), out.records.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.ts < b.ts;
                   });

  // Collect indices of data accesses per (file handle, direction): reads
  // and writes are sorted independently, as they come from different
  // client-side queues.
  std::map<std::pair<std::string, bool>, std::vector<std::size_t>> perFile;
  for (std::size_t i = 0; i < out.records.size(); ++i) {
    const auto& rec = out.records[i];
    if (!isDataAccessRef(rec)) continue;
    perFile[{rec.fh.toHex(), rec.op == NfsOp::Write}].push_back(i);
    ++out.accessesTotal;
  }
  if (windowUs <= 0) return out;

  for (auto& [key, indices] : perFile) {
    // Selection-within-window: for each position, look ahead `windowUs`
    // and pull forward the smallest offset found there.
    for (std::size_t i = 0; i < indices.size(); ++i) {
      MicroTime tsHere = out.records[indices[i]].ts;
      std::size_t best = i;
      for (std::size_t j = i + 1; j < indices.size(); ++j) {
        if (out.records[indices[j]].ts - tsHere > windowUs) break;
        if (out.records[indices[j]].offset <
            out.records[indices[best]].offset) {
          best = j;
        }
      }
      if (best != i) {
        // Rotate the chosen record into place, preserving the relative
        // order of the displaced ones (a "swap" in the paper's counting).
        TraceRecord picked = out.records[indices[best]];
        for (std::size_t j = best; j > i; --j) {
          out.records[indices[j]] = out.records[indices[j - 1]];
        }
        out.records[indices[i]] = picked;
        ++out.accessesSwapped;
      }
    }
  }
  return out;
}

// ----------------------------------------------------- random traces

constexpr NfsOp kOtherOps[] = {NfsOp::Getattr, NfsOp::Lookup, NfsOp::Setattr,
                               NfsOp::Commit, NfsOp::Create};

/// A trace of up to 150 records over 1-6 files, each tagged with its
/// input index in `xid`.  Timestamps and offsets repeat often; the input
/// is only roughly time-ordered; a few gaps exceed the 30 s run break.
std::vector<TraceRecord> randomTrace(Rng& rng) {
  const std::size_t n = 1 + rng.below(150);
  const std::uint64_t files = 1 + rng.below(6);
  std::vector<TraceRecord> recs;
  MicroTime clock = kMicrosPerSecond;
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.below(6)) {
      case 0:
      case 1: break;  // same timestamp as the previous record
      case 2: clock += 1; break;
      case 3: clock += static_cast<MicroTime>(rng.below(5'000)); break;
      case 4: clock += static_cast<MicroTime>(rng.below(40'000)); break;
      default:
        clock += rng.chance(0.2)
                     ? 31 * kMicrosPerSecond
                     : static_cast<MicroTime>(rng.below(2'000'000));
    }
    TraceRecord r;
    r.xid = static_cast<std::uint32_t>(i);
    r.ts = clock - (rng.chance(0.2) ? static_cast<MicroTime>(rng.below(8'000))
                                    : 0);
    r.op = rng.chance(0.85) ? (rng.chance(0.5) ? NfsOp::Read : NfsOp::Write)
                            : kOtherOps[rng.below(std::size(kOtherOps))];
    if (!rng.chance(0.08)) r.fh = FileHandle::make(1, 1 + rng.below(files), 1);
    r.offset = rng.chance(0.8) ? rng.below(12) * 8192 : rng.below(1 << 20);
    r.count = rng.chance(0.7) ? 8192 : static_cast<std::uint32_t>(
                                           rng.below(10'000));
    r.hasReply = rng.chance(0.8);
    r.retCount = rng.chance(0.3) ? 0 : static_cast<std::uint32_t>(
                                           rng.below(10'000));
    r.eof = rng.chance(0.1);
    r.hasAttrs = rng.chance(0.7);
    r.fileSize = rng.below(14) * 8192 + rng.below(2) * rng.below(8192);
    recs.push_back(r);
  }
  return recs;
}

/// Two files read and written in long streams of `perGroup` accesses per
/// (file, direction) group, each record tagged with its input index in
/// `xid`.  Each stream strings together stretches of 20 to 320 accesses
/// that ascend block by block, ascend but restart at offset 0, repeat one
/// offset, or descend; then nfsiod-style scheduling swaps the offsets of
/// some neighbours.  Times advance by 0 to 3 ms, with ties.
std::vector<TraceRecord> longStreams(Rng& rng, std::size_t perGroup) {
  std::vector<TraceRecord> recs;
  for (std::uint64_t file = 1; file <= 2; ++file) {
    for (bool write : {false, true}) {
      MicroTime clock = kMicrosPerSecond;
      std::uint64_t block = 0;
      std::uint64_t shape = 0;
      std::size_t left = 0;
      const std::size_t begin = recs.size();
      for (std::size_t i = 0; i < perGroup; ++i) {
        if (left == 0) {
          shape = rng.below(4);
          left = 20 + rng.below(300);
        }
        --left;
        switch (shape) {
          case 0: ++block; break;
          case 1: block = rng.chance(0.05) ? 0 : block + 1; break;
          case 2: block += rng.chance(0.1) ? 1 : 0; break;
          default: block = block ? block - 1 : 64; break;
        }
        clock += rng.chance(0.3) ? 0 : static_cast<MicroTime>(rng.below(3000));
        TraceRecord r;
        r.ts = clock;
        r.op = write ? NfsOp::Write : NfsOp::Read;
        r.fh = FileHandle::make(1, file, 1);
        r.offset = block * 8192;
        r.count = 8192;
        recs.push_back(r);
      }
      for (std::size_t i = begin; i + 1 < recs.size(); ++i) {
        if (rng.chance(0.15)) {
          std::swap(recs[i].offset, recs[i + 1].offset);
          ++i;  // the pair stays swapped
        }
      }
    }
  }
  for (std::size_t i = 0; i < recs.size(); ++i) {
    recs[i].xid = static_cast<std::uint32_t>(i);
  }
  return recs;
}

/// Kernel keys of data-access records, as ReorderPass buffers them.
std::vector<ReorderKey> keysOf(const std::vector<TraceRecord>& recs) {
  HandleIds ids;
  std::vector<ReorderKey> keys;
  for (const TraceRecord& r : recs) {
    if (!isDataAccess(r)) continue;
    keys.push_back(
        {r.ts, r.offset, reorderGroup(ids.of(r).fh, r.op == NfsOp::Write)});
  }
  return keys;
}

/// 0, 1 us, 10 ms, 1 s, and longer than any trace above.
const std::vector<MicroTime> kWindows = {0, 1, 10'000, kMicrosPerSecond,
                                         1'000'000 * kMicrosPerSecond};

std::vector<std::uint32_t> xids(const std::vector<TraceRecord>& recs) {
  std::vector<std::uint32_t> out;
  for (const TraceRecord& r : recs) out.push_back(r.xid);
  return out;
}

using RunKey = std::tuple<std::string, MicroTime, MicroTime, std::uint32_t,
                          std::uint64_t, RunType, RunPattern>;

std::vector<RunKey> runKeys(const std::vector<Run>& runs) {
  std::vector<RunKey> out;
  for (const Run& r : runs) {
    out.emplace_back(r.fh.toHex(), r.start, r.end, r.accesses,
                     r.bytesAccessed, r.type, r.pattern);
  }
  std::sort(out.begin(), out.end());
  return out;
}

constexpr int kTraces = 600;

// ------------------------------------------------------------- tests

TEST(ReorderKernel, MatchesRotationLoop) {
  Rng rng(20);
  for (int t = 0; t < kTraces; ++t) {
    auto recs = randomTrace(rng);
    for (MicroTime w : kWindows) {
      SCOPED_TRACE("trace " + std::to_string(t) + " window " +
                   std::to_string(w));
      ReorderResult want = referenceSort(recs, w);
      ReorderResult got = sortWithReorderWindow(recs, w);
      ASSERT_EQ(xids(got.records), xids(want.records));
      ASSERT_EQ(got.accessesSwapped, want.accessesSwapped);
      ASSERT_EQ(got.accessesTotal, want.accessesTotal);
    }
  }
}

TEST(ReorderKernel, SweepMatchesRotationLoop) {
  Rng rng(21);
  for (int t = 0; t < kTraces; ++t) {
    auto recs = randomTrace(rng);
    auto sweep = sweepReorderWindows(recs, kWindows);
    ASSERT_EQ(sweep.size(), kWindows.size());
    for (std::size_t i = 0; i < kWindows.size(); ++i) {
      EXPECT_EQ(sweep[i].first, kWindows[i]);
      EXPECT_EQ(sweep[i].second,
                referenceSort(recs, kWindows[i]).swappedFraction())
          << "trace " << t << " window " << kWindows[i];
    }
  }
}

TEST(ReorderKernel, RowRunsInKernelOrderMatchRecordRuns) {
  Rng rng(22);
  for (int t = 0; t < kTraces; ++t) {
    auto recs = randomTrace(rng);
    // Rows and keys of the data accesses, as RunsPass buffers them.
    HandleIds ids;
    std::vector<AccessRow> rows;
    std::vector<ReorderKey> keys;
    for (const TraceRecord& r : recs) {
      if (!isDataAccess(r)) continue;
      std::uint32_t file = ids.of(r).fh;
      rows.push_back(accessRow(r, file));
      keys.push_back({r.ts, r.offset,
                      reorderGroup(file, r.op == NfsOp::Write)});
    }
    ReorderKernel kernel(keys);
    for (MicroTime w : kWindows) {
      SCOPED_TRACE("trace " + std::to_string(t) + " window " +
                   std::to_string(w));
      std::vector<std::uint32_t> order;
      kernel.run(w, &order);
      auto got = detectRuns(rows, order, ids.handles());
      auto want = detectRuns(referenceSort(recs, w).records);
      ASSERT_EQ(runKeys(got), runKeys(want));
      RunDetectorConfig raw;
      raw.jumpTolerance = 0;
      ASSERT_EQ(runKeys(detectRuns(rows, order, ids.handles(), raw)),
                runKeys(detectRuns(referenceSort(recs, w).records, raw)));
    }
  }
}

TEST(ReorderKernel, LongStreamsMatchRotationLoop) {
  Rng rng(23);
  for (int t = 0; t < 2; ++t) {
    auto recs = longStreams(rng, 2500);
    auto sweep = sweepReorderWindows(recs, kWindows);
    for (std::size_t w = 0; w < kWindows.size(); ++w) {
      SCOPED_TRACE("stream set " + std::to_string(t) + " window " +
                   std::to_string(kWindows[w]));
      ReorderResult want = referenceSort(recs, kWindows[w]);
      ReorderResult got = sortWithReorderWindow(recs, kWindows[w]);
      ASSERT_EQ(xids(got.records), xids(want.records));
      ASSERT_EQ(got.accessesSwapped, want.accessesSwapped);
      EXPECT_EQ(sweep[w].second, want.swappedFraction());
    }
  }
}

TEST(ReorderKernel, ConcurrentSweepsEqualRunAtAnyThreadCount) {
  Rng rng(24);
  ReorderKernel kernel(keysOf(longStreams(rng, 4500)));
  std::vector<std::uint64_t> want;
  for (MicroTime w : kWindows) want.push_back(kernel.run(w));
  EXPECT_GT(want[3], 0u);
  for (std::size_t threads = 1; threads <= 8; ++threads) {
    SCOPED_TRACE(std::to_string(threads) + " sweeps at once");
    std::vector<std::vector<std::uint64_t>> got(threads);
    parallelFor(threads, threads, [&](std::size_t i, std::size_t) {
      got[i] = kernel.sweep(kWindows);
    });
    for (const auto& counts : got) EXPECT_EQ(counts, want);
  }
}

TEST(ReorderKernel, KeysOutsideEveryGroupKeepTheirTimePosition) {
  std::vector<ReorderKey> keys = {
      {300, 0, ReorderKernel::kNoGroup},
      {100, 16384, 2},
      {200, 8192, 2},
      {100, 0, ReorderKernel::kNoGroup},
  };
  ReorderKernel kernel(keys);
  EXPECT_EQ(kernel.accessesTotal(), 2u);
  std::vector<std::uint32_t> order;
  EXPECT_EQ(kernel.run(0, &order), 0u);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 3, 2, 0}));
  EXPECT_EQ(kernel.run(1'000, &order), 1u);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{2, 3, 1, 0}));
}

}  // namespace
}  // namespace nfstrace
