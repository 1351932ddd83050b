#include "analysis/runs.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "analysis/namespace.hpp"
#include "analysis/reorder.hpp"

namespace nfstrace {
namespace {

std::uint64_t roundDown(std::uint64_t v, std::uint32_t bs) {
  return v / bs * bs;
}
std::uint64_t roundUp(std::uint64_t v, std::uint32_t bs) {
  return (v + bs - 1) / bs * bs;
}

Run buildRun(const FileHandle& fh, std::span<const AccessRow> acc,
             const RunDetectorConfig& cfg) {
  Run run;
  run.fh = fh;
  run.start = acc.front().ts;
  run.end = acc.back().ts;
  run.accesses = static_cast<std::uint32_t>(acc.size());

  // The best-known file size over the run, so early accesses use the
  // size revealed by later replies.
  bool hasRead = false, hasWrite = false;
  std::uint64_t maxSize = 0;
  for (const auto& a : acc) {
    (a.isWrite ? hasWrite : hasRead) = true;
    run.bytesAccessed += a.count;
    maxSize = std::max(maxSize, a.fileSize);
  }
  run.fileSize = maxSize;
  run.type = hasRead && hasWrite ? RunType::ReadWrite
             : hasWrite          ? RunType::Write
                                 : RunType::Read;

  // Sequentiality over rounded block positions.
  constexpr std::uint32_t bs = kNfsBlockSize;
  bool sequentialStrict = true;   // no jumps at all
  bool sequentialLoose = true;    // forward jumps < jumpTolerance blocks ok
  std::uint32_t consecStrict = 0, consecLoose = 0;
  for (std::size_t i = 1; i < acc.size(); ++i) {
    std::uint64_t prevEnd = roundUp(acc[i - 1].offset + acc[i - 1].count, bs);
    std::uint64_t curStart = roundDown(acc[i].offset, bs);
    bool exact = curStart == prevEnd || curStart + bs == prevEnd ||
                 curStart == roundDown(acc[i - 1].offset + acc[i - 1].count,
                                       bs);
    bool smallJump =
        curStart >= prevEnd &&
        curStart - prevEnd < static_cast<std::uint64_t>(cfg.jumpTolerance) * bs;
    // k-consecutive for the metric: within k blocks either direction of
    // the previous end.
    std::uint64_t dist = curStart >= prevEnd ? curStart - prevEnd
                                             : prevEnd - curStart;
    bool kConsec = dist <= static_cast<std::uint64_t>(kSeqMetricK) * bs;

    if (exact) {
      ++consecStrict;
      ++consecLoose;
    } else {
      sequentialStrict = false;
      if (kConsec) ++consecLoose;
      if (!(exact || smallJump)) sequentialLoose = false;
    }
  }
  if (acc.size() > 1) {
    auto denom = static_cast<double>(acc.size() - 1);
    run.seqMetricStrict = static_cast<double>(consecStrict) / denom;
    run.seqMetricLoose = static_cast<double>(consecLoose) / denom;
  } else {
    run.seqMetricStrict = 1.0;
    run.seqMetricLoose = 1.0;
  }

  bool sequential =
      cfg.jumpTolerance > 0 ? sequentialLoose : sequentialStrict;
  bool startsAtZero = roundDown(acc.front().offset, bs) == 0;
  bool reachesEof = acc.back().refsEof ||
                    (maxSize > 0 && roundUp(acc.back().offset +
                                                acc.back().count, bs) >=
                                        roundDown(maxSize, bs));
  // Singleton runs are sequential by definition; entire if they cover the
  // whole file (paper §5.1 note on singleton runs).
  if (acc.size() == 1) {
    bool whole = startsAtZero && acc.front().count >= maxSize && maxSize > 0;
    run.pattern = whole ? RunPattern::Entire : RunPattern::Sequential;
    return run;
  }
  if (sequential && startsAtZero && reachesEof) {
    run.pattern = RunPattern::Entire;
  } else if (sequential) {
    run.pattern = RunPattern::Sequential;
  } else {
    run.pattern = RunPattern::Random;
  }
  return run;
}

}  // namespace

AccessRow accessRow(const TraceRecord& rec, std::uint32_t file) {
  AccessRow a;
  a.ts = rec.ts;
  a.offset = rec.offset;
  a.count = rec.hasReply && rec.retCount ? rec.retCount : rec.count;
  a.fileSize = rec.hasAttrs ? rec.fileSize : 0;
  a.file = file;
  a.isWrite = rec.op == NfsOp::Write;
  // Rule (a), applied literally to every access as the paper states:
  // reads use the reply's EOF flag (or reaching the reported size);
  // extending writes land exactly at the new EOF, so append bursts
  // fragment into singleton runs — which is precisely why the paper's
  // EECS write runs are dominated by small sequential singletons while
  // whole-small-file writes classify as 'entire' singletons.
  a.refsEof = rec.eof || (a.fileSize > 0 && a.offset + a.count >= a.fileSize);
  return a;
}

std::vector<Run> detectRuns(const std::vector<AccessRow>& rows,
                            const std::vector<std::uint32_t>& order,
                            const std::vector<FileHandle>& handles,
                            const RunDetectorConfig& cfg) {
  // Each file's accesses in `order`, contiguous: a counting sort by file.
  std::vector<std::size_t> start(handles.size() + 1, 0);
  for (std::uint32_t k : order) ++start[rows[k].file + 1];
  for (std::size_t f = 1; f < start.size(); ++f) start[f] += start[f - 1];
  std::vector<AccessRow> byFile(order.size());
  {
    std::vector<std::size_t> fill(start.begin(), start.end() - 1);
    for (std::uint32_t k : order) byFile[fill[rows[k].file]++] = rows[k];
  }

  std::vector<Run> runs;
  for (std::size_t f = 0; f + 1 < start.size(); ++f) {
    std::span<const AccessRow> acc(byFile.data() + start[f],
                                   start[f + 1] - start[f]);
    std::size_t begin = 0;
    for (std::size_t i = 1; i <= acc.size(); ++i) {
      // Rule (a): the previous access referenced EOF.  Rule (b): the
      // previous access is old.
      if (i == acc.size() || acc[i - 1].refsEof ||
          acc[i].ts - acc[i - 1].ts > kRunIdleBreak) {
        runs.push_back(buildRun(handles[f], acc.subspan(begin, i - begin),
                                cfg));
        begin = i;
      }
    }
  }

  std::stable_sort(runs.begin(), runs.end(),
                   [](const Run& a, const Run& b) { return a.start < b.start; });
  return runs;
}

std::vector<Run> detectRuns(const std::vector<TraceRecord>& records,
                            const RunDetectorConfig& cfg) {
  HandleIds ids;
  std::vector<AccessRow> rows;
  for (const TraceRecord& rec : records) {
    if (isDataAccess(rec)) rows.push_back(accessRow(rec, ids.of(rec).fh));
  }
  std::vector<std::uint32_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0u);
  return detectRuns(rows, order, ids.handles(), cfg);
}

RunPatternSummary summarizeRunPatterns(const std::vector<Run>& runs) {
  RunPatternSummary s;
  double total = static_cast<double>(runs.size());
  if (total == 0) return s;

  std::uint64_t nRead = 0, nWrite = 0, nRw = 0;
  std::uint64_t cnt[3][3] = {};  // [type][pattern]
  for (const auto& r : runs) {
    auto t = static_cast<std::size_t>(r.type);
    auto p = static_cast<std::size_t>(r.pattern);
    ++cnt[t][p];
    if (r.type == RunType::Read) ++nRead;
    else if (r.type == RunType::Write) ++nWrite;
    else ++nRw;
  }
  s.readFrac = nRead / total;
  s.writeFrac = nWrite / total;
  s.rwFrac = nRw / total;
  auto frac = [](std::uint64_t n, std::uint64_t d) {
    return d ? static_cast<double>(n) / static_cast<double>(d) : 0.0;
  };
  auto R = static_cast<std::size_t>(RunType::Read);
  auto W = static_cast<std::size_t>(RunType::Write);
  auto X = static_cast<std::size_t>(RunType::ReadWrite);
  auto E = static_cast<std::size_t>(RunPattern::Entire);
  auto Q = static_cast<std::size_t>(RunPattern::Sequential);
  auto N = static_cast<std::size_t>(RunPattern::Random);
  s.readEntire = frac(cnt[R][E], nRead);
  s.readSeq = frac(cnt[R][Q], nRead);
  s.readRandom = frac(cnt[R][N], nRead);
  s.writeEntire = frac(cnt[W][E], nWrite);
  s.writeSeq = frac(cnt[W][Q], nWrite);
  s.writeRandom = frac(cnt[W][N], nWrite);
  s.rwEntire = frac(cnt[X][E], nRw);
  s.rwSeq = frac(cnt[X][Q], nRw);
  s.rwRandom = frac(cnt[X][N], nRw);
  return s;
}

namespace {

// Log2-spaced buckets from 1 KB to 128 MB, matching the figures' x axes.
std::vector<double> sizeBuckets() {
  std::vector<double> tops;
  for (double b = 1024.0; b <= 128.0 * 1024 * 1024; b *= 2.0) {
    tops.push_back(b);
  }
  return tops;
}

std::size_t bucketFor(const std::vector<double>& tops, double v) {
  for (std::size_t i = 0; i < tops.size(); ++i) {
    if (v <= tops[i]) return i;
  }
  return tops.size() - 1;
}

}  // namespace

SizeBucketedBytes bytesByFileSize(const std::vector<Run>& runs) {
  SizeBucketedBytes out;
  out.bucketTopBytes = sizeBuckets();
  std::size_t n = out.bucketTopBytes.size();
  std::vector<double> total(n, 0), entire(n, 0), seq(n, 0), random(n, 0);
  double grandTotal = 0;
  for (const auto& r : runs) {
    double size = static_cast<double>(r.fileSize ? r.fileSize : r.bytesAccessed);
    std::size_t b = bucketFor(out.bucketTopBytes, size);
    auto bytes = static_cast<double>(r.bytesAccessed);
    total[b] += bytes;
    grandTotal += bytes;
    switch (r.pattern) {
      case RunPattern::Entire: entire[b] += bytes; break;
      case RunPattern::Sequential: seq[b] += bytes; break;
      case RunPattern::Random: random[b] += bytes; break;
    }
  }
  // Cumulative percentages of all bytes accessed (the figure's y axis).
  double accT = 0, accE = 0, accS = 0, accR = 0;
  for (std::size_t i = 0; i < n; ++i) {
    accT += total[i];
    accE += entire[i];
    accS += seq[i];
    accR += random[i];
    double denom = grandTotal > 0 ? grandTotal : 1.0;
    out.total.push_back(100.0 * accT / denom);
    out.entire.push_back(100.0 * accE / denom);
    out.sequential.push_back(100.0 * accS / denom);
    out.random.push_back(100.0 * accR / denom);
  }
  return out;
}

SeqMetricBySize sequentialityBySize(const std::vector<Run>& runs,
                                    bool writesOnly, bool readsOnly) {
  SeqMetricBySize out;
  out.bucketTopBytes = sizeBuckets();
  std::size_t n = out.bucketTopBytes.size();
  std::vector<double> sumLoose(n, 0), sumStrict(n, 0);
  out.runCount.assign(n, 0);
  for (const auto& r : runs) {
    if (writesOnly && r.type != RunType::Write) continue;
    if (readsOnly && r.type != RunType::Read) continue;
    std::size_t b = bucketFor(out.bucketTopBytes,
                              static_cast<double>(r.bytesAccessed));
    sumLoose[b] += r.seqMetricLoose;
    sumStrict[b] += r.seqMetricStrict;
    ++out.runCount[b];
  }
  for (std::size_t i = 0; i < n; ++i) {
    double c = out.runCount[i] ? static_cast<double>(out.runCount[i]) : 1.0;
    out.meanLoose.push_back(sumLoose[i] / c);
    out.meanStrict.push_back(sumStrict[i] / c);
  }
  return out;
}

}  // namespace nfstrace
