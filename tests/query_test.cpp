// Query pushdown through the pruning reader: the zone-map-pruned scan
// must produce byte-identical reports to the record-filter-only oracle
// on randomized traces and predicates, runFile feeding the fan-out must
// be byte-identical to the serial reader at any thread count, pruning
// must visit exactly the surviving extents (and never read a pruned
// one), and concatenated sealed segments must chain (with a sequential
// fallback when a footer is missing).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "analysis/engine/engine.hpp"
#include "analysis/engine/passes.hpp"
#include "analysis/engine/report.hpp"
#include "trace/predicate.hpp"
#include "trace/tracefile.hpp"
#include "trace/v2.hpp"
#include "util/rng.hpp"

namespace nfstrace {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = "query_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".trace";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

/// Randomized record with the field population the sniffer can actually
/// produce, so every decode path round-trips it identically.
TraceRecord randomRecord(Rng& rng, MicroTime ts) {
  static const NfsOp kOps[] = {
      NfsOp::Getattr, NfsOp::Setattr, NfsOp::Lookup, NfsOp::Access,
      NfsOp::Read,    NfsOp::Write,   NfsOp::Create, NfsOp::Remove,
      NfsOp::Rename,  NfsOp::Readdir, NfsOp::Commit, NfsOp::Fsstat,
  };
  TraceRecord r;
  r.ts = ts;
  r.client = makeIp(10, 1, 0, static_cast<int>(rng.below(20)) + 1);
  r.server = makeIp(10, 0, 0, 1);
  r.xid = static_cast<std::uint32_t>(rng.next());
  r.vers = rng.chance(0.1) ? 2 : 3;
  r.overTcp = rng.chance(0.5);
  r.op = kOps[rng.below(std::size(kOps))];
  r.uid = 2000 + static_cast<std::uint32_t>(rng.below(40));
  r.gid = 200 + static_cast<std::uint32_t>(rng.below(4));
  r.fh = FileHandle::make(2, rng.below(500), 7);
  if (r.op == NfsOp::Rename) {
    r.fh2 = FileHandle::make(2, rng.below(500), 7);
    r.name = "from" + std::to_string(rng.below(100));
    r.name2 = "to" + std::to_string(rng.below(100));
  } else if (r.hasName()) {
    r.name = "file" + std::to_string(rng.below(200)) + ".txt";
  }
  if (r.hasOffset()) {
    r.offset = rng.below(1 << 20) * 8192;
    r.count = 8192;
  }
  if (rng.chance(0.9)) {
    r.hasReply = true;
    r.replyTs = r.ts + static_cast<MicroTime>(rng.below(5000)) + 1;
    r.status = rng.chance(0.05) ? NfsStat::ErrNoEnt : NfsStat::Ok;
    if (r.op == NfsOp::Read || r.op == NfsOp::Write) {
      r.retCount = r.count;
      r.eof = r.op == NfsOp::Read && rng.chance(0.3);
    }
    if ((r.op == NfsOp::Lookup || r.op == NfsOp::Create) &&
        r.status == NfsStat::Ok) {
      r.resFh = FileHandle::make(2, rng.below(500), 7);
      r.hasResFh = true;
    }
    if (rng.chance(0.8)) {
      r.hasAttrs = true;
      r.ftype = rng.chance(0.02)
                    ? static_cast<FileType>(rng.below(1u << 16) + 8)
                    : rng.chance(0.2) ? FileType::Directory
                                      : FileType::Regular;
      r.fileSize = rng.below(1 << 22);
      r.fileMtime = r.ts - static_cast<MicroTime>(rng.below(kMicrosPerHour));
      r.fileId = rng.below(100000);
    }
    if (r.op == NfsOp::Write && rng.chance(0.7)) {
      r.hasPre = true;
      r.preSize = rng.below(1 << 22);
      r.preMtime = r.ts - static_cast<MicroTime>(rng.below(kMicrosPerHour));
    }
  }
  return r;
}

std::vector<TraceRecord> randomRecords(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TraceRecord> out;
  out.reserve(n);
  MicroTime ts = 86400 * kMicrosPerSecond;
  for (std::size_t i = 0; i < n; ++i) {
    ts += static_cast<MicroTime>(rng.below(20000));
    out.push_back(randomRecord(rng, ts));
  }
  return out;
}

void writeV2(const std::string& path, const std::vector<TraceRecord>& recs,
             std::uint64_t extentRecords) {
  TraceWriter::Options opts;
  opts.v2ExtentRecords = extentRecords;
  TraceWriter w(path, opts);
  for (const auto& r : recs) w.write(r);
}

/// The oracle: classic reader scan, inline, record-level filtering only
/// (no zone-map pruning).
std::string reportClassic(const std::string& path,
                          const ScanPredicate& pred = {}) {
  StandardAnalyses analyses;
  AnalysisEngine::Config cfg;
  cfg.predicate = pred;
  AnalysisEngine engine(cfg);
  engine.addPasses(analyses.all());
  TraceReader reader(path);
  engine.run(reader);
  return renderReportText("q", analyses);
}

/// The path under test: runFile hands the predicate to the reader,
/// which prunes by zone map when the predicate is non-trivial.
std::string reportExtent(const std::string& path, std::size_t threads,
                         const ScanPredicate& pred = {},
                         AnalysisEngine::Stats* statsOut = nullptr) {
  StandardAnalyses analyses;
  AnalysisEngine::Config cfg;
  cfg.decodeThreads = threads;
  cfg.predicate = pred;
  AnalysisEngine engine(cfg);
  engine.addPasses(analyses.all());
  engine.runFile(path);
  if (statsOut) *statsOut = engine.stats();
  return renderReportText("q", analyses);
}

TEST_F(QueryTest, PrunedMatchesUnprunedOnRandomizedPredicates) {
  // The differential: for random traces and random predicates, the
  // zone-map-pruned extent scan must render exactly the report the
  // record-filter-only oracle renders.  Across the rounds at least one
  // extent must actually get pruned, or the test is vacuous.
  static const NfsOp kPredOps[] = {NfsOp::Read,   NfsOp::Write,
                                   NfsOp::Lookup, NfsOp::Getattr,
                                   NfsOp::Create, NfsOp::Remove};
  std::uint64_t prunedTotal = 0;
  for (std::uint64_t round = 0; round < 6; ++round) {
    auto recs = randomRecords(1200, 100 + round);
    writeV2(path_, recs, /*extentRecords=*/128);
    Rng rng(900 + round);
    ScanPredicate pred;
    MicroTime lo = recs.front().ts, hi = recs.back().ts;
    if (rng.chance(0.7)) {
      MicroTime a = lo + static_cast<MicroTime>(
                             rng.below(static_cast<std::uint64_t>(hi - lo)));
      MicroTime b = lo + static_cast<MicroTime>(
                             rng.below(static_cast<std::uint64_t>(hi - lo)));
      pred.from = std::min(a, b);
      pred.to = std::max(a, b);
    }
    if (rng.chance(0.5)) {
      std::uint32_t ops = 0;
      for (NfsOp op : kPredOps) {
        if (rng.chance(0.4)) ops |= opMaskBit(op);
      }
      if (ops != 0) pred.ops = ops;
    }
    if (rng.chance(0.3)) {
      pred.uid = 2000 + static_cast<std::uint32_t>(rng.below(40));
    }
    if (pred.trivial()) {
      pred.from = lo + (hi - lo) / 4;
      pred.to = hi - (hi - lo) / 4;
    }
    SCOPED_TRACE("round " + std::to_string(round));
    std::string oracle = reportClassic(path_, pred);
    AnalysisEngine::Stats st;
    EXPECT_EQ(reportExtent(path_, 1, pred, &st), oracle);
    EXPECT_EQ(reportExtent(path_, 3, pred, &st), oracle);
    EXPECT_GT(st.extentsTotal, 0u);
    prunedTotal += st.extentsPruned;
  }
  EXPECT_GT(prunedTotal, 0u);
}

TEST_F(QueryTest, TimeWindowPrunesWholeExtents) {
  // A window covering exactly one extent's time range must prune nearly
  // everything else before decode (adjacent extents can share a
  // boundary timestamp, so allow the two neighbours to survive) and
  // still keep exactly the records the record-level filter keeps.
  auto recs = randomRecords(1500, 21);
  writeV2(path_, recs, /*extentRecords=*/128);
  auto index = tracev2::loadChainedIndex(path_);
  ASSERT_TRUE(index.has_value());
  ASSERT_GE(index->size(), 8u);
  const auto& mid = (*index)[index->size() / 2];
  ScanPredicate pred;
  pred.from = mid.tsMin;
  pred.to = mid.tsMax;
  std::uint64_t expectKept = 0;
  for (const auto& r : recs) {
    if (r.ts >= pred.from && r.ts <= pred.to) ++expectKept;
  }
  AnalysisEngine::Stats st;
  std::string pruned = reportExtent(path_, 2, pred, &st);
  EXPECT_EQ(pruned, reportClassic(path_, pred));
  EXPECT_EQ(st.records, expectKept);
  EXPECT_EQ(st.extentsTotal, index->size());
  EXPECT_GE(st.extentsPruned, index->size() - 3);
}

TEST_F(QueryTest, ParallelDecodeByteIdenticalAcrossThreadCounts) {
  // runFile feeding the fan-out: every thread count renders the serial
  // reader's report, unpruned and pruned alike.
  auto recs = randomRecords(2000, 33);
  writeV2(path_, recs, /*extentRecords=*/256);
  std::string oracle = reportClassic(path_);
  for (std::size_t threads : {2, 3, 4, 8}) {
    SCOPED_TRACE("decodeThreads " + std::to_string(threads));
    AnalysisEngine::Stats st;
    EXPECT_EQ(reportExtent(path_, threads, {}, &st), oracle);
    EXPECT_EQ(st.records, recs.size());
    EXPECT_EQ(st.extentsPruned, 0u);
  }
  // A pruned predicate at 4 threads: a mid-trace time window over data
  // ops, so extents are pruned and the op-mask skip can fire.
  ScanPredicate pred;
  pred.from = recs[600].ts;
  pred.to = recs[1300].ts;
  pred.ops = opMaskBit(NfsOp::Read) | opMaskBit(NfsOp::Write);
  AnalysisEngine::Stats st;
  EXPECT_EQ(reportExtent(path_, 4, pred, &st), reportClassic(path_, pred));
  EXPECT_GT(st.extentsPruned, 0u);
  EXPECT_GT(st.records, 0u);

  // A window over a metadata-only stretch: no surviving extent holds a
  // READ or WRITE, so the passes that narrow opMask() to data ops see no
  // batch, yet the hierarchy must come out as the classic scan's.
  Rng rng(34);
  for (std::size_t i = 768; i < 1280; ++i) {
    while (recs[i].op == NfsOp::Read || recs[i].op == NfsOp::Write) {
      recs[i] = randomRecord(rng, recs[i].ts);
    }
  }
  writeV2(path_, recs, /*extentRecords=*/256);
  ScanPredicate window;
  window.from = recs[800].ts;
  window.to = recs[1250].ts;
  auto index = tracev2::loadChainedIndex(path_);
  ASSERT_TRUE(index.has_value());
  for (const tracev2::ExtentInfo& e : *index) {
    if (!window.mayMatch(e)) continue;
    EXPECT_EQ(e.opMask & (opMaskBit(NfsOp::Read) | opMaskBit(NfsOp::Write)),
              0u);
  }
  const std::string metaOracle = reportClassic(path_, window);
  EXPECT_EQ(metaOracle.find("hierarchy: 0 known files"), std::string::npos);
  for (std::size_t threads : {1, 4}) {
    SCOPED_TRACE("metadata window, decodeThreads " + std::to_string(threads));
    EXPECT_EQ(reportExtent(path_, threads, window, &st), metaOracle);
    EXPECT_GT(st.extentsPruned, 0u);
  }
}

/// XOR one byte of the file at `offset`.
void flipByte(const std::string& path, std::uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(offset), SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, -1, SEEK_CUR);
  std::fputc(c ^ 0x5a, f);
  std::fclose(f);
}

/// Drain `reader` in batches of `batchRecords`; returns the records'
/// timestamps and appends each batch's (size, opMask) to `batches`.
std::vector<MicroTime> drain(
    TraceReader& reader, std::size_t batchRecords,
    std::vector<std::pair<std::size_t, std::uint32_t>>* batches = nullptr) {
  std::vector<MicroTime> ts;
  TraceBatch batch;
  while (reader.nextBatch(batch, batchRecords)) {
    if (batches) batches->emplace_back(batch.n, batch.opMask);
    for (std::size_t i = 0; i < batch.n; ++i) {
      ts.push_back(batch.records[i].ts);
    }
  }
  return ts;
}

TEST_F(QueryTest, ReaderPrunesByZoneMap) {
  auto recs = randomRecords(1500, 55);
  writeV2(path_, recs, /*extentRecords=*/128);
  auto index = tracev2::loadChainedIndex(path_);
  ASSERT_TRUE(index.has_value());
  ASSERT_GE(index->size(), 10u);
  ScanPredicate pred;
  pred.from = (*index)[3].tsMin;
  pred.to = (*index)[5].tsMax;

  // The survivors, in file order, and the records they hold.
  std::vector<tracev2::ExtentInfo> survivors;
  std::vector<MicroTime> expectTs;
  std::size_t first = 0;
  for (const auto& e : *index) {
    if (pred.mayMatch(e)) {
      survivors.push_back(e);
      for (std::size_t i = first; i < first + e.records; ++i) {
        expectTs.push_back(recs[i].ts);
      }
    }
    first += e.records;
  }
  ASSERT_LT(survivors.size(), index->size());

  for (std::size_t batchRecords : {50u, 1000u}) {
    SCOPED_TRACE("batch " + std::to_string(batchRecords));
    TraceReader reader(path_, false, pred);
    EXPECT_EQ(reader.extentsTotal(), index->size());
    EXPECT_EQ(reader.extentsPruned(), index->size() - survivors.size());
    std::vector<std::pair<std::size_t, std::uint32_t>> batches;
    EXPECT_EQ(drain(reader, batchRecords, &batches), expectTs);
    // Each batch's opMask is the union of the masks of the extents its
    // records came from (one extent: batches never straddle).
    std::size_t extent = 0, used = 0;
    for (const auto& [n, mask] : batches) {
      std::uint32_t expectMask = 0;
      for (std::size_t left = n; left > 0;) {
        ASSERT_LT(extent, survivors.size());
        std::size_t take = std::min(left, survivors[extent].records - used);
        expectMask |= survivors[extent].opMask;
        used += take;
        left -= take;
        if (used == survivors[extent].records) {
          ++extent;
          used = 0;
        }
      }
      EXPECT_EQ(mask, expectMask);
    }
  }

  // A trivial predicate reads sequentially: no index, all ops.
  {
    TraceReader reader(path_);
    std::vector<std::pair<std::size_t, std::uint32_t>> batches;
    EXPECT_EQ(drain(reader, 1000, &batches).size(), recs.size());
    EXPECT_EQ(reader.extentsTotal(), 0u);
    for (const auto& b : batches) EXPECT_EQ(b.second, kAllOpsMask);
  }

  // Corrupt the payload of a pruned extent: the pruned scan never reads
  // it, while a sequential scan does and throws.
  const tracev2::ExtentInfo& pruned = (*index)[0];
  ASSERT_FALSE(pred.mayMatch(pruned));
  flipByte(path_, pruned.offset + tracev2::kExtentHeaderBytes + 8);
  {
    TraceReader reader(path_, false, pred);
    EXPECT_EQ(drain(reader, 1000), expectTs);
    TraceReader sequential(path_);
    EXPECT_THROW(drain(sequential, 1000), std::runtime_error);
  }

  // Recover mode ignores the index: it reads every extent it can,
  // skipping the corrupt one with exact accounting.
  {
    TraceReader reader(path_, true, pred);
    std::vector<std::pair<std::size_t, std::uint32_t>> batches;
    EXPECT_EQ(drain(reader, 1000, &batches).size(),
              recs.size() - pruned.records);
    EXPECT_EQ(reader.extentsTotal(), 0u);
    EXPECT_EQ(reader.recoverStats().skipped, pruned.records);
    for (const auto& b : batches) EXPECT_EQ(b.second, kAllOpsMask);
  }

  // Corrupt the payload of a surviving extent: the pruned scan reads it
  // and throws, as a strict scan must.
  flipByte(path_, survivors[1].offset + tracev2::kExtentHeaderBytes + 8);
  TraceReader reader(path_, false, pred);
  EXPECT_THROW(drain(reader, 1000), std::runtime_error);
}

TEST_F(QueryTest, ChainedSegmentsIndexAndScanIdentically) {
  // Concatenated sealed segments — what the daemon's retention window
  // looks like as one byte stream.  The chained index must cover every
  // extent of every segment (offsets rebased), and both the sequential
  // reader and the index walk must see all records.
  auto all = randomRecords(1800, 77);
  std::vector<std::string> parts;
  for (int s = 0; s < 3; ++s) {
    std::string part = path_ + ".seg" + std::to_string(s);
    std::vector<TraceRecord> slice(all.begin() + s * 600,
                                   all.begin() + (s + 1) * 600);
    writeV2(part, slice, /*extentRecords=*/128);
    parts.push_back(part);
  }
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    for (const auto& part : parts) {
      std::ifstream in(part, std::ios::binary);
      out << in.rdbuf();
    }
  }
  std::size_t singleExtents = 0;
  for (const auto& part : parts) {
    auto idx = tracev2::loadChainedIndex(part);
    ASSERT_TRUE(idx.has_value());
    singleExtents += idx->size();
    std::remove(part.c_str());
  }
  auto chained = tracev2::loadChainedIndex(path_);
  ASSERT_TRUE(chained.has_value());
  EXPECT_EQ(chained->size(), singleExtents);
  auto back = TraceReader::readAll(path_);
  ASSERT_EQ(back.size(), all.size());
  std::string oracle = reportClassic(path_);
  // A trivial predicate reads sequentially; a window spanning the whole
  // trace makes the reader walk the chained index, pruning nothing.
  ScanPredicate whole;
  whole.from = all.front().ts;
  whole.to = all.back().ts;
  AnalysisEngine::Stats st;
  EXPECT_EQ(reportExtent(path_, 4, whole, &st), oracle);
  EXPECT_EQ(st.records, all.size());
  EXPECT_EQ(st.extentsTotal, singleExtents);
  EXPECT_EQ(st.extentsPruned, 0u);
}

TEST_F(QueryTest, MissingFooterFallsBackToSequentialScan) {
  // Chop the index-offset + trailer off the end: the footer no longer
  // verifies, so the chained index must refuse (nullopt) and runFile
  // must fall back to the classic scan — which still reads every extent
  // (they sit before the footer) and still applies record filtering.
  auto recs = randomRecords(1000, 88);
  writeV2(path_, recs, /*extentRecords=*/128);
  std::string fullOracle = reportClassic(path_);
  ScanPredicate pred;
  pred.from = recs[200].ts;
  pred.to = recs[700].ts;
  std::string filteredOracle = reportClassic(path_, pred);

  std::uintmax_t size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 16);
  EXPECT_FALSE(tracev2::loadChainedIndex(path_).has_value());
  auto back = TraceReader::readAll(path_);
  EXPECT_EQ(back.size(), recs.size());
  AnalysisEngine::Stats st;
  EXPECT_EQ(reportExtent(path_, 4, {}, &st), fullOracle);
  EXPECT_EQ(st.records, recs.size());
  EXPECT_EQ(st.extentsTotal, 0u);  // fallback path: no index consulted
  EXPECT_EQ(reportExtent(path_, 4, pred), filteredOracle);
}

}  // namespace
}  // namespace nfstrace
