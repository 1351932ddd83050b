// Analysis-engine pins: batch decoding equivalence, intern-id stability,
// recovery on batch boundaries, and the determinism guarantee (output
// byte-identical to serial at any thread count, via run() or runFile()).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/blocklife.hpp"
#include "analysis/engine/engine.hpp"
#include "analysis/engine/passes.hpp"
#include "analysis/engine/report.hpp"
#include "analysis/names.hpp"
#include "analysis/namespace.hpp"
#include "analysis/reorder.hpp"
#include "analysis/runs.hpp"
#include "analysis/summary.hpp"
#include "analysis/users.hpp"
#include "trace/tracefile.hpp"
#include "workload/campus.hpp"
#include "workload/sim.hpp"

namespace nfstrace {
namespace {

/// One shared demo trace per test binary run: a two-hour CAMPUS morning,
/// rich enough to exercise every pass (reads, writes, creates, removes,
/// lock files, renames).
class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    records_ = new std::vector<TraceRecord>();
    SimEnvironment::Config cfg;
    cfg.fsConfig.fsid = 2;
    cfg.clientHosts = 3;
    SimEnvironment env(cfg);
    CampusConfig wl;
    wl.users = 8;
    CampusWorkload workload(wl, env);
    MicroTime start = days(1) + hours(9);
    workload.setup(start);
    workload.run(start, start + hours(1));
    env.finishCapture();
    *records_ = env.records();

    // Per-process names: gtest_discover_tests runs each case as its own
    // ctest entry, so concurrent processes would race on a fixed path.
    std::string pid = std::to_string(::getpid());
    tracePath_ = new std::string("/tmp/engine_test_" + pid + ".trace");
    {
      TraceWriter w(*tracePath_);
      for (const auto& r : *records_) w.write(r);
    }
  }

  static void TearDownTestSuite() {
    std::remove(tracePath_->c_str());
    delete records_;
    delete tracePath_;
    records_ = nullptr;
    tracePath_ = nullptr;
  }

  static std::vector<TraceRecord>* records_;
  static std::string* tracePath_;
};

std::vector<TraceRecord>* EngineTest::records_ = nullptr;
std::string* EngineTest::tracePath_ = nullptr;

std::string runEngineReport(const std::string& path, std::size_t threads,
                            bool recover = false) {
  StandardAnalyses analyses;
  AnalysisEngine::Config cfg;
  cfg.decodeThreads = threads;
  AnalysisEngine engine(cfg);
  engine.addPasses(analyses.all());
  TraceReader reader(path, recover);
  engine.run(reader);
  return renderReportText(path, analyses);
}

// -------------------------------------------- batch reader equivalence

void checkBatchMatchesNext(const std::string& path) {
  TraceReader one(path);
  TraceReader batched(path);
  TraceBatch batch;
  TraceRecord expect;
  std::size_t total = 0;
  while (batched.nextBatch(batch, 57)) {  // odd size: batches straddle
    ASSERT_GT(batch.n, 0u);
    for (std::size_t i = 0; i < batch.n; ++i) {
      ASSERT_TRUE(one.nextInto(expect)) << "batch reader produced extras";
      EXPECT_EQ(formatRecord(batch.records[i]), formatRecord(expect));
      // Interned ids decode back to exactly the record's own fields.
      const TraceRecord& r = batch.records[i];
      EXPECT_EQ(batch.nameInterner->view(batch.nameId[i]), r.name);
      EXPECT_EQ(batch.nameInterner->view(batch.name2Id[i]), r.name2);
      std::string_view fhBytes = batch.handleInterner->view(batch.fhId[i]);
      EXPECT_EQ(fhBytes,
                std::string_view(reinterpret_cast<const char*>(r.fh.data.data()),
                                 r.fh.len));
      ++total;
    }
  }
  EXPECT_FALSE(one.nextInto(expect)) << "batch reader lost records";
  EXPECT_GT(total, 0u);
}

TEST_F(EngineTest, BatchReaderMatchesNextInto) {
  checkBatchMatchesNext(*tracePath_);
}

TEST_F(EngineTest, ReadAllMatchesRecords) {
  auto all = TraceReader::readAll(*tracePath_);
  ASSERT_EQ(all.size(), records_->size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(formatRecord(all[i]), formatRecord((*records_)[i]));
  }
}

// ------------------------------------------------- intern-id stability

TEST_F(EngineTest, InternIdsStableAcrossBatches) {
  TraceReader reader(*tracePath_);
  TraceBatch batch;
  std::map<std::string, std::uint32_t> nameIds, fhIds;
  while (reader.nextBatch(batch, 43)) {
    for (std::size_t i = 0; i < batch.n; ++i) {
      const TraceRecord& r = batch.records[i];
      auto [it, inserted] = nameIds.try_emplace(r.name, batch.nameId[i]);
      EXPECT_EQ(it->second, batch.nameId[i])
          << "name '" << r.name << "' re-interned under a different id";
      std::string fhKey(reinterpret_cast<const char*>(r.fh.data.data()),
                        r.fh.len);
      auto [fit, finserted] = fhIds.try_emplace(fhKey, batch.fhId[i]);
      EXPECT_EQ(fit->second, batch.fhId[i]);
    }
  }
  // Empty string is always id 0 (the shared sentinel for absent fields).
  EXPECT_EQ(reader.nameInterner().view(0), "");
  EXPECT_EQ(reader.nameInterner().size(),
            nameIds.count("") ? nameIds.size() : nameIds.size() + 1);
}

// ------------------------------------------------------- recovery path

/// `records` as a trace of 512-record extents (batches end at each one).
std::string v2Copy(const std::vector<TraceRecord>& records,
                   const std::string& path) {
  TraceWriter::Options opts;
  opts.v2ExtentRecords = 512;
  TraceWriter w(path, opts);
  for (const auto& r : records) w.write(r);
  return path;
}

/// Flip one payload byte of extent `extent`: its header and the footer
/// stay valid, its CRC fails.
void corruptExtent(const std::string& path, std::size_t extent) {
  auto index = tracev2::loadChainedIndex(path);
  ASSERT_TRUE(index.has_value());
  ASSERT_GT(index->size(), extent);
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f,
             static_cast<long>((*index)[extent].offset +
                               tracev2::kExtentHeaderBytes + 16),
             SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, -1, SEEK_CUR);
  std::fputc(c ^ 0x5a, f);
  std::fclose(f);
}

TEST_F(EngineTest, RecoverResyncsLandOnBatchBoundaries) {
  // Corrupt one extent in the middle of the trace.
  const std::string corruptPath = v2Copy(
      *records_,
      "/tmp/engine_test_" + std::to_string(::getpid()) + "_corrupt.trace");
  auto index = tracev2::loadChainedIndex(corruptPath);
  ASSERT_TRUE(index.has_value());
  ASSERT_GT(index->size(), 2u);
  const std::size_t victim = index->size() / 2;
  corruptExtent(corruptPath, victim);

  TraceReader::RecoverStats rs;
  auto expected = TraceReader::recoverAll(corruptPath, &rs);
  EXPECT_EQ(rs.skipped, (*index)[victim].records);
  EXPECT_EQ(rs.resyncs, 1u);
  EXPECT_EQ(expected.size(), records_->size() - (*index)[victim].records);

  // The batch path recovers the identical record sequence, and the batch
  // in flight when the resync happened is cut at the boundary (100 does
  // not divide the 512-record extents, so that batch is not full).
  TraceReader reader(corruptPath, /*recover=*/true);
  TraceBatch batch;
  std::vector<std::string> got;
  std::size_t resyncCuts = 0;
  while (reader.nextBatch(batch, 100)) {
    if (batch.endedAtResync) {
      ++resyncCuts;
      EXPECT_LT(batch.n, 100u) << "a cut batch cannot be full";
      EXPECT_EQ(got.size() + batch.n, victim * 512) << "cut at the damage";
    }
    for (std::size_t i = 0; i < batch.n; ++i) {
      got.push_back(formatRecord(batch.records[i]));
    }
  }
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], formatRecord(expected[i]));
  }
  EXPECT_EQ(resyncCuts, 1u);

  // The full engine runs over the damaged trace and stays deterministic.
  std::string serial = runEngineReport(corruptPath, 1, true);
  std::string parallel = runEngineReport(corruptPath, 4, true);
  EXPECT_EQ(serial, parallel);
  std::remove(corruptPath.c_str());
}

// -------------------------------------------------------- determinism

TEST_F(EngineTest, ReportByteIdenticalAtAnyWorkerCount) {
  // The same records in default and in 512-record extents, through run()
  // (a reader the test opens) and runFile() (a reader the engine opens),
  // inline and fanned out: one report.
  const std::string v2Path =
      v2Copy(*records_, "/tmp/engine_test_" + std::to_string(::getpid()) +
                            "_copy.v2");
  auto report = [](const std::string& path, std::size_t threads,
                   bool viaFile,
                   std::size_t batchRecords = TraceBatch::kDefaultCapacity) {
    StandardAnalyses analyses;
    AnalysisEngine::Config cfg;
    cfg.decodeThreads = threads;
    cfg.batchRecords = batchRecords;
    AnalysisEngine engine(cfg);
    engine.addPasses(analyses.all());
    if (viaFile) {
      engine.runFile(path);
    } else {
      TraceReader reader(path);
      engine.run(reader);
    }
    return renderReportText("trace", analyses);
  };
  const std::string serial = report(*tracePath_, 1, false);
  ASSERT_FALSE(serial.empty());
  for (std::size_t threads = 1; threads <= 8; ++threads) {
    for (const std::string& path : {*tracePath_, v2Path}) {
      for (bool viaFile : {false, true}) {
        EXPECT_EQ(report(path, threads, viaFile), serial)
            << path << " at " << threads << " threads via "
            << (viaFile ? "runFile" : "run");
      }
    }
  }
  // Small odd batches force many seq%threads handoffs, so every
  // mergeable pass (pathrec's knownFiles among them) folds shards that
  // each saw a scatter of batches; still identical.
  for (std::size_t threads : {2u, 3u, 5u, 8u}) {
    for (std::size_t batchRecords : {19u, 57u}) {
      EXPECT_EQ(report(*tracePath_, threads, false, batchRecords), serial)
          << threads << " threads, batches of " << batchRecords;
      EXPECT_EQ(report(v2Path, threads, true, batchRecords), serial)
          << threads << " threads, batches of " << batchRecords;
    }
  }
  std::remove(v2Path.c_str());
}

TEST_F(EngineTest, JsonReportDeterministicToo) {
  auto runJson = [&](std::size_t threads) {
    StandardAnalyses analyses;
    AnalysisEngine::Config cfg;
    cfg.decodeThreads = threads;
    AnalysisEngine engine(cfg);
    engine.addPasses(analyses.all());
    TraceReader reader(*tracePath_);
    engine.run(reader);
    return renderReportJson(*tracePath_, analyses);
  };
  std::string j1 = runJson(1);
  EXPECT_FALSE(j1.empty());
  EXPECT_EQ(j1.front(), '{');
  EXPECT_EQ(runJson(4), j1);
}

/// A pass whose observe() throws on the third batch it sees.
class ThrowingPass : public AnalysisPass {
 public:
  explicit ThrowingPass(bool mergeable) : mergeable_(mergeable) {}
  std::string_view name() const override { return "throwing"; }
  bool mergeable() const override { return mergeable_; }
  void prepare(std::size_t) override { seen_ = 0; }
  void observe(const TraceBatch&, std::size_t) override {
    if (++seen_ == 3) throw std::runtime_error("observe failed");
  }
  void finalize() override {}

 private:
  bool mergeable_;
  std::atomic<int> seen_{0};
};

TEST_F(EngineTest, FanOutRethrowsScanErrors) {
  // A pass that throws on a worker thread: the fan-out keeps draining,
  // joins, and rethrows instead of ending the program.
  for (bool mergeable : {false, true}) {
    SCOPED_TRACE(mergeable ? "mergeable" : "sequential");
    StandardAnalyses analyses;
    ThrowingPass throwing(mergeable);
    AnalysisEngine::Config cfg;
    cfg.decodeThreads = 4;
    cfg.batchRecords = 64;
    AnalysisEngine engine(cfg);
    engine.addPasses(analyses.all());
    engine.addPass(&throwing);
    TraceReader reader(*tracePath_);
    EXPECT_THROW(engine.run(reader), std::runtime_error);
  }

  // A strict scan of a damaged trace throws on the decoding thread; the
  // fan-out must stop its workers and rethrow, from either source.
  const std::string bad = v2Copy(
      *records_, "/tmp/engine_test_" + std::to_string(::getpid()) + "_bad.v2");
  corruptExtent(bad, 2);
  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    StandardAnalyses analyses;
    AnalysisEngine::Config cfg;
    cfg.decodeThreads = threads;
    AnalysisEngine engine(cfg);
    engine.addPasses(analyses.all());
    TraceReader reader(bad);
    EXPECT_THROW(engine.run(reader), std::runtime_error);
    EXPECT_GT(engine.stats().records, 0u);
    EXPECT_THROW(engine.runFile(bad), std::runtime_error);
  }
  std::remove(bad.c_str());
}

/// A pass whose finalize() throws.
class FinalizeThrowingPass : public AnalysisPass {
 public:
  std::string_view name() const override { return "finalize-throwing"; }
  bool mergeable() const override { return false; }
  void prepare(std::size_t) override {}
  void observe(const TraceBatch&, std::size_t) override {}
  void finalize() override { throw std::runtime_error("finalize failed"); }
};

TEST_F(EngineTest, FinalizeErrorsRethrowOnTheCaller) {
  // Finalize runs the passes on up to decodeThreads threads; a pass that
  // throws on any of them, the caller included, makes run() throw after
  // every finalize thread has joined.  The throwing pass is registered
  // first, last, or alone.
  for (std::size_t threads : {1u, 4u}) {
    for (int where = 0; where < 3; ++where) {
      SCOPED_TRACE(std::to_string(threads) + " threads, placement " +
                   std::to_string(where));
      StandardAnalyses analyses;
      FinalizeThrowingPass throwing;
      AnalysisEngine::Config cfg;
      cfg.decodeThreads = threads;
      AnalysisEngine engine(cfg);
      if (where == 0) engine.addPass(&throwing);
      if (where < 2) engine.addPasses(analyses.all());
      if (where > 0) engine.addPass(&throwing);
      TraceReader reader(*tracePath_);
      EXPECT_THROW(engine.run(reader), std::runtime_error);
    }
  }
}

// --------------------------------------------- legacy-result equality

TEST_F(EngineTest, PassResultsMatchLegacyFunctions) {
  const auto& records = *records_;

  StandardAnalyses analyses;
  AnalysisEngine engine;
  engine.addPasses(analyses.all());
  TraceReader reader(*tracePath_);
  const auto& st = engine.run(reader);
  EXPECT_EQ(st.records, records.size());

  // summary
  TraceSummary legacy = summarize(records);
  const TraceSummary& s = analyses.summary.result();
  EXPECT_EQ(s.totalOps, legacy.totalOps);
  EXPECT_EQ(s.opCounts, legacy.opCounts);
  EXPECT_EQ(s.bytesRead, legacy.bytesRead);
  EXPECT_EQ(s.bytesWritten, legacy.bytesWritten);
  EXPECT_EQ(s.readOps, legacy.readOps);
  EXPECT_EQ(s.writeOps, legacy.writeOps);
  EXPECT_EQ(s.dataOps, legacy.dataOps);
  EXPECT_EQ(s.metadataOps, legacy.metadataOps);
  EXPECT_EQ(s.repliesMissing, legacy.repliesMissing);
  EXPECT_EQ(s.firstTs, legacy.firstTs);
  EXPECT_EQ(s.lastTs, legacy.lastTs);

  // hourly
  HourlyStats hs;
  for (const auto& r : records) hs.observe(r);
  ASSERT_EQ(analyses.hourly.result().hours().size(), hs.hours().size());
  for (std::size_t i = 0; i < hs.hours().size(); ++i) {
    EXPECT_EQ(analyses.hourly.result().hours()[i].totalOps,
              hs.hours()[i].totalOps);
    EXPECT_EQ(analyses.hourly.result().hours()[i].bytesRead,
              hs.hours()[i].bytesRead);
  }

  // users
  UserStats us;
  for (const auto& r : records) us.observe(r);
  EXPECT_EQ(analyses.users.result().userCount(), us.userCount());
  EXPECT_DOUBLE_EQ(analyses.users.result().imbalance(), us.imbalance());
  auto top = us.byActivity();
  auto etop = analyses.users.result().byActivity();
  ASSERT_EQ(etop.size(), top.size());
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(etop[i].uid, top[i].uid);
    EXPECT_EQ(etop[i].totalOps, top[i].totalOps);
    EXPECT_EQ(etop[i].activeHours, top[i].activeHours);
  }

  // reorder sweep
  auto sweep = sweepReorderWindows(
      records, {0, 1'000, 5'000, 10'000, 50'000, 100'000, 1'000'000});
  ASSERT_EQ(analyses.reorder.sweep().size(), sweep.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(analyses.reorder.sweep()[i].first, sweep[i].first);
    EXPECT_DOUBLE_EQ(analyses.reorder.sweep()[i].second, sweep[i].second);
  }

  // runs
  auto sorted = sortWithReorderWindow(records, 10'000);
  auto runs = detectRuns(sorted.records);
  EXPECT_EQ(analyses.runs.runs().size(), runs.size());
  EXPECT_DOUBLE_EQ(analyses.runs.reorderSwappedFraction(),
                   sorted.swappedFraction());
  auto rp = summarizeRunPatterns(runs);
  EXPECT_DOUBLE_EQ(analyses.runs.patterns().readFrac, rp.readFrac);
  EXPECT_DOUBLE_EQ(analyses.runs.patterns().writeSeq, rp.writeSeq);
  EXPECT_DOUBLE_EQ(analyses.runs.patterns().rwRandom, rp.rwRandom);

  // block life
  BlockLifeConfig cfg;
  cfg.phase1Start = legacy.firstTs;
  cfg.phase1Length =
      std::max<MicroTime>((legacy.lastTs - legacy.firstTs) / 2, 1);
  cfg.phase2Length = cfg.phase1Length;
  EmpiricalCdf lifetimes;
  auto bl = analyzeBlockLife(records, cfg, &lifetimes);
  EXPECT_EQ(analyses.blocklife.stats().births, bl.births);
  EXPECT_EQ(analyses.blocklife.stats().deaths, bl.deaths);
  EXPECT_EQ(analyses.blocklife.stats().birthsWrite, bl.birthsWrite);
  EXPECT_EQ(analyses.blocklife.stats().deathsOverwrite, bl.deathsOverwrite);
  EXPECT_EQ(analyses.blocklife.lifetimes().size(), lifetimes.size());

  // names and pathrec, fed record by record through one namespace
  HandleIds ids;
  Namespace ns;
  FileLifeCensus census;
  std::uint64_t dataOps = 0, parentKnown = 0;
  for (const auto& r : records) {
    const RecordIds id = ids.of(r);
    census.observe(r, id, ns.apply(r, id));
    if (r.op == NfsOp::Read || r.op == NfsOp::Write) {
      ++dataOps;
      if (ns.parentKnown(id.fh)) ++parentKnown;
    }
  }
  census.finish();
  EXPECT_EQ(analyses.names.census().totalCreated(), census.totalCreated());
  EXPECT_EQ(analyses.names.census().totalDeleted(), census.totalDeleted());
  EXPECT_DOUBLE_EQ(analyses.names.census().lockFractionOfDeleted(),
                   census.lockFractionOfDeleted());
  ASSERT_GT(dataOps, 0u);
  EXPECT_GT(ns.knownFiles(), 0u);
  EXPECT_EQ(analyses.pathrec.knownFiles(), ns.knownFiles());
  EXPECT_DOUBLE_EQ(analyses.pathrec.parentCoverage(),
                   static_cast<double>(parentKnown) /
                       static_cast<double>(dataOps));
}

// --------------------------------------------------- engine mechanics

TEST_F(EngineTest, StatsAndRerunReuse) {
  StandardAnalyses analyses;
  AnalysisEngine engine;
  engine.addPasses(analyses.all());
  {
    TraceReader reader(*tracePath_);
    const auto& st = engine.run(reader);
    EXPECT_EQ(st.records, records_->size());
    EXPECT_GT(st.batches, 0u);
    EXPECT_GT(st.internedNames + st.internedHandles, 0u);
    EXPECT_EQ(st.resyncCuts, 0u);
  }
  std::string first = renderReportText("x", analyses);
  {
    // A second run() re-prepares every pass: same input, same output.
    TraceReader reader(*tracePath_);
    engine.run(reader);
  }
  EXPECT_EQ(renderReportText("x", analyses), first);
}

TEST_F(EngineTest, EachPassFinalizeIsTimedAtOneThreadAndFour) {
  // One engine.pass.<p>.finalize_ns sample and one pass-finalize span per
  // pass, on the inline path and on the threaded one; and the namespace,
  // applied on the decoding thread, timed once per batch.
  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    StandardAnalyses analyses;
    AnalysisEngine::Config cfg;
    cfg.decodeThreads = threads;
    AnalysisEngine engine(cfg);
    engine.addPasses(analyses.all());
    obs::Registry registry;
    engine.attachMetrics(registry);
    obs::FlightRecorder flight;
    engine.attachFlight(flight);
    TraceReader reader(*tracePath_);
    engine.run(reader);

    std::map<std::string, std::uint64_t> counts;
    for (const auto& [name, h] : registry.scrape().histograms) {
      counts[name] = h.count;
    }
    for (AnalysisPass* p : analyses.all()) {
      std::string base = "engine.pass." + std::string(p->name());
      EXPECT_EQ(counts[base + ".finalize_ns"], 1u) << base;
      EXPECT_GT(counts[base + ".observe_ns"], 0u) << base;
    }
    std::vector<obs::StageTally> tallies = flight.stageTallies();
    EXPECT_EQ(
        tallies[static_cast<std::size_t>(obs::Stage::PassFinalize)].spans,
        analyses.all().size());
    const std::uint64_t batches = engine.stats().batches;
    ASSERT_GT(batches, 0u);
    EXPECT_EQ(counts["engine.namespace_ns"], batches);
    EXPECT_EQ(tallies[static_cast<std::size_t>(obs::Stage::Namespace)].spans,
              batches);
  }
}

TEST_F(EngineTest, RecordLinesPrintMatchingRecordsInStreamOrder) {
  // trace_analyze --records: one formatRecord line per record that
  // passes the predicate, in stream order at any thread count, while the
  // reader prunes extents by zone map.
  const std::string path = v2Copy(
      *records_,
      "/tmp/engine_test_" + std::to_string(::getpid()) + "_lines.v2");
  const auto& recs = *records_;
  ScanPredicate pred;
  pred.from = recs[recs.size() * 2 / 5].ts;
  pred.to = recs[recs.size() * 3 / 5].ts;
  std::string expect;
  for (const auto& r : TraceReader::readAll(path)) {
    if (pred.matches(r)) expect += formatRecord(r) + "\n";
  }
  ASSERT_FALSE(expect.empty());
  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    std::FILE* out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    RecordLinesPass lines(out);
    AnalysisEngine::Config cfg;
    cfg.decodeThreads = threads;
    cfg.predicate = pred;
    AnalysisEngine engine(cfg);
    engine.addPass(&lines);
    engine.runFile(path);
    EXPECT_GT(engine.stats().extentsPruned, 0u);
    std::string got;
    std::rewind(out);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), out)) > 0) got.append(buf, n);
    std::fclose(out);
    EXPECT_EQ(got, expect);
  }
  std::remove(path.c_str());
}

TEST(EngineStandalone, DecodeThreadsAreCheckedAtConstruction) {
  // The bound trace_analyze's --decode-threads enforces lives here; no
  // thread starts before run().
  EXPECT_EQ(AnalysisEngine::kMaxDecodeThreads, 64u);
  AnalysisEngine::Config cfg;
  cfg.decodeThreads = AnalysisEngine::kMaxDecodeThreads + 1;
  EXPECT_THROW(AnalysisEngine{cfg}, std::invalid_argument);
  cfg.decodeThreads = AnalysisEngine::kMaxDecodeThreads;
  EXPECT_NO_THROW(AnalysisEngine{cfg});
}

TEST(EngineStandalone, BlockLifePassHoldsBlockEventsNotRecords) {
  // Many getattrs and a few writes: until finalize the pass holds one
  // small event per block birth or death, not one entry per record.
  std::string path =
      "/tmp/engine_test_" + std::to_string(::getpid()) + "_events.trace";
  {
    TraceWriter w(path);
    auto write = [&w](MicroTime ts, NfsOp op, std::uint64_t file) {
      TraceRecord r;
      r.ts = ts;
      r.op = op;
      r.fh = FileHandle::make(2, file, 7);
      r.hasReply = true;
      r.status = NfsStat::Ok;
      if (op == NfsOp::Write) {
        r.count = r.retCount = 8192;
        r.hasPre = true;  // files start empty; file 1's second write
        r.preSize = 0;    // overwrites its block
      }
      w.write(r);
    };
    for (int i = 0; i < 1000; ++i) {
      write(seconds(i), NfsOp::Getattr,
            100 + static_cast<std::uint64_t>(i % 50));
    }
    write(seconds(100), NfsOp::Write, 1);
    write(seconds(200), NfsOp::Write, 2);
    write(seconds(300), NfsOp::Write, 3);
    write(seconds(400), NfsOp::Write, 1);
  }
  TraceReader reader(path);
  TraceBatch batch;
  ASSERT_TRUE(reader.nextBatch(batch, 2000));
  ASSERT_EQ(batch.n, 1004u);

  Namespace ns;  // the engine's step before any pass
  ns.apply(batch);
  BlockLifePass pass;
  pass.prepare(1);
  pass.observe(batch, 0);
  // 4 births + the death of file 1's first block.
  EXPECT_EQ(pass.deferredRecords(), 5u);
  pass.finalize();
  // Span 0..999 s: phase 1 is [0, 499.5 s), the margin as long again.
  EXPECT_EQ(pass.stats().births, 4u);
  EXPECT_EQ(pass.stats().deaths, 1u);
  EXPECT_EQ(pass.stats().deathsOverwrite, 1u);
  EXPECT_EQ(pass.stats().endSurplus, 3u);
  std::remove(path.c_str());
}

TEST(EngineStandalone, EmptyTraceYieldsNoRecords) {
  std::string path =
      "/tmp/engine_test_" + std::to_string(::getpid()) + "_empty.trace";
  { TraceWriter w(path); }
  StandardAnalyses analyses;
  AnalysisEngine engine;
  engine.addPasses(analyses.all());
  TraceReader reader(path);
  const auto& st = engine.run(reader);
  EXPECT_EQ(st.records, 0u);
  EXPECT_EQ(st.batches, 0u);
  EXPECT_EQ(analyses.summary.result().totalOps, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nfstrace
