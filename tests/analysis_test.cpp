#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "analysis/blocklife.hpp"
#include "analysis/engine/passes.hpp"
#include "util/rng.hpp"
#include "analysis/hourly.hpp"
#include "analysis/names.hpp"
#include "analysis/namespace.hpp"
#include "analysis/reorder.hpp"
#include "analysis/runs.hpp"
#include "analysis/summary.hpp"
#include "analysis/users.hpp"

namespace nfstrace {
namespace {

FileHandle fhOf(std::uint64_t id) { return FileHandle::make(1, id, 1); }

TraceRecord dataRec(NfsOp op, std::uint64_t fileId, MicroTime ts,
                    std::uint64_t offset, std::uint32_t count,
                    std::uint64_t fileSize, bool eof = false) {
  TraceRecord r;
  r.ts = ts;
  r.op = op;
  r.fh = fhOf(fileId);
  r.offset = offset;
  r.count = count;
  r.hasReply = true;
  r.replyTs = ts + 300;
  r.retCount = count;
  r.eof = eof;
  r.hasAttrs = true;
  r.fileSize = fileSize;
  r.ftype = FileType::Regular;
  return r;
}

TraceRecord nameRec(NfsOp op, std::uint64_t dirId, const std::string& name,
                    MicroTime ts, std::uint64_t resId = 0) {
  TraceRecord r;
  r.ts = ts;
  r.op = op;
  r.fh = fhOf(dirId);
  r.name = name;
  r.hasReply = true;
  r.replyTs = ts + 200;
  r.status = NfsStat::Ok;
  if (resId) {
    r.hasResFh = true;
    r.resFh = fhOf(resId);
  }
  return r;
}

TraceRecord renameRec(std::uint64_t fromDir, const std::string& from,
                      std::uint64_t toDir, const std::string& to,
                      MicroTime ts) {
  TraceRecord r;
  r.ts = ts;
  r.op = NfsOp::Rename;
  r.fh = fhOf(fromDir);
  r.name = from;
  r.fh2 = fhOf(toDir);
  r.name2 = to;
  r.hasReply = true;
  r.status = NfsStat::Ok;
  return r;
}

/// A Namespace fed record by record, asked about handles and names.
class Paths {
 public:
  /// The handle `rec` unlinks; the empty handle when none.
  FileHandle observe(const TraceRecord& rec) {
    return ids_.handles()[ns_.apply(rec, ids_.of(rec))];
  }
  std::optional<std::string> nameOf(const FileHandle& fh) const {
    std::uint32_t name = ns_.nameOf(idOf(fh));
    if (name == 0) return std::nullopt;
    return std::string(ids_.name(name));
  }
  bool parentKnown(const FileHandle& fh) const {
    return ns_.parentKnown(idOf(fh));
  }
  std::size_t knownFiles() const { return ns_.knownFiles(); }

 private:
  /// 0 (the empty handle) for a handle no record has named yet.
  std::uint32_t idOf(const FileHandle& fh) const {
    const auto& h = ids_.handles();
    auto it = std::find(h.begin(), h.end(), fh);
    return it == h.end() ? 0 : static_cast<std::uint32_t>(it - h.begin());
  }

  HandleIds ids_;
  Namespace ns_;
};

/// An analyzer fed records one at a time, as the benches feed it: one
/// HandleIds and one Namespace in front of it.
template <class Analyzer>
class Fed : public Analyzer {
 public:
  void observe(const TraceRecord& rec) {
    const RecordIds id = ids_.of(rec);
    Analyzer::observe(rec, id, ns_.apply(rec, id));
  }

 private:
  HandleIds ids_;
  Namespace ns_;
};

// ------------------------------------------------------------- pathrec

TEST(PathRec, LearnsFromLookups) {
  Paths rec;
  rec.observe(nameRec(NfsOp::Lookup, 1, "home", 0, 2));
  rec.observe(nameRec(NfsOp::Lookup, 2, "user", 1, 3));
  rec.observe(nameRec(NfsOp::Lookup, 3, "file.txt", 2, 4));
  EXPECT_EQ(rec.nameOf(fhOf(4)), "file.txt");
  EXPECT_EQ(rec.nameOf(fhOf(3)), "user");
  EXPECT_EQ(rec.nameOf(fhOf(2)), "home");
  EXPECT_FALSE(rec.parentKnown(fhOf(1)));
  EXPECT_EQ(rec.knownFiles(), 3u);
  // The (3, "file.txt") edge leads to 4: removing it unlinks 4.
  EXPECT_EQ(rec.observe(nameRec(NfsOp::Remove, 3, "file.txt", 3)), fhOf(4));
}

TEST(PathRec, LearnsFromCreates) {
  Paths rec;
  rec.observe(nameRec(NfsOp::Create, 1, "new.c", 0, 9));
  EXPECT_EQ(rec.nameOf(fhOf(9)), "new.c");
}

TEST(PathRec, RenameMovesEdge) {
  Paths rec;
  rec.observe(nameRec(NfsOp::Lookup, 1, "dir", 0, 2));
  rec.observe(nameRec(NfsOp::Create, 2, "old", 1, 5));
  EXPECT_EQ(rec.observe(renameRec(2, "old", 1, "new", 2)), FileHandle{});
  EXPECT_EQ(rec.nameOf(fhOf(5)), "new");
  EXPECT_EQ(rec.knownFiles(), 2u);
  // The old edge is gone and the new one leads to 5.
  EXPECT_EQ(rec.observe(nameRec(NfsOp::Remove, 2, "old", 3)), FileHandle{});
  EXPECT_EQ(rec.observe(nameRec(NfsOp::Remove, 1, "new", 4)), fhOf(5));
}

TEST(PathRec, RenameOverLiveNameUnlinksTheDisplacedFile) {
  // rename(2) replaces the target: the displaced file loses its edges.
  Paths rec;
  rec.observe(nameRec(NfsOp::Create, 1, "a", 0, 5));
  rec.observe(nameRec(NfsOp::Create, 1, "b", 1, 6));
  EXPECT_EQ(rec.observe(renameRec(1, "a", 1, "b", 2)), fhOf(6));
  EXPECT_FALSE(rec.parentKnown(fhOf(6)));
  EXPECT_EQ(rec.nameOf(fhOf(5)), "b");
  EXPECT_EQ(rec.knownFiles(), 1u);
  // Onto itself: nothing is displaced.
  EXPECT_EQ(rec.observe(renameRec(1, "b", 1, "b", 3)), FileHandle{});
  EXPECT_EQ(rec.nameOf(fhOf(5)), "b");
  // From an unknown source, the target edge drops all the same.
  EXPECT_EQ(rec.observe(renameRec(1, "ghost", 1, "b", 4)), fhOf(5));
  EXPECT_EQ(rec.knownFiles(), 0u);
}

TEST(PathRec, RemoveForgetsEdge) {
  Paths rec;
  rec.observe(nameRec(NfsOp::Create, 1, "f", 0, 5));
  EXPECT_EQ(rec.observe(nameRec(NfsOp::Remove, 1, "f", 1)), fhOf(5));
  EXPECT_EQ(rec.observe(nameRec(NfsOp::Remove, 1, "f", 2)), FileHandle{});
  EXPECT_FALSE(rec.nameOf(fhOf(5)).has_value());
}

TEST(PathRec, FailedLookupsTeachNothing) {
  Paths rec;
  auto miss = nameRec(NfsOp::Lookup, 1, "ghost", 0, 0);
  miss.status = NfsStat::ErrNoEnt;
  rec.observe(miss);
  EXPECT_EQ(rec.knownFiles(), 0u);
}

TEST(PathRec, CoverageTracksDataOps) {
  // Through the engine's entry points: the namespace fills the batch's
  // parent-known column, and the pass counts it.
  std::vector<TraceRecord> recs = {
      nameRec(NfsOp::Lookup, 1, "f", 0, 5),
      dataRec(NfsOp::Read, 5, 1, 0, 8192, 100000),   // known
      dataRec(NfsOp::Read, 99, 2, 0, 8192, 100000),  // unknown
  };
  HandleIds ids;
  TraceBatch batch;
  for (const TraceRecord& r : recs) {
    const RecordIds id = ids.of(r);
    batch.records.push_back(r);
    batch.fhId.push_back(id.fh);
    batch.fh2Id.push_back(id.fh2);
    batch.resFhId.push_back(id.resFh);
    batch.nameId.push_back(id.name);
    batch.name2Id.push_back(id.name2);
  }
  batch.n = recs.size();
  Namespace ns;
  ns.apply(batch);
  EXPECT_EQ(batch.parentKnown, (std::vector<std::uint8_t>{0, 1, 0}));
  PathRecPass pass;
  pass.prepare(1);
  pass.observe(batch, 0);
  pass.finalize();
  EXPECT_DOUBLE_EQ(pass.parentCoverage(), 0.5);
  EXPECT_EQ(pass.knownFiles(), 1u);
}

// ------------------------------------------------------------- reorder

TEST(Reorder, RestoresSwappedPair) {
  // Sequential reads with one adjacent pair swapped in time.
  std::vector<TraceRecord> recs;
  recs.push_back(dataRec(NfsOp::Read, 1, 1000, 0, 8192, 80000));
  recs.push_back(dataRec(NfsOp::Read, 1, 2000, 16384, 8192, 80000));  // early
  recs.push_back(dataRec(NfsOp::Read, 1, 3000, 8192, 8192, 80000));   // late
  recs.push_back(dataRec(NfsOp::Read, 1, 4000, 24576, 8192, 80000));

  auto result = sortWithReorderWindow(recs, 5000);
  EXPECT_EQ(result.accessesSwapped, 1u);
  // Offsets must now be monotone.
  std::vector<std::uint64_t> offsets;
  for (const auto& r : result.records) offsets.push_back(r.offset);
  EXPECT_TRUE(std::is_sorted(offsets.begin(), offsets.end()));
}

TEST(Reorder, WindowTooSmallDoesNotSwap) {
  std::vector<TraceRecord> recs;
  recs.push_back(dataRec(NfsOp::Read, 1, 1000, 8192, 8192, 80000));
  recs.push_back(dataRec(NfsOp::Read, 1, 90000, 0, 8192, 80000));
  auto result = sortWithReorderWindow(recs, 5000);  // gap is 89 ms
  EXPECT_EQ(result.accessesSwapped, 0u);
}

TEST(Reorder, ZeroWindowIsIdentity) {
  std::vector<TraceRecord> recs;
  recs.push_back(dataRec(NfsOp::Read, 1, 2000, 8192, 8192, 80000));
  recs.push_back(dataRec(NfsOp::Read, 1, 1000, 0, 8192, 80000));
  auto result = sortWithReorderWindow(recs, 0);
  EXPECT_EQ(result.accessesSwapped, 0u);
  // Still time-sorted.
  EXPECT_LE(result.records[0].ts, result.records[1].ts);
}

TEST(Reorder, FilesIndependent) {
  std::vector<TraceRecord> recs;
  recs.push_back(dataRec(NfsOp::Read, 1, 1000, 8192, 8192, 80000));
  recs.push_back(dataRec(NfsOp::Read, 2, 1500, 0, 8192, 80000));
  recs.push_back(dataRec(NfsOp::Read, 1, 2000, 0, 8192, 80000));
  auto result = sortWithReorderWindow(recs, 10000);
  EXPECT_EQ(result.accessesSwapped, 1u);  // only file 1's pair
}

TEST(Reorder, SweepMonotone) {
  // Random-ish stream: swapped fraction grows with window size.
  Rng rng(5);
  std::vector<TraceRecord> recs;
  MicroTime ts = 0;
  std::uint64_t off = 0;
  for (int i = 0; i < 300; ++i) {
    ts += 1000 + static_cast<MicroTime>(rng.below(2000));
    off += 8192;
    MicroTime jitter = static_cast<MicroTime>(rng.below(6000));
    recs.push_back(dataRec(NfsOp::Read, 1, ts + jitter, off, 8192, 1 << 30));
  }
  auto sweep = sweepReorderWindows(recs, {0, 1000, 5000, 20000});
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_GE(sweep[i].second, sweep[i - 1].second);
  }
  EXPECT_EQ(sweep[0].second, 0.0);
}

// ---------------------------------------------------------------- runs

TEST(Runs, SequentialRunDetected) {
  std::vector<TraceRecord> recs;
  for (int i = 0; i < 5; ++i) {
    recs.push_back(dataRec(NfsOp::Read, 1, 1000 * (i + 1),
                           static_cast<std::uint64_t>(i) * 8192, 8192,
                           100000));
  }
  auto runs = detectRuns(recs);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].pattern, RunPattern::Sequential);
  EXPECT_EQ(runs[0].type, RunType::Read);
  EXPECT_EQ(runs[0].bytesAccessed, 5 * 8192u);
  EXPECT_DOUBLE_EQ(runs[0].seqMetricStrict, 1.0);
}

TEST(Runs, EntireRunCoversWholeFile) {
  std::vector<TraceRecord> recs;
  // 3 reads covering a 24000-byte file exactly, last one flags EOF.
  recs.push_back(dataRec(NfsOp::Read, 1, 1000, 0, 8192, 24000));
  recs.push_back(dataRec(NfsOp::Read, 1, 2000, 8192, 8192, 24000));
  recs.push_back(dataRec(NfsOp::Read, 1, 3000, 16384, 7616, 24000, true));
  auto runs = detectRuns(recs);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].pattern, RunPattern::Entire);
}

TEST(Runs, EofBreaksRun) {
  std::vector<TraceRecord> recs;
  recs.push_back(dataRec(NfsOp::Read, 1, 1000, 0, 8192, 8192, true));
  recs.push_back(dataRec(NfsOp::Read, 1, 2000, 0, 8192, 8192, true));
  auto runs = detectRuns(recs);
  EXPECT_EQ(runs.size(), 2u);  // rule (a): previous access hit EOF
}

TEST(Runs, IdleGapBreaksRun) {
  std::vector<TraceRecord> recs;
  recs.push_back(dataRec(NfsOp::Read, 1, 0, 0, 4096, 1 << 20));
  recs.push_back(
      dataRec(NfsOp::Read, 1, 31 * kMicrosPerSecond, 4096, 4096, 1 << 20));
  auto runs = detectRuns(recs);
  EXPECT_EQ(runs.size(), 2u);  // rule (b): older than 30 seconds
}

TEST(Runs, RandomRunDetected) {
  std::vector<TraceRecord> recs;
  // Jumps of ~1 MB cannot be "small".
  recs.push_back(dataRec(NfsOp::Read, 1, 1000, 0, 8192, 16 << 20));
  recs.push_back(dataRec(NfsOp::Read, 1, 2000, 8 << 20, 8192, 16 << 20));
  recs.push_back(dataRec(NfsOp::Read, 1, 3000, 1 << 20, 8192, 16 << 20));
  auto runs = detectRuns(recs);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].pattern, RunPattern::Random);
}

TEST(Runs, SmallJumpToleratedInProcessedMode) {
  std::vector<TraceRecord> recs;
  recs.push_back(dataRec(NfsOp::Read, 1, 1000, 0, 8192, 10 << 20));
  // Skip 3 blocks forward (< 10-block tolerance).
  recs.push_back(dataRec(NfsOp::Read, 1, 2000, 4 * 8192, 8192, 10 << 20));
  RunDetectorConfig cfg;
  auto runs = detectRuns(recs, cfg);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].pattern, RunPattern::Sequential);

  // Raw mode (tolerance 0) calls it random.
  cfg.jumpTolerance = 0;
  auto raw = detectRuns(recs, cfg);
  EXPECT_EQ(raw[0].pattern, RunPattern::Random);
}

TEST(Runs, ReadWriteMixedRun) {
  std::vector<TraceRecord> recs;
  recs.push_back(dataRec(NfsOp::Read, 1, 1000, 0, 8192, 1 << 20));
  recs.push_back(dataRec(NfsOp::Write, 1, 2000, 8192, 8192, 1 << 20));
  auto runs = detectRuns(recs);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].type, RunType::ReadWrite);
}

TEST(Runs, SingletonIsSequentialOrEntire) {
  std::vector<TraceRecord> recs;
  recs.push_back(dataRec(NfsOp::Read, 1, 1000, 8192, 4096, 1 << 20));
  recs.push_back(dataRec(NfsOp::Read, 2, 1000, 0, 5000, 5000, true));
  auto runs = detectRuns(recs);
  ASSERT_EQ(runs.size(), 2u);
  std::set<RunPattern> patterns{runs[0].pattern, runs[1].pattern};
  EXPECT_TRUE(patterns.count(RunPattern::Sequential));  // partial file
  EXPECT_TRUE(patterns.count(RunPattern::Entire));      // whole file
}

TEST(Runs, SequentialityMetricLooseVsStrict) {
  std::vector<TraceRecord> recs;
  // Blocks: 0, 1, 3 (jump of 2), 4 — one non-exact transition.
  recs.push_back(dataRec(NfsOp::Read, 1, 1000, 0, 8192, 1 << 20));
  recs.push_back(dataRec(NfsOp::Read, 1, 2000, 8192, 8192, 1 << 20));
  recs.push_back(dataRec(NfsOp::Read, 1, 3000, 3 * 8192, 8192, 1 << 20));
  recs.push_back(dataRec(NfsOp::Read, 1, 4000, 4 * 8192, 8192, 1 << 20));
  auto runs = detectRuns(recs);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_NEAR(runs[0].seqMetricStrict, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(runs[0].seqMetricLoose, 1.0, 1e-9);  // jump within k=10
}

TEST(Runs, PatternSummaryFractions) {
  std::vector<TraceRecord> recs;
  recs.push_back(dataRec(NfsOp::Read, 1, 1000, 0, 8192, 8192, true));
  recs.push_back(dataRec(NfsOp::Write, 2, 1000, 0, 8192, 8192));
  recs.push_back(dataRec(NfsOp::Write, 3, 1000, 0, 8192, 8192));
  auto summary = summarizeRunPatterns(detectRuns(recs));
  EXPECT_NEAR(summary.readFrac, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(summary.writeFrac, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(summary.rwFrac, 0.0, 1e-9);
}

TEST(Runs, BytesByFileSizeCumulative) {
  std::vector<TraceRecord> recs;
  recs.push_back(dataRec(NfsOp::Read, 1, 1000, 0, 4096, 4096, true));
  recs.push_back(dataRec(NfsOp::Read, 2, 1000, 0, 8192, 4 << 20));
  auto out = bytesByFileSize(detectRuns(recs));
  ASSERT_FALSE(out.total.empty());
  EXPECT_NEAR(out.total.back(), 100.0, 1e-6);
  // Cumulative curves are monotone.
  for (std::size_t i = 1; i < out.total.size(); ++i) {
    EXPECT_GE(out.total[i], out.total[i - 1]);
  }
}

// ----------------------------------------------------------- blocklife

TraceRecord writeRec(std::uint64_t fileId, MicroTime ts, std::uint64_t offset,
                     std::uint32_t count, std::uint64_t preSize,
                     std::uint64_t postSize) {
  auto r = dataRec(NfsOp::Write, fileId, ts, offset, count, postSize);
  r.hasPre = true;
  r.preSize = preSize;
  r.preMtime = ts - 1000;
  return r;
}

TEST(BlockLife, OverwriteDeathAndLifetime) {
  BlockLifeConfig cfg;
  cfg.phase1Start = 0;
  cfg.phase1Length = kMicrosPerDay;
  cfg.phase2Length = kMicrosPerDay;
  Fed<BlockLifeAnalyzer> bl;
  // Born at t=100s, overwritten at t=700s -> lifetime 600s.
  bl.observe(writeRec(1, seconds(100), 0, 8192, 0, 8192));
  bl.observe(writeRec(1, seconds(700), 0, 8192, 8192, 8192));
  bl.finish(cfg);
  const auto& st = bl.stats();
  EXPECT_EQ(st.births, 2u);  // original + replacement
  EXPECT_EQ(st.birthsWrite, 2u);
  EXPECT_EQ(st.deaths, 1u);
  EXPECT_EQ(st.deathsOverwrite, 1u);
  ASSERT_EQ(bl.lifetimes().size(), 1u);
  EXPECT_NEAR(bl.lifetimes().quantile(0.5), 600.0, 1.0);
  EXPECT_EQ(st.endSurplus, 1u);  // the replacement block is still alive
}

TEST(BlockLife, ExtensionBirths) {
  BlockLifeConfig cfg;
  Fed<BlockLifeAnalyzer> bl;
  // File is 8 KB; write at offset 40960 leaves a 4-block gap.  The gap
  // blocks and the gapped write blocks all count as extensions.
  bl.observe(writeRec(1, seconds(10), 40960, 8192, 8192, 49152));
  bl.finish(cfg);
  const auto& st = bl.stats();
  EXPECT_EQ(st.births, 5u);  // blocks 1..4 (gap) + block 5 (written)
  EXPECT_EQ(st.birthsExtension, 5u);
  EXPECT_EQ(st.birthsWrite, 0u);
}

TEST(BlockLife, AppendWithoutGapIsWriteBirth) {
  BlockLifeConfig cfg;
  Fed<BlockLifeAnalyzer> bl;
  bl.observe(writeRec(1, seconds(10), 8192, 8192, 8192, 16384));
  bl.finish(cfg);
  EXPECT_EQ(bl.stats().birthsWrite, 1u);
  EXPECT_EQ(bl.stats().birthsExtension, 0u);
}

TEST(BlockLife, TruncateDeaths) {
  BlockLifeConfig cfg;
  Fed<BlockLifeAnalyzer> bl;
  bl.observe(writeRec(1, seconds(10), 0, 3 * 8192, 0, 3 * 8192));
  // SETATTR shrinking to one block.
  TraceRecord tr;
  tr.ts = seconds(50);
  tr.op = NfsOp::Setattr;
  tr.fh = fhOf(1);
  tr.hasReply = true;
  tr.status = NfsStat::Ok;
  tr.hasAttrs = true;
  tr.fileSize = 8192;
  bl.observe(tr);
  bl.finish(cfg);
  EXPECT_EQ(bl.stats().deathsTruncate, 2u);
}

TEST(BlockLife, DeleteDeathsViaPathResolution) {
  BlockLifeConfig cfg;
  Fed<BlockLifeAnalyzer> bl;
  // Create (teaches dir/name -> fh), write, remove.
  bl.observe(nameRec(NfsOp::Create, 10, "temp.dat", seconds(1), 1));
  bl.observe(writeRec(1, seconds(2), 0, 2 * 8192, 0, 2 * 8192));
  bl.observe(nameRec(NfsOp::Remove, 10, "temp.dat", seconds(30)));
  bl.finish(cfg);
  EXPECT_EQ(bl.stats().deathsDelete, 2u);
  EXPECT_EQ(bl.stats().endSurplus, 0u);
}

TEST(BlockLife, Phase2RecordsOnlyDeaths) {
  BlockLifeConfig cfg;
  cfg.phase1Length = seconds(100);
  cfg.phase2Length = seconds(100);
  Fed<BlockLifeAnalyzer> bl;
  bl.observe(writeRec(1, seconds(50), 0, 8192, 0, 8192));    // phase-1 birth
  bl.observe(writeRec(1, seconds(150), 0, 8192, 8192, 8192));  // phase-2
  bl.finish(cfg);
  const auto& st = bl.stats();
  EXPECT_EQ(st.births, 1u);  // the phase-2 overwrite's birth is not counted
  EXPECT_EQ(st.deaths, 1u);  // but its death of the phase-1 block is
}

TEST(BlockLife, CensoredLongLifespans) {
  BlockLifeConfig cfg;
  cfg.phase1Length = seconds(100);
  cfg.phase2Length = seconds(100);
  Fed<BlockLifeAnalyzer> bl;
  bl.observe(writeRec(1, seconds(10), 0, 8192, 0, 8192));
  // Dies at 180 s: lifespan 170 s > phase2 (100 s) -> censored to surplus.
  bl.observe(writeRec(1, seconds(180), 0, 8192, 8192, 8192));
  bl.finish(cfg);
  EXPECT_EQ(bl.stats().deaths, 0u);
  EXPECT_EQ(bl.stats().endSurplus, 1u);
}

TEST(BlockLife, ZeroLengthFilesNoBlocks) {
  BlockLifeConfig cfg;
  Fed<BlockLifeAnalyzer> bl;
  bl.observe(nameRec(NfsOp::Create, 10, ".inbox.lock", seconds(1), 1));
  bl.observe(nameRec(NfsOp::Remove, 10, ".inbox.lock", seconds(2)));
  bl.finish(cfg);
  EXPECT_EQ(bl.stats().births, 0u);
  EXPECT_EQ(bl.stats().deaths, 0u);
}

TEST(BlockLife, RenameOverLiveFileKillsItsBlocks) {
  // Create a and b, write b, rename a over b: b's blocks die by deletion,
  // as they would on a REMOVE of b.
  BlockLifeConfig cfg;
  Fed<BlockLifeAnalyzer> bl;
  bl.observe(nameRec(NfsOp::Create, 10, "a", seconds(1), 1));
  bl.observe(nameRec(NfsOp::Create, 10, "b", seconds(2), 2));
  bl.observe(writeRec(2, seconds(3), 0, 2 * 8192, 0, 2 * 8192));
  bl.observe(renameRec(10, "a", 10, "b", seconds(30)));
  bl.finish(cfg);
  EXPECT_EQ(bl.stats().births, 2u);
  EXPECT_EQ(bl.stats().deathsDelete, 2u);
  EXPECT_EQ(bl.stats().endSurplus, 0u);
}

TEST(BlockLife, CreateReplyWithoutHandleChargesNoFile) {
  // NFSv3 may leave the new handle out of a CREATE reply.  Its post-op
  // size is the new file's, so it must not birth or truncate blocks of
  // the directory the call names.
  BlockLifeConfig cfg;
  Fed<BlockLifeAnalyzer> bl;
  auto create = nameRec(NfsOp::Create, 10, "big", seconds(1));
  create.hasAttrs = true;
  create.fileSize = 2 * 8192;
  bl.observe(create);
  auto empty = nameRec(NfsOp::Create, 10, "small", seconds(2));
  empty.hasAttrs = true;
  empty.fileSize = 0;
  bl.observe(empty);
  bl.finish(cfg);
  EXPECT_EQ(bl.stats().births, 0u);
  EXPECT_EQ(bl.stats().deaths, 0u);
  EXPECT_EQ(bl.loggedEvents(), 0u);
}

TEST(BlockLife, PhaseBoundariesDecidedAtFinish) {
  // One stream, observed before any phase is known; finish() decides.
  // With phase 1 = [0, 100 s) and a 100 s margin ending at 200 s:
  auto truncateTo = [](std::uint64_t fileId, MicroTime ts,
                       std::uint64_t size) {
    TraceRecord r;
    r.ts = ts;
    r.op = NfsOp::Setattr;
    r.fh = fhOf(fileId);
    r.hasReply = true;
    r.status = NfsStat::Ok;
    r.hasAttrs = true;
    r.fileSize = size;
    return r;
  };
  Fed<BlockLifeAnalyzer> bl;
  // File 1: born exactly at the end of phase 1 (not a phase-1 birth).
  bl.observe(writeRec(1, seconds(100), 0, 8192, 0, 8192));
  // File 2: phase-1 block dying exactly at the end of the margin (no
  // longer tracked: neither a death nor surplus).
  bl.observe(writeRec(2, seconds(10), 0, 8192, 0, 8192));
  bl.observe(writeRec(2, seconds(200), 0, 8192, 8192, 8192));
  // File 3: lifespan equal to the phase-2 length (a counted death).
  bl.observe(writeRec(3, seconds(50), 0, 8192, 0, 8192));
  bl.observe(writeRec(3, seconds(150), 0, 8192, 8192, 8192));
  // File 4: lifespan 1 us longer (censored to surplus).
  bl.observe(writeRec(4, seconds(60), 0, 8192, 0, 8192));
  bl.observe(writeRec(4, seconds(160) + 1, 0, 8192, 8192, 8192));
  // File 5: phase-1 block killed after the margin (neither).
  bl.observe(writeRec(5, seconds(20), 0, 8192, 0, 8192));
  bl.observe(truncateTo(5, seconds(250), 0));
  // File 6: a block that existed before the trace, overwritten in
  // phase 1: only the new block counts, and it outlives the margin.
  bl.observe(writeRec(6, seconds(30), 0, 8192, 8192, 8192));
  // File 7: created, written and removed inside phase 1.
  bl.observe(nameRec(NfsOp::Create, 10, "tmp.dat", seconds(5), 7));
  bl.observe(writeRec(7, seconds(40), 0, 8192, 0, 8192));
  bl.observe(nameRec(NfsOp::Remove, 10, "tmp.dat", seconds(70)));
  // Every write above births one block; files 2, 3, 4, 5 and 7 log one
  // death each (file 6's pre-trace block is not logged).
  EXPECT_EQ(bl.loggedEvents(), 10u + 5u);

  BlockLifeConfig phases;
  phases.phase1Start = 0;
  phases.phase1Length = seconds(100);
  phases.phase2Length = seconds(100);
  bl.finish(phases);
  {
    const auto& st = bl.stats();
    EXPECT_EQ(st.births, 6u);  // files 2, 3, 4, 5, 6, 7 at < 100 s
    EXPECT_EQ(st.birthsWrite, 6u);
    EXPECT_EQ(st.birthsExtension, 0u);
    EXPECT_EQ(st.deaths, 2u);
    EXPECT_EQ(st.deathsOverwrite, 1u);  // file 3
    EXPECT_EQ(st.deathsTruncate, 0u);   // file 5 died after the margin
    EXPECT_EQ(st.deathsDelete, 1u);     // file 7
    EXPECT_EQ(st.endSurplus, 2u);       // file 4 censored, file 6 alive
    EmpiricalCdf& life = bl.lifetimes();
    ASSERT_EQ(life.size(), 2u);
    EXPECT_DOUBLE_EQ(life.fractionAtOrBelow(29.999), 0.0);
    EXPECT_DOUBLE_EQ(life.fractionAtOrBelow(30.0), 0.5);   // file 7
    EXPECT_DOUBLE_EQ(life.fractionAtOrBelow(99.999), 0.5);
    EXPECT_DOUBLE_EQ(life.fractionAtOrBelow(100.0), 1.0);  // file 3
  }

  // The same events under a 300 s phase 1 and margin: every birth is a
  // phase-1 birth and every death falls inside the margin.
  phases.phase1Length = seconds(300);
  phases.phase2Length = seconds(300);
  bl.finish(phases);
  {
    const auto& st = bl.stats();
    EXPECT_EQ(st.births, 10u);
    EXPECT_EQ(st.deaths, 5u);
    EXPECT_EQ(st.deathsOverwrite, 3u);  // files 2, 3, 4
    EXPECT_EQ(st.deathsTruncate, 1u);   // file 5
    EXPECT_EQ(st.deathsDelete, 1u);     // file 7
    EXPECT_EQ(st.endSurplus, 5u);       // live blocks of files 1-4 and 6
    EmpiricalCdf& life = bl.lifetimes();
    ASSERT_EQ(life.size(), 5u);
    EXPECT_DOUBLE_EQ(life.quantile(0.0), 30.0);
    EXPECT_DOUBLE_EQ(life.quantile(1.0), 230.0);
  }
}

// -------------------------------------------------------------- hourly

TEST(Hourly, BucketsByHour) {
  HourlyStats hs;
  hs.observe(dataRec(NfsOp::Read, 1, hours(9) + 5, 0, 8192, 1 << 20));
  hs.observe(dataRec(NfsOp::Read, 1, hours(9) + 10, 8192, 8192, 1 << 20));
  hs.observe(dataRec(NfsOp::Write, 1, hours(10), 0, 4096, 1 << 20));
  ASSERT_GE(hs.hours().size(), 11u);
  EXPECT_EQ(hs.hours()[9].readOps, 2u);
  EXPECT_EQ(hs.hours()[9].bytesRead, 2 * 8192u);
  EXPECT_EQ(hs.hours()[10].writeOps, 1u);
}

TEST(Hourly, PeakVsAllHours) {
  HourlyStats hs;
  // Monday 10am (peak) heavy; Monday 3am (off-peak) light.
  for (int i = 0; i < 100; ++i) {
    hs.observe(dataRec(NfsOp::Read, 1, days(1) + hours(10) + i, 0, 8192,
                       1 << 20));
  }
  hs.observe(dataRec(NfsOp::Read, 1, days(1) + hours(3), 0, 8192, 1 << 20));
  auto peak = hs.peakHours();
  auto all = hs.allHours();
  EXPECT_GT(peak.totalOps.mean(), all.totalOps.mean());
  EXPECT_LT(peak.totalOps.stddevPercentOfMean(),
            all.totalOps.stddevPercentOfMean());
}

// ------------------------------------------------------------- summary

TEST(Summary, CountsAndRatios) {
  std::vector<TraceRecord> recs;
  for (int i = 0; i < 6; ++i) {
    recs.push_back(dataRec(NfsOp::Read, 1, 1000 * i, 0, 8192, 1 << 20));
  }
  recs.push_back(dataRec(NfsOp::Write, 1, 9000, 0, 4096, 1 << 20));
  recs.push_back(nameRec(NfsOp::Lookup, 1, "x", 10000, 2));
  auto s = summarize(recs);
  EXPECT_EQ(s.totalOps, 8u);
  EXPECT_EQ(s.readOps, 6u);
  EXPECT_EQ(s.writeOps, 1u);
  EXPECT_EQ(s.metadataOps, 1u);
  EXPECT_DOUBLE_EQ(s.readWriteOpRatio(), 6.0);
  EXPECT_DOUBLE_EQ(s.readWriteByteRatio(), 6.0 * 8192 / 4096);
  EXPECT_EQ(s.opCounts[static_cast<std::size_t>(NfsOp::Lookup)], 1u);
}

// ---------------------------------------------------------------- names

TEST(Names, Classification) {
  EXPECT_EQ(classifyName(".inbox"), NameCategory::Mailbox);
  EXPECT_EQ(classifyName("mbox"), NameCategory::Mailbox);
  EXPECT_EQ(classifyName(".inbox.lock"), NameCategory::LockFile);
  EXPECT_EQ(classifyName("pico.001234"), NameCategory::MailComposer);
  EXPECT_EQ(classifyName(".pinerc"), NameCategory::DotFile);
  EXPECT_EQ(classifyName(".cshrc"), NameCategory::DotFile);
  EXPECT_EQ(classifyName("Applet_17_Extern"), NameCategory::AppletFile);
  EXPECT_EQ(classifyName("cache00a1b2c3"), NameCategory::BrowserCache);
  EXPECT_EQ(classifyName("run.log"), NameCategory::LogFile);
  EXPECT_EQ(classifyName("main.o"), NameCategory::ObjectFile);
  EXPECT_EQ(classifyName("main.c"), NameCategory::SourceFile);
  EXPECT_EQ(classifyName("#draft.txt#"), NameCategory::TempFile);
  EXPECT_EQ(classifyName("paper.tex~"), NameCategory::TempFile);
  EXPECT_EQ(classifyName("CVS"), NameCategory::CoreOrCvs);
  EXPECT_EQ(classifyName("dataset.db"), NameCategory::IndexFile);
  EXPECT_EQ(classifyName("randomfile"), NameCategory::Other);
}

TEST(Names, CensusTracksLockLifecycle) {
  Fed<FileLifeCensus> census;
  census.observe(nameRec(NfsOp::Create, 10, ".inbox.lock", seconds(1), 5));
  census.observe(nameRec(NfsOp::Remove, 10, ".inbox.lock",
                         seconds(1) + 200'000));
  census.finish();
  EXPECT_EQ(census.totalCreated(), 1u);
  EXPECT_EQ(census.totalDeleted(), 1u);
  EXPECT_DOUBLE_EQ(census.lockFractionOfDeleted(), 1.0);
  auto cs = census.byCategory().at(NameCategory::LockFile);
  EXPECT_EQ(cs.zeroLength, 1u);
  EXPECT_NEAR(cs.lifetimesSec.quantile(0.5), 0.2, 0.01);
  // The lock prediction (zero length, < 1 s) verified.
  EXPECT_EQ(cs.predictionsChecked, 1u);
  EXPECT_EQ(cs.predictionsCorrect, 1u);
}

TEST(Names, CensusTracksSizes) {
  Fed<FileLifeCensus> census;
  census.observe(nameRec(NfsOp::Create, 10, "pico.000001", seconds(1), 5));
  auto wr = writeRec(5, seconds(2), 0, 4000, 0, 4000);
  census.observe(wr);
  census.observe(nameRec(NfsOp::Remove, 10, "pico.000001", seconds(40)));
  census.finish();
  auto cs = census.byCategory().at(NameCategory::MailComposer);
  EXPECT_EQ(cs.deleted, 1u);
  EXPECT_NEAR(cs.sizesAtDeath.quantile(0.5), 4000.0, 1.0);
  EXPECT_EQ(cs.predictionsCorrect, 1u);  // < 40 KB and < 1 h: correct
}

TEST(Names, PredictionFailureCounted) {
  Fed<FileLifeCensus> census;
  // A "lock" that actually grows data breaks the zero-length prediction.
  census.observe(nameRec(NfsOp::Create, 10, "weird.lock", seconds(1), 5));
  census.observe(writeRec(5, seconds(2), 0, 8192, 0, 8192));
  census.observe(nameRec(NfsOp::Remove, 10, "weird.lock", seconds(3)));
  census.finish();
  const auto& cs = census.byCategory().at(NameCategory::LockFile);
  EXPECT_EQ(cs.predictionsChecked, 1u);
  EXPECT_EQ(cs.predictionsCorrect, 0u);
}

TEST(Names, RenameOverLiveFileIsADeletion) {
  // Create a and b, write b, rename a over b: b dies, as on a REMOVE.
  Fed<FileLifeCensus> census;
  census.observe(nameRec(NfsOp::Create, 10, "a.lock", seconds(1), 1));
  census.observe(nameRec(NfsOp::Create, 10, "b.log", seconds(2), 2));
  census.observe(writeRec(2, seconds(3), 0, 4000, 0, 4000));
  census.observe(renameRec(10, "a.lock", 10, "b.log", seconds(12)));
  census.finish();
  EXPECT_EQ(census.totalCreated(), 2u);
  EXPECT_EQ(census.totalDeleted(), 1u);
  auto cs = census.byCategory().at(NameCategory::LogFile);
  EXPECT_EQ(cs.deleted, 1u);
  EXPECT_NEAR(cs.sizesAtDeath.quantile(0.5), 4000.0, 1.0);
  EXPECT_EQ(census.byCategory().at(NameCategory::LockFile).deleted, 0u);
}

// ---------------------------------------------------------------- users

TEST(Users, PerUserAccounting) {
  UserStats us;
  for (int i = 0; i < 10; ++i) {
    auto r = dataRec(NfsOp::Read, 1, hours(1) + i, 0, 8192, 1 << 20);
    r.uid = 100;
    us.observe(r);
  }
  auto w = dataRec(NfsOp::Write, 2, hours(2), 0, 4096, 1 << 20);
  w.uid = 200;
  us.observe(w);

  EXPECT_EQ(us.userCount(), 2u);
  auto sorted = us.byActivity();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].uid, 100u);
  EXPECT_EQ(sorted[0].readOps, 10u);
  EXPECT_EQ(sorted[0].bytesRead, 10 * 8192u);
  EXPECT_EQ(sorted[0].activeHours, 1u);
  EXPECT_EQ(sorted[1].writeOps, 1u);
}

TEST(Users, TopShareAndImbalance) {
  UserStats us;
  // One heavy user (90 ops), nine light users (1 op each).
  for (int i = 0; i < 90; ++i) {
    auto r = dataRec(NfsOp::Read, 1, 1000 * i, 0, 8192, 1 << 20);
    r.uid = 1;
    us.observe(r);
  }
  for (std::uint32_t u = 2; u <= 10; ++u) {
    auto r = dataRec(NfsOp::Read, 1, hours(1) + u, 0, 8192, 1 << 20);
    r.uid = u;
    us.observe(r);
  }
  // The top 10% (1 of 10 users) generates ~91% of the traffic.
  EXPECT_NEAR(us.topUserShare(0.10), 90.0 / 99.0, 1e-9);
  EXPECT_GT(us.imbalance(), 0.7);
}

TEST(Users, EvenUsageHasLowImbalance) {
  UserStats us;
  for (std::uint32_t u = 1; u <= 10; ++u) {
    for (int i = 0; i < 5; ++i) {
      auto r = dataRec(NfsOp::Read, 1, 1000 * (u * 10 + i), 0, 8192, 1 << 20);
      r.uid = u;
      us.observe(r);
    }
  }
  EXPECT_LT(us.imbalance(), 0.05);
  EXPECT_NEAR(us.topUserShare(1.0), 1.0, 1e-9);
}

TEST(Users, ActiveHoursCountDistinctHours) {
  UserStats us;
  for (int h = 0; h < 5; ++h) {
    auto r = dataRec(NfsOp::Read, 1, hours(h) + 10, 0, 8192, 1 << 20);
    r.uid = 7;
    us.observe(r);
    us.observe(r);  // same hour twice: still one active hour
  }
  EXPECT_EQ(us.byActivity()[0].activeHours, 5u);
}

TEST(Hourly, LeastVarianceWindowFindsThePlateau) {
  HourlyStats hs;
  Rng rng(3);
  // Two weeks of synthetic load: flat plateau 9-18 weekdays, noisy
  // mornings/evenings, quiet nights.
  for (int day = 0; day < 14; ++day) {
    int dow = day % 7;
    if (dow == 0 || dow == 6) continue;
    for (int hod = 0; hod < 24; ++hod) {
      std::uint64_t ops;
      if (hod >= 9 && hod < 18) {
        ops = 1000 + rng.below(50);        // steady plateau
      } else if (hod >= 6 && hod < 23) {
        ops = 100 + rng.below(800);        // volatile shoulders
      } else {
        ops = rng.below(30);               // night
      }
      for (std::uint64_t i = 0; i < ops; ++i) {
        hs.observe(dataRec(NfsOp::Read, 1,
                           days(day) + hours(hod) + static_cast<MicroTime>(i),
                           0, 8192, 1 << 20));
      }
    }
  }
  auto best = hs.findLeastVarianceWindow();
  EXPECT_GE(best.startHour, 8);
  EXPECT_LE(best.startHour, 10);
  EXPECT_GE(best.endHour, 16);
  EXPECT_LE(best.endHour, 19);
  EXPECT_LT(best.stddevPercent, 10.0);
}

}  // namespace
}  // namespace nfstrace
