// Crash-recoverable continuous-capture daemon: the manifest must be
// atomic (a crash at any byte leaves a loadable state), rotation must be
// checkpoint-aligned and gap-free, startup recovery must salvage torn
// active segments with exact §4.1.4 loss accounting, and the invariant
//
//   captured == sealed + recovered + lost
//
// must hold at every durable instant — including across SIGKILL storms
// driven by the supervisor.  The truncation tests literally crash the
// on-disk state at every byte offset and require a resumable daemon.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "daemon/daemon.hpp"
#include "daemon/supervisor.hpp"
#include "fault/fault.hpp"
#include "net/packet.hpp"
#include "trace/tracefile.hpp"

namespace nfstrace::daemon {
namespace {

namespace fs = std::filesystem;

TraceRecord record(std::uint32_t i) {
  TraceRecord r;
  r.ts = 1000 * (static_cast<MicroTime>(i) + 1);
  r.client = makeIp(10, 1, 0, 5);
  r.server = makeIp(10, 0, 0, 1);
  r.xid = 0x100 + i;
  r.vers = 3;
  r.op = NfsOp::Getattr;
  r.uid = 2042;
  r.gid = 200;
  r.fh = FileHandle::make(2, i, 1);
  r.hasReply = true;
  r.replyTs = r.ts + 300;
  r.status = NfsStat::Ok;
  return r;
}

std::string readFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void writeFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// All records physically present in the daemon's sealed segments,
/// concatenated in seq order.
std::vector<TraceRecord> sealedRecords(const TraceDaemon& d) {
  std::vector<TraceRecord> out;
  for (const std::string& path : d.segmentPaths()) {
    for (const TraceRecord& r : TraceReader::readAll(path)) out.push_back(r);
  }
  return out;
}

/// The concatenated sealed stream must be exactly record(0..n-1): no
/// gaps, no duplicates, no reordering.
void expectExactStream(const std::vector<TraceRecord>& recs, std::uint32_t n) {
  ASSERT_EQ(recs.size(), n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(recs[i].xid, 0x100u + i) << "at stream index " << i;
    ASSERT_EQ(recs[i].ts, 1000 * (static_cast<MicroTime>(i) + 1));
  }
}

class DaemonTest : public ::testing::Test {
 protected:
  std::string dir_ =
      (fs::temp_directory_path() /
       ("daemon_test_" + std::to_string(::getpid()) + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name()))
          .string();

  void SetUp() override { fs::remove_all(dir_); }
  void TearDown() override { fs::remove_all(dir_); }

  /// Small, fast defaults: short extents, no fsync (these tests crash on
  /// purpose hundreds of times).
  TraceDaemon::Config base() const {
    TraceDaemon::Config cfg;
    cfg.dir = dir_;
    cfg.prefix = "seg";
    cfg.v2ExtentRecords = 8;
    cfg.fsyncOnSeal = false;
    cfg.backoffInitialUs = 1;
    cfg.backoffMaxUs = 2;
    return cfg;
  }
};

// ---------------------------------------------------------------------------
// Manifest: atomic round-trip and damage detection.

TEST(ManifestFile, RoundTripPreservesEverything) {
  std::string path =
      (fs::temp_directory_path() /
       ("daemon_manifest_rt_" + std::to_string(::getpid())))
          .string();
  Manifest m;
  m.nextSeq = 7;
  m.books = {500, 430, 50, 20};
  ASSERT_TRUE(m.books.balanced());
  m.segments.push_back({1, "seg-000001.trace", 400, 12345, 0, 1754650000});
  m.segments.push_back({6, "seg-000006.trace", 80, 999, 400, 1754650060});
  m.save(path);

  Manifest got;
  ASSERT_EQ(Manifest::load(path, got), Manifest::LoadStatus::Ok);
  EXPECT_EQ(got.nextSeq, 7u);
  EXPECT_EQ(got.books.captured, 500u);
  EXPECT_EQ(got.books.sealed, 430u);
  EXPECT_EQ(got.books.recovered, 50u);
  EXPECT_EQ(got.books.lost, 20u);
  ASSERT_EQ(got.segments.size(), 2u);
  EXPECT_EQ(got.segments[0].seq, 1u);
  EXPECT_EQ(got.segments[0].file, "seg-000001.trace");
  EXPECT_EQ(got.segments[0].records, 400u);
  EXPECT_EQ(got.segments[0].bytes, 12345u);
  EXPECT_EQ(got.segments[0].first, 0u);
  EXPECT_EQ(got.segments[0].sealedUnix, 1754650000);
  EXPECT_EQ(got.segments[1].seq, 6u);
  EXPECT_EQ(got.streamPos(), 480u);
  EXPECT_EQ(got.render(), m.render());
  std::remove(path.c_str());
}

TEST(ManifestFile, EveryTruncationAndBitflipReadsAsDamagedNeverGarbage) {
  std::string path =
      (fs::temp_directory_path() /
       ("daemon_manifest_dmg_" + std::to_string(::getpid())))
          .string();
  Manifest m;
  m.nextSeq = 3;
  m.books = {250, 200, 30, 20};
  m.segments.push_back({1, "seg-000001.trace", 120, 4096, 0, 1754650000});
  m.segments.push_back({2, "seg-000002.trace", 110, 4000, 120, 1754650060});
  std::string text = m.render();

  Manifest out;
  EXPECT_EQ(Manifest::load(path, out), Manifest::LoadStatus::Missing);

  // A crash can truncate a non-atomic write at any byte; the CRC trailer
  // must reject every prefix (only the complete file is Ok).
  for (std::size_t len = 0; len < text.size(); ++len) {
    writeFileBytes(path, text.substr(0, len));
    EXPECT_EQ(Manifest::load(path, out), Manifest::LoadStatus::Damaged)
        << "prefix of " << len << " bytes parsed as Ok";
  }
  writeFileBytes(path, text);
  EXPECT_EQ(Manifest::load(path, out), Manifest::LoadStatus::Ok);

  // Any single-bit corruption anywhere in the file must be caught.
  for (std::size_t i = 0; i < text.size(); ++i) {
    std::string bad = text;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    writeFileBytes(path, bad);
    EXPECT_EQ(Manifest::load(path, out), Manifest::LoadStatus::Damaged)
        << "bit flip at byte " << i << " parsed as Ok";
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Rotation and resume.

TEST_F(DaemonTest, RotationSealsCheckpointAlignedSegments) {
  auto cfg = base();
  cfg.rotateRecords = 100;
  TraceDaemon d(cfg);
  for (std::uint32_t i = 0; i < 350; ++i) d.submit(record(i));

  // Three segments sealed by rotation; 50 records still active.
  EXPECT_EQ(d.books().sealed, 300u);
  EXPECT_EQ(d.activeRecords(), 50u);
  d.stop();

  const Manifest& m = d.manifest();
  ASSERT_EQ(m.segments.size(), 4u);
  std::uint64_t first = 0;
  for (std::size_t i = 0; i < m.segments.size(); ++i) {
    EXPECT_EQ(m.segments[i].seq, i + 1) << "sealed seq must be gap-free";
    EXPECT_EQ(m.segments[i].first, first);
    first += m.segments[i].records;
    EXPECT_TRUE(fs::exists(dir_ + "/" + m.segments[i].file));
  }
  EXPECT_EQ(m.segments[3].records, 50u);
  EXPECT_TRUE(d.books().balanced());
  EXPECT_EQ(d.books().captured, 350u);
  EXPECT_EQ(d.books().sealed, 350u);
  EXPECT_EQ(d.streamPos(), 350u);

  // No torn state left behind, and the journal on disk matches memory.
  for (const auto& e : fs::directory_iterator(dir_)) {
    EXPECT_NE(e.path().extension(), ".part");
    EXPECT_NE(e.path().extension(), ".recov");
  }
  Manifest onDisk;
  ASSERT_EQ(Manifest::load(d.manifestPath(), onDisk), Manifest::LoadStatus::Ok);
  EXPECT_EQ(onDisk.render(), m.render());

  expectExactStream(sealedRecords(d), 350);
}

TEST_F(DaemonTest, RestartResumesWithNoGapsOrDuplicates) {
  auto cfg = base();
  cfg.rotateRecords = 100;
  {
    TraceDaemon d(cfg);
    for (std::uint32_t i = 0; i < 250; ++i) d.submit(record(i));
    d.stop();
    EXPECT_EQ(d.streamPos(), 250u);
  }
  TraceDaemon d(cfg);
  EXPECT_EQ(d.recovery().manifestStatus, Manifest::LoadStatus::Ok);
  EXPECT_EQ(d.recovery().tornSegments, 0u);
  EXPECT_EQ(d.recovery().adoptedSegments, 0u);
  ASSERT_EQ(d.streamPos(), 250u);
  for (std::uint32_t i = 250; i < 400; ++i) d.submit(record(i));
  d.stop();

  EXPECT_TRUE(d.books().balanced());
  EXPECT_EQ(d.books().sealed, 400u);
  ASSERT_EQ(d.manifest().segments.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(d.manifest().segments[i].seq, i + 1);
  }
  expectExactStream(sealedRecords(d), 400);
}

// ---------------------------------------------------------------------------
// Crash matrix.

TEST_F(DaemonTest, TruncatedManifestAtEveryByteOffsetIsAlwaysResumable) {
  auto cfg = base();
  cfg.rotateRecords = 50;
  {
    TraceDaemon d(cfg);
    for (std::uint32_t i = 0; i < 100; ++i) d.submit(record(i));
    d.stop();
  }
  std::string manifestPath = TraceDaemon::manifestPathFor(dir_, "seg");
  std::string manifestText = readFileBytes(manifestPath);
  std::string seg1 = readFileBytes(dir_ + "/seg-000001.trace");
  std::string seg2 = readFileBytes(dir_ + "/seg-000002.trace");
  ASSERT_GT(manifestText.size(), 100u);

  for (std::size_t off = 0; off <= manifestText.size(); ++off) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    writeFileBytes(dir_ + "/seg-000001.trace", seg1);
    writeFileBytes(dir_ + "/seg-000002.trace", seg2);
    writeFileBytes(manifestPath, manifestText.substr(0, off));

    // Whatever the crash left of the manifest, the daemon must come back
    // with the exact stream position: the full file parses, any prefix
    // reads Damaged and the books are rebuilt from the directory scan.
    TraceDaemon d(cfg);
    EXPECT_TRUE(d.books().balanced()) << "manifest truncated at " << off;
    EXPECT_EQ(d.streamPos(), 100u) << "manifest truncated at " << off;
    EXPECT_EQ(d.manifest().segments.size(), 2u);
    if (off < manifestText.size()) {
      EXPECT_EQ(d.recovery().manifestStatus, Manifest::LoadStatus::Damaged);
      EXPECT_TRUE(d.recovery().rebuiltFromScan);
    } else {
      EXPECT_EQ(d.recovery().manifestStatus, Manifest::LoadStatus::Ok);
    }
    d.submit(record(100));
    d.stop();
    EXPECT_TRUE(d.books().balanced());
    EXPECT_EQ(d.streamPos(), 101u);
  }
}

TEST_F(DaemonTest, TruncatedActiveSegmentAtEveryByteOffsetIsAlwaysResumable) {
  // A fully written (but never renamed) part: crash-before-rename with
  // the tear at every possible byte.
  std::string whole =
      (fs::temp_directory_path() /
       ("daemon_part_bytes_" + std::to_string(::getpid())))
          .string();
  {
    TraceWriter::Options w;
    w.v2ExtentRecords = 8;
    TraceWriter writer(whole, w);
    for (std::uint32_t i = 0; i < 24; ++i) writer.write(record(i));
    writer.finalize(false);
  }
  std::string bytes = readFileBytes(whole);
  std::remove(whole.c_str());
  ASSERT_GT(bytes.size(), 0u);

  auto cfg = base();
  for (std::size_t off = 0; off <= bytes.size(); ++off) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    writeFileBytes(dir_ + "/seg-000001.part", bytes.substr(0, off));

    TraceDaemon d(cfg);
    ASSERT_TRUE(d.books().balanced()) << "part truncated at " << off;
    std::uint64_t rec = d.books().recovered;
    EXPECT_LE(rec, 24u);
    EXPECT_EQ(d.streamPos(), rec);
    if (rec > 0) {
      // Whatever was salvaged is an exact prefix of the stream, sealed
      // under the same sequence number; the fresh active part moved on
      // to seq 2.
      EXPECT_EQ(d.recovery().tornSegments, 1u);
      EXPECT_FALSE(fs::exists(dir_ + "/seg-000001.part"));
      auto recs = TraceReader::readAll(dir_ + "/seg-000001.trace");
      ASSERT_EQ(recs.size(), rec);
      for (std::uint64_t i = 0; i < rec; ++i) {
        ASSERT_EQ(recs[i].xid, 0x100u + i) << "part truncated at " << off;
      }
    }
    // The daemon keeps capturing from the exact resume point.
    for (std::uint32_t i = static_cast<std::uint32_t>(rec); i < 30; ++i) {
      d.submit(record(i));
    }
    d.stop();
    EXPECT_TRUE(d.books().balanced());
    EXPECT_EQ(d.streamPos(), 30u) << "part truncated at " << off;
    expectExactStream(sealedRecords(d), 30);
  }
}

TEST_F(DaemonTest, AdoptsSealedSegmentMissingFromManifest) {
  auto cfg = base();
  cfg.rotateRecords = 50;
  {
    TraceDaemon d(cfg);
    for (std::uint32_t i = 0; i < 100; ++i) d.submit(record(i));
    d.stop();
  }
  // Crash window: segment 3 was renamed sealed but the journal write
  // never happened.
  {
    TraceWriter::Options w;
    w.v2ExtentRecords = 8;
    TraceWriter writer(dir_ + "/seg-000003.trace", w);
    for (std::uint32_t i = 100; i < 125; ++i) writer.write(record(i));
    writer.finalize(false);
  }

  TraceDaemon d(cfg);
  EXPECT_EQ(d.recovery().adoptedSegments, 1u);
  EXPECT_TRUE(d.books().balanced());
  EXPECT_EQ(d.books().sealed, 125u);
  EXPECT_EQ(d.streamPos(), 125u);
  ASSERT_EQ(d.manifest().segments.size(), 3u);
  EXPECT_EQ(d.manifest().segments[2].seq, 3u);
  EXPECT_EQ(d.manifest().segments[2].records, 25u);
  EXPECT_GE(d.manifest().nextSeq, 4u);
  expectExactStream(sealedRecords(d), 125);
}

TEST_F(DaemonTest, RefusesSealedSegmentThatIsNotV2) {
  // A sealed text segment or torn text part an older nfstraced left
  // behind: startup stops with an error naming it instead of adopting
  // what it cannot read or salvaging it into nothing.
  for (const char* ext : {".trace", ".part"}) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    const std::string text = dir_ + "/seg-000001" + ext;
    {
      std::ofstream out(text);
      for (std::uint32_t i = 0; i < 5; ++i) {
        out << formatRecord(record(i)) << "\n";
      }
    }
    try {
      TraceDaemon d(base());
      ADD_FAILURE() << "startup accepted a " << ext << " that is not v2";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(text), std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(fs::exists(text)) << "the refused " << ext << " is kept";
  }

  // A v2 segment whose magic is damaged is still v2: its extents read.
  fs::remove_all(dir_);
  auto cfg = base();
  cfg.rotateRecords = 50;
  {
    TraceDaemon d(cfg);
    for (std::uint32_t i = 0; i < 50; ++i) d.submit(record(i));
    d.stop();
  }
  const std::string sealed = dir_ + "/seg-000001.trace";
  std::string bytes = readFileBytes(sealed);
  bytes[0] ^= 0x20;
  writeFileBytes(sealed, bytes);
  TraceDaemon d(cfg);
  EXPECT_EQ(d.books().sealed, 50u);
  EXPECT_TRUE(d.books().balanced());
  d.stop();
}

TEST_F(DaemonTest, RemovesStaleTemporariesWithoutDoubleCounting) {
  auto cfg = base();
  cfg.rotateRecords = 50;
  {
    TraceDaemon d(cfg);
    for (std::uint32_t i = 0; i < 50; ++i) d.submit(record(i));
    d.stop();
  }
  // A part left beside its already-sealed twin (crash between rename and
  // unlink is impossible — rename IS the unlink — but a confused restart
  // or copy can leave one), plus an interrupted salvage temp.
  writeFileBytes(dir_ + "/seg-000001.part", "torn garbage");
  writeFileBytes(dir_ + "/seg-000001.recov", "half a salvage");

  TraceDaemon d(cfg);
  EXPECT_GE(d.recovery().staleFilesRemoved, 2u);
  EXPECT_TRUE(d.books().balanced());
  EXPECT_EQ(d.books().sealed, 50u);
  EXPECT_EQ(d.books().recovered, 0u) << "stale part must not be salvaged";
  EXPECT_EQ(d.streamPos(), 50u);
  EXPECT_FALSE(fs::exists(dir_ + "/seg-000001.part"));
  EXPECT_FALSE(fs::exists(dir_ + "/seg-000001.recov"));
  d.stop();
}

// ---------------------------------------------------------------------------
// Degraded mode: the daemon survives a dead disk with exact accounting.

TEST_F(DaemonTest, PermanentEnospcDegradesToSheddingWithExactBooks) {
  FaultPlan plan;
  plan.seed = 5;
  plan.ioEnospcRate = 0.30;  // first writes land, then an endless episode
  plan.ioEnospcStreak = 1u << 30;
  IoFaultInjector inj(plan);

  auto cfg = base();
  cfg.faults = &inj;
  cfg.maxRetries = 2;
  cfg.reopenAfterSheds = 16;
  TraceDaemon d(cfg);
  for (std::uint32_t i = 0; i < 200; ++i) {
    d.submit(record(i));
    ASSERT_TRUE(d.books().balanced()) << "after record " << i;
  }
  EXPECT_TRUE(d.degraded());
  EXPECT_GT(d.recordsShed(), 0u);
  d.stop();

  // Every one of the 200 records has exactly one durable disposition.
  EXPECT_TRUE(d.books().balanced());
  EXPECT_EQ(d.books().captured, 200u);
  EXPECT_EQ(d.books().sealed + d.books().recovered + d.books().lost, 200u);
  Manifest onDisk;
  ASSERT_EQ(Manifest::load(d.manifestPath(), onDisk), Manifest::LoadStatus::Ok);
  EXPECT_TRUE(onDisk.books.balanced());
}

TEST_F(DaemonTest, TransientEnospcEpisodeRecoversAndKeepsCapturing) {
  FaultPlan plan;
  plan.seed = 9;
  plan.ioEnospcRate = 0.02;
  plan.ioEnospcStreak = 50;  // the disk drains after 50 failed attempts
  IoFaultInjector inj(plan);

  auto cfg = base();
  cfg.faults = &inj;
  cfg.maxRetries = 2;
  cfg.reopenAfterSheds = 8;
  cfg.rotateRecords = 64;
  TraceDaemon d(cfg);
  for (std::uint32_t i = 0; i < 600; ++i) {
    d.submit(record(i));
    ASSERT_TRUE(d.books().balanced()) << "after record " << i;
  }
  d.stop();

  EXPECT_GT(inj.stats().enospcEpisodes, 0u);
  // The books stay balanced no matter where the episodes landed.  If the
  // drain itself hit a dead disk, the in-flight records stay in the torn
  // part for the next incarnation — they are not silently double- or
  // zero-counted.
  EXPECT_TRUE(d.books().balanced());
  EXPECT_LE(d.books().captured, 600u);
  EXPECT_EQ(sealedRecords(d).size(), d.streamPos());

  // Restart on a healthy disk: startup recovery folds whatever the first
  // daemon left torn.  Mid-run sheds are holes a live capture can never
  // refill, so the contract here is weaker than the crash-only tests':
  // every sealed record appears exactly once, in order — losses are
  // gaps, never duplicates or reordering.
  cfg.faults = nullptr;
  TraceDaemon d2(cfg);
  EXPECT_TRUE(d2.books().balanced());
  auto recs = sealedRecords(d2);
  EXPECT_EQ(recs.size(), d2.streamPos());
  for (std::size_t i = 1; i < recs.size(); ++i) {
    ASSERT_LT(recs[i - 1].xid, recs[i].xid) << "duplicate or reordered";
  }
  d2.stop();
}

// ---------------------------------------------------------------------------
// Retention.

TEST_F(DaemonTest, RetentionRetiresOldestWithoutRewindingTheStream) {
  std::int64_t clock = 1'000'000;
  auto cfg = base();
  cfg.rotateRecords = 50;
  cfg.retention.maxSegments = 2;
  cfg.wallClock = [&clock] { return clock; };
  TraceDaemon d(cfg);
  for (std::uint32_t i = 0; i < 300; ++i) d.submit(record(i));
  d.stop();

  ASSERT_EQ(d.manifest().segments.size(), 2u);
  EXPECT_EQ(d.manifest().segments[0].seq, 5u);
  EXPECT_EQ(d.manifest().segments[1].seq, 6u);
  EXPECT_EQ(d.books().sealed, 300u) << "retirement is policy, not loss";
  EXPECT_EQ(d.streamPos(), 300u);
  EXPECT_TRUE(d.books().balanced());
  std::size_t sealedOnDisk = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    if (e.path().extension() == ".trace") ++sealedOnDisk;
  }
  EXPECT_EQ(sealedOnDisk, 2u);

  // Age-based retirement with an injected clock: everything ages out.
  clock += 10'000;
  auto cfg2 = base();
  cfg2.retention.maxAgeSec = 100;
  cfg2.wallClock = [&clock] { return clock; };
  TraceDaemon d2(cfg2);
  d2.maintain();
  EXPECT_EQ(d2.manifest().segments.size(), 0u);
  EXPECT_EQ(d2.streamPos(), 300u) << "age retirement must not rewind";
  EXPECT_TRUE(d2.books().balanced());
  d2.stop();
}

// ---------------------------------------------------------------------------
// Supervised SIGKILL storm: the end-to-end crash-recovery contract.

TEST_F(DaemonTest, SupervisorRidesThroughSigkillsWithExactResume) {
  const std::uint32_t kTotal = 500;
  const std::uint32_t kKillAt[3] = {137, 263, 401};
  std::string dir = dir_;

  Supervisor::Config scfg;
  scfg.manifestPath = TraceDaemon::manifestPathFor(dir, "seg");
  scfg.maxRestarts = 8;
  scfg.backoffInitialUs = 100;
  scfg.backoffMaxUs = 1000;

  auto body = [&](int incarnation) -> int {
    TraceDaemon::Config cfg;
    cfg.dir = dir;
    cfg.prefix = "seg";
    cfg.v2ExtentRecords = 8;
    cfg.fsyncOnSeal = false;
    cfg.rotateRecords = 60;
    TraceDaemon d(cfg);
    if (!d.books().balanced()) return 2;
    // Deterministic source: resume exactly where the sealed stream ends.
    for (std::uint32_t i = static_cast<std::uint32_t>(d.streamPos());
         i < kTotal; ++i) {
      if (incarnation < 3 && i == kKillAt[incarnation]) {
        ::raise(SIGKILL);  // mid-capture, often mid-rotation
      }
      d.submit(record(i));
    }
    d.stop();
    return d.books().balanced() ? 0 : 3;
  };

  Supervisor::Result res = Supervisor::run(scfg, body);
  EXPECT_EQ(res.incarnations, 4);
  EXPECT_EQ(res.restarts, 3);
  EXPECT_TRUE(res.cleanExit);
  EXPECT_TRUE(res.booksBalanced);
  EXPECT_TRUE(res.finalBooks.balanced());

  // The surviving state: balanced books, gap-free seq, and a sealed
  // stream byte-for-byte equal to an uninterrupted run's.
  auto cfg = base();
  cfg.rotateRecords = 60;
  TraceDaemon d(cfg);
  EXPECT_EQ(d.recovery().manifestStatus, Manifest::LoadStatus::Ok);
  EXPECT_TRUE(d.books().balanced());
  EXPECT_EQ(d.streamPos(), kTotal);
  const auto& segs = d.manifest().segments;
  for (std::size_t i = 1; i < segs.size(); ++i) {
    EXPECT_EQ(segs[i].seq, segs[i - 1].seq + 1) << "sealed seq gap";
    EXPECT_EQ(segs[i].first, segs[i - 1].first + segs[i - 1].records);
  }
  expectExactStream(sealedRecords(d), kTotal);
  d.stop();
}

}  // namespace
}  // namespace nfstrace::daemon
