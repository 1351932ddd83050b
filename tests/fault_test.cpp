// Deterministic fault injection and graceful degradation across the
// capture -> trace path: the FaultySink/IoFaultInjector decision streams
// must be pure functions of (seed, event index); the sniffer's state
// tables must stay bounded under hostile input; the trace writer must
// ride out transient IO errors without corrupting its output; and the
// recovering trace reader must account for every record a corrupt
// region ate, exactly, via the extent headers' cumulative counts.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "fault/fault.hpp"
#include "obs/exporter.hpp"
#include "pipeline/pipeline.hpp"
#include "sniffer/sniffer.hpp"
#include "trace/tracefile.hpp"
#include "workload/sim.hpp"

namespace nfstrace {
namespace {

CapturedPacket pkt(MicroTime ts, std::vector<std::uint8_t> data) {
  CapturedPacket p;
  p.ts = ts;
  p.origLen = static_cast<std::uint32_t>(data.size());
  p.data = std::move(data);
  return p;
}

/// Downstream sink that keeps every forwarded frame for comparison.
struct CollectSink : FrameSink {
  std::vector<CapturedPacket> frames;
  void onFrame(const CapturedPacket& p) override { frames.push_back(p); }
};

std::vector<CapturedPacket> junkFrames(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<CapturedPacket> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint8_t> data(60 + rng.below(240));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
    out.push_back(pkt(static_cast<MicroTime>(i) * 100, std::move(data)));
  }
  return out;
}

bool sameFrames(const std::vector<CapturedPacket>& a,
                const std::vector<CapturedPacket>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].ts != b[i].ts || a[i].data != b[i].data) return false;
  }
  return true;
}

FaultPlan lossyPlan() {
  FaultPlan plan;
  plan.seed = 20031;
  plan.dropRate = 0.02;
  plan.burstRate = 0.002;
  plan.burstMin = 4;
  plan.burstMax = 8;
  plan.truncateRate = 0.005;
  plan.bitflipRate = 0.005;
  plan.dupRate = 0.01;
  plan.reorderRate = 0.02;
  return plan;
}

TEST(FaultPlanConfig, ParsesEveryKey) {
  FaultPlan p = FaultPlan::fromConfig(ConfigFile::parse(
      "seed = 99\n"
      "drop_rate = 0.25\n"
      "burst_rate = 0.125\n"
      "burst_min = 3\n"
      "burst_max = 9\n"
      "truncate_rate = 0.5\n"
      "bitflip_rate = 0.0625\n"
      "dup_rate = 0.75\n"
      "reorder_rate = 1.0\n"
      "io_short_write_rate = 0.375\n"
      "io_eio_rate = 0.0\n"
      "io_enospc_rate = 0.03125\n"
      "io_enospc_streak = 7\n"));
  EXPECT_EQ(p.seed, 99u);
  EXPECT_EQ(p.dropRate, 0.25);
  EXPECT_EQ(p.burstRate, 0.125);
  EXPECT_EQ(p.burstMin, 3u);
  EXPECT_EQ(p.burstMax, 9u);
  EXPECT_EQ(p.truncateRate, 0.5);
  EXPECT_EQ(p.bitflipRate, 0.0625);
  EXPECT_EQ(p.dupRate, 0.75);
  EXPECT_EQ(p.reorderRate, 1.0);
  EXPECT_EQ(p.ioShortWriteRate, 0.375);
  EXPECT_EQ(p.ioEioRate, 0.0);
  EXPECT_EQ(p.ioEnospcRate, 0.03125);
  EXPECT_EQ(p.ioEnospcStreak, 7u);
  EXPECT_FALSE(p.quiet());
  EXPECT_TRUE(FaultPlan{}.quiet());
}

TEST(FaultPlanConfig, RejectsBadValues) {
  EXPECT_THROW(FaultPlan::fromConfig(ConfigFile::parse("drop_rate = 1.5")),
               std::runtime_error);
  EXPECT_THROW(FaultPlan::fromConfig(ConfigFile::parse("dup_rate = -0.1")),
               std::runtime_error);
  EXPECT_THROW(FaultPlan::fromConfig(ConfigFile::parse("burst_min = 0")),
               std::runtime_error);
  EXPECT_THROW(FaultPlan::fromConfig(
                   ConfigFile::parse("burst_min = 5\nburst_max = 2")),
               std::runtime_error);
}

TEST(FaultPlanConfig, RejectsUnknownKeyNamingIt) {
  // A misspelt rate must not silently leave its fault off.
  try {
    FaultPlan::fromConfig(ConfigFile::parse("drop_rat = 0.2\n"));
    ADD_FAILURE() << "drop_rat accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("drop_rat"), std::string::npos)
        << e.what();
  }
}

TEST(FaultPlanConfig, RejectsNegativeOrNonNumericCountsNamingTheKey) {
  // io_enospc_streak = -1 once became a 4294967295-attempt ENOSPC episode.
  for (const char* key :
       {"seed", "burst_min", "burst_max", "io_enospc_streak"}) {
    for (const char* value : {"-1", "lots", "4294967296"}) {
      if (std::string(key) == "seed" && std::string(value) == "4294967296") {
        continue;  // a 64-bit seed
      }
      std::string text = std::string(key) + " = " + value + "\n";
      try {
        FaultPlan::fromConfig(ConfigFile::parse(text));
        ADD_FAILURE() << text << " accepted";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << e.what();
      }
    }
  }
  FaultPlan maxSeed =
      FaultPlan::fromConfig(ConfigFile::parse("seed = 18446744073709551615"));
  EXPECT_EQ(maxSeed.seed, ~std::uint64_t{0});
}

TEST(FaultySinkTest, QuietPlanPassesEverythingThrough) {
  auto frames = junkFrames(200, 1);
  CollectSink sink;
  FaultySink faulty(FaultPlan{}, sink);
  for (const auto& f : frames) faulty.onFrame(f);
  faulty.flush();
  EXPECT_TRUE(sameFrames(sink.frames, frames));
  EXPECT_EQ(faulty.stats().forwarded, frames.size());
  EXPECT_EQ(faulty.stats().dropped, 0u);
  EXPECT_EQ(faulty.decisionDigest(), 0u);
}

TEST(FaultySinkTest, SameSeedSameFaultSequence) {
  auto frames = junkFrames(2000, 2);
  CollectSink a, b;
  FaultySink fa(lossyPlan(), a), fb(lossyPlan(), b);
  for (const auto& f : frames) fa.onFrame(f);
  fa.flush();
  for (const auto& f : frames) fb.onFrame(f);
  fb.flush();
  EXPECT_TRUE(sameFrames(a.frames, b.frames));
  EXPECT_EQ(fa.decisionDigest(), fb.decisionDigest());
  EXPECT_NE(fa.decisionDigest(), 0u);
  EXPECT_GT(fa.stats().dropped, 0u);
  EXPECT_GT(fa.stats().duplicated, 0u);
  EXPECT_GT(fa.stats().reordered, 0u);

  FaultPlan other = lossyPlan();
  other.seed = 777;
  CollectSink c;
  FaultySink fc(other, c);
  for (const auto& f : frames) fc.onFrame(f);
  fc.flush();
  EXPECT_NE(fc.decisionDigest(), fa.decisionDigest());
}

TEST(FaultySinkTest, DropAllForwardsNothing) {
  auto frames = junkFrames(100, 3);
  CollectSink sink;
  FaultPlan plan;
  plan.dropRate = 1.0;
  FaultySink faulty(plan, sink);
  for (const auto& f : frames) faulty.onFrame(f);
  faulty.flush();
  EXPECT_TRUE(sink.frames.empty());
  EXPECT_EQ(faulty.stats().dropped, 100u);
  EXPECT_EQ(faulty.stats().lossFraction(), 1.0);
}

TEST(FaultySinkTest, DupAllDeliversTwice) {
  auto frames = junkFrames(50, 4);
  CollectSink sink;
  FaultPlan plan;
  plan.dupRate = 1.0;
  FaultySink faulty(plan, sink);
  for (const auto& f : frames) faulty.onFrame(f);
  faulty.flush();
  ASSERT_EQ(sink.frames.size(), 100u);
  EXPECT_EQ(faulty.stats().duplicated, 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(sink.frames[2 * i].data, sink.frames[2 * i + 1].data);
  }
}

TEST(FaultySinkTest, TruncateAllKeepsStrictPrefixes) {
  auto frames = junkFrames(100, 5);
  CollectSink sink;
  FaultPlan plan;
  plan.truncateRate = 1.0;
  FaultySink faulty(plan, sink);
  for (const auto& f : frames) faulty.onFrame(f);
  faulty.flush();
  ASSERT_EQ(sink.frames.size(), 100u);
  EXPECT_EQ(faulty.stats().truncated, 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_LT(sink.frames[i].data.size(), frames[i].data.size());
    EXPECT_TRUE(std::equal(sink.frames[i].data.begin(),
                           sink.frames[i].data.end(),
                           frames[i].data.begin()));
  }
}

TEST(FaultySinkTest, BitflipChangesExactlyOneBit) {
  auto frames = junkFrames(100, 6);
  CollectSink sink;
  FaultPlan plan;
  plan.bitflipRate = 1.0;
  FaultySink faulty(plan, sink);
  for (const auto& f : frames) faulty.onFrame(f);
  ASSERT_EQ(sink.frames.size(), 100u);
  EXPECT_EQ(faulty.stats().bitflipped, 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_EQ(sink.frames[i].data.size(), frames[i].data.size());
    int bitsChanged = 0;
    for (std::size_t j = 0; j < frames[i].data.size(); ++j) {
      std::uint8_t diff = sink.frames[i].data[j] ^ frames[i].data[j];
      bitsChanged += __builtin_popcount(diff);
    }
    EXPECT_EQ(bitsChanged, 1);
  }
}

TEST(FaultySinkTest, ReorderSwapsAdjacentPairsAndFlushDrainsHeld) {
  auto frames = junkFrames(5, 7);
  CollectSink sink;
  FaultPlan plan;
  plan.reorderRate = 1.0;
  FaultySink faulty(plan, sink);
  for (const auto& f : frames) faulty.onFrame(f);
  // Frame 4 is still held pending a swap partner that never arrives.
  EXPECT_EQ(sink.frames.size(), 4u);
  faulty.flush();
  faulty.flush();  // idempotent
  ASSERT_EQ(sink.frames.size(), 5u);
  EXPECT_EQ(faulty.stats().forwarded, 5u);
  // Pairwise swaps: 1,0,3,2 then the flushed tail frame 4.
  EXPECT_EQ(sink.frames[0].data, frames[1].data);
  EXPECT_EQ(sink.frames[1].data, frames[0].data);
  EXPECT_EQ(sink.frames[2].data, frames[3].data);
  EXPECT_EQ(sink.frames[3].data, frames[2].data);
  EXPECT_EQ(sink.frames[4].data, frames[4].data);
}

TEST(FaultySinkTest, BurstLengthsStayWithinBounds) {
  auto frames = junkFrames(5000, 8);
  CollectSink sink;
  FaultPlan plan;
  plan.burstRate = 0.01;
  plan.burstMin = 3;
  plan.burstMax = 5;
  FaultySink faulty(plan, sink);
  for (const auto& f : frames) faulty.onFrame(f);
  const auto& st = faulty.stats();
  ASSERT_GT(st.bursts, 0u);
  // All drops are burst drops, and each burst drops between burstMin and
  // burstMax frames (the last burst may be cut short by end of capture).
  EXPECT_EQ(st.dropped, st.burstDropped);
  EXPECT_LE(st.burstDropped, st.bursts * plan.burstMax);
  EXPECT_GE(st.burstDropped, (st.bursts - 1) * plan.burstMin);
  EXPECT_EQ(st.forwarded + st.dropped, st.frames);
}

TEST(IoFaultInjectorTest, SameSeedSameDecisionStream) {
  FaultPlan plan;
  plan.seed = 42;
  plan.ioShortWriteRate = 0.2;
  plan.ioEioRate = 0.1;
  plan.ioEnospcRate = 0.05;
  plan.ioEnospcStreak = 3;
  IoFaultInjector a(plan), b(plan);
  for (int i = 0; i < 500; ++i) {
    auto fa = a.nextWrite(4096);
    auto fb = b.nextWrite(4096);
    EXPECT_EQ(static_cast<int>(fa.kind), static_cast<int>(fb.kind));
    EXPECT_EQ(fa.shortLen, fb.shortLen);
  }
  EXPECT_EQ(a.decisionDigest(), b.decisionDigest());
  EXPECT_EQ(a.stats().eio, b.stats().eio);
  EXPECT_EQ(a.stats().enospc, b.stats().enospc);
  EXPECT_GT(a.stats().shortWrites, 0u);
}

TEST(IoFaultInjectorTest, EnospcEpisodesSpanTheConfiguredStreak) {
  FaultPlan plan;
  plan.ioEnospcRate = 1.0;
  plan.ioEnospcStreak = 3;
  IoFaultInjector inj(plan);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(static_cast<int>(inj.nextWrite(100).kind),
              static_cast<int>(IoFaultInjector::Kind::Enospc));
  }
  // Two full episodes of three failing attempts each.
  EXPECT_EQ(inj.stats().enospcEpisodes, 2u);
  EXPECT_EQ(inj.stats().enospc, 6u);
}

TEST(IoFaultInjectorTest, ShortWritesMakeNonzeroProgress) {
  FaultPlan plan;
  plan.ioShortWriteRate = 1.0;
  IoFaultInjector inj(plan);
  for (int i = 0; i < 100; ++i) {
    auto f = inj.nextWrite(1000);
    ASSERT_EQ(static_cast<int>(f.kind),
              static_cast<int>(IoFaultInjector::Kind::ShortWrite));
    EXPECT_GE(f.shortLen, 1u);
    EXPECT_LT(f.shortLen, 1000u);
  }
  // A 1-byte write cannot be shortened; it must go through clean.
  EXPECT_EQ(static_cast<int>(inj.nextWrite(1).kind),
            static_cast<int>(IoFaultInjector::Kind::None));
}

// ---------------------------------------------------------------------------
// Trace writer under IO faults, and the recovering reader.

TraceRecord simpleRecord(std::uint32_t i) {
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

class FaultFileTest : public ::testing::Test {
 protected:
  std::string path_ =
      (std::filesystem::temp_directory_path() /
       ("fault_test_" + std::to_string(::getpid()) + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name()))
          .string();
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".b").c_str());
  }
};

TEST_F(FaultFileTest, WriterRidesOutTransientFaultsByteIdentically) {
  std::string clean = path_;
  std::string chaotic = path_ + ".b";
  {
    TraceWriter w(clean);
    for (std::uint32_t i = 0; i < 2000; ++i) w.write(simpleRecord(i));
  }
  FaultPlan plan;
  plan.seed = 11;
  plan.ioShortWriteRate = 0.5;
  plan.ioEioRate = 0.4;
  IoFaultInjector inj(plan);
  TraceWriter::Options opts;
  opts.faults = &inj;
  opts.maxRetries = 64;
  opts.backoffInitialUs = 1;
  opts.backoffMaxUs = 4;
  TraceWriter::IoStats io;
  {
    TraceWriter w(chaotic, opts);
    for (std::uint32_t i = 0; i < 2000; ++i) w.write(simpleRecord(i));
    w.flush();
    io = w.ioStats();
  }
  EXPECT_GT(io.retries, 0u);
  EXPECT_GT(io.shortWrites, 0u);
  EXPECT_EQ(readFileBytes(chaotic), readFileBytes(clean));
  EXPECT_EQ(TraceReader::readAll(chaotic).size(), 2000u);
}

TEST_F(FaultFileTest, V2WriterRidesOutTransientFaultsByteIdentically) {
  // Small extents, so many physical writes: a flaky disk may cost
  // retries and short writes, but never changes the bytes — extent CRCs,
  // the footer index, and the record stream all survive intact.
  std::string clean = path_;
  std::string chaotic = path_ + ".b";
  TraceWriter::Options v2opts;
  v2opts.v2ExtentRecords = 256;
  {
    TraceWriter w(clean, v2opts);
    for (std::uint32_t i = 0; i < 2000; ++i) w.write(simpleRecord(i));
  }
  FaultPlan plan;
  plan.seed = 11;
  plan.ioShortWriteRate = 0.5;
  plan.ioEioRate = 0.4;
  IoFaultInjector inj(plan);
  TraceWriter::Options opts = v2opts;
  opts.faults = &inj;
  opts.maxRetries = 64;
  opts.backoffInitialUs = 1;
  opts.backoffMaxUs = 4;
  TraceWriter::IoStats io;
  {
    TraceWriter w(chaotic, opts);
    for (std::uint32_t i = 0; i < 2000; ++i) w.write(simpleRecord(i));
    io = w.ioStats();
  }
  EXPECT_GT(io.retries, 0u);
  EXPECT_GE(io.checkpoints, 2000u / 256);  // one per sealed extent
  EXPECT_EQ(readFileBytes(chaotic), readFileBytes(clean));
  EXPECT_EQ(TraceReader::readAll(chaotic).size(), 2000u);
  auto index = tracev2::loadChainedIndex(chaotic);
  ASSERT_TRUE(index.has_value());
  EXPECT_EQ(index->size(), (2000u + 255) / 256);
}

TEST_F(FaultFileTest, WriterGivesUpWhenTheDiskStaysFull) {
  FaultPlan plan;
  plan.ioEnospcRate = 1.0;
  plan.ioEnospcStreak = 1u << 30;  // the disk never drains
  IoFaultInjector inj(plan);
  TraceWriter::Options opts;
  opts.faults = &inj;
  opts.maxRetries = 3;
  opts.backoffInitialUs = 1;
  opts.backoffMaxUs = 2;
  // The file magic and schema are the first physical write, so the
  // writer gives up in its constructor.
  EXPECT_THROW(TraceWriter(path_, opts), std::runtime_error);
  EXPECT_GE(inj.stats().enospc, 4u);  // initial attempt + maxRetries
}

TEST_F(FaultFileTest, V2EnospcEpisodeAtExtentSealBoundary) {
  // The v2 writer only touches the disk at extent seals, so every ENOSPC
  // episode lands exactly on a seal boundary — the case the daemon's
  // checkpoint-aligned rotation depends on.  Two contracts:
  //  (a) an episode within the retry budget costs retries, not bytes;
  //  (b) an exhausted budget leaves the file as an exact whole-extent
  //      prefix of the clean file: the recovering reader gets every
  //      pre-episode extent back with zero skipped records.
  std::string clean = path_;
  std::string chaotic = path_ + ".b";
  TraceWriter::Options v2opts;
  v2opts.v2ExtentRecords = 16;
  {
    TraceWriter w(clean, v2opts);
    for (std::uint32_t i = 0; i < 400; ++i) w.write(simpleRecord(i));
  }

  // (a) Ride-out: short episodes at seal boundaries, byte-identical file.
  {
    FaultPlan plan;
    plan.seed = 21;
    plan.ioEnospcRate = 0.3;
    plan.ioEnospcStreak = 2;
    IoFaultInjector inj(plan);
    TraceWriter::Options opts = v2opts;
    opts.faults = &inj;
    opts.maxRetries = 8;
    opts.backoffInitialUs = 1;
    opts.backoffMaxUs = 2;
    {
      TraceWriter w(chaotic, opts);
      for (std::uint32_t i = 0; i < 400; ++i) w.write(simpleRecord(i));
    }
    EXPECT_GT(inj.stats().enospcEpisodes, 0u);
    EXPECT_EQ(readFileBytes(chaotic), readFileBytes(clean));
  }

  // (b) Give-up: the first over-budget episode kills the writer at some
  // extent seal; everything before it is intact and exactly recoverable.
  {
    FaultPlan plan;
    plan.seed = 21;
    plan.ioEnospcRate = 0.15;
    plan.ioEnospcStreak = 1u << 30;
    IoFaultInjector inj(plan);
    TraceWriter::Options opts = v2opts;
    opts.faults = &inj;
    opts.maxRetries = 2;
    opts.backoffInitialUs = 1;
    opts.backoffMaxUs = 2;
    bool threw = false;
    try {
      TraceWriter w(chaotic, opts);
      for (std::uint32_t i = 0; i < 400; ++i) w.write(simpleRecord(i));
      w.finalize();
    } catch (const std::runtime_error&) {
      threw = true;
    }
    ASSERT_TRUE(threw);

    // ENOSPC attempts land no bytes, so the torn file is a strict prefix
    // of the clean one — whole extents only.
    std::string cleanBytes = readFileBytes(clean);
    std::string tornBytes = readFileBytes(chaotic);
    ASSERT_LT(tornBytes.size(), cleanBytes.size());
    EXPECT_EQ(tornBytes, cleanBytes.substr(0, tornBytes.size()));

    TraceReader::RecoverStats rs;
    auto recs = TraceReader::recoverAll(chaotic, &rs);
    EXPECT_GT(recs.size(), 0u);
    EXPECT_LT(recs.size(), 400u);
    EXPECT_EQ(recs.size() % 16, 0u) << "recovery must be extent-aligned";
    EXPECT_EQ(rs.skipped, 0u) << "no record was claimed and then lost";
    for (std::size_t i = 0; i < recs.size(); ++i) {
      ASSERT_EQ(recs[i].xid, 0x100u + i);
    }
  }
}

// ---------------------------------------------------------------------------
// Bounded sniffer tables and flush accounting.

std::vector<std::uint8_t> udpCallFrame(IpAddr client, std::uint32_t xid) {
  XdrEncoder enc;
  AuthUnix cred;
  cred.uid = 1;
  cred.gid = 1;
  encodeRpcCall(enc, xid, kNfsProgram, 3,
                static_cast<std::uint32_t>(Proc3::Getattr), cred);
  encodeCall3(enc, GetattrArgs{FileHandle::make(1, xid, 1)});
  return buildUdpFrame(client, 1023, makeIp(10, 0, 0, 1), 2049, enc.bytes());
}

TEST(SnifferBounds, PendingTableEvictsOldestFirst) {
  std::vector<TraceRecord> out;
  Sniffer::Config cfg;
  cfg.maxPendingCalls = 4;
  Sniffer sniffer(cfg, [&](const TraceRecord& r) { out.push_back(r); });
  for (std::uint32_t xid = 1; xid <= 10; ++xid) {
    sniffer.onFrame(pkt(xid * 10, udpCallFrame(makeIp(10, 1, 0, 2), xid)));
  }
  const auto& st = sniffer.stats();
  EXPECT_EQ(st.evictedCalls, 6u);
  EXPECT_EQ(st.pendingPeak, 4u);
  sniffer.flush();
  EXPECT_EQ(sniffer.stats().flushedCalls, 4u);
  // Every call surfaces exactly once, reply-less, oldest evictions first.
  ASSERT_EQ(out.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i].xid, i + 1);
    EXPECT_FALSE(out[i].hasReply);
  }
}

TEST(SnifferBounds, TcpFlowTableEvictsColdestFlow) {
  Sniffer::Config cfg;
  cfg.maxTcpFlows = 2;
  Sniffer sniffer(cfg, [](const TraceRecord&) {});
  std::vector<std::uint8_t> payload(64, 0xab);
  for (int host = 0; host < 4; ++host) {
    std::uint32_t seq = 1;
    auto frames = segmentTcpStream(makeIp(10, 1, 0, 10 + host),
                                   static_cast<std::uint16_t>(40000 + host),
                                   makeIp(10, 0, 0, 1), 2049, seq, payload,
                                   512);
    for (auto& f : frames) {
      sniffer.onFrame(pkt(seconds(host + 1), std::move(f)));
    }
  }
  EXPECT_EQ(sniffer.stats().evictedFlows, 2u);
  EXPECT_EQ(sniffer.stats().tcpFlowsPeak, 2u);
}

TEST(SnifferBounds, FlushCountsOutstandingCallsAsFlushedNotExpired) {
  obs::Registry registry;
  std::vector<TraceRecord> out;
  Sniffer::Config cfg;
  cfg.metrics = &registry;
  Sniffer sniffer(cfg, [&](const TraceRecord& r) { out.push_back(r); });
  for (std::uint32_t xid = 1; xid <= 3; ++xid) {
    sniffer.onFrame(pkt(xid * 10, udpCallFrame(makeIp(10, 1, 0, 2), xid)));
  }
  sniffer.flush();
  EXPECT_EQ(sniffer.stats().flushedCalls, 3u);
  EXPECT_EQ(sniffer.stats().expiredCalls, 0u);
  EXPECT_EQ(out.size(), 3u);
  // Short captures now feed the reply-loss gauge: all three calls went
  // reply-less, so the estimate reads 1.0.
  auto snap = registry.scrape();
  bool found = false;
  for (const auto& [name, v] : snap.gauges) {
    if (name == "sniffer.reply_loss_estimate") {
      found = true;
      EXPECT_DOUBLE_EQ(v, 1.0);
    }
  }
  EXPECT_TRUE(found);
}

/// One NFS call, record-marked for a TCP stream.
std::vector<std::uint8_t> markedCall(std::uint32_t xid,
                                     const NfsCallArgs& args) {
  XdrEncoder enc;
  AuthUnix cred;
  cred.uid = 1;
  cred.gid = 1;
  NfsOp op = opOf(args);
  Proc3 proc;
  procForOp3(op, proc);
  encodeRpcCall(enc, xid, kNfsProgram, 3, static_cast<std::uint32_t>(proc),
                cred);
  encodeCall3(enc, args);
  return recordMark(enc.bytes());
}

constexpr IpAddr kTcpClient = makeIp(10, 1, 0, 2);
constexpr IpAddr kTcpServer = makeIp(10, 0, 0, 1);

TEST(SnifferBounds, RecordReaderBufferIsBounded) {
  // A record mark whose length no decoder accepts (as a bit flip or a
  // resync mid-record leaves one), then ten good calls on the same flow
  // with no gap.  The flow's record state is dropped at the bad mark, so
  // the calls decode instead of being buffered toward a 2 GB record.
  std::vector<TraceRecord> out;
  Sniffer sniffer({}, [&](const TraceRecord& r) { out.push_back(r); });
  std::uint32_t seq = 1000;
  std::vector<std::uint8_t> garbage{0x7f, 0xff, 0x00, 0x00, 1, 2, 3, 4};
  MicroTime ts = seconds(1);
  for (auto& f : segmentTcpStream(kTcpClient, 1023, kTcpServer, 2049, seq,
                                  garbage, 1460)) {
    sniffer.onFrame(pkt(ts, std::move(f)));
  }
  for (std::uint32_t xid = 1; xid <= 10; ++xid) {
    auto call = markedCall(xid, GetattrArgs{FileHandle::make(1, xid, 1)});
    for (auto& f : segmentTcpStream(kTcpClient, 1023, kTcpServer, 2049, seq,
                                    call, 1460)) {
      sniffer.onFrame(pkt(ts += 100, std::move(f)));
    }
  }
  EXPECT_EQ(sniffer.stats().framesUndecodable, 1u);
  EXPECT_EQ(sniffer.stats().rpcCalls, 10u);
  sniffer.flush();
  ASSERT_EQ(out.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(out[i].xid, i + 1);
}

TEST(SnifferBounds, TcpBufferedGaugeHoldsAPartialRecord) {
  // A WRITE call in two segments, with an expiry-scan boundary (where the
  // gauges are sampled) between them: the flow holds the first segment.
  obs::Registry registry;
  Sniffer::Config cfg;
  cfg.metrics = &registry;
  Sniffer sniffer(cfg, [](const TraceRecord&) {});
  std::uint32_t seq = 1;
  WriteArgs write;
  write.fh = FileHandle::make(1, 7, 1);
  write.count = 2000;
  auto frames = segmentTcpStream(kTcpClient, 1023, kTcpServer, 2049, seq,
                                 markedCall(1, write), 1460);
  ASSERT_EQ(frames.size(), 2u);
  sniffer.onFrame(pkt(cfg.expiryScanInterval / 2, std::move(frames[0])));
  sniffer.onFrame(pkt(cfg.expiryScanInterval * 3 / 2, std::move(frames[1])));
  EXPECT_EQ(sniffer.stats().rpcCalls, 1u);
  double buffered = -1;
  for (const auto& [name, v] : registry.scrape().gauges) {
    if (name == "sniffer.tcp_buffered_bytes.s0") buffered = v;
  }
  EXPECT_EQ(buffered, 1460.0 - 4);  // the first segment, less its mark
}

// ---------------------------------------------------------------------------
// Pipeline overload shedding.

TEST(PipelineShedding, ProducerShedsInsteadOfDeadlocking) {
  ParallelPipeline::Config pc;
  pc.shards = 2;
  pc.frameRingCapacity = 8;
  pc.shedAfterStalls = 1;
  pc.heartbeatFrames = 1 << 20;
  std::uint64_t emitted = 0;
  ParallelPipeline pipe(pc, [&](const TraceRecord&) { ++emitted; });
  for (std::uint32_t i = 0; i < 20000; ++i) {
    CapturedPacket p =
        pkt(100 * static_cast<MicroTime>(i),
            udpCallFrame(makeIp(10, 1, 0, 2 + (i % 8)), 1 + i));
    pipe.onFrame(p);
  }
  pipe.finish();
  // The staged batches (256 frames) dwarf the ring (8 slots), so shedding
  // must have engaged; the books must still balance exactly.
  EXPECT_GT(pipe.framesShed(), 0u);
  EXPECT_EQ(pipe.stats().framesSeen + pipe.framesShed(),
            pipe.framesDispatched());
  EXPECT_GT(emitted, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: the fault sequence is independent of sharding.

/// Collects raw frames off the simulation tap for later replay.
struct FrameCollector : FrameSink {
  std::vector<CapturedPacket> frames;
  void onFrame(const CapturedPacket& p) override { frames.push_back(p); }
};

std::vector<CapturedPacket> simulatedCapture() {
  SimEnvironment::Config cfg;
  cfg.clientHosts = 4;
  cfg.hostVersions = {3, 3, 2, 2};
  cfg.useTcp = true;
  cfg.mtu = kJumboMtu;
  SimEnvironment env(cfg);
  FrameCollector collector;
  env.addTapSink(&collector);
  for (int host = 0; host < 4; ++host) {
    env.fs().mkfile("/home/u" + std::to_string(host) + "/inbox",
                    40 * 1024 + host * 7777, 100 + host, 100, 0);
  }
  MicroTime now = seconds(1);
  for (int host = 0; host < 4; ++host) {
    NfsClient& c = env.client(host);
    c.setIdentity(100 + static_cast<std::uint32_t>(host), 100);
    std::string dir = "/home/u" + std::to_string(host);
    auto dirFh = *c.lookupPath(now, dir);
    auto fh = *c.lookupPath(now, dir + "/inbox");
    c.readFile(now, fh);
    c.append(now, fh, 4096, true);
    c.readdir(now, dirFh);
    now += seconds(2);
  }
  return collector.frames;
}

std::string renderAll(const std::vector<TraceRecord>& recs) {
  std::string out;
  for (const auto& r : recs) {
    appendRecord(out, r);
    out.push_back('\n');
  }
  return out;
}

TEST(ChaosDeterminism, ShardedChaosMatchesSerialChaosByteForByte) {
  auto frames = simulatedCapture();
  ASSERT_GT(frames.size(), 50u);
  FaultPlan plan = lossyPlan();

  std::vector<TraceRecord> serial;
  Sniffer snifferSerial({}, [&](const TraceRecord& r) { serial.push_back(r); });
  FaultySink faultySerial(plan, snifferSerial);
  for (const auto& f : frames) faultySerial.onFrame(f);
  faultySerial.flush();
  snifferSerial.flush();
  std::string serialBytes = renderAll(serial);
  ASSERT_FALSE(serial.empty());

  for (int shards : {1, 3}) {
    std::vector<TraceRecord> merged;
    ParallelPipeline::Config pc;
    pc.shards = shards;
    ParallelPipeline pipe(pc, [&](const TraceRecord& r) {
      merged.push_back(r);
    });
    FaultySink faulty(plan, pipe);
    for (const auto& f : frames) faulty.onFrame(f);
    faulty.flush();
    pipe.finish();
    // The FaultySink sits on the producer thread, upstream of sharding:
    // identical decision stream, identical merged trace.
    EXPECT_EQ(faulty.decisionDigest(), faultySerial.decisionDigest())
        << "shards=" << shards;
    EXPECT_EQ(renderAll(merged), serialBytes) << "shards=" << shards;
  }
}

// ---------------------------------------------------------------------------
// Degradation visibility: metrics and alerts.

TEST(DegradationVisibility, MirrorPortPublishesDropMetrics) {
  obs::Registry registry;
  CollectSink sink;
  MirrorPort::Config mc;
  mc.bandwidthBitsPerSec = 1e6;  // slow port, tiny buffer: must drop
  mc.bufferBytes = 2000;
  MirrorPort mirror(mc, sink);
  mirror.attachMetrics(registry);
  for (int i = 0; i < 50; ++i) {
    mirror.onFrame(pkt(0, std::vector<std::uint8_t>(1000, 0x55)));
  }
  ASSERT_GT(mirror.dropped(), 0u);
  auto snap = registry.scrape();
  std::uint64_t fwd = 0, drp = 0;
  for (const auto& [name, v] : snap.counters) {
    if (name == "netcap.mirror_forwarded") fwd = v;
    if (name == "netcap.mirror_dropped") drp = v;
  }
  EXPECT_EQ(fwd, mirror.forwarded());
  EXPECT_EQ(drp, mirror.dropped());
  EXPECT_EQ(fwd + drp, 50u);
}

TEST(DegradationVisibility, ExporterRendersDegradedLineForAlertCounters) {
  obs::Registry registry;
  auto healthy = registry.counterHandle("sniffer.frames", 0);
  auto evicted = registry.counterHandle("sniffer.evicted_calls", 0);
  healthy.inc(1000);
  std::vector<std::string> alerts = {"sniffer.evicted_calls",
                                     "pipeline.frames_shed"};

  EXPECT_EQ(obs::SnapshotExporter::renderAlerts(registry.scrape(), alerts),
            "");  // all alert counters zero: healthy, no line

  evicted.inc(7);
  std::string line =
      obs::SnapshotExporter::renderAlerts(registry.scrape(), alerts);
  EXPECT_NE(line.find("DEGRADED:"), std::string::npos);
  EXPECT_NE(line.find("sniffer.evicted_calls=7"), std::string::npos);
  EXPECT_EQ(line.find("pipeline.frames_shed"), std::string::npos);
}

}  // namespace
}  // namespace nfstrace
