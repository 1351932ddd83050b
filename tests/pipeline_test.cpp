// The parallel pipeline's contract is brutal: for any shard count, the
// merged record stream must be byte-identical to what one serial Sniffer
// emits over the same capture — including records born from call expiry
// and end-of-capture flush.  These tests hold it to that, and exercise
// the SPSC ring with real producer/consumer threads (run them under the
// `tsan` preset; they carry the ctest label for it).
#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "pipeline/partition.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/spsc_ring.hpp"
#include "trace/tracefile.hpp"
#include "workload/eecs.hpp"
#include "workload/sim.hpp"

namespace nfstrace {
namespace {

TEST(SpscRing, SingleThreadedWrapAround) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  int out = 0;
  EXPECT_FALSE(ring.tryPop(out));
  // Cycle several times around the ring so the cursors wrap.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 4; ++i) {
      int v = round * 10 + i;
      EXPECT_TRUE(ring.tryPush(v));
    }
    int overflow = 99;
    EXPECT_FALSE(ring.tryPush(overflow));  // full
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(ring.tryPop(out));
      EXPECT_EQ(out, round * 10 + i);
    }
    EXPECT_FALSE(ring.tryPop(out));  // empty again
  }
}

TEST(SpscRing, BatchedPushPop) {
  SpscRing<std::uint64_t> ring(8);
  std::vector<std::uint64_t> in(13);
  std::iota(in.begin(), in.end(), 0);
  // Only 8 fit.
  EXPECT_EQ(ring.tryPushBatch(std::span<std::uint64_t>(in)), 8u);
  std::vector<std::uint64_t> out;
  EXPECT_EQ(ring.tryPopBatch(out, 5), 5u);
  EXPECT_EQ(ring.tryPopBatch(out, 100), 3u);
  ASSERT_EQ(out.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], i);
}

TEST(SpscRing, ProducerConsumerThreadsPreserveOrder) {
  constexpr std::uint64_t kCount = 1'000'000;
  SpscRing<std::uint64_t> ring(1024);
  std::thread producer([&] {
    std::vector<std::uint64_t> batch;
    std::uint64_t next = 0;
    while (next < kCount) {
      batch.clear();
      for (int i = 0; i < 64 && next < kCount; ++i) batch.push_back(next++);
      std::span<std::uint64_t> rest(batch);
      while (!rest.empty()) {
        std::size_t pushed = ring.tryPushBatch(rest);
        rest = rest.subspan(pushed);
        if (!rest.empty()) std::this_thread::yield();
      }
    }
  });
  std::uint64_t expected = 0;
  std::vector<std::uint64_t> out;
  while (expected < kCount) {
    out.clear();
    if (ring.tryPopBatch(out, 128) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::uint64_t v : out) {
      ASSERT_EQ(v, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_EQ(expected, kCount);
}

TEST(Partition, FlowHashIsDirectionIndependent) {
  IpAddr a = makeIp(10, 1, 0, 7), b = makeIp(10, 0, 0, 1);
  EXPECT_EQ(flowHash(a, b), flowHash(b, a));
  EXPECT_NE(flowHash(a, b), flowHash(a, makeIp(10, 0, 0, 2)));
}

TEST(Partition, CallAndReplyFramesShareAShard) {
  // A call (client->server) and its reply (server->client) must land on
  // the same shard for every shard count, or XID pairing would break.
  auto call = buildUdpFrame(makeIp(10, 1, 0, 9), 1023, makeIp(10, 0, 0, 1),
                            2049, std::vector<std::uint8_t>(32, 1));
  auto reply = buildUdpFrame(makeIp(10, 0, 0, 1), 2049, makeIp(10, 1, 0, 9),
                             1023, std::vector<std::uint8_t>(32, 2));
  CapturedPacket c, r;
  c.data = call;
  r.data = reply;
  for (int shards = 1; shards <= 9; ++shards) {
    EXPECT_EQ(shardOfFrame(c, shards), shardOfFrame(r, shards)) << shards;
  }
}

TEST(Partition, ClientsSpreadAcrossShards) {
  std::set<int> used;
  for (int host = 0; host < 64; ++host) {
    auto f = buildUdpFrame(makeIp(10, 1, 0, host), 1023, makeIp(10, 0, 0, 1),
                           2049, std::vector<std::uint8_t>(16, 0));
    CapturedPacket p;
    p.data = f;
    used.insert(shardOfFrame(p, 4));
  }
  // 64 distinct clients into 4 shards: every shard should see traffic.
  EXPECT_EQ(used.size(), 4u);
}

/// Collects raw frames off the simulation tap for later replay.
struct FrameCollector : FrameSink {
  std::vector<CapturedPacket> frames;
  void onFrame(const CapturedPacket& pkt) override { frames.push_back(pkt); }
};

std::string renderAll(const std::vector<TraceRecord>& recs) {
  std::string out;
  for (const auto& r : recs) {
    appendRecord(out, r);
    out.push_back('\n');
  }
  return out;
}

/// Serial reference: one Sniffer over the frames, records in emission
/// order (exactly what the pipeline promises to reproduce).
std::vector<TraceRecord> runSerial(const std::vector<CapturedPacket>& frames,
                                   Sniffer::Config cfg,
                                   Sniffer::Stats* stats = nullptr) {
  std::vector<TraceRecord> out;
  Sniffer sniffer(cfg, [&](const TraceRecord& r) { out.push_back(r); });
  for (const auto& f : frames) sniffer.onFrame(f);
  sniffer.flush();
  if (stats) *stats = sniffer.stats();
  return out;
}

std::vector<TraceRecord> runSharded(const std::vector<CapturedPacket>& frames,
                                    int shards, Sniffer::Config cfg,
                                    Sniffer::Stats* stats = nullptr,
                                    bool copyPath = false) {
  std::vector<TraceRecord> out;
  ParallelPipeline::Config pc;
  pc.shards = shards;
  pc.sniffer = cfg;
  pc.heartbeatFrames = 512;  // exercise heartbeats in small captures
  ParallelPipeline pipe(pc, [&](const TraceRecord& r) { out.push_back(r); });
  for (const auto& f : frames) {
    if (copyPath) {
      pipe.onFrame(f);
    } else {
      pipe.feed(&f);
    }
  }
  pipe.finish();
  if (stats) *stats = pipe.stats();
  return out;
}

std::vector<CapturedPacket> simulatedCapture() {
  SimEnvironment::Config cfg;
  cfg.clientHosts = 4;
  // Mixed protocol versions and transports stress every decode path:
  // hosts 0-1 run v3, host 2-3 run v2; TCP on jumbo frames.
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
    c.getattr(now, fh, true);
    auto lock = c.create(now, dirFh, ".lock", true);
    if (lock) c.remove(now, dirFh, ".lock");
    now += seconds(2);
  }
  return collector.frames;
}

/// A short EECS capture (UDP; NFSv2 and v3 hosts) replayed through a
/// span port too narrow for its bursts, 40 Mbit/s behind a 64 KB buffer.
/// Frames drop as on the paper's CAMPUS mirror (§4.1.4), leaving replies
/// whose calls were lost and calls that never see a reply.  The drops
/// come from buffer overflow, not an RNG, so every run drops the same.
std::vector<CapturedPacket> lossyEecsCapture(std::uint64_t* dropped) {
  SimEnvironment::Config cfg;
  cfg.fsConfig.fsid = 1;
  cfg.clientHosts = 8;
  cfg.hostVersions = {3, 3, 3, 3, 3, 3, 2, 2};
  cfg.useTcp = false;
  cfg.mtu = kStandardMtu;
  cfg.seed = 4004;
  SimEnvironment env(cfg, [](const TraceRecord&) {});
  FrameCollector collector;
  MirrorPort::Config mc;
  mc.bandwidthBitsPerSec = 40e6;
  mc.bufferBytes = 64 * 1024;
  MirrorPort mirror(mc, collector);
  env.addTapSink(&mirror);
  EecsConfig wl;
  wl.users = 6;
  wl.seed = 4005;
  EecsWorkload workload(wl, env);
  MicroTime start = days(1) + hours(10);
  workload.setup(start);
  workload.run(start, start + minutes(20));
  env.finishCapture();
  *dropped = mirror.dropped();
  return collector.frames;
}

/// Every shard count must render the serial run's bytes and count the
/// same frames, calls, replies and losses.  Returns the serial stats.
Sniffer::Stats expectShardsMatchSerial(
    const std::vector<CapturedPacket>& frames) {
  Sniffer::Config cfg;
  Sniffer::Stats serialStats;
  auto serial = runSerial(frames, cfg, &serialStats);
  EXPECT_FALSE(serial.empty());
  std::string serialBytes = renderAll(serial);

  for (int shards : {1, 2, 3, 4, 8}) {
    Sniffer::Stats stats;
    auto merged = runSharded(frames, shards, cfg, &stats);
    EXPECT_EQ(renderAll(merged), serialBytes) << "shards=" << shards;
    EXPECT_EQ(stats.framesSeen, serialStats.framesSeen);
    EXPECT_EQ(stats.rpcCalls, serialStats.rpcCalls);
    EXPECT_EQ(stats.rpcReplies, serialStats.rpcReplies);
    EXPECT_EQ(stats.orphanReplies, serialStats.orphanReplies);
    EXPECT_EQ(stats.expiredCalls, serialStats.expiredCalls);
    EXPECT_EQ(stats.flushedCalls, serialStats.flushedCalls);
    EXPECT_EQ(stats.nonNfsCalls, serialStats.nonNfsCalls);
  }
  return serialStats;
}

TEST(PipelineDeterminism, ShardedOutputMatchesSerialBytes) {
  auto frames = simulatedCapture();
  ASSERT_GT(frames.size(), 100u);
  {
    SCOPED_TRACE("lossless TCP capture");
    expectShardsMatchSerial(frames);
  }

  std::uint64_t dropped = 0;
  auto lossy = lossyEecsCapture(&dropped);
  ASSERT_GT(lossy.size(), 100u);
  EXPECT_GT(dropped, 0u) << "the mirror port dropped no frames";
  SCOPED_TRACE("lossy mirror-port EECS capture");
  Sniffer::Stats st = expectShardsMatchSerial(lossy);
  EXPECT_GT(st.orphanReplies + st.expiredCalls + st.flushedCalls, 0u)
      << "no orphan reply or reply-less call: the input is not lossy";
}

TEST(PipelineDeterminism, CopyingFramePathMatchesToo) {
  auto frames = simulatedCapture();
  Sniffer::Config cfg;
  auto serial = renderAll(runSerial(frames, cfg));
  auto merged = renderAll(runSharded(frames, 3, cfg, nullptr,
                                     /*copyPath=*/true));
  EXPECT_EQ(merged, serial);
}

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

TEST(PipelineDeterminism, ExpiredCallsEmergeIdentically) {
  // Calls that never get replies must expire at the same points and in
  // the same order for every shard layout: expiry in one shard is
  // triggered by the broadcast time ticks, not by that shard's frames.
  Sniffer::Config cfg;
  cfg.pendingTimeout = seconds(5);
  std::vector<CapturedPacket> frames;
  std::uint32_t xid = 1;
  for (int burst = 0; burst < 6; ++burst) {
    for (int host = 0; host < 8; ++host) {
      CapturedPacket p;
      p.ts = seconds(burst * 3) + host * 100;
      p.data = udpCallFrame(makeIp(10, 1, 0, 10 + host), xid++);
      p.origLen = static_cast<std::uint32_t>(p.data.size());
      frames.push_back(std::move(p));
    }
  }
  Sniffer::Stats serialStats;
  auto serialBytes = renderAll(runSerial(frames, cfg, &serialStats));
  EXPECT_GT(serialStats.expiredCalls, 0u);

  for (int shards : {1, 2, 4, 5}) {
    Sniffer::Stats stats;
    auto merged = renderAll(runSharded(frames, shards, cfg, &stats));
    EXPECT_EQ(merged, serialBytes) << "shards=" << shards;
    EXPECT_EQ(stats.expiredCalls, serialStats.expiredCalls);
  }
}

}  // namespace
}  // namespace nfstrace
