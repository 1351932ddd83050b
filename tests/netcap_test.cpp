#include <gtest/gtest.h>

#include <set>

#include "netcap/netcap.hpp"
#include "server/mountd.hpp"
#include "workload/eecs.hpp"
#include "workload/sim.hpp"

namespace nfstrace {
namespace {

// ----------------------------------------------------------- mirror port

class CountingSink : public FrameSink {
 public:
  void onFrame(const CapturedPacket& pkt) override {
    ++frames;
    bytes += pkt.data.size();
    lastTs = pkt.ts;
  }
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  MicroTime lastTs = 0;
};

CapturedPacket packet(MicroTime ts, std::size_t size) {
  CapturedPacket p;
  p.ts = ts;
  p.origLen = static_cast<std::uint32_t>(size);
  p.data.assign(size, 0xab);
  return p;
}

TEST(MirrorPort, ForwardsWhenIdle) {
  CountingSink sink;
  MirrorPort mirror({1e9, 64 * 1024}, sink);
  mirror.onFrame(packet(1000, 1500));
  EXPECT_EQ(mirror.forwarded(), 1u);
  EXPECT_EQ(mirror.dropped(), 0u);
  EXPECT_EQ(sink.frames, 1u);
  // Forwarded timestamp includes serialization delay (1500B at 1Gb/s = 12us).
  EXPECT_GE(sink.lastTs, 1000 + 12);
}

TEST(MirrorPort, DropsWhenBufferOverflows) {
  CountingSink sink;
  // Tiny 10 Mb/s port with a 32 KB buffer.
  MirrorPort mirror({10e6, 32 * 1024}, sink);
  // A burst of jumbo frames at the same instant cannot all fit.
  for (int i = 0; i < 20; ++i) mirror.onFrame(packet(1000, 9000));
  EXPECT_GT(mirror.dropped(), 0u);
  EXPECT_GT(mirror.dropRate(), 0.5);
}

TEST(MirrorPort, RecoversAfterQuietPeriod) {
  CountingSink sink;
  MirrorPort mirror({10e6, 32 * 1024}, sink);
  for (int i = 0; i < 20; ++i) mirror.onFrame(packet(1000, 9000));
  auto droppedBefore = mirror.dropped();
  // Much later, the backlog has drained; a lone frame passes.
  mirror.onFrame(packet(100 * kMicrosPerSecond, 9000));
  EXPECT_EQ(mirror.dropped(), droppedBefore);
}

TEST(MirrorPort, FastPortLosesNothing) {
  // The EECS configuration: monitor as fast as the server port.
  CountingSink sink;
  MirrorPort mirror({1e9, 1 << 20}, sink);
  MicroTime ts = 0;
  for (int i = 0; i < 1000; ++i) {
    mirror.onFrame(packet(ts, 1500));
    ts += 15;  // line-rate 1 Gb/s spacing
  }
  EXPECT_EQ(mirror.dropped(), 0u);
}

TEST(FrameTee, CopiesToAllSinks) {
  CountingSink a, b;
  FrameTee tee;
  tee.addSink(&a);
  tee.addSink(&b);
  tee.onFrame(packet(0, 100));
  EXPECT_EQ(a.frames, 1u);
  EXPECT_EQ(b.frames, 1u);
}

// ------------------------------------------------------------ transport

TEST(Transport, CallEmitsFramesBothDirections) {
  InMemoryFs fs{InMemoryFs::Config{}};
  fs.mkfile("/f", 100, 1, 1, 0);
  NfsServer server(fs);
  CountingSink sink;
  NfsTransport transport({}, server, &sink, 1);

  auto node = fs.resolve("/f");
  ASSERT_TRUE(node.has_value());
  auto outcome = transport.call(seconds(1), GetattrArgs{node->fh}, 1, 1);
  EXPECT_EQ(std::get<GetattrRes>(outcome.reply).status, NfsStat::Ok);
  EXPECT_GE(sink.frames, 2u);  // call + reply
  EXPECT_GT(outcome.replyTs, seconds(1));
}

TEST(Transport, XidsAreUnique) {
  InMemoryFs fs{InMemoryFs::Config{}};
  NfsServer server(fs);
  NfsTransport transport({}, server, nullptr, 1);
  std::set<std::uint32_t> xids;
  for (int i = 0; i < 100; ++i) {
    auto outcome = transport.call(seconds(1), NullArgs{}, 0, 0);
    EXPECT_TRUE(xids.insert(outcome.xid).second);
  }
}

TEST(Transport, UdpLargeReplyFragments) {
  InMemoryFs fs{InMemoryFs::Config{}};
  fs.mkfile("/f", 64 * 1024, 1, 1, 0);
  NfsServer server(fs);
  CountingSink sink;
  NfsTransport::Config tc;
  tc.useTcp = false;
  tc.mtu = kStandardMtu;
  NfsTransport transport(tc, server, &sink, 1);
  auto node = fs.resolve("/f");
  transport.call(seconds(1), ReadArgs{node->fh, 0, 8192}, 1, 1);
  // An 8 KB read reply cannot fit one 1500-byte frame.
  EXPECT_GE(sink.frames, 1u + 6u);
}

/// Every frame a simulation puts on the wire, in order.
struct FrameLog : FrameSink {
  std::vector<std::vector<std::uint8_t>> frames;
  void onFrame(const CapturedPacket& pkt) override {
    frames.push_back(pkt.data);
  }
};

std::vector<std::vector<std::uint8_t>> eecsFrames() {
  FrameLog log;
  SimEnvironment::Config simCfg;
  simCfg.fsConfig.fsid = 1;
  simCfg.clientHosts = 4;
  simCfg.useTcp = false;  // EECS clients use UDP: every frame has an IP id
  simCfg.mtu = kStandardMtu;
  SimEnvironment env(simCfg, [](const TraceRecord&) {});
  env.addTapSink(&log);
  EecsConfig cfg;
  cfg.users = 6;
  EecsWorkload wl(cfg, env);
  MicroTime start = days(1) + hours(10);
  wl.setup(start);
  wl.run(start, start + minutes(5));
  return std::move(log.frames);
}

TEST(Transport, SimulationFramesDoNotDependOnEarlierSimulations) {
  // The IP id is per transport, so a second simulation in the same
  // process puts exactly the same bytes on the wire as the first.
  auto first = eecsFrames();
  auto second = eecsFrames();
  ASSERT_GT(first.size(), 100u);
  EXPECT_TRUE(first == second);
}

// --------------------------------------------------------------- mountd

TEST(Mountd, MntResolvesExportedPath) {
  InMemoryFs fs{InMemoryFs::Config{}};
  fs.mkdirs("/export/home", 0, 0, 0);
  MountServer mountd(fs);
  mountd.addExport("/export/home");

  auto r = mountd.mnt("/export/home");
  EXPECT_EQ(r.status, MountStat::Ok);
  auto node = fs.resolve("/export/home");
  EXPECT_EQ(r.fh, node->fh);
  EXPECT_EQ(mountd.mountsServed(), 1u);
}

TEST(Mountd, UnexportedPathDenied) {
  InMemoryFs fs{InMemoryFs::Config{}};
  fs.mkdirs("/secret", 0, 0, 0);
  MountServer mountd(fs);
  mountd.addExport("/public");
  EXPECT_EQ(mountd.mnt("/secret").status, MountStat::ErrAcces);
}

TEST(Mountd, MissingPathIsNoEnt) {
  InMemoryFs fs{InMemoryFs::Config{}};
  MountServer mountd(fs);
  mountd.addExport("/gone");
  EXPECT_EQ(mountd.mnt("/gone").status, MountStat::ErrNoEnt);
}

TEST(Mountd, FileIsNotDir) {
  InMemoryFs fs{InMemoryFs::Config{}};
  fs.mkfile("/data.bin", 10, 0, 0, 0);
  MountServer mountd(fs);
  mountd.addExport("/data.bin");
  EXPECT_EQ(mountd.mnt("/data.bin").status, MountStat::ErrNotDir);
}

TEST(Mountd, WireMntRoundTrip) {
  InMemoryFs fs{InMemoryFs::Config{}};
  NfsServer server(fs);
  MountServer mountd(fs);
  mountd.addExport("/");
  NfsTransport transport({}, server, nullptr, 1, &mountd);
  MicroTime now = seconds(1);
  auto fh = transport.mount(now, "/", 0, 0);
  ASSERT_TRUE(fh.has_value());
  EXPECT_EQ(*fh, fs.rootHandle());
  EXPECT_GT(now, seconds(1));  // round trip took time
}

TEST(Mountd, WireMntFailureReturnsNullopt) {
  InMemoryFs fs{InMemoryFs::Config{}};
  NfsServer server(fs);
  MountServer mountd(fs);
  mountd.addExport("/only/this");
  NfsTransport transport({}, server, nullptr, 1, &mountd);
  MicroTime now = seconds(1);
  EXPECT_FALSE(transport.mount(now, "/other", 0, 0).has_value());
}

TEST(Mountd, ExportProcListsExports) {
  InMemoryFs fs{InMemoryFs::Config{}};
  MountServer mountd(fs);
  mountd.addExport("/a");
  mountd.addExport("/b");
  XdrEncoder empty;
  XdrDecoder dec(empty.bytes());
  XdrEncoder out;
  ASSERT_TRUE(mountd.handle(MountProc::Export, dec, out));
  XdrDecoder res(out.bytes());
  ASSERT_TRUE(res.getBool());
  EXPECT_EQ(res.getString(), "/a");
  EXPECT_FALSE(res.getBool());  // empty groups
  ASSERT_TRUE(res.getBool());
  EXPECT_EQ(res.getString(), "/b");
}

TEST(Mountd, MountTrafficDoesNotPolluteNfsTrace) {
  // The environment mounts over the wire at startup; the sniffer must not
  // count those replies as orphans or emit records for them.
  SimEnvironment::Config cfg;
  cfg.clientHosts = 2;
  SimEnvironment env(cfg);
  env.fs().mkfile("/f", 8192, 1, 1, 0);
  MicroTime now = seconds(1);
  auto fh = *env.client(0).lookupPath(now, "/f");
  env.client(0).readFile(now, fh);
  env.finishCapture();
  const auto& st = env.sniffer().stats();
  EXPECT_EQ(st.nonNfsCalls, 2u);  // one MNT per client host
  EXPECT_EQ(st.orphanReplies, 0u);
  for (const auto& r : env.records()) {
    EXPECT_NE(r.op, NfsOp::Unknown);
  }
}

}  // namespace
}  // namespace nfstrace
