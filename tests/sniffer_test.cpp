#include <gtest/gtest.h>

#include "workload/sim.hpp"

namespace nfstrace {
namespace {

// End-to-end: client ops -> frames -> sniffer -> trace records.
class SnifferE2E : public ::testing::TestWithParam<std::pair<int, bool>> {
 protected:
  SimEnvironment::Config config() {
    SimEnvironment::Config c;
    c.clientHosts = 1;
    c.nfsVers = static_cast<std::uint8_t>(GetParam().first);
    c.useTcp = GetParam().second;
    c.mtu = GetParam().second ? kJumboMtu : kStandardMtu;
    return c;
  }
};

TEST_P(SnifferE2E, ReadPipeline) {
  SimEnvironment env(config());
  env.fs().mkfile("/data/file.bin", 50 * 1024, 7, 7, 0);
  MicroTime now = seconds(5);
  NfsClient& c = env.client(0);
  auto fh = *c.lookupPath(now, "/data/file.bin");
  c.readFile(now, fh);
  env.finishCapture();

  auto& recs = env.records();
  ASSERT_FALSE(recs.empty());

  std::uint64_t lookups = 0, reads = 0, bytesRead = 0;
  for (const auto& r : recs) {
    EXPECT_TRUE(r.hasReply);
    EXPECT_EQ(r.status, NfsStat::Ok);
    EXPECT_EQ(r.vers, GetParam().first);
    EXPECT_EQ(r.overTcp, GetParam().second);
    if (r.op == NfsOp::Lookup) {
      ++lookups;
      EXPECT_TRUE(r.hasResFh);
      EXPECT_FALSE(r.name.empty());
    }
    if (r.op == NfsOp::Read) {
      ++reads;
      bytesRead += r.retCount;
      EXPECT_TRUE(r.hasAttrs);
      EXPECT_EQ(r.fileSize, 50 * 1024u);
    }
  }
  EXPECT_EQ(lookups, 2u);  // data, file.bin
  EXPECT_EQ(reads, (50 * 1024 + 8191) / 8192);
  EXPECT_EQ(bytesRead, 50 * 1024u);
  EXPECT_EQ(env.sniffer().stats().orphanReplies, 0u);
}

TEST_P(SnifferE2E, WriteAndUidCapture) {
  SimEnvironment env(config());
  env.fs().mkfile("/data/out.bin", 0, 7, 7, 0);
  MicroTime now = seconds(5);
  NfsClient& c = env.client(0);
  c.setIdentity(4242, 99);
  auto fh = *c.lookupPath(now, "/data/out.bin");
  c.writeRange(now, fh, 0, 20000);
  env.finishCapture();

  bool sawWrite = false;
  for (const auto& r : env.records()) {
    EXPECT_EQ(r.uid, 4242u);  // decoded from AUTH_UNIX
    EXPECT_EQ(r.gid, 99u);
    if (r.op == NfsOp::Write) {
      sawWrite = true;
      EXPECT_EQ(r.retCount, r.count);
      // v3 writes carry wcc pre-op attributes; v2 has no equivalent.
      EXPECT_EQ(r.hasPre, GetParam().first == 3);
    }
  }
  EXPECT_TRUE(sawWrite);
}

INSTANTIATE_TEST_SUITE_P(
    Versions, SnifferE2E,
    ::testing::Values(std::pair{3, true},    // CAMPUS: v3/TCP jumbo
                      std::pair{3, false},   // v3/UDP with fragmentation
                      std::pair{2, false}),  // EECS-style v2/UDP
    [](const auto& info) {
      return "v" + std::to_string(info.param.first) +
             (info.param.second ? "_tcp" : "_udp");
    });

TEST(SnifferE2E, V2WriteHasNoPre) {
  SimEnvironment::Config cfg;
  cfg.clientHosts = 1;
  cfg.nfsVers = 2;
  cfg.useTcp = false;
  cfg.mtu = kStandardMtu;
  SimEnvironment env(cfg);
  env.fs().mkfile("/f", 0, 1, 1, 0);
  MicroTime now = seconds(1);
  auto fh = *env.client(0).lookupPath(now, "/f");
  env.client(0).writeRange(now, fh, 0, 8192);
  env.finishCapture();
  for (const auto& r : env.records()) {
    if (r.op == NfsOp::Write) {
      EXPECT_FALSE(r.hasPre);
    }
  }
}

TEST(Sniffer, MirrorPortLossProducesOrphans) {
  SimEnvironment::Config cfg;
  cfg.clientHosts = 1;
  cfg.useMirror = true;
  // Starve the mirror so bursts overflow it.
  cfg.mirrorConfig.bandwidthBitsPerSec = 20e6;
  cfg.mirrorConfig.bufferBytes = 16 * 1024;
  SimEnvironment env(cfg);
  env.fs().mkfile("/big", 4 << 20, 1, 1, 0);
  MicroTime now = seconds(1);
  NfsClient& c = env.client(0);
  auto fh = *c.lookupPath(now, "/big");
  c.readFile(now, fh);
  env.finishCapture();

  ASSERT_NE(env.mirror(), nullptr);
  EXPECT_GT(env.mirror()->dropped(), 0u);
  const auto& st = env.sniffer().stats();
  // Losing calls produces orphan replies; losing replies produces
  // reply-less records.  Under heavy loss we must see at least one.
  EXPECT_GT(st.orphanReplies + st.expiredCalls + st.flushedCalls, 0u);
  // And the extracted trace must be smaller than the lossless op count.
  EXPECT_LT(env.records().size(), env.server().totalCalls());
}

TEST(Sniffer, LosslessTapSeesEverything) {
  SimEnvironment::Config cfg;
  cfg.clientHosts = 1;
  SimEnvironment env(cfg);
  env.fs().mkfile("/big", 1 << 20, 1, 1, 0);
  MicroTime now = seconds(1);
  NfsClient& c = env.client(0);
  auto fh = *c.lookupPath(now, "/big");
  c.readFile(now, fh);
  env.finishCapture();
  EXPECT_EQ(env.records().size(), env.server().totalCalls());
  EXPECT_EQ(env.sniffer().stats().orphanReplies, 0u);
  EXPECT_EQ(env.sniffer().stats().expiredCalls, 0u);
}

TEST(Sniffer, MultipleClientsDistinguishedByIp) {
  SimEnvironment::Config cfg;
  cfg.clientHosts = 2;
  SimEnvironment env(cfg);
  env.fs().mkfile("/f", 8192, 1, 1, 0);
  MicroTime now = seconds(1);
  auto fh0 = *env.client(0).lookupPath(now, "/f");
  env.client(0).readFile(now, fh0);
  auto fh1 = *env.client(1).lookupPath(now, "/f");
  env.client(1).readFile(now, fh1);
  env.finishCapture();

  std::set<IpAddr> clients;
  for (const auto& r : env.records()) clients.insert(r.client);
  EXPECT_EQ(clients.size(), 2u);
}

TEST(Sniffer, IgnoresNonNfsTraffic) {
  Sniffer sniffer({}, [](const TraceRecord&) { FAIL(); });
  // A UDP frame on an unrelated port.
  auto frame = buildUdpFrame(makeIp(1, 1, 1, 1), 53, makeIp(2, 2, 2, 2), 53,
                             std::vector<std::uint8_t>(64, 0));
  CapturedPacket pkt;
  pkt.ts = 0;
  pkt.data = frame;
  sniffer.onFrame(pkt);
  EXPECT_EQ(sniffer.stats().rpcCalls, 0u);
}

TEST(Sniffer, FlushEmitsPendingCalls) {
  std::vector<TraceRecord> out;
  Sniffer sniffer({}, [&](const TraceRecord& r) { out.push_back(r); });

  // Encode a lone NFS call with no reply.
  XdrEncoder enc;
  AuthUnix cred;
  cred.uid = 1;
  cred.gid = 1;
  encodeRpcCall(enc, 0x1234, kNfsProgram, 3,
                static_cast<std::uint32_t>(Proc3::Getattr), cred);
  encodeCall3(enc, GetattrArgs{FileHandle::make(1, 5, 1)});
  auto frame = buildUdpFrame(makeIp(1, 1, 1, 1), 900, makeIp(2, 2, 2, 2),
                             2049, enc.bytes());
  CapturedPacket pkt;
  pkt.ts = 77;
  pkt.data = frame;
  sniffer.onFrame(pkt);
  EXPECT_TRUE(out.empty());
  sniffer.flush();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].hasReply);
  EXPECT_EQ(out[0].op, NfsOp::Getattr);
  EXPECT_EQ(out[0].xid, 0x1234u);
}

TEST(Sniffer, ExpiryFollowsCallTimeWhenFramesGoBackInTime) {
  // Frame timestamps that go backwards (a merged or reordered capture):
  // the earlier-stamped calls sit on the expiry queue's heap side, yet
  // every scan expires exactly the calls older than the timeout.
  std::vector<TraceRecord> out;
  Sniffer::Config cfg;
  cfg.pendingTimeout = seconds(5);
  Sniffer sniffer(cfg, [&](const TraceRecord& r) { out.push_back(r); });
  auto call = [&](std::uint32_t xid, MicroTime ts) {
    XdrEncoder enc;
    AuthUnix cred;
    encodeRpcCall(enc, xid, kNfsProgram, 3,
                  static_cast<std::uint32_t>(Proc3::Getattr), cred);
    encodeCall3(enc, GetattrArgs{FileHandle::make(1, 5, 1)});
    CapturedPacket pkt;
    pkt.ts = ts;
    pkt.data = buildUdpFrame(makeIp(1, 1, 1, 1), 900, makeIp(2, 2, 2, 2),
                             2049, enc.bytes());
    sniffer.onFrame(pkt);
  };
  auto xidsOut = [&] {
    std::vector<std::uint32_t> xids;
    for (const TraceRecord& r : out) xids.push_back(r.xid);
    return xids;
  };
  // The expiry scan runs when a frame's time crosses a whole second past
  // the last scan.  Calls 2, 3 and 5 are stamped before a call already
  // queued, so they wait on the queue's heap side.
  call(1, seconds(20));
  call(2, seconds(12));
  call(3, seconds(8));
  call(4, seconds(20) + 500'000);
  call(5, seconds(14) + 500'000);
  EXPECT_TRUE(out.empty());
  // The scan at 21 s: calls 2, 3 and 5 are more than 5 s old, 1 and 4
  // are not.
  call(6, seconds(21));
  EXPECT_EQ(xidsOut(), (std::vector<std::uint32_t>{2, 3, 5}));
  // The scan at 26 s: calls 1 and 4; call 6 is exactly 5 s old.
  call(7, seconds(26));
  EXPECT_EQ(xidsOut(), (std::vector<std::uint32_t>{2, 3, 5, 1, 4}));
  EXPECT_EQ(sniffer.stats().expiredCalls, 5u);
  for (const TraceRecord& r : out) EXPECT_FALSE(r.hasReply);
  sniffer.flush();
  EXPECT_EQ(xidsOut(), (std::vector<std::uint32_t>{2, 3, 5, 1, 4, 6, 7}));
}

TEST(Sniffer, TcpRecordInOneSegmentIsAViewIntoTheFrame) {
  // The TCP path copies nothing for a record that fits its segment: the
  // reassembler and the record reader hand the decoder a view that lies
  // inside the frame's own bytes.
  std::vector<std::uint8_t> body(300, 0x5a);
  std::uint32_t seq = 1;
  auto frames = segmentTcpStream(makeIp(10, 1, 0, 2), 1023,
                                 makeIp(10, 0, 0, 1), 2049, seq,
                                 recordMark(body), 1460);
  ASSERT_EQ(frames.size(), 1u);
  const std::vector<std::uint8_t>& frame = frames[0];
  auto parsed = parseFrame(frame);
  ASSERT_TRUE(parsed.has_value());
  TcpReassembler reasm;
  RecordMarkReader reader;
  auto bytes = reasm.feed(parsed->tcpSeq, parsed->payload, false);
  std::span<const std::uint8_t> got;
  ASSERT_TRUE(
      reader.feed(bytes, [&](std::span<const std::uint8_t> b) { got = b; }));
  ASSERT_EQ(got.size(), body.size());
  const auto begin = reinterpret_cast<std::uintptr_t>(frame.data());
  const auto at = reinterpret_cast<std::uintptr_t>(got.data());
  EXPECT_GE(at, begin);
  EXPECT_LE(at + got.size(), begin + frame.size());
}

TEST(Sniffer, PcapRoundTrip) {
  // Record frames to a pcap file, then extract the trace offline — the
  // capture_to_trace tool path.
  std::string path = "/tmp/sniffer_pcap_test.pcap";
  {
    SimEnvironment::Config cfg;
    cfg.clientHosts = 1;
    SimEnvironment env(cfg);

    // Tee frames into a pcap file via a small adapter.
    struct PcapSink : FrameSink {
      PcapWriter writer{"/tmp/sniffer_pcap_test.pcap"};
      void onFrame(const CapturedPacket& pkt) override { writer.write(pkt); }
    };
    // Rebuild environment manually: use fs/server/transport directly.
    InMemoryFs fs{InMemoryFs::Config{}};
    fs.mkfile("/f", 30000, 1, 1, 0);
    NfsServer server(fs);
    PcapSink sink;
    NfsTransport::Config tc;
    NfsTransport transport(tc, server, &sink, 1);
    NfsClient::Config cc;
    NfsClient client(cc, transport, 2);
    client.setRootHandle(fs.rootHandle());
    MicroTime now = seconds(1);
    auto fh = *client.lookupPath(now, "/f");
    client.readFile(now, fh);
  }
  Sniffer::Stats stats;
  auto records = sniffPcap(path, &stats);
  EXPECT_GT(records.size(), 4u);
  EXPECT_EQ(stats.orphanReplies, 0u);
  std::uint64_t reads = 0;
  for (const auto& r : records) {
    if (r.op == NfsOp::Read) ++reads;
  }
  EXPECT_EQ(reads, 4u);  // ceil(30000/8192)
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nfstrace
