#include <gtest/gtest.h>

#include "net/packet.hpp"

namespace nfstrace {
namespace {

std::vector<std::uint8_t> payloadOf(std::size_t n, std::uint8_t seed = 0) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(seed + i);
  }
  return p;
}

TEST(Ip, StringConversions) {
  IpAddr ip = makeIp(10, 1, 2, 3);
  EXPECT_EQ(ipToString(ip), "10.1.2.3");
}

TEST(Checksum, KnownVector) {
  // RFC 1071 example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  std::vector<std::uint8_t> data{0x00, 0x01, 0xf2, 0x03,
                                 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internetChecksum(data), 0x220d);
}

TEST(Checksum, OddLength) {
  std::vector<std::uint8_t> data{0xab};
  // 0xab00 summed; complement.
  EXPECT_EQ(internetChecksum(data), static_cast<std::uint16_t>(~0xab00));
}

TEST(Udp, BuildParseRoundTrip) {
  auto payload = payloadOf(100);
  auto frame = buildUdpFrame(makeIp(10, 0, 0, 1), 1023, makeIp(10, 0, 0, 2),
                             2049, payload);
  auto parsed = parseFrame(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->proto, IpProto::Udp);
  EXPECT_EQ(parsed->src, makeIp(10, 0, 0, 1));
  EXPECT_EQ(parsed->dst, makeIp(10, 0, 0, 2));
  EXPECT_EQ(parsed->srcPort, 1023);
  EXPECT_EQ(parsed->dstPort, 2049);
  EXPECT_FALSE(parsed->isFragment());
  ASSERT_EQ(parsed->payload.size(), payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         parsed->payload.begin()));
}

TEST(Udp, IpHeaderChecksumValid) {
  auto frame = buildUdpFrame(makeIp(1, 2, 3, 4), 5, makeIp(6, 7, 8, 9), 10,
                             payloadOf(8));
  // Verify the IP header checksums to zero.
  std::span<const std::uint8_t> ipHdr(frame.data() + kEthHeaderLen, 20);
  EXPECT_EQ(internetChecksum(ipHdr), 0);
}

TEST(Udp, FragmentationRoundTrip) {
  // 8 KB NFS read over a 1500-byte segment: must fragment.
  auto payload = payloadOf(8192, 3);
  auto frames = buildUdpFrames(makeIp(10, 0, 0, 1), 1023, makeIp(10, 0, 0, 2),
                               2049, /*ipId=*/42, payload, kStandardMtu);
  ASSERT_GT(frames.size(), 1u);

  IpReassembler reasm;
  std::optional<std::vector<std::uint8_t>> result;
  for (const auto& f : frames) {
    auto parsed = parseFrame(f);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->isFragment());
    auto out = reasm.feed(*parsed, 0);
    if (out) result.emplace(out->begin(), out->end());
  }
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, payload);
}

TEST(Udp, FragmentsOutOfOrderStillReassemble) {
  auto payload = payloadOf(5000, 9);
  auto frames = buildUdpFrames(makeIp(1, 1, 1, 1), 7, makeIp(2, 2, 2, 2), 8,
                               7, payload, kStandardMtu);
  ASSERT_GE(frames.size(), 2u);
  std::swap(frames.front(), frames.back());
  IpReassembler reasm;
  std::optional<std::vector<std::uint8_t>> result;
  for (const auto& f : frames) {
    auto parsed = parseFrame(f);
    ASSERT_TRUE(parsed);
    if (auto out = reasm.feed(*parsed, 0)) result.emplace(out->begin(), out->end());
  }
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, payload);
}

TEST(Udp, LostFragmentLosesDatagram) {
  auto payload = payloadOf(8000);
  auto frames = buildUdpFrames(makeIp(1, 1, 1, 1), 7, makeIp(2, 2, 2, 2), 8,
                               9, payload, kStandardMtu);
  ASSERT_GE(frames.size(), 3u);
  frames.erase(frames.begin() + 1);  // drop a middle fragment
  IpReassembler reasm;
  for (const auto& f : frames) {
    auto parsed = parseFrame(f);
    ASSERT_TRUE(parsed);
    EXPECT_FALSE(reasm.feed(*parsed, 0).has_value());
  }
}

TEST(Udp, ReassemblyTimeoutExpiresState) {
  auto payload = payloadOf(4000);
  auto frames = buildUdpFrames(makeIp(1, 1, 1, 1), 7, makeIp(2, 2, 2, 2), 8,
                               11, payload, kStandardMtu);
  IpReassembler reasm(/*timeoutUs=*/1000);
  auto p0 = parseFrame(frames[0]);
  reasm.feed(*p0, 0);
  // A much later unrelated fragment triggers expiry of the stale state.
  auto frames2 = buildUdpFrames(makeIp(1, 1, 1, 1), 7, makeIp(2, 2, 2, 2), 8,
                                12, payload, kStandardMtu);
  auto p1 = parseFrame(frames2[0]);
  reasm.feed(*p1, 10'000'000);
  EXPECT_GE(reasm.expired(), 1u);
}

TEST(Udp, JumboFrameNoFragmentation) {
  auto payload = payloadOf(8192);
  auto frames = buildUdpFrames(makeIp(1, 1, 1, 1), 7, makeIp(2, 2, 2, 2), 8,
                               1, payload, kJumboMtu);
  EXPECT_EQ(frames.size(), 1u);
  auto parsed = parseFrame(frames[0]);
  ASSERT_TRUE(parsed);
  EXPECT_FALSE(parsed->isFragment());
  EXPECT_EQ(parsed->payload.size(), payload.size());
}

TEST(Tcp, BuildParseRoundTrip) {
  auto payload = payloadOf(500);
  auto frame = buildTcpFrame(makeIp(10, 0, 0, 1), 1023, makeIp(10, 0, 0, 2),
                             2049, 1000, 2000, false, false, true, payload);
  auto parsed = parseFrame(frame);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->proto, IpProto::Tcp);
  EXPECT_EQ(parsed->tcpSeq, 1000u);
  EXPECT_EQ(parsed->tcpAck, 2000u);
  EXPECT_TRUE(parsed->tcpAckFlag);
  EXPECT_FALSE(parsed->tcpSyn);
  EXPECT_EQ(parsed->payload.size(), 500u);
}

TEST(Tcp, FlagsParse) {
  auto syn = buildTcpFrame(1, 2, 3, 4, 0, 0, true, false, false, {});
  auto fin = buildTcpFrame(1, 2, 3, 4, 0, 0, false, true, true, {});
  EXPECT_TRUE(parseFrame(syn)->tcpSyn);
  EXPECT_TRUE(parseFrame(fin)->tcpFin);
}

TEST(Tcp, SegmentationAdvancesSeq) {
  auto data = payloadOf(10'000);
  std::uint32_t seq = 100;
  auto frames = segmentTcpStream(1, 2, 3, 4, seq, data, 1460);
  EXPECT_EQ(frames.size(), 7u);  // ceil(10000/1460)
  EXPECT_EQ(seq, 100u + 10'000u);
  EXPECT_EQ(parseFrame(frames[0])->tcpSeq, 100u);
  EXPECT_EQ(parseFrame(frames[1])->tcpSeq, 1560u);
}

TEST(Tcp, ReassemblerInOrder) {
  TcpReassembler r;
  auto out1 = r.feed(0, payloadOf(10, 1), false);
  EXPECT_EQ(out1.size(), 10u);
  auto out2 = r.feed(10, payloadOf(5, 11), false);
  EXPECT_EQ(out2.size(), 5u);
  EXPECT_EQ(r.bytesDelivered(), 15u);
}

TEST(Tcp, ReassemblerBuffersOutOfOrder) {
  TcpReassembler r;
  r.feed(0, payloadOf(4, 0), false);
  auto gap = r.feed(8, payloadOf(4, 8), false);  // leaves hole [4,8)
  EXPECT_TRUE(gap.empty());
  EXPECT_TRUE(r.hasGap());
  auto out = r.feed(4, payloadOf(4, 4), false);  // fills the hole
  EXPECT_EQ(out.size(), 8u);
  EXPECT_EQ(out[0], 4);
  EXPECT_EQ(out[4], 8);
  EXPECT_FALSE(r.hasGap());
}

TEST(Tcp, ReassemblerDiscardsRetransmission) {
  TcpReassembler r;
  r.feed(0, payloadOf(10), false);
  auto dup = r.feed(0, payloadOf(10), false);
  EXPECT_TRUE(dup.empty());
  // Partial overlap: only the new tail comes out.
  auto tail = r.feed(5, payloadOf(10, 5), false);
  EXPECT_EQ(tail.size(), 5u);
}

TEST(Tcp, SynInitializesSequence) {
  TcpReassembler r;
  r.feed(999, {}, /*syn=*/true);
  auto out = r.feed(1000, payloadOf(3), false);
  EXPECT_EQ(out.size(), 3u);
}

TEST(Tcp, ResyncAfterLoss) {
  TcpReassembler r;
  r.feed(0, payloadOf(10), false);
  r.feed(100, payloadOf(10), false);  // big gap (dropped segments)
  EXPECT_TRUE(r.hasGap());
  EXPECT_TRUE(r.resyncTo(110));
  auto out = r.feed(110, payloadOf(4), false);
  EXPECT_EQ(out.size(), 4u);
}

TEST(ParseFrame, RejectsGarbage) {
  EXPECT_FALSE(parseFrame(payloadOf(10)).has_value());
  EXPECT_FALSE(parseFrame({}).has_value());
  // Valid Ethernet but non-IP ethertype.
  std::vector<std::uint8_t> arp(60, 0);
  arp[12] = 0x08;
  arp[13] = 0x06;
  EXPECT_FALSE(parseFrame(arp).has_value());
}

TEST(ParseFrame, RejectsTruncatedIp) {
  auto frame = buildUdpFrame(1, 2, 3, 4, payloadOf(100));
  frame.resize(kEthHeaderLen + 10);
  EXPECT_FALSE(parseFrame(frame).has_value());
}

}  // namespace
}  // namespace nfstrace
