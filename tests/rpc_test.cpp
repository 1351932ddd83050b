#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "rpc/rpc.hpp"

namespace nfstrace {
namespace {

TEST(Rpc, CallHeaderRoundTrip) {
  AuthUnix cred;
  cred.stamp = 99;
  cred.machineName = "wks17";
  cred.uid = 1042;
  cred.gid = 30;
  cred.gids = {30, 31};

  XdrEncoder enc;
  encodeRpcCall(enc, 0xabcd1234, kNfsProgram, 3, 6, cred);
  enc.putUint32(77);  // pretend argument

  auto msg = decodeRpcMessage(enc.bytes());
  ASSERT_EQ(msg.type, RpcMsgType::Call);
  EXPECT_EQ(msg.call.xid, 0xabcd1234u);
  EXPECT_EQ(msg.call.prog, kNfsProgram);
  EXPECT_EQ(msg.call.vers, 3u);
  EXPECT_EQ(msg.call.proc, 6u);
  ASSERT_TRUE(msg.call.cred.has_value());
  EXPECT_EQ(msg.call.cred->uid, 1042u);
  EXPECT_EQ(msg.call.cred->gid, 30u);
  EXPECT_EQ(msg.call.cred->machineName, "wks17");
  ASSERT_EQ(msg.call.cred->gids.size(), 2u);

  XdrDecoder args(std::span<const std::uint8_t>(enc.bytes())
                      .subspan(msg.call.argsOffset));
  EXPECT_EQ(args.getUint32(), 77u);
}

TEST(Rpc, CallWithAuthNone) {
  XdrEncoder enc;
  encodeRpcCall(enc, 1, kNfsProgram, 2, 0, std::nullopt);
  auto msg = decodeRpcMessage(enc.bytes());
  EXPECT_FALSE(msg.call.cred.has_value());
  EXPECT_EQ(msg.call.vers, 2u);
}

TEST(Rpc, ReplyHeaderRoundTrip) {
  XdrEncoder enc;
  encodeRpcReplySuccess(enc, 0x55aa55aa);
  enc.putUint32(123);
  auto msg = decodeRpcMessage(enc.bytes());
  ASSERT_EQ(msg.type, RpcMsgType::Reply);
  EXPECT_EQ(msg.reply.xid, 0x55aa55aau);
  EXPECT_EQ(msg.reply.acceptStat, RpcAcceptStat::Success);
  XdrDecoder res(std::span<const std::uint8_t>(enc.bytes())
                     .subspan(msg.reply.resultsOffset));
  EXPECT_EQ(res.getUint32(), 123u);
}

TEST(Rpc, ErrorReply) {
  XdrEncoder enc;
  encodeRpcReplyError(enc, 9, RpcAcceptStat::GarbageArgs);
  auto msg = decodeRpcMessage(enc.bytes());
  EXPECT_EQ(msg.reply.acceptStat, RpcAcceptStat::GarbageArgs);
}

TEST(Rpc, BadVersionThrows) {
  XdrEncoder enc;
  enc.putUint32(1);  // xid
  enc.putUint32(0);  // CALL
  enc.putUint32(3);  // rpc version 3 does not exist
  EXPECT_THROW(decodeRpcMessage(enc.bytes()), XdrError);
}

TEST(Rpc, GarbageThrows) {
  std::vector<std::uint8_t> junk{1, 2, 3};
  EXPECT_THROW(decodeRpcMessage(junk), XdrError);
}

using Bodies = std::vector<std::vector<std::uint8_t>>;

/// Feed `data` and copy out every record body the reader hands back.
Bodies feedAll(RecordMarkReader& reader, std::span<const std::uint8_t> data) {
  Bodies out;
  EXPECT_TRUE(reader.feed(data, [&](std::span<const std::uint8_t> body) {
    out.emplace_back(body.begin(), body.end());
  }));
  return out;
}

std::vector<std::uint8_t> markedFragment(std::vector<std::uint8_t> frag,
                                         bool last) {
  std::vector<std::uint8_t> out;
  std::uint32_t hdr =
      static_cast<std::uint32_t>(frag.size()) | (last ? 0x80000000u : 0u);
  out.push_back(static_cast<std::uint8_t>(hdr >> 24));
  out.push_back(static_cast<std::uint8_t>(hdr >> 16));
  out.push_back(static_cast<std::uint8_t>(hdr >> 8));
  out.push_back(static_cast<std::uint8_t>(hdr));
  out.insert(out.end(), frag.begin(), frag.end());
  return out;
}

TEST(RecordMark, SingleRecord) {
  std::vector<std::uint8_t> body{1, 2, 3, 4, 5};
  auto marked = recordMark(body);
  ASSERT_EQ(marked.size(), 9u);
  EXPECT_EQ(marked[0], 0x80);  // last-fragment bit
  EXPECT_EQ(marked[3], 5);

  RecordMarkReader reader;
  EXPECT_EQ(feedAll(reader, marked), Bodies{body});
  EXPECT_EQ(reader.bufferedBytes(), 0u);
}

TEST(RecordMark, WholeRecordIsAViewIntoTheFedBytes) {
  std::vector<std::uint8_t> body{1, 2, 3, 4, 5};
  auto marked = recordMark(body);
  RecordMarkReader reader;
  std::span<const std::uint8_t> got;
  ASSERT_TRUE(reader.feed(marked, [&](std::span<const std::uint8_t> b) {
    got = b;
  }));
  EXPECT_EQ(got.data(), marked.data() + 4);
  EXPECT_EQ(got.size(), body.size());
}

TEST(RecordMark, ByteAtATimeFeeding) {
  std::vector<std::uint8_t> body{9, 9, 9, 9};
  auto marked = recordMark(body);
  RecordMarkReader reader;
  Bodies got;
  for (std::size_t i = 0; i < marked.size(); ++i) {
    // A split mark is held until it is whole; body bytes until the last.
    EXPECT_EQ(reader.bufferedBytes(), i < 4 ? i : i - 4);
    for (auto& b : feedAll(reader, std::span(marked).subspan(i, 1))) {
      got.push_back(std::move(b));
    }
  }
  EXPECT_EQ(got, Bodies{body});
  EXPECT_EQ(reader.bufferedBytes(), 0u);
}

TEST(RecordMark, StraddlingRecordIsAssembledAcrossFeeds) {
  // A record split across two segments, behind a whole one: the first
  // comes out of the first feed, the second only when its tail arrives.
  std::vector<std::uint8_t> a{1, 2, 3, 4};
  std::vector<std::uint8_t> b(100, 7);
  auto stream = recordMark(a);
  auto mb = recordMark(b);
  stream.insert(stream.end(), mb.begin(), mb.end());
  const std::size_t cut = 8 + 40;

  RecordMarkReader reader;
  EXPECT_EQ(feedAll(reader, std::span(stream).first(cut)), Bodies{a});
  EXPECT_EQ(reader.bufferedBytes(), 40u - 4u);
  EXPECT_EQ(feedAll(reader, std::span(stream).subspan(cut)), Bodies{b});
  EXPECT_EQ(reader.bufferedBytes(), 0u);
}

TEST(RecordMark, CoalescedRecords) {
  // Two records in one TCP segment — the coalescing case the paper's
  // tracer had to handle.
  std::vector<std::uint8_t> a{1, 2, 3};
  std::vector<std::uint8_t> b{4, 5, 6, 7};
  auto stream = recordMark(a);
  auto mb = recordMark(b);
  stream.insert(stream.end(), mb.begin(), mb.end());

  RecordMarkReader reader;
  EXPECT_EQ(feedAll(reader, stream), (Bodies{a, b}));
}

TEST(RecordMark, MultiFragmentRecord) {
  // A record split across two fragments (non-final then final).
  auto stream = markedFragment({1, 2}, false);
  auto last = markedFragment({3, 4, 5}, true);
  stream.insert(stream.end(), last.begin(), last.end());

  RecordMarkReader reader;
  const Bodies want{{1, 2, 3, 4, 5}};
  EXPECT_EQ(feedAll(reader, stream), want);
}

TEST(RecordMark, ResetDiscardsPartialState) {
  RecordMarkReader reader;
  std::vector<std::uint8_t> partial{0x80, 0, 0, 10, 1, 2};  // incomplete
  EXPECT_TRUE(feedAll(reader, partial).empty());
  EXPECT_EQ(reader.bufferedBytes(), 2u);
  reader.reset();
  EXPECT_EQ(reader.bufferedBytes(), 0u);
  std::vector<std::uint8_t> body{7};
  EXPECT_EQ(feedAll(reader, recordMark(body)), Bodies{body});
}

std::vector<std::uint8_t> lastFragmentMark(std::size_t len) {
  const auto v = static_cast<std::uint32_t>(len) | 0x80000000u;
  return {static_cast<std::uint8_t>(v >> 24),
          static_cast<std::uint8_t>(v >> 16),
          static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
}

TEST(RecordMark, OversizedFragmentDropsStateAndRestartsAtNextFeed) {
  std::vector<std::uint8_t> body{7, 8};
  const auto good = recordMark(body);
  int calls = 0;
  auto count = [&](std::span<const std::uint8_t>) { ++calls; };

  // A mark no decoder could accept: the rest of the segment goes with it.
  RecordMarkReader reader;
  auto segment = lastFragmentMark(RecordMarkReader::kMaxRecordBytes + 1);
  for (std::uint8_t b : good) segment.push_back(b);
  EXPECT_FALSE(reader.feed(segment, count));
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(reader.bufferedBytes(), 0u);
  EXPECT_EQ(feedAll(reader, good), Bodies{body});

  // The largest record is still accepted (and held while it arrives).
  EXPECT_TRUE(reader.feed(lastFragmentMark(RecordMarkReader::kMaxRecordBytes),
                          count));
  reader.reset();

  // Fragments of one record count together against the bound.
  EXPECT_TRUE(
      feedAll(reader, markedFragment(std::vector<std::uint8_t>(16, 2), false))
          .empty());
  EXPECT_EQ(reader.bufferedBytes(), 16u);
  EXPECT_FALSE(reader.feed(
      lastFragmentMark(RecordMarkReader::kMaxRecordBytes - 16 + 1), count));
  EXPECT_EQ(reader.bufferedBytes(), 0u);
  EXPECT_EQ(feedAll(reader, good), Bodies{body});
  EXPECT_EQ(calls, 0);
}

TEST(Rpc, AuthUnixGidListCap) {
  XdrEncoder enc;
  enc.putUint32(0);
  enc.putString("m");
  enc.putUint32(1);
  enc.putUint32(2);
  enc.putUint32(200);  // absurd gid count
  XdrDecoder dec(enc.bytes());
  EXPECT_THROW(AuthUnix::decode(dec), XdrError);
}

}  // namespace
}  // namespace nfstrace
