#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <unistd.h>

#include "trace/tracefile.hpp"

namespace nfstrace {
namespace {

TraceRecord sampleRecord(NfsOp op) {
  TraceRecord r;
  r.ts = 86400 * kMicrosPerSecond + 123456;
  r.client = makeIp(10, 1, 0, 5);
  r.server = makeIp(10, 0, 0, 1);
  r.xid = 0xdeadbeef;
  r.vers = 3;
  r.overTcp = true;
  r.op = op;
  r.uid = 2042;
  r.gid = 200;
  r.fh = FileHandle::make(2, 1234, 9);
  r.hasReply = true;
  r.replyTs = r.ts + 450;
  r.status = NfsStat::Ok;
  if (op == NfsOp::Read || op == NfsOp::Write) {
    r.offset = 32768;
    r.count = 8192;
    r.retCount = 8192;
    r.eof = op == NfsOp::Read;
  }
  if (op == NfsOp::Lookup || op == NfsOp::Create || op == NfsOp::Remove) {
    r.name = ".inbox";
  }
  if (op == NfsOp::Rename) {
    r.name = "from name";  // space exercises field encoding
    r.name2 = "to=name";   // '=' does too
    r.fh2 = FileHandle::make(2, 777, 3);
  }
  if (op == NfsOp::Lookup || op == NfsOp::Create) {
    r.resFh = FileHandle::make(2, 555, 4);
    r.hasResFh = true;
  }
  r.hasAttrs = true;
  r.ftype = FileType::Regular;
  r.fileSize = 2 * 1024 * 1024;
  r.fileMtime = r.ts - kMicrosPerHour;
  r.fileId = 1234;
  if (op == NfsOp::Write) {
    r.hasPre = true;
    r.preSize = 2 * 1024 * 1024 - 8192;
    r.preMtime = r.ts - 2 * kMicrosPerHour;
  }
  return r;
}

void expectEqualRecords(const TraceRecord& a, const TraceRecord& b) {
  EXPECT_EQ(a.ts, b.ts);
  EXPECT_EQ(a.replyTs, b.replyTs);
  EXPECT_EQ(a.client, b.client);
  EXPECT_EQ(a.server, b.server);
  EXPECT_EQ(a.xid, b.xid);
  EXPECT_EQ(a.vers, b.vers);
  EXPECT_EQ(a.overTcp, b.overTcp);
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.uid, b.uid);
  EXPECT_EQ(a.gid, b.gid);
  EXPECT_EQ(a.fh, b.fh);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.name2, b.name2);
  EXPECT_EQ(a.fh2, b.fh2);
  if (a.op == NfsOp::Read || a.op == NfsOp::Write) {
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.retCount, b.retCount);
    EXPECT_EQ(a.eof, b.eof);
  }
  EXPECT_EQ(a.hasReply, b.hasReply);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.hasResFh, b.hasResFh);
  if (a.hasResFh) EXPECT_EQ(a.resFh, b.resFh);
  EXPECT_EQ(a.hasAttrs, b.hasAttrs);
  if (a.hasAttrs) {
    EXPECT_EQ(a.fileSize, b.fileSize);
    EXPECT_EQ(a.fileMtime, b.fileMtime);
  }
  EXPECT_EQ(a.hasPre, b.hasPre);
  if (a.hasPre) {
    EXPECT_EQ(a.preSize, b.preSize);
    EXPECT_EQ(a.preMtime, b.preMtime);
  }
}

class TextRoundTrip : public ::testing::TestWithParam<NfsOp> {};

TEST_P(TextRoundTrip, FormatParse) {
  TraceRecord rec = sampleRecord(GetParam());
  auto parsed = parseRecord(formatRecord(rec));
  ASSERT_TRUE(parsed.has_value());
  expectEqualRecords(rec, *parsed);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, TextRoundTrip,
    ::testing::Values(NfsOp::Getattr, NfsOp::Setattr, NfsOp::Lookup,
                      NfsOp::Access, NfsOp::Read, NfsOp::Write,
                      NfsOp::Create, NfsOp::Remove, NfsOp::Rename,
                      NfsOp::Readdir, NfsOp::Commit, NfsOp::Fsstat),
    [](const auto& info) {
      return std::string(nfsOpName(info.param));
    });

TEST(TraceText, CommentsAndBlanksSkipped) {
  EXPECT_FALSE(parseRecord("").has_value());
  EXPECT_FALSE(parseRecord("# comment").has_value());
}

TEST(TraceText, MissingTimestampThrows) {
  EXPECT_THROW(parseRecord("op=read c=1.2.3.4"), std::runtime_error);
}

TEST(TraceText, UnknownKeysIgnored) {
  TraceRecord rec = sampleRecord(NfsOp::Read);
  std::string line = formatRecord(rec) + " futurefield=xyz";
  auto parsed = parseRecord(line);
  ASSERT_TRUE(parsed.has_value());
  expectEqualRecords(rec, *parsed);
}

TEST(TraceText, FieldEscaping) {
  TraceRecord rec = sampleRecord(NfsOp::Create);
  rec.name = "weird name=with%stuff";
  auto parsed = parseRecord(formatRecord(rec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->name, rec.name);
}

TEST(TraceText, CallOnlyRecord) {
  TraceRecord rec = sampleRecord(NfsOp::Read);
  rec.hasReply = false;  // lost reply
  auto parsed = parseRecord(formatRecord(rec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->hasReply);
}

class TraceFileTest : public ::testing::Test {
 protected:
  std::string path_ = (std::filesystem::temp_directory_path() /
                       ("trace_test_" + std::to_string(::getpid())))
                          .string();
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(TraceFileTest, TextFileRoundTrip) {
  std::vector<TraceRecord> recs = {sampleRecord(NfsOp::Read),
                                   sampleRecord(NfsOp::Write),
                                   sampleRecord(NfsOp::Lookup)};
  {
    TraceWriter w(path_);
    for (const auto& r : recs) w.write(r);
    EXPECT_EQ(w.recordsWritten(), 3u);
  }
  auto back = TraceReader::readAll(path_);
  ASSERT_EQ(back.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) expectEqualRecords(recs[i], back[i]);
}

TEST_F(TraceFileTest, MissingFileThrows) {
  EXPECT_THROW(TraceReader r("/no/such/trace"), std::runtime_error);
}

TEST_F(TraceFileTest, CheckpointFootersInvisibleToPlainReaders) {
  // Checkpoint footers (written for crash/corruption recovery) must be
  // format-compatible: a reader that knows nothing about recovery sees
  // only the records.
  TraceWriter::Options opts;
  opts.checkpointEveryRecords = 1;  // footer after every record
  {
    TraceWriter w(path_, opts);
    w.write(sampleRecord(NfsOp::Read));
    w.write(sampleRecord(NfsOp::Write));
    w.write(sampleRecord(NfsOp::Lookup));
  }
  auto back = TraceReader::readAll(path_);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[1].op, NfsOp::Write);
}

}  // namespace
}  // namespace nfstrace
