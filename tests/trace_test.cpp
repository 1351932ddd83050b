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
  if (a.hasResFh) {
    EXPECT_EQ(a.resFh, b.resFh);
  }
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

class TraceFileTest : public ::testing::Test {
 protected:
  // ctest runs each case in its own process; the pid keeps concurrent
  // cases apart.
  std::string path_ = (std::filesystem::temp_directory_path() /
                       ("trace_test_" + std::to_string(::getpid())))
                          .string();
  void TearDown() override { std::remove(path_.c_str()); }
};

class FileRoundTrip : public TraceFileTest,
                      public ::testing::WithParamInterface<NfsOp> {};

TEST_P(FileRoundTrip, WriteRead) {
  // Every op's fields survive a trip through a trace file, and the
  // record renders the same line before and after.
  TraceRecord rec = sampleRecord(GetParam());
  {
    TraceWriter w(path_);
    w.write(rec);
    EXPECT_EQ(w.recordsWritten(), 1u);
    w.finalize();
  }
  auto back = TraceReader::readAll(path_);
  ASSERT_EQ(back.size(), 1u);
  expectEqualRecords(rec, back[0]);
  EXPECT_EQ(formatRecord(back[0]), formatRecord(rec));
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, FileRoundTrip,
    ::testing::Values(NfsOp::Getattr, NfsOp::Setattr, NfsOp::Lookup,
                      NfsOp::Access, NfsOp::Read, NfsOp::Write,
                      NfsOp::Create, NfsOp::Remove, NfsOp::Rename,
                      NfsOp::Readdir, NfsOp::Commit, NfsOp::Fsstat),
    [](const auto& info) {
      return std::string(nfsOpName(info.param));
    });

/// A record with only the fields every line carries.
TraceRecord shortRecord(NfsOp op) {
  TraceRecord r;
  r.ts = 1'500'000;
  r.client = makeIp(10, 1, 0, 5);
  r.server = makeIp(10, 0, 0, 1);
  r.xid = 0x1a2b;
  r.op = op;
  r.uid = 2042;
  r.gid = 200;
  return r;
}

TEST(TraceText, FieldEscaping) {
  // Space, '=' and '%' would break the line's key=value tokens, so a
  // name prints them percent-encoded.
  TraceRecord rec = shortRecord(NfsOp::Create);
  rec.name = "weird name=with%stuff";
  rec.hasReply = true;
  rec.replyTs = 1'500'200;
  EXPECT_EQ(formatRecord(rec),
            "t=1.500000 r=1.500200 c=10.1.0.5 s=10.0.0.1 xid=00001a2b v=3 "
            "p=udp op=create uid=2042 gid=200 nm=weird%20name%3dwith%25stuff "
            "st=OK");
}

TEST(TraceText, CallOnlyRecord) {
  // A lost reply: no reply time, status or reply fields on the line.
  TraceRecord rec = shortRecord(NfsOp::Read);
  rec.offset = 32768;
  rec.count = 8192;
  rec.retCount = 8192;  // not printed without a reply
  EXPECT_EQ(formatRecord(rec),
            "t=1.500000 c=10.1.0.5 s=10.0.0.1 xid=00001a2b v=3 p=udp op=read "
            "uid=2042 gid=200 off=32768 cnt=8192");
}

TEST_F(TraceFileTest, MissingFileThrows) {
  EXPECT_THROW(TraceReader r("/no/such/trace"), std::runtime_error);
}

TEST_F(TraceFileTest, ExtentBoundariesInvisibleToPlainReaders) {
  // One extent per record: every extent header is a recovery
  // checkpoint, and a plain reader sees only the records.
  TraceWriter::Options opts;
  opts.v2ExtentRecords = 1;
  {
    TraceWriter w(path_, opts);
    w.write(sampleRecord(NfsOp::Read));
    w.write(sampleRecord(NfsOp::Write));
    w.write(sampleRecord(NfsOp::Lookup));
    EXPECT_EQ(w.ioStats().checkpoints, 3u);
  }
  auto back = TraceReader::readAll(path_);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[1].op, NfsOp::Write);
}

TEST_F(TraceFileTest, FlushToAFullDeviceThrows) {
  // flush() reports a stream the OS refused, as finalize() does, instead
  // of leaving the loss to a destructor that must swallow it.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  TraceWriter w("/dev/full");
  w.write(sampleRecord(NfsOp::Read));
  EXPECT_THROW(w.flush(), std::runtime_error);
}

}  // namespace
}  // namespace nfstrace
