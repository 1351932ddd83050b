// Trace format v2: columnar extent round-trips, the footer index, and
// extent-granular recovery (torn tails, CRC-corrupt payloads, corrupt
// headers) with exact recovered/skipped accounting.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "trace/tracefile.hpp"
#include "trace/v2.hpp"
#include "util/rng.hpp"

namespace nfstrace {
namespace {

class TraceV2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = "tracev2_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".trace";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

/// A randomized record whose field population mirrors what the sniffer
/// can actually produce (reply fields only with a reply, offsets only on
/// read/write/commit) so every format round-trips it identically.
TraceRecord randomRecord(Rng& rng, MicroTime ts) {
  static const NfsOp kOps[] = {
      NfsOp::Getattr, NfsOp::Setattr, NfsOp::Lookup, NfsOp::Access,
      NfsOp::Read,    NfsOp::Write,   NfsOp::Create, NfsOp::Remove,
      NfsOp::Rename,  NfsOp::Readdir, NfsOp::Commit, NfsOp::Fsstat,
  };
  TraceRecord r;
  r.ts = ts;
  r.client = makeIp(10, 1, 0, static_cast<int>(rng.below(20)) + 1);
  r.server = makeIp(10, 0, 0, 1);
  r.xid = static_cast<std::uint32_t>(rng.next());
  r.vers = rng.chance(0.1) ? 2 : 3;
  r.overTcp = rng.chance(0.5);
  r.op = kOps[rng.below(std::size(kOps))];
  r.uid = 2000 + static_cast<std::uint32_t>(rng.below(40));
  r.gid = 200 + static_cast<std::uint32_t>(rng.below(4));
  r.fh = FileHandle::make(2, rng.below(500), 7);
  if (r.op == NfsOp::Rename) {
    r.fh2 = FileHandle::make(2, rng.below(500), 7);
    r.name = "from" + std::to_string(rng.below(100));
    r.name2 = "to" + std::to_string(rng.below(100));
  } else if (r.hasName()) {
    r.name = "file" + std::to_string(rng.below(200)) + ".txt";
  }
  if (r.hasOffset()) {
    r.offset = rng.below(1 << 20) * 8192;
    r.count = 8192;
  }
  if (rng.chance(0.9)) {
    r.hasReply = true;
    r.replyTs = r.ts + static_cast<MicroTime>(rng.below(5000)) + 1;
    r.status = rng.chance(0.05) ? NfsStat::ErrNoEnt : NfsStat::Ok;
    if (r.op == NfsOp::Read || r.op == NfsOp::Write) {
      r.retCount = r.count;
      r.eof = r.op == NfsOp::Read && rng.chance(0.3);
    }
    if ((r.op == NfsOp::Lookup || r.op == NfsOp::Create) &&
        r.status == NfsStat::Ok) {
      r.resFh = FileHandle::make(2, rng.below(500), 7);
      r.hasResFh = true;
    }
    if (rng.chance(0.8)) {
      r.hasAttrs = true;
      // Occasionally out-of-enum: a bit-flipped wire frame can decode to
      // any 32-bit ftype, and the text format round-trips it faithfully
      // — v2 must too (it once stored ftype as a single truncating byte).
      r.ftype = rng.chance(0.02)
                    ? static_cast<FileType>(rng.below(1u << 16) + 8)
                    : rng.chance(0.2) ? FileType::Directory
                                      : FileType::Regular;
      r.fileSize = rng.below(1 << 22);
      r.fileMtime = r.ts - static_cast<MicroTime>(rng.below(kMicrosPerHour));
      r.fileId = rng.below(100000);
    }
    if (r.op == NfsOp::Write && rng.chance(0.7)) {
      r.hasPre = true;
      r.preSize = rng.below(1 << 22);
      r.preMtime = r.ts - static_cast<MicroTime>(rng.below(kMicrosPerHour));
    }
  }
  return r;
}

std::vector<TraceRecord> randomRecords(std::size_t n,
                                       std::uint64_t seed = 42) {
  Rng rng(seed);
  std::vector<TraceRecord> out;
  out.reserve(n);
  MicroTime ts = 86400 * kMicrosPerSecond;
  for (std::size_t i = 0; i < n; ++i) {
    ts += static_cast<MicroTime>(rng.below(20000));
    out.push_back(randomRecord(rng, ts));
  }
  return out;
}

void writeV2(const std::string& path, const std::vector<TraceRecord>& recs,
             std::uint64_t extentRecords = 4096) {
  TraceWriter::Options opts;
  opts.format = TraceWriter::Format::V2;
  opts.v2ExtentRecords = extentRecords;
  TraceWriter w(path, opts);
  for (const auto& r : recs) w.write(r);
}

void expectSameRecord(const TraceRecord& a, const TraceRecord& b,
                      std::size_t at) {
  SCOPED_TRACE("record " + std::to_string(at));
  EXPECT_EQ(a.ts, b.ts);
  EXPECT_EQ(a.client, b.client);
  EXPECT_EQ(a.server, b.server);
  EXPECT_EQ(a.xid, b.xid);
  EXPECT_EQ(a.vers, b.vers);
  EXPECT_EQ(a.overTcp, b.overTcp);
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.uid, b.uid);
  EXPECT_EQ(a.gid, b.gid);
  EXPECT_EQ(a.fh, b.fh);
  EXPECT_EQ(a.fh2, b.fh2);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.name2, b.name2);
  EXPECT_EQ(a.hasReply, b.hasReply);
  if (a.hasOffset()) {
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.count, b.count);
  }
  if (a.hasReply) {
    EXPECT_EQ(a.replyTs, b.replyTs);
    EXPECT_EQ(a.status, b.status);
    if (a.op == NfsOp::Read || a.op == NfsOp::Write) {
      EXPECT_EQ(a.retCount, b.retCount);
    }
    if (a.op == NfsOp::Read) {
      EXPECT_EQ(a.eof, b.eof);
    }
    EXPECT_EQ(a.hasResFh, b.hasResFh);
    if (a.hasResFh) {
      EXPECT_EQ(a.resFh, b.resFh);
    }
    EXPECT_EQ(a.hasAttrs, b.hasAttrs);
    if (a.hasAttrs) {
      EXPECT_EQ(a.ftype, b.ftype);
      EXPECT_EQ(a.fileSize, b.fileSize);
      EXPECT_EQ(a.fileMtime, b.fileMtime);
      EXPECT_EQ(a.fileId, b.fileId);
    }
    EXPECT_EQ(a.hasPre, b.hasPre);
    if (a.hasPre) {
      EXPECT_EQ(a.preSize, b.preSize);
      EXPECT_EQ(a.preMtime, b.preMtime);
    }
  }
}

TEST_F(TraceV2Test, RoundTripRandomizedRecordsAcrossExtents) {
  auto recs = randomRecords(3000);
  writeV2(path_, recs, /*extentRecords=*/512);  // several extents
  auto back = TraceReader::readAll(path_);
  ASSERT_EQ(back.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    expectSameRecord(recs[i], back[i], i);
  }
}

/// Expect `fn` to throw std::runtime_error whose message contains
/// `needle`.
template <class Fn>
void expectThrowMentioning(Fn&& fn, const std::string& needle) {
  try {
    fn();
    ADD_FAILURE() << "no exception; wanted one mentioning " << needle;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST_F(TraceV2Test, RejectsSchema3FileNamingTheSchema) {
  // Only schema 4 is read.  A file stamped with an older schema line is
  // refused outright, and the error says which schema it found.
  writeV2(path_, randomRecords(300, /*seed=*/11), /*extentRecords=*/128);
  {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    char head[128];
    std::size_t got = std::fread(head, 1, sizeof(head), f);
    std::string h(head, got);
    std::size_t pos = h.find("schema 4");
    ASSERT_NE(pos, std::string::npos);
    ASSERT_EQ(std::fseek(f, static_cast<long>(pos + 7), SEEK_SET), 0);
    std::fputc('3', f);
    std::fclose(f);
  }
  expectThrowMentioning([&] { TraceReader reader(path_); },
                        "nfstrace-v2 schema 3");
  EXPECT_FALSE(tracev2::loadChainedIndex(path_).has_value());

  // The same segment behind a current one, as concatenated daemon
  // output: the strict reader refuses it too instead of stopping short.
  const std::string chained = path_ + ".chained";
  writeV2(chained, randomRecords(200, /*seed=*/12), /*extentRecords=*/128);
  {
    std::FILE* out = std::fopen(chained.c_str(), "ab");
    std::FILE* in = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(out, nullptr);
    ASSERT_NE(in, nullptr);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
      std::fwrite(buf, 1, n, out);
    }
    std::fclose(in);
    std::fclose(out);
  }
  expectThrowMentioning([&] { TraceReader::readAll(chained); },
                        "nfstrace-v2 schema 3");
  EXPECT_FALSE(tracev2::loadChainedIndex(chained).has_value());
  std::remove(chained.c_str());
}

TEST_F(TraceV2Test, MatchesTextFormatNormalization) {
  // v2 normalizes field presence exactly like the text format (reply-only
  // fields dropped without a reply, EOF only on READ replies), so a text
  // round-trip and a v2 round-trip of the same records must agree field
  // for field — the bedrock of byte-identical analysis reports.
  auto recs = randomRecords(500, /*seed=*/7);
  std::string textPath = path_ + ".text";
  {
    TraceWriter w(textPath, TraceWriter::Format::Text);
    for (const auto& r : recs) w.write(r);
  }
  writeV2(path_, recs, /*extentRecords=*/128);
  auto viaText = TraceReader::readAll(textPath);
  auto viaV2 = TraceReader::readAll(path_);
  std::remove(textPath.c_str());
  ASSERT_EQ(viaText.size(), viaV2.size());
  for (std::size_t i = 0; i < viaText.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(formatRecord(viaText[i]), formatRecord(viaV2[i]));
  }
}

TEST_F(TraceV2Test, BatchIdsMatchV1Interning) {
  // The extent dictionaries must yield the same global interned id
  // sequence a v1 per-record decode produces, at any batch size.
  auto recs = randomRecords(1500, /*seed=*/11);
  std::string textPath = path_ + ".text";
  {
    TraceWriter w(textPath, TraceWriter::Format::Text);
    for (const auto& r : recs) w.write(r);
  }
  writeV2(path_, recs, /*extentRecords=*/256);

  TraceReader text(textPath);
  TraceReader v2(path_);
  TraceBatch tb, vb;
  // Mismatched batch sizes on purpose: ids must not depend on batching.
  std::vector<std::uint32_t> textIds, v2Ids;
  while (text.nextBatch(tb, 333)) {
    for (std::size_t i = 0; i < tb.n; ++i) {
      textIds.insert(textIds.end(),
                     {tb.fhId[i], tb.fh2Id[i], tb.resFhId[i], tb.nameId[i],
                      tb.name2Id[i]});
    }
  }
  while (v2.nextBatch(vb, 100)) {
    for (std::size_t i = 0; i < vb.n; ++i) {
      v2Ids.insert(v2Ids.end(),
                   {vb.fhId[i], vb.fh2Id[i], vb.resFhId[i], vb.nameId[i],
                    vb.name2Id[i]});
    }
  }
  std::remove(textPath.c_str());
  ASSERT_EQ(textIds.size(), v2Ids.size());
  EXPECT_EQ(textIds, v2Ids);
  // And the ids resolve to the same bytes.
  EXPECT_EQ(text.nameInterner().size(), v2.nameInterner().size());
  EXPECT_EQ(text.handleInterner().size(), v2.handleInterner().size());
  for (std::uint32_t id = 0; id < text.nameInterner().size(); ++id) {
    EXPECT_EQ(text.nameInterner().view(id), v2.nameInterner().view(id));
  }
}

TEST_F(TraceV2Test, FooterIndexCoversEveryExtent) {
  auto recs = randomRecords(2000, /*seed=*/3);
  writeV2(path_, recs, /*extentRecords=*/300);
  auto index = tracev2::loadExtentIndex(path_);
  ASSERT_TRUE(index.has_value());
  ASSERT_EQ(index->size(), (2000 + 299) / 300);
  std::uint64_t total = 0, prevEnd = 0;
  for (const auto& e : *index) {
    EXPECT_GT(e.offset, prevEnd);
    prevEnd = e.offset;
    EXPECT_GT(e.records, 0u);
    EXPECT_LE(e.tsMin, e.tsMax);
    EXPECT_NE(e.opMask, 0u);
    total += e.records;
  }
  EXPECT_EQ(total, recs.size());

  // The index makes extents skippable: decode only the extents whose
  // time range covers the trace's second half and check we get exactly
  // the records v1-style sequential filtering would.
  MicroTime cut = recs[recs.size() / 2].ts;
  std::size_t expected = 0;
  for (const auto& r : recs) {
    if (r.ts >= cut) ++expected;
  }
  std::size_t viaIndex = 0;
  TraceReader reader(path_);
  TraceRecord rec;
  while (reader.nextInto(rec)) {
    if (rec.ts >= cut) ++viaIndex;
  }
  EXPECT_EQ(viaIndex, expected);
  std::size_t skippableRecords = 0;
  for (const auto& e : *index) {
    if (e.tsMax < cut) skippableRecords += e.records;
  }
  EXPECT_GT(skippableRecords, 0u);  // the index genuinely prunes work
}

TEST_F(TraceV2Test, EmptyTraceHasEmptyIndex) {
  { writeV2(path_, {}); }
  EXPECT_TRUE(TraceReader::readAll(path_).empty());
  auto index = tracev2::loadExtentIndex(path_);
  ASSERT_TRUE(index.has_value());
  EXPECT_TRUE(index->empty());
}

TEST_F(TraceV2Test, DetectsFormatsByMagic) {
  auto recs = randomRecords(10);
  std::string text = path_ + ".t", v1 = path_ + ".b";
  {
    TraceWriter wt(text, TraceWriter::Format::Text);
    for (const auto& r : recs) wt.write(r);
    writeV2(path_, recs);
  }
  {
    // The retired v1 binary format: its magic must be refused with an
    // error that says so, not parsed as a text trace.
    std::FILE* f = std::fopen(v1.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NFST1\n", f);
    std::fclose(f);
  }
  EXPECT_EQ(detectTraceFormat(text), TraceWriter::Format::Text);
  EXPECT_EQ(detectTraceFormat(path_), TraceWriter::Format::V2);
  expectThrowMentioning([&] { detectTraceFormat(v1); },
                        "v1 binary traces are no longer read");
  expectThrowMentioning([&] { TraceReader reader(v1, /*recover=*/true); },
                        "v1 binary traces are no longer read");
  std::remove(text.c_str());
  std::remove(v1.c_str());

  EXPECT_STREQ(traceFormatName(TraceWriter::Format::V2), "v2");
  EXPECT_EQ(traceFormatFromName("v2"), TraceWriter::Format::V2);
  EXPECT_EQ(traceFormatFromName("binary"), std::nullopt);
  EXPECT_EQ(traceFormatFromName("bogus"), std::nullopt);
}

// --------------------------------------------------------------- recovery

TEST_F(TraceV2Test, TruncatedTailExtentIsDroppedWithExactAccounting) {
  auto recs = randomRecords(1000, /*seed=*/5);
  writeV2(path_, recs, /*extentRecords=*/256);  // 3 full + 1 tail extent
  auto index = tracev2::loadExtentIndex(path_);
  ASSERT_TRUE(index.has_value());
  ASSERT_EQ(index->size(), 4u);

  // Cut mid-way through the last extent's payload (also destroying the
  // footer index after it).
  const auto& last = index->back();
  std::filesystem::resize_file(
      path_, last.offset + tracev2::kExtentHeaderBytes + 16);
  EXPECT_FALSE(tracev2::loadExtentIndex(path_).has_value());

  TraceReader::RecoverStats stats;
  auto back = TraceReader::recoverAll(path_, &stats);
  EXPECT_EQ(back.size(), 768u);
  EXPECT_EQ(stats.recovered, 768u);
  EXPECT_EQ(stats.skipped, last.records);
  EXPECT_EQ(stats.resyncs, 1u);
  for (std::size_t i = 0; i < back.size(); ++i) {
    expectSameRecord(recs[i], back[i], i);
  }
  // Strict mode refuses the damage instead.
  EXPECT_THROW(TraceReader::readAll(path_), std::runtime_error);
}

TEST_F(TraceV2Test, CrcCorruptExtentIsSkippedToNextExtent) {
  auto recs = randomRecords(1024, /*seed=*/9);
  writeV2(path_, recs, /*extentRecords=*/256);
  auto index = tracev2::loadExtentIndex(path_);
  ASSERT_TRUE(index.has_value());
  ASSERT_EQ(index->size(), 4u);

  // Flip one byte inside extent 1's payload: its CRC fails and the
  // reader must resume cleanly at extent 2's header.
  const auto& victim = (*index)[1];
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f,
               static_cast<long>(victim.offset + tracev2::kExtentHeaderBytes +
                                 40),
               SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x5a, f);
    std::fclose(f);
  }

  TraceReader::RecoverStats stats;
  auto back = TraceReader::recoverAll(path_, &stats);
  EXPECT_EQ(stats.skipped, victim.records);
  EXPECT_EQ(stats.recovered, recs.size() - victim.records);
  EXPECT_EQ(stats.resyncs, 1u);
  ASSERT_EQ(back.size(), recs.size() - victim.records);
  // Extent 0 then extents 2..3, in order.
  for (std::size_t i = 0; i < 256; ++i) {
    expectSameRecord(recs[i], back[i], i);
  }
  for (std::size_t i = 512; i < recs.size(); ++i) {
    expectSameRecord(recs[i], back[i - 256], i);
  }
  EXPECT_THROW(TraceReader::readAll(path_), std::runtime_error);
}

TEST_F(TraceV2Test, CorruptExtentHeaderResyncsViaByteScan) {
  auto recs = randomRecords(1024, /*seed=*/13);
  writeV2(path_, recs, /*extentRecords=*/256);
  auto index = tracev2::loadExtentIndex(path_);
  ASSERT_TRUE(index.has_value());

  // Smash extent 2's header magic: the reader cannot trust even the
  // record count, so it byte-scans for extent 3 and the checkpoint math
  // charges the gap exactly.
  const auto& victim = (*index)[2];
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(victim.offset), SEEK_SET);
    std::fputs("XXXX", f);
    std::fclose(f);
  }

  TraceReader::RecoverStats stats;
  auto back = TraceReader::recoverAll(path_, &stats);
  EXPECT_EQ(stats.skipped, victim.records);
  EXPECT_EQ(stats.recovered, recs.size() - victim.records);
  EXPECT_EQ(stats.resyncs, 1u);
  EXPECT_EQ(back.size(), recs.size() - victim.records);
}

TEST_F(TraceV2Test, BatchesNeverStraddleACorruptExtent) {
  auto recs = randomRecords(1024, /*seed=*/17);
  writeV2(path_, recs, /*extentRecords=*/256);
  auto index = tracev2::loadExtentIndex(path_);
  ASSERT_TRUE(index.has_value());
  const auto& victim = (*index)[1];
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f,
               static_cast<long>(victim.offset + tracev2::kExtentHeaderBytes +
                                 8),
               SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x5a, f);
    std::fclose(f);
  }

  // Batch capacity beyond one extent: the batch at the damage boundary
  // must be cut short with endedAtResync instead of mixing records from
  // both sides of the hole.
  TraceReader reader(path_, /*recover=*/true);
  TraceBatch batch;
  std::size_t total = 0;
  bool sawResyncCut = false;
  while (reader.nextBatch(batch, 600)) {
    if (batch.endedAtResync) {
      sawResyncCut = true;
      EXPECT_EQ(total + batch.n, 256u);  // cut exactly at extent 0's end
    }
    total += batch.n;
  }
  EXPECT_TRUE(sawResyncCut);
  EXPECT_EQ(total, recs.size() - victim.records);
}

TEST_F(TraceV2Test, RecoverModeReadsCleanTraceExactly) {
  auto recs = randomRecords(700, /*seed=*/23);
  writeV2(path_, recs, /*extentRecords=*/128);
  TraceReader::RecoverStats stats;
  auto back = TraceReader::recoverAll(path_, &stats);
  EXPECT_EQ(back.size(), recs.size());
  EXPECT_EQ(stats.recovered, recs.size());
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_EQ(stats.resyncs, 0u);
  EXPECT_EQ(stats.checkpoints, (700 + 127) / 128);
}

}  // namespace
}  // namespace nfstrace
