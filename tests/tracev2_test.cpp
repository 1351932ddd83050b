// Trace format v2: columnar extent round-trips, the footer index,
// extent-granular recovery (torn tails, CRC-corrupt payloads, corrupt
// headers) with exact recovered/skipped accounting, and hostile sizes
// that must not turn into allocations.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>

#include "trace/tracefile.hpp"
#include "trace/v2.hpp"
#include "util/crc32.hpp"
#include "util/interner.hpp"
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
      // any 32-bit ftype, and v2 must round-trip it (it once stored
      // ftype as a single truncating byte).
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
  opts.v2ExtentRecords = extentRecords;
  TraceWriter w(path, opts);
  for (const auto& r : recs) w.write(r);
}

std::string readBytes(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

void writeBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

/// Overwrite the file's bytes at `offset` with `with`.
void patchBytes(const std::string& path, std::uint64_t offset,
                const std::string& with) {
  std::string bytes = readBytes(path);
  bytes.replace(offset, with.size(), with);
  writeBytes(path, bytes);
}

/// Flip bits of the byte at `offset`.
void flipByte(const std::string& path, std::uint64_t offset) {
  const char flipped = static_cast<char>(readBytes(path)[offset] ^ 0x5a);
  patchBytes(path, offset, std::string(1, flipped));
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
  // Four writes with values from opposite ends of the 64-bit range (a
  // client may send any offset): every column delta wraps, so they round
  // trip and the asan preset reports no signed overflow.
  constexpr MicroTime kMax = std::numeric_limits<MicroTime>::max();
  for (std::size_t i = 0; i < 4; ++i) {
    TraceRecord& r = recs[i];
    r.op = NfsOp::Write;
    r.hasReply = r.hasAttrs = r.hasPre = true;
    r.ts = r.fileMtime = i % 2 ? kMax : -kMax - 1;
    r.replyTs = r.preMtime = i % 2 ? -kMax - 1 : kMax;
    r.offset = r.fileSize = r.fileId = r.preSize =
        i % 2 ? 100 : 0x8000000000000005ull;
  }
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
  const std::size_t pos = readBytes(path_).find("schema 4");
  ASSERT_NE(pos, std::string::npos);
  patchBytes(path_, pos + 7, "3");
  expectThrowMentioning([&] { TraceReader reader(path_); },
                        "nfstrace-v2 schema 3");
  EXPECT_FALSE(tracev2::loadChainedIndex(path_).has_value());

  // The same segment behind a current one, as concatenated daemon
  // output: the strict reader refuses it too instead of stopping short.
  const std::string chained = path_ + ".chained";
  writeV2(chained, randomRecords(200, /*seed=*/12), /*extentRecords=*/128);
  writeBytes(chained, readBytes(chained) + readBytes(path_));
  expectThrowMentioning([&] { TraceReader::readAll(chained); },
                        "nfstrace-v2 schema 3");
  EXPECT_FALSE(tracev2::loadChainedIndex(chained).has_value());
  std::remove(chained.c_str());
}

TEST_F(TraceV2Test, MatchesTextFormatNormalization) {
  // v2 normalizes field presence to what formatRecord prints (reply-only
  // fields dropped without a reply, EOF only on READ replies), so a
  // record renders the same line before and after a round trip — the
  // bedrock of digests over a written trace.
  auto recs = randomRecords(500, /*seed=*/7);
  writeV2(path_, recs, /*extentRecords=*/128);
  auto back = TraceReader::readAll(path_);
  ASSERT_EQ(back.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(formatRecord(back[i]), formatRecord(recs[i]));
  }
}

TEST_F(TraceV2Test, BatchIdsMatchPerRecordInterning) {
  // The extent dictionaries must yield the same global interned id
  // sequence as interning each record's fields in stream order, at any
  // batch size.
  auto recs = randomRecords(1500, /*seed=*/11);
  writeV2(path_, recs, /*extentRecords=*/256);

  StringInterner names, handles;
  std::vector<std::uint32_t> expectIds;
  auto fhView = [](const FileHandle& fh) {
    return std::string_view(reinterpret_cast<const char*>(fh.data.data()),
                            fh.len);
  };
  for (const TraceRecord& r : TraceReader::readAll(path_)) {
    expectIds.push_back(handles.intern(fhView(r.fh)));
    expectIds.push_back(handles.intern(fhView(r.fh2)));
    expectIds.push_back(handles.intern(fhView(r.resFh)));
    expectIds.push_back(names.intern(r.name));
    expectIds.push_back(names.intern(r.name2));
  }

  for (std::size_t batchSize : {100u, 333u}) {
    SCOPED_TRACE("batches of " + std::to_string(batchSize));
    TraceReader reader(path_);
    TraceBatch batch;
    std::vector<std::uint32_t> ids;
    while (reader.nextBatch(batch, batchSize)) {
      for (std::size_t i = 0; i < batch.n; ++i) {
        ids.insert(ids.end(), {batch.fhId[i], batch.fh2Id[i],
                               batch.resFhId[i], batch.nameId[i],
                               batch.name2Id[i]});
      }
    }
    EXPECT_EQ(ids, expectIds);
    // And the ids resolve to the same bytes.
    ASSERT_EQ(reader.nameInterner().size(), names.size());
    ASSERT_EQ(reader.handleInterner().size(), handles.size());
    for (std::uint32_t id = 0; id < names.size(); ++id) {
      EXPECT_EQ(reader.nameInterner().view(id), names.view(id));
    }
  }
}

TEST_F(TraceV2Test, FooterIndexCoversEveryExtent) {
  auto recs = randomRecords(2000, /*seed=*/3);
  writeV2(path_, recs, /*extentRecords=*/300);
  auto index = tracev2::loadChainedIndex(path_);
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
  auto index = tracev2::loadChainedIndex(path_);
  ASSERT_TRUE(index.has_value());
  EXPECT_TRUE(index->empty());
}

TEST_F(TraceV2Test, RefusesInputThatIsNotV2NamingThePath) {
  // A text rendering, a retired v1 binary trace and an empty file: the
  // strict reader refuses each with one error that names the path.
  auto recs = randomRecords(10);
  const std::string text = path_ + ".t", v1 = path_ + ".b",
                    empty = path_ + ".e";
  std::string lines;
  for (const auto& r : recs) lines += formatRecord(r) + "\n";
  writeBytes(text, lines);
  writeBytes(v1, "NFST1\n");
  writeBytes(empty, "");
  for (const std::string& path : {text, v1, empty}) {
    expectThrowMentioning([&] { TraceReader reader(path); },
                          "not a v2 trace: " + path);
    // Recover mode reads any bytes as damage: no extent, no records.
    TraceReader::RecoverStats stats;
    EXPECT_TRUE(TraceReader::recoverAll(path, &stats).empty()) << path;
    EXPECT_EQ(stats.skipped, 0u) << path;
    std::remove(path.c_str());
  }

  // A v2 trace whose file magic alone is damaged: strict mode refuses
  // it, recover mode finds every extent.
  writeV2(path_, recs);
  patchBytes(path_, 0, "XXXX");
  expectThrowMentioning([&] { TraceReader reader(path_); },
                        "not a v2 trace: " + path_);
  TraceReader::RecoverStats stats;
  EXPECT_EQ(TraceReader::recoverAll(path_, &stats).size(), recs.size());
  EXPECT_EQ(stats.skipped, 0u);
}

TEST_F(TraceV2Test, WriterRefusesAPayloadPastTheCap) {
  // The writer never seals what a reader would refuse: a record whose
  // name alone exceeds the payload cap throws instead.
  TraceRecord r = randomRecords(1)[0];
  r.op = NfsOp::Lookup;
  r.name.assign(tracev2::kExtentMaxPayloadBytes + 1, 'x');
  TraceWriter w(path_);
  EXPECT_THROW(w.write(r), std::runtime_error);
}

// --------------------------------------------------------------- recovery

TEST_F(TraceV2Test, TruncatedTailExtentIsDroppedWithExactAccounting) {
  auto recs = randomRecords(1000, /*seed=*/5);
  writeV2(path_, recs, /*extentRecords=*/256);  // 3 full + 1 tail extent
  auto index = tracev2::loadChainedIndex(path_);
  ASSERT_TRUE(index.has_value());
  ASSERT_EQ(index->size(), 4u);

  // Cut mid-way through the last extent's payload (also destroying the
  // footer index after it).
  const auto& last = index->back();
  std::filesystem::resize_file(
      path_, last.offset + tracev2::kExtentHeaderBytes + 16);
  EXPECT_FALSE(tracev2::loadChainedIndex(path_).has_value());

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
  auto index = tracev2::loadChainedIndex(path_);
  ASSERT_TRUE(index.has_value());
  ASSERT_EQ(index->size(), 4u);

  // Flip one byte inside extent 1's payload: its CRC fails and the
  // reader must resume cleanly at extent 2's header.
  const auto& victim = (*index)[1];
  flipByte(path_, victim.offset + tracev2::kExtentHeaderBytes + 40);

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
  auto index = tracev2::loadChainedIndex(path_);
  ASSERT_TRUE(index.has_value());

  // Smash extent 2's header magic: the reader cannot trust even the
  // record count, so it byte-scans for extent 3 and the checkpoint math
  // charges the gap exactly.
  const auto& victim = (*index)[2];
  patchBytes(path_, victim.offset, "XXXX");

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
  auto index = tracev2::loadChainedIndex(path_);
  ASSERT_TRUE(index.has_value());
  const auto& victim = (*index)[1];
  flipByte(path_, victim.offset + tracev2::kExtentHeaderBytes + 8);

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

// ------------------------------------------------------- hostile sizes

/// Run `body` in a forked child whose address space may grow at most
/// `headroom` bytes past its size at the fork, and return the child's
/// exit code (128 + signal when it died).  A reader that sizes an
/// allocation from a hostile count then fails inside the child — with
/// std::bad_alloc, exit 3 — instead of exhausting the machine's memory.
int runUnderMemoryCap(const std::function<int()>& body,
                      std::uint64_t headroom) {
  pid_t pid = ::fork();
  if (pid == 0) {
    long pages = 0;
    if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
      if (std::fscanf(f, "%ld", &pages) != 1) pages = 0;
      std::fclose(f);
    }
    rlimit cap{};
    cap.rlim_cur = cap.rlim_max =
        static_cast<rlim_t>(pages) * ::sysconf(_SC_PAGESIZE) + headroom;
    int code = 2;
    if (pages > 0 && ::setrlimit(RLIMIT_AS, &cap) == 0) {
      try {
        code = body();
      } catch (const std::bad_alloc&) {
        code = 3;
      } catch (...) {
        code = 4;
      }
    }
    ::_exit(code);
  }
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

void putLe(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>(v >> (8 * i)));
  }
}

/// A CRC-valid extent header, as the writer lays it out.
std::string extentHeader(std::uint32_t payloadBytes, std::uint32_t records,
                         std::uint64_t recordsBefore,
                         std::uint32_t payloadCrc) {
  std::string h(tracev2::kExtentMagic, sizeof(tracev2::kExtentMagic));
  putLe(h, payloadBytes, 4);
  putLe(h, records, 4);
  putLe(h, recordsBefore, 8);
  putLe(h, 0, 8);  // tsFirst
  putLe(h, payloadCrc, 4);
  putLe(h, crc32(h.data(), h.size()), 4);
  return h;
}

TEST_F(TraceV2Test, HostileSizesCannotForceHugeAllocations) {
  auto recs = randomRecords(256, /*seed=*/29);
  writeV2(path_, recs, /*extentRecords=*/64);  // four extents
  auto index = tracev2::loadChainedIndex(path_);
  ASSERT_TRUE(index.has_value());
  ASSERT_EQ(index->size(), 4u);
  const std::string clean = readBytes(path_);

  // (a) Extent 1's header claims a 3.5 GB payload, its CRC recomputed:
  // above the format's cap, so it is a bad header like any other.
  const tracev2::ExtentInfo& victim = (*index)[1];
  std::string bigHeader = clean;
  bigHeader.replace(victim.offset, tracev2::kExtentHeaderBytes,
                    extentHeader(0xD0000000u, victim.records, 64, 0));
  const std::string headerPath = path_ + ".hdr";
  writeBytes(headerPath, bigHeader);

  // (b) A one-record extent whose CRC-valid payload opens with a
  // handle-dictionary count of 2^28 entries in a 64-byte payload.
  std::string payload;
  std::uint64_t count = 1ull << 28;
  for (; count >= 0x80; count >>= 7) {
    payload.push_back(static_cast<char>(count | 0x80));
  }
  payload.push_back(static_cast<char>(count));
  payload.resize(64, '\0');
  std::string bigCount =
      clean.substr(0, static_cast<std::size_t>((*index)[0].offset));
  bigCount += extentHeader(static_cast<std::uint32_t>(payload.size()), 1, 0,
                           crc32(payload.data(), payload.size()));
  bigCount += payload;
  const std::string countPath = path_ + ".count";
  writeBytes(countPath, bigCount);

  const std::uint64_t others = recs.size() - victim.records;
  int code = runUnderMemoryCap(
      [&]() -> int {
        try {
          TraceReader::readAll(headerPath);
          return 10;  // strict mode must refuse the header
        } catch (const std::runtime_error&) {
        }
        TraceReader::RecoverStats rs;
        if (TraceReader::recoverAll(headerPath, &rs).size() != others ||
            rs.skipped != victim.records || rs.resyncs != 1) {
          return 11;  // recover mode skips it with exact accounting
        }
        try {
          TraceReader::readAll(countPath);
          return 12;  // strict mode must refuse the payload
        } catch (const std::runtime_error&) {
        }
        if (!TraceReader::recoverAll(countPath, &rs).empty() ||
            rs.skipped != 1) {
          return 13;
        }
        return 0;
      },
      /*headroom=*/256ull << 20);
  std::remove(headerPath.c_str());
  std::remove(countPath.c_str());
  EXPECT_EQ(code, 0) << "3 = std::bad_alloc under a 256 MB allowance";
}

TEST_F(TraceV2Test, RecoverSkipsAnExtentWhoseColumnsRunShort) {
  // A CRC-valid extent claiming five records over three empty
  // dictionaries and empty columns, spliced in ahead of extent 1: strict
  // mode throws, and recover mode skips it whole at any batch size.
  auto recs = randomRecords(256, /*seed=*/31);
  writeV2(path_, recs, /*extentRecords=*/64);
  auto index = tracev2::loadChainedIndex(path_);
  ASSERT_TRUE(index.has_value());
  const std::string payload(3 + 21, '\0');
  std::string bytes = readBytes(path_);
  bytes.insert((*index)[1].offset,
               extentHeader(static_cast<std::uint32_t>(payload.size()), 5,
                            64, crc32(payload.data(), payload.size())) +
                   payload);
  writeBytes(path_, bytes);

  EXPECT_THROW(TraceReader::readAll(path_), std::runtime_error);
  TraceReader::RecoverStats rs;
  EXPECT_EQ(TraceReader::recoverAll(path_, &rs).size(), recs.size());
  EXPECT_EQ(rs.skipped, 5u);
  EXPECT_EQ(rs.resyncs, 1u);
  for (std::size_t batchRecords : {1u, 3u, 4096u}) {
    TraceReader reader(path_, /*recover=*/true);
    TraceBatch batch;
    std::size_t n = 0;
    while (reader.nextBatch(batch, batchRecords)) n += batch.n;
    EXPECT_EQ(n, recs.size()) << batchRecords;
    EXPECT_EQ(reader.recoverStats().skipped, 5u) << batchRecords;
  }
}

}  // namespace
}  // namespace nfstrace
