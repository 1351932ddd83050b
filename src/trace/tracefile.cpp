#include "trace/tracefile.hpp"

#include "obs/timer.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <thread>

#include <unistd.h>

#include "fault/fault.hpp"
#include "util/crc32.hpp"
#include "util/strings.hpp"

namespace nfstrace {
namespace {

/// Flush the writer's batch buffer once it grows past this.
constexpr std::size_t kWriterFlushBytes = 64 * 1024;
/// Reader chunk size for the text format.
constexpr std::size_t kReaderChunkBytes = 64 * 1024;

constexpr char kHexDigits[] = "0123456789abcdef";

void appendEncodedField(std::string& out, const std::string& s) {
  // Percent-encode the characters that would break the line format.
  for (unsigned char c : s) {
    if (c <= ' ' || c == '%' || c == '=' || c == 0x7f) {
      out.push_back('%');
      out.push_back(kHexDigits[c >> 4]);
      out.push_back(kHexDigits[c & 0xf]);
    } else {
      out.push_back(static_cast<char>(c));
    }
  }
}

void decodeFieldInto(std::string_view s, std::string& out) {
  out.clear();
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
      };
      int hi = hex(s[i + 1]), lo = hex(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
        continue;
      }
    }
    out.push_back(s[i]);
  }
}

void appendUint(std::string& out, std::uint64_t v) {
  char buf[24];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void appendTime(std::string& out, MicroTime t) {
  MicroTime sec = t / kMicrosPerSecond;
  MicroTime usec = t % kMicrosPerSecond;
  if (t < 0) {  // match printf semantics for negative times
    char buf[40];
    int n = std::snprintf(buf, sizeof(buf), "%" PRId64 ".%06" PRId64, sec,
                          usec);
    out.append(buf, static_cast<std::size_t>(n));
    return;
  }
  appendUint(out, static_cast<std::uint64_t>(sec));
  char frac[7] = {'.', '0', '0', '0', '0', '0', '0'};
  for (int i = 6; usec && i >= 1; --i) {
    frac[i] = static_cast<char>('0' + usec % 10);
    usec /= 10;
  }
  out.append(frac, 7);
}

void appendIp(std::string& out, IpAddr ip) {
  appendUint(out, (ip >> 24) & 0xff);
  out.push_back('.');
  appendUint(out, (ip >> 16) & 0xff);
  out.push_back('.');
  appendUint(out, (ip >> 8) & 0xff);
  out.push_back('.');
  appendUint(out, ip & 0xff);
}

// Byte -> two-hex-char pair table; one append per byte instead of two
// push_backs on the record-format hot path.
constexpr std::array<std::array<char, 2>, 256> makeHexPairs() {
  std::array<std::array<char, 2>, 256> t{};
  for (std::size_t b = 0; b < 256; ++b) {
    t[b][0] = kHexDigits[b >> 4];
    t[b][1] = kHexDigits[b & 0xf];
  }
  return t;
}
constexpr std::array<std::array<char, 2>, 256> kHexPairs = makeHexPairs();

void appendFhHex(std::string& out, const FileHandle& fh) {
  char buf[kFhSize3 * 2];
  char* w = buf;
  for (std::size_t i = 0; i < fh.len; ++i) {
    const auto& pair = kHexPairs[fh.data[i]];
    *w++ = pair[0];
    *w++ = pair[1];
  }
  out.append(buf, static_cast<std::size_t>(w - buf));
}

MicroTime parseTimeField(std::string_view v) {
  // Allocation-free: seconds via from_chars, the fraction digit by digit
  // (a short fraction scales up, "5" -> 500000, as if zero-padded to six).
  auto dot = v.find('.');
  std::int64_t sec = 0, usec = 0;
  const char* secEnd =
      v.data() + (dot == std::string_view::npos ? v.size() : dot);
  std::from_chars(v.data(), secEnd, sec);
  if (dot != std::string_view::npos) {
    std::string_view frac = v.substr(dot + 1);
    std::size_t i = 0;
    for (; i < frac.size() && i < 6; ++i) {
      char c = frac[i];
      if (c < '0' || c > '9') break;
      usec = usec * 10 + (c - '0');
    }
    bool hitNonDigit = i < frac.size() && i < 6;
    if (!hitNonDigit) {
      for (std::size_t j = frac.size(); j < 6; ++j) usec *= 10;
    }
  }
  return sec * kMicrosPerSecond + usec;
}

std::uint64_t parseU64(std::string_view v, int base = 10) {
  std::uint64_t out = 0;
  std::from_chars(v.data(), v.data() + v.size(), out, base);
  return out;
}

}  // namespace

void appendRecord(std::string& out, const TraceRecord& rec) {
  out += "t=";
  appendTime(out, rec.ts);
  if (rec.hasReply) {
    out += " r=";
    appendTime(out, rec.replyTs);
  }
  out += " c=";
  appendIp(out, rec.client);
  out += " s=";
  appendIp(out, rec.server);
  out += " xid=";
  for (int shift = 28; shift >= 0; shift -= 4) {
    out.push_back(kHexDigits[(rec.xid >> shift) & 0xf]);
  }
  out += " v=";
  appendUint(out, rec.vers);
  out += rec.overTcp ? " p=tcp op=" : " p=udp op=";
  out += nfsOpName(rec.op);
  out += " uid=";
  appendUint(out, rec.uid);
  out += " gid=";
  appendUint(out, rec.gid);
  if (rec.fh.len) {
    out += " fh=";
    appendFhHex(out, rec.fh);
  }
  if (!rec.name.empty()) {
    out += " nm=";
    appendEncodedField(out, rec.name);
  }
  if (!rec.name2.empty()) {
    out += " nm2=";
    appendEncodedField(out, rec.name2);
  }
  if (rec.fh2.len) {
    out += " fh2=";
    appendFhHex(out, rec.fh2);
  }
  if (rec.op == NfsOp::Read || rec.op == NfsOp::Write ||
      rec.op == NfsOp::Commit) {
    out += " off=";
    appendUint(out, rec.offset);
    out += " cnt=";
    appendUint(out, rec.count);
  }
  if (rec.hasReply) {
    out += " st=";
    out += nfsStatName(rec.status);
    if (rec.op == NfsOp::Read || rec.op == NfsOp::Write) {
      out += " ret=";
      appendUint(out, rec.retCount);
    }
    if (rec.op == NfsOp::Read) out += rec.eof ? " eof=1" : " eof=0";
    if (rec.hasResFh) {
      out += " rfh=";
      appendFhHex(out, rec.resFh);
    }
    if (rec.hasAttrs) {
      out += " ft=";
      appendUint(out, static_cast<std::uint32_t>(rec.ftype));
      out += " sz=";
      appendUint(out, rec.fileSize);
      out += " mt=";
      appendTime(out, rec.fileMtime);
      out += " fid=";
      appendUint(out, rec.fileId);
    }
    if (rec.hasPre) {
      out += " psz=";
      appendUint(out, rec.preSize);
      out += " pmt=";
      appendTime(out, rec.preMtime);
    }
  }
}

std::string formatRecord(const TraceRecord& rec) {
  std::string out;
  out.reserve(192);
  appendRecord(out, rec);
  return out;
}

namespace {

/// Pack a short field key ("xid", "t", ...) into an integer so the parser
/// dispatches with one switch instead of a string-compare cascade.
constexpr std::uint32_t packKey(std::string_view k) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < k.size() && i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(k[i]))
         << (8 * i);
  }
  return v;
}

}  // namespace

bool parseRecordInto(std::string_view line, TraceRecord& rec) {
  if (line.empty() || line[0] == '#') return false;
  resetRecordKeepCapacity(rec);
  bool sawTime = false;
  const char* p = line.data();
  const char* lineEnd = p + line.size();
  while (p < lineEnd) {
    const char* sp = static_cast<const char*>(
        std::memchr(p, ' ', static_cast<std::size_t>(lineEnd - p)));
    const char* tokEnd = sp ? sp : lineEnd;
    const char* eq = static_cast<const char*>(
        std::memchr(p, '=', static_cast<std::size_t>(tokEnd - p)));
    if (!eq) {  // empty token or no '=': ignore, as before
      p = tokEnd + 1;
      continue;
    }
    std::string_view key(p, static_cast<std::size_t>(eq - p));
    std::string_view val(eq + 1, static_cast<std::size_t>(tokEnd - eq - 1));
    p = tokEnd + 1;
    if (key.size() > 3) continue;  // unknown keys are intentionally ignored
    switch (packKey(key)) {
      case packKey("t"):
        rec.ts = parseTimeField(val);
        sawTime = true;
        break;
      case packKey("r"):
        rec.replyTs = parseTimeField(val);
        rec.hasReply = true;
        break;
      case packKey("c"): {
        auto ip = ipFromString(val);
        if (!ip) throw std::runtime_error("trace: bad client ip");
        rec.client = *ip;
        break;
      }
      case packKey("s"): {
        auto ip = ipFromString(val);
        if (!ip) throw std::runtime_error("trace: bad server ip");
        rec.server = *ip;
        break;
      }
      case packKey("xid"):
        rec.xid = static_cast<std::uint32_t>(parseU64(val, 16));
        break;
      case packKey("v"):
        rec.vers = static_cast<std::uint8_t>(parseU64(val));
        break;
      case packKey("p"):
        rec.overTcp = val == "tcp";
        break;
      case packKey("op"):
        rec.op = nfsOpFromName(val);
        break;
      case packKey("uid"):
        rec.uid = static_cast<std::uint32_t>(parseU64(val));
        break;
      case packKey("gid"):
        rec.gid = static_cast<std::uint32_t>(parseU64(val));
        break;
      case packKey("fh"):
        rec.fh = FileHandle::fromHex(val);
        break;
      case packKey("nm"):
        decodeFieldInto(val, rec.name);
        break;
      case packKey("nm2"):
        decodeFieldInto(val, rec.name2);
        break;
      case packKey("fh2"):
        rec.fh2 = FileHandle::fromHex(val);
        break;
      case packKey("off"):
        rec.offset = parseU64(val);
        break;
      case packKey("cnt"):
        rec.count = static_cast<std::uint32_t>(parseU64(val));
        break;
      case packKey("st"):
        // Match by name; unknown statuses parse as ServerFault.
        rec.status = nfsStatFromName(val);
        break;
      case packKey("ret"):
        rec.retCount = static_cast<std::uint32_t>(parseU64(val));
        break;
      case packKey("eof"):
        rec.eof = val == "1";
        break;
      case packKey("rfh"):
        rec.resFh = FileHandle::fromHex(val);
        rec.hasResFh = true;
        break;
      case packKey("ft"):
        rec.ftype = static_cast<FileType>(parseU64(val));
        rec.hasAttrs = true;
        break;
      case packKey("sz"):
        rec.fileSize = parseU64(val);
        rec.hasAttrs = true;
        break;
      case packKey("mt"):
        rec.fileMtime = parseTimeField(val);
        rec.hasAttrs = true;
        break;
      case packKey("fid"):
        rec.fileId = parseU64(val);
        break;
      case packKey("psz"):
        rec.preSize = parseU64(val);
        rec.hasPre = true;
        break;
      case packKey("pmt"):
        rec.preMtime = parseTimeField(val);
        rec.hasPre = true;
        break;
      default:
        break;  // unknown keys are intentionally ignored
    }
  }
  if (!sawTime) throw std::runtime_error("trace: record missing timestamp");
  return true;
}

std::optional<TraceRecord> parseRecord(const std::string& line) {
  TraceRecord rec;
  if (!parseRecordInto(line, rec)) return std::nullopt;
  return rec;
}

// ----------------------------------------------------------------- file I/O

namespace {

/// Magic of the retired v1 binary format, kept only to reject such files
/// with a clear error instead of misreading them as text.
constexpr char kV1BinaryMagic[6] = {'N', 'F', 'S', 'T', '1', '\n'};
constexpr char kTextCkptPrefix[] = "#ckpt";

std::uint32_t getU32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

[[noreturn]] void rejectV1Binary(const std::string& path) {
  throw std::runtime_error("trace: v1 binary traces are no longer read: " +
                           path);
}

void sleepAndGrow(MicroTime& us, MicroTime maxUs) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
  us = std::min<MicroTime>(us * 2, maxUs > 0 ? maxUs : us * 2);
}

}  // namespace

TraceWriter::TraceWriter(const std::string& path, Format format)
    : TraceWriter(path, Options{.format = format}) {}

TraceWriter::TraceWriter(const std::string& path, const Options& opts)
    : format_(opts.format), opts_(opts) {
  f_ = std::fopen(path.c_str(), "wb");
  if (!f_) throw std::runtime_error("trace: cannot open for write: " + path);
  buf_.reserve(kWriterFlushBytes + 4096);
  try {
    if (format_ == Format::V2) {
      std::string preamble(tracev2::kFileMagic, sizeof(tracev2::kFileMagic));
      tracev2::appendSchema(preamble);
      writeAll(preamble.data(), preamble.size());
      v2enc_ = std::make_unique<tracev2::ExtentEncoder>();
    }
  } catch (...) {
    // Header write failed (e.g. the disk is already full): release the
    // stream before the throw — no destructor runs for a failed ctor.
    std::fclose(f_);
    f_ = nullptr;
    throw;
  }
}

TraceWriter::~TraceWriter() {
  if (f_) {
    try {
      finalize();
    } catch (...) {
      // Destructor must not throw; finalize() already released the fd on
      // its error path.
    }
  }
}

void TraceWriter::finalize(bool syncToDisk) {
  if (!f_) return;
  try {
    if (format_ == Format::V2) {
      // Seal the partial tail extent, then the footer index + trailer
      // that make the file seekable.  A crash before this point leaves
      // a valid index-less file the reader handles sequentially.
      sealV2Extent();
      tracev2::appendIndex(buf_, v2extents_, fileBytes_ + buf_.size());
      flushBuffer();
    } else if (opts_.checkpointEveryRecords > 0 && count_ > lastCkptCount_) {
      // A final checkpoint seals the tail so a recovering reader can
      // account for every record even if the file is later damaged.
      appendCheckpoint();
    }
    flushBuffer();
    if (std::fflush(f_) != 0) {
      throw std::runtime_error("trace: flush failed at finalize");
    }
    if (syncToDisk && ::fsync(fileno(f_)) != 0) {
      throw std::runtime_error("trace: fsync failed at finalize");
    }
  } catch (...) {
    std::fclose(f_);
    f_ = nullptr;
    throw;
  }
  std::fclose(f_);
  f_ = nullptr;
}

void TraceWriter::write(const TraceRecord& rec) {
  if (!f_) throw std::runtime_error("trace: write after finalize");
  if (format_ == Format::V2) {
    v2enc_->add(rec);
    ++count_;
    if (v2enc_->records() >= opts_.v2ExtentRecords ||
        v2enc_->pendingBytes() >= opts_.v2ExtentMaxBytes) {
      sealV2Extent();
    }
    return;
  }
  appendRecord(buf_, rec);
  buf_.push_back('\n');
  ++count_;
  if (opts_.checkpointEveryRecords > 0 &&
      count_ - lastCkptCount_ >= opts_.checkpointEveryRecords) {
    appendCheckpoint();
  }
  if (buf_.size() >= kWriterFlushBytes) flushBuffer();
}

void TraceWriter::sealV2Extent() {
  if (!v2enc_ || v2enc_->records() == 0) return;
  std::uint64_t recordsBefore = count_ - v2enc_->records();
  v2extents_.push_back(
      v2enc_->seal(buf_, recordsBefore, fileBytes_ + buf_.size()));
  lastCkptCount_ = count_;
  ++ioStats_.checkpoints;
  ckptC_.inc();
  if (flog_) flog_->instant(obs::Stage::WriterCheckpoint, count_);
  // Crash consistency, as with text checkpoints: the whole extent reaches
  // the OS before more records are buffered.
  flushBuffer();
  std::fflush(f_);
}

void TraceWriter::appendCheckpoint() {
  buf_ += kTextCkptPrefix;
  buf_ += " n=";
  appendUint(buf_, count_);
  buf_.push_back('\n');
  lastCkptCount_ = count_;
  ++ioStats_.checkpoints;
  ckptC_.inc();
  if (flog_) flog_->instant(obs::Stage::WriterCheckpoint, count_);
  // Crash consistency: everything up to and including the footer is
  // pushed to the OS before more records are buffered.
  flushBuffer();
  std::fflush(f_);
}

void TraceWriter::attachMetrics(obs::Registry& registry) {
  recordsC_ = registry.counterHandle("trace.records_written", 0);
  bytesC_ = registry.counterHandle("trace.bytes_written", 0);
  retriesC_ = registry.counterHandle("trace.write_retries", 0);
  shortWritesC_ = registry.counterHandle("trace.short_writes", 0);
  ckptC_ = registry.counterHandle("trace.checkpoints", 0);
  flushNs_ = registry.histogramHandle("trace.flush_ns", 0);
}

void TraceWriter::attachFlight(obs::FlightRecorder& flight) {
  flog_ = flight.attachThread("trace.writer");
}

void TraceWriter::flushBuffer() {
  if (count_ != publishedCount_) {
    recordsC_.inc(count_ - publishedCount_);
    publishedCount_ = count_;
  }
  if (buf_.empty()) return;
  obs::TimerSpan span(flushNs_);
  std::uint64_t flightStart = flog_ ? flog_->nowNs() : 0;
  std::size_t bytes = buf_.size();
  writeAll(buf_.data(), buf_.size());
  bytesC_.inc(buf_.size());
  buf_.clear();
  if (flog_) {
    flog_->complete(obs::Stage::WriterFlush, flightStart,
                    static_cast<std::uint32_t>(bytes));
  }
}

void TraceWriter::writeAll(const char* p, std::size_t n) {
  int failures = 0;
  MicroTime backoff = opts_.backoffInitialUs;
  while (n > 0) {
    std::size_t attempt = n;
    if (opts_.faults) {
      IoFaultInjector::Fault fault = opts_.faults->nextWrite(n);
      if (fault.kind == IoFaultInjector::Kind::Eio ||
          fault.kind == IoFaultInjector::Kind::Enospc) {
        // Simulated transient error: nothing reached the disk.
        ++ioStats_.retries;
        retriesC_.inc();
        if (flog_) flog_->instant(obs::Stage::WriterRetry, n);
        if (++failures > opts_.maxRetries) {
          throw std::runtime_error("trace: write failed after retries");
        }
        sleepAndGrow(backoff, opts_.backoffMaxUs);
        continue;
      }
      if (fault.kind == IoFaultInjector::Kind::ShortWrite &&
          fault.shortLen < n) {
        attempt = fault.shortLen;
        ++ioStats_.shortWrites;
        shortWritesC_.inc();
      }
    }
    std::size_t got = std::fwrite(p, 1, attempt, f_);
    if (got > 0) fileBytes_ += got;
    if (got > 0) {
      // Progress (possibly partial) resets the failure clock, matching
      // how short writes are handled on a real write(2) loop.
      if (got < attempt) {
        ++ioStats_.shortWrites;
        shortWritesC_.inc();
        std::clearerr(f_);
      }
      p += got;
      n -= got;
      failures = 0;
      backoff = opts_.backoffInitialUs;
      continue;
    }
    std::clearerr(f_);
    ++ioStats_.retries;
    retriesC_.inc();
    if (flog_) flog_->instant(obs::Stage::WriterRetry, n);
    if (++failures > opts_.maxRetries) {
      throw std::runtime_error("trace: write failed after retries");
    }
    sleepAndGrow(backoff, opts_.backoffMaxUs);
  }
}

void TraceWriter::flush() {
  if (!f_) return;  // already finalized
  // V2: flushing durability means sealing — records still in the extent
  // encoder are not on disk until their extent is.
  if (format_ == Format::V2) {
    sealV2Extent();  // flushes + fflushes when it had records
  }
  flushBuffer();
  std::fflush(f_);
}

TraceReader::TraceReader(const std::string& path, bool recover,
                         const ScanPredicate& predicate)
    : recover_(recover) {
  f_ = std::fopen(path.c_str(), "rb");
  if (!f_) throw std::runtime_error("trace: cannot open for read: " + path);
  char magic[sizeof(tracev2::kFileMagic)];
  std::size_t got = std::fread(magic, 1, sizeof(magic), f_);
  if (got == sizeof(magic) &&
      std::memcmp(magic, kV1BinaryMagic, sizeof(magic)) == 0) {
    std::fclose(f_);
    f_ = nullptr;
    rejectV1Binary(path);
  }
  if (got == sizeof(magic) &&
      std::memcmp(magic, tracev2::kFileMagic, sizeof(magic)) == 0) {
    v2_ = true;
    // Validate + skip the schema block.  In recover mode a damaged
    // schema is survivable — the extent scan resynchronises — so only
    // strict mode rejects the file here.
    std::string error = "bad schema header";
    unsigned char shdr[8];
    if (std::fread(shdr, 1, sizeof(shdr), f_) == sizeof(shdr)) {
      std::uint32_t len = getU32(shdr + 4);
      if (len <= 64 * 1024) {
        std::string block(reinterpret_cast<const char*>(shdr), sizeof(shdr));
        block.resize(sizeof(shdr) + len);
        if (std::fread(block.data() + sizeof(shdr), 1, len, f_) == len &&
            tracev2::parseSchema(block.data(), block.size(), &error)) {
          error.clear();
        }
      }
    }
    if (!error.empty() && !recover_) {
      std::fclose(f_);
      f_ = nullptr;
      throw std::runtime_error("trace v2: " + error + ": " + path);
    }
    // The footer promised every extent, so a pruned scan is strict only;
    // without a clean chained index the sequential scan reads the same
    // records.
    if (!recover_ && !predicate.trivial()) {
      if (auto index = tracev2::loadChainedIndex(path)) {
        pruning_ = true;
        extentsTotal_ = index->size();
        for (const tracev2::ExtentInfo& e : *index) {
          if (e.records == 0) continue;
          if (!predicate.mayMatch(e)) {
            ++extentsPruned_;
            continue;
          }
          extents_.push_back(e);
        }
      }
    }
  } else {
    std::rewind(f_);
  }
}

TraceReader::~TraceReader() {
  if (f_) std::fclose(f_);
}

bool TraceReader::refill() {
  chunk_.resize(kReaderChunkBytes);
  std::size_t got = std::fread(chunk_.data(), 1, chunk_.size(), f_);
  chunk_.resize(got);
  pos_ = 0;
  return got > 0;
}

bool TraceReader::nextInto(TraceRecord& rec) {
  if (pendingValid_) {
    // A record decoded past a resync boundary was held back to open the
    // next batch; hand it out before touching the file again.
    rec = std::move(pending_);
    pendingValid_ = false;
    return true;
  }
  return v2_ ? nextV2Into(rec) : nextTextInto(rec);
}

bool TraceReader::nextBatch(TraceBatch& batch, std::size_t maxRecords) {
  if (maxRecords == 0) maxRecords = TraceBatch::kDefaultCapacity;
  batch.nameInterner = &names_;
  batch.handleInterner = &handles_;
  batch.endedAtResync = false;
  batch.opMask = kAllOpsMask;
  if (batch.records.size() < maxRecords) batch.records.resize(maxRecords);
  batch.fhId.resize(maxRecords);
  batch.fh2Id.resize(maxRecords);
  batch.resFhId.resize(maxRecords);
  batch.nameId.resize(maxRecords);
  batch.name2Id.resize(maxRecords);
  batch.n = 0;
  if (v2_) return nextBatchV2(batch, maxRecords);
  auto fhView = [](const FileHandle& fh) {
    return std::string_view(reinterpret_cast<const char*>(fh.data.data()),
                            fh.len);
  };
  while (batch.n < maxRecords) {
    std::uint64_t resyncsBefore = rstats_.resyncs;
    TraceRecord& slot = batch.records[batch.n];
    if (!nextInto(slot)) break;
    if (recover_ && rstats_.resyncs != resyncsBefore && batch.n > 0) {
      // The decode crossed a corrupt region: close this batch at the
      // boundary and open the next one with the record just decoded.
      pending_ = std::move(slot);
      pendingValid_ = true;
      batch.endedAtResync = true;
      break;
    }
    batch.fhId[batch.n] = handles_.intern(fhView(slot.fh));
    batch.fh2Id[batch.n] = handles_.intern(fhView(slot.fh2));
    batch.resFhId[batch.n] = handles_.intern(fhView(slot.resFh));
    batch.nameId[batch.n] = names_.intern(slot.name);
    batch.name2Id[batch.n] = names_.intern(slot.name2);
    ++batch.n;
  }
  if (batch.n == 0) return false;
  batch.seq = batchSeq_++;
  return true;
}

bool TraceReader::nextBatchV2(TraceBatch& batch, std::size_t maxRecords) {
  // The v2 fast path: extent columns decode straight into the batch
  // arena, and the extent dictionaries were already interned at load
  // time, so there is no per-record parse and no per-record hash lookup —
  // the decoder hands back the global ids directly.  A batch holds
  // records of one extent only, so it carries that extent's op bitmask.
  while (batch.n < maxRecords) {
    if (!v2dec_ || v2dec_->remaining() == 0) {
      std::uint64_t resyncsBefore = rstats_.resyncs;
      if (!loadNextV2Extent()) break;
      if (batch.n > 0) {
        // Close the batch at the extent boundary, flagging a resync past
        // a corrupt region in between.  The freshly loaded extent stays
        // in the decoder and opens the next batch.
        batch.endedAtResync = rstats_.resyncs != resyncsBefore;
        break;
      }
    }
    batch.opMask = extentOpMask_;
    tracev2::ExtentDecoder::BatchOut out;
    out.recs = batch.records.data() + batch.n;
    out.fh = batch.fhId.data() + batch.n;
    out.fh2 = batch.fh2Id.data() + batch.n;
    out.resFh = batch.resFhId.data() + batch.n;
    out.name = batch.nameId.data() + batch.n;
    out.name2 = batch.name2Id.data() + batch.n;
    std::size_t got = v2dec_->take(out, maxRecords - batch.n);
    rstats_.recovered += got;
    batch.n += got;
  }
  if (batch.n == 0) return false;
  batch.seq = batchSeq_++;
  return true;
}

bool TraceReader::nextV2Into(TraceRecord& rec) {
  for (;;) {
    if (v2dec_ && v2dec_->remaining() > 0) {
      v2dec_->next(rec, nullptr);
      ++rstats_.recovered;
      return true;
    }
    if (!loadNextV2Extent()) return false;
  }
}

bool TraceReader::loadNextV2Extent() {
  for (;;) {
    // Pruned scan: seek to the next surviving extent; everything after
    // the seek is the sequential path's code.
    const tracev2::ExtentInfo* indexed = nullptr;
    if (pruning_) {
      if (nextExtent_ == extents_.size()) return false;
      indexed = &extents_[nextExtent_++];
      if (std::fseek(f_, static_cast<long>(indexed->offset), SEEK_SET) != 0) {
        throw std::runtime_error("trace v2: cannot seek to indexed extent");
      }
    }
    unsigned char hdrBuf[tracev2::kExtentHeaderBytes];
    std::size_t got = std::fread(hdrBuf, 1, sizeof(hdrBuf), f_);
    if (got == 0 && !indexed) return false;
    // A footer index ends one sealed segment's record stream — but the
    // file may be several sealed segments concatenated back to back
    // (cat of the daemon's output), so try to hop the footer into the
    // next segment before declaring EOF.  On a plain single-segment
    // file the hop fails and the stream is left positioned back at the
    // footer, so a later call (the next nextBatch after a partial last
    // batch) sees it again instead of misaligned footer bytes.
    if (!indexed && got >= sizeof(tracev2::kIndexMagic) &&
        std::memcmp(hdrBuf, tracev2::kIndexMagic,
                    sizeof(tracev2::kIndexMagic)) == 0) {
      long footerStart = std::ftell(f_) - static_cast<long>(got);
      if (chainNextV2Segment(footerStart)) continue;
      std::fseek(f_, footerStart, SEEK_SET);
      return false;
    }
    tracev2::ExtentHeader hdr;
    if (got < sizeof(hdrBuf) || !tracev2::parseExtentHeader(hdrBuf, hdr)) {
      if (!recover_) {
        throw std::runtime_error("trace v2: bad extent header");
      }
      ++rstats_.resyncs;
      if (!scanToV2Extent(hdr)) return false;
    }
    if (indexed && hdr.records != indexed->records) {
      throw std::runtime_error(
          "trace v2: extent header disagrees with the footer index");
    }
    extentOpMask_ = indexed ? indexed->opMask : kAllOpsMask;
    // A valid header is a checkpoint: its cumulative count charges any
    // records a skipped region ate to `skipped`, exactly.
    reconcileCheckpoint(hdr.recordsBefore);
    if (!v2dec_) v2dec_ = std::make_unique<tracev2::ExtentDecoder>();
    auto& buf = v2dec_->buffer();
    if (buf.size() < hdr.payloadBytes) buf.resize(hdr.payloadBytes);
    if (std::fread(buf.data(), 1, hdr.payloadBytes, f_) != hdr.payloadBytes) {
      // Torn tail: the extent's record count is known from its (valid)
      // header, so the loss is accounted exactly.
      if (!recover_) {
        throw std::runtime_error("trace v2: truncated extent payload");
      }
      rstats_.skipped += hdr.records;
      ++rstats_.resyncs;
      return false;
    }
    if (crc32(buf.data(), hdr.payloadBytes) != hdr.payloadCrc) {
      if (!recover_) {
        throw std::runtime_error("trace v2: extent payload CRC mismatch");
      }
      rstats_.skipped += hdr.records;
      ++rstats_.resyncs;
      continue;  // the next extent header follows immediately
    }
    try {
      v2dec_->load(hdr, names_, handles_);
    } catch (const std::exception&) {
      // CRC-valid but undecodable payload (in practice a CRC collision
      // over corrupt bytes): treat like a CRC failure.
      if (!recover_) throw;
      rstats_.skipped += hdr.records;
      ++rstats_.resyncs;
      continue;
    }
    return true;
  }
}

bool TraceReader::chainNextV2Segment(long footerStart) {
  // Hop the footer (entry count x fixed entry width, CRC, offset,
  // trailer) and accept the landing spot only if a trailer magic ends
  // the footer and a fresh file magic + valid schema block follows.  Any
  // other landing spot means either a single-segment file (trailer then
  // EOF) or a torn concatenation; the caller seeks back and stops
  // cleanly.
  unsigned char head[8];
  if (std::fseek(f_, footerStart, SEEK_SET) != 0 ||
      std::fread(head, 1, 8, f_) != 8) {
    return false;
  }
  std::uint64_t count = getU32(head + 4);
  long end = footerStart + static_cast<long>(
                               8 + count * tracev2::kIndexEntryBytes + 4 + 8 + 8);
  unsigned char tail[8];
  if (std::fseek(f_, end - 8, SEEK_SET) != 0 ||
      std::fread(tail, 1, 8, f_) != 8 ||
      std::memcmp(tail, tracev2::kTrailerMagic,
                  sizeof(tracev2::kTrailerMagic)) != 0) {
    return false;
  }
  char magic[6];
  if (std::fread(magic, 1, 6, f_) != 6 ||
      std::memcmp(magic, tracev2::kFileMagic, 6) != 0) {
    return false;
  }
  unsigned char shdr[8];
  if (std::fread(shdr, 1, 8, f_) != 8) return false;
  std::uint32_t slen = getU32(shdr + 4);
  if (slen > (1u << 16)) return false;
  std::string sblock(8 + slen, '\0');
  std::memcpy(sblock.data(), shdr, 8);
  if (slen > 0 && std::fread(sblock.data() + 8, 1, slen, f_) != slen) {
    return false;
  }
  // Chained: the stream now sits at the new segment's first extent.
  std::string error;
  if (tracev2::parseSchema(sblock.data(), sblock.size(), &error)) return true;
  // A whole segment follows that this reader cannot decode (an older
  // schema): strict mode refuses it rather than end the stream early.
  if (!recover_) throw std::runtime_error("trace v2: " + error);
  return false;
}

bool TraceReader::scanToV2Extent(tracev2::ExtentHeader& hdr) {
  // Rolling byte-match for the extent magic (no repeated prefix, so a
  // mismatch only needs to recheck the first byte), then full header
  // validation — a magic collision inside corrupt bytes fails its CRC
  // and the scan continues.
  constexpr std::size_t kMagicLen = sizeof(tracev2::kExtentMagic);
  std::size_t matched = 0;
  int c;
  while ((c = std::fgetc(f_)) != EOF) {
    std::uint8_t b = static_cast<std::uint8_t>(c);
    if (b == static_cast<std::uint8_t>(tracev2::kExtentMagic[matched])) {
      if (++matched == kMagicLen) {
        unsigned char hdrBuf[tracev2::kExtentHeaderBytes];
        std::memcpy(hdrBuf, tracev2::kExtentMagic, kMagicLen);
        std::size_t rest = sizeof(hdrBuf) - kMagicLen;
        if (std::fread(hdrBuf + kMagicLen, 1, rest, f_) != rest) return false;
        if (tracev2::parseExtentHeader(hdrBuf, hdr)) return true;
        // False positive: rewind to just past the magic and keep going.
        if (std::fseek(f_, -static_cast<long>(rest), SEEK_CUR) != 0) {
          return false;
        }
        matched = 0;
      }
    } else {
      matched =
          b == static_cast<std::uint8_t>(tracev2::kExtentMagic[0]) ? 1 : 0;
    }
  }
  return false;
}

void TraceReader::reconcileCheckpoint(std::uint64_t count) {
  ++rstats_.checkpoints;
  rstats_.checkpointRecords = count;
  std::uint64_t seen = rstats_.recovered + rstats_.skipped;
  if (recover_ && count > seen) {
    // The footer knows exactly how many records precede it; anything we
    // did not see (whole lines eaten, records merged by a corrupted
    // newline, a skipped v2 region) is charged to `skipped`.
    rstats_.skipped += count - seen;
  }
}

void TraceReader::noteTextCheckpoint(std::string_view line) {
  if (line.substr(0, sizeof(kTextCkptPrefix) - 1) != kTextCkptPrefix) return;
  auto at = line.find("n=");
  if (at == std::string_view::npos) return;
  reconcileCheckpoint(parseU64(line.substr(at + 2)));
}

bool TraceReader::nextTextInto(TraceRecord& rec) {
  // Parse one line, routing comments through checkpoint handling and —
  // in recover mode — turning parse failures into skip-and-resync.
  auto consume = [this, &rec](std::string_view line) -> bool {
    if (!line.empty() && line[0] == '#') {
      noteTextCheckpoint(line);
      return false;
    }
    if (!recover_) {
      bool got = parseRecordInto(line, rec);
      if (got) ++rstats_.recovered;
      return got;
    }
    try {
      bool got = parseRecordInto(line, rec);
      if (got) {
        ++rstats_.recovered;
        inBadRun_ = false;
      }
      return got;
    } catch (const std::exception&) {
      ++rstats_.skipped;
      if (!inBadRun_) {
        ++rstats_.resyncs;
        inBadRun_ = true;
      }
      return false;
    }
  };
  for (;;) {
    if (pos_ >= chunk_.size()) {
      if (!refill()) break;
    }
    std::size_t nl = chunk_.find('\n', pos_);
    if (nl == std::string::npos) {
      carry_.append(chunk_, pos_, chunk_.size() - pos_);
      pos_ = chunk_.size();
      continue;
    }
    bool got;
    if (carry_.empty()) {
      // Fast path: parse straight out of the chunk, no line copy.
      std::string_view line(chunk_.data() + pos_, nl - pos_);
      pos_ = nl + 1;
      got = consume(line);
    } else {
      carry_.append(chunk_, pos_, nl - pos_);
      pos_ = nl + 1;
      got = consume(carry_);
      carry_.clear();
    }
    if (got) return true;
  }
  if (!carry_.empty()) {
    bool got = consume(carry_);
    carry_.clear();
    return got;
  }
  return false;
}

namespace {

/// Capacity hint from the file size: text records run ~150 bytes, so
/// bytes/128 overshoots modestly rather than reallocating the vector a
/// dozen times while it doubles up from empty.
std::size_t estimateRecordCount(const std::string& path) {
  std::error_code ec;
  auto bytes = std::filesystem::file_size(path, ec);
  if (ec) return 0;
  return static_cast<std::size_t>(bytes / 128) + 1;
}

std::vector<TraceRecord> drainAll(TraceReader& reader, std::size_t reserve) {
  std::vector<TraceRecord> out;
  out.reserve(reserve);
  // Decode straight into the vector's own slots — grow by one, fill it in
  // place (string capacity is reused on the re-parse after a resize), and
  // drop the unfilled slot at EOF — instead of parsing into a temporary
  // and copying it in.
  for (;;) {
    out.emplace_back();
    if (!reader.nextInto(out.back())) {
      out.pop_back();
      break;
    }
  }
  return out;
}

}  // namespace

std::vector<TraceRecord> TraceReader::readAll(const std::string& path) {
  TraceReader reader(path);
  return drainAll(reader, estimateRecordCount(path));
}

std::vector<TraceRecord> TraceReader::recoverAll(const std::string& path,
                                                 RecoverStats* stats) {
  TraceReader reader(path, /*recover=*/true);
  auto out = drainAll(reader, estimateRecordCount(path));
  if (stats) *stats = reader.recoverStats();
  return out;
}

TraceWriter::Format detectTraceFormat(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("trace: cannot open for read: " + path);
  char magic[6] = {};
  std::size_t got = std::fread(magic, 1, sizeof(magic), f);
  std::fclose(f);
  if (got == sizeof(magic)) {
    if (std::memcmp(magic, kV1BinaryMagic, sizeof(magic)) == 0) {
      rejectV1Binary(path);
    }
    if (std::memcmp(magic, tracev2::kFileMagic, sizeof(magic)) == 0) {
      return TraceWriter::Format::V2;
    }
  }
  return TraceWriter::Format::Text;
}

const char* traceFormatName(TraceWriter::Format format) {
  switch (format) {
    case TraceWriter::Format::Text: return "text";
    case TraceWriter::Format::V2: return "v2";
  }
  return "unknown";
}

std::optional<TraceWriter::Format> traceFormatFromName(std::string_view name) {
  if (name == "text") return TraceWriter::Format::Text;
  if (name == "v2") return TraceWriter::Format::V2;
  return std::nullopt;
}

}  // namespace nfstrace
