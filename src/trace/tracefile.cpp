#include "trace/tracefile.hpp"

#include "obs/timer.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "fault/fault.hpp"
#include "util/crc32.hpp"
#include "util/strings.hpp"

namespace nfstrace {
namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

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
    appendPercentEncoded(out, rec.name);
  }
  if (!rec.name2.empty()) {
    out += " nm2=";
    appendPercentEncoded(out, rec.name2);
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

// ----------------------------------------------------------------- file I/O

namespace {

std::uint32_t getU32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void sleepAndGrow(MicroTime& us, MicroTime maxUs) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
  us = std::min<MicroTime>(us * 2, maxUs > 0 ? maxUs : us * 2);
}

}  // namespace

TraceWriter::TraceWriter(const std::string& path)
    : TraceWriter(path, Options()) {}

TraceWriter::TraceWriter(const std::string& path, const Options& opts)
    : opts_(opts) {
  f_ = std::fopen(path.c_str(), "wb");
  if (!f_) throw std::runtime_error("trace: cannot open for write: " + path);
  try {
    std::string preamble;
    tracev2::appendPreamble(preamble);
    writeAll(preamble.data(), preamble.size());
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
    // Seal the partial tail extent, then the footer index + trailer
    // that make the file seekable.  A crash before this point leaves
    // a valid index-less file the reader handles sequentially.
    sealExtent();
    tracev2::appendIndex(buf_, extents_, fileBytes_ + buf_.size());
    flushToOs();
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
  enc_.add(rec);
  ++count_;
  if (enc_.records() >= opts_.v2ExtentRecords ||
      enc_.pendingBytes() >= tracev2::kExtentSealBytes) {
    sealExtent();
  }
}

void TraceWriter::sealExtent() {
  if (enc_.records() == 0) return;
  extents_.push_back(enc_.seal(buf_, count_ - enc_.records(),
                               fileBytes_ + buf_.size()));
  ++ioStats_.checkpoints;
  ckptC_.inc();
  if (flog_) flog_->instant(obs::Stage::WriterCheckpoint, count_);
  // Crash consistency: the whole extent reaches the OS before more
  // records are buffered.
  flushToOs();
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

void TraceWriter::flushToOs() {
  flushBuffer();
  if (std::fflush(f_) != 0) throw std::runtime_error("trace: flush failed");
}

void TraceWriter::flush() {
  if (!f_) return;  // already finalized
  // Records still in the column encoder are not on disk until their
  // extent is sealed.
  sealExtent();
  flushToOs();
}

TraceReader::TraceReader(const std::string& path, bool recover,
                         const ScanPredicate& predicate)
    : recover_(recover) {
  f_ = std::fopen(path.c_str(), "rb");
  if (!f_) throw std::runtime_error("trace: cannot open for read: " + path);
  // Strict mode refuses a file without the v2 magic and a schema-4
  // block, naming the path; in recover mode a damaged preamble is more
  // damage, and the extent scan resynchronises past it.
  std::string error;
  if (tracev2::readPreamble(f_, &error) != tracev2::Preamble::Ok &&
      !recover_) {
    std::fclose(f_);
    f_ = nullptr;
    throw std::runtime_error("trace: " + error + ": " + path);
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
}

TraceReader::~TraceReader() {
  if (f_) std::fclose(f_);
}

bool TraceReader::nextInto(TraceRecord& rec) {
  while (dec_.remaining() == 0) {
    if (!loadNextExtent()) return false;
  }
  std::uint32_t ids[5];  // the batch path's interned ids, unused here
  dec_.take({&rec, &ids[0], &ids[1], &ids[2], &ids[3], &ids[4]}, 1);
  ++rstats_.recovered;
  return true;
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
  // Extent columns decode straight into the batch arena, and the extent
  // dictionaries were already interned at load time, so there is no
  // per-record parse and no per-record hash lookup: the decoder hands
  // back the global ids directly.  A batch holds records of one extent
  // only, so it carries that extent's op bitmask.
  while (batch.n < maxRecords) {
    if (dec_.remaining() == 0) {
      std::uint64_t resyncsBefore = rstats_.resyncs;
      if (!loadNextExtent()) break;
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
    std::size_t got = dec_.take(out, maxRecords - batch.n);
    rstats_.recovered += got;
    batch.n += got;
  }
  if (batch.n == 0) return false;
  batch.seq = batchSeq_++;
  return true;
}

bool TraceReader::loadNextExtent() {
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
      if (chainNextSegment(footerStart)) continue;
      std::fseek(f_, footerStart, SEEK_SET);
      return false;
    }
    tracev2::ExtentHeader hdr;
    if (got < sizeof(hdrBuf) || !tracev2::parseExtentHeader(hdrBuf, hdr)) {
      if (!recover_) {
        throw std::runtime_error("trace v2: bad extent header");
      }
      ++rstats_.resyncs;
      if (!scanToExtent(hdr)) return false;
    }
    if (indexed && hdr.records != indexed->records) {
      throw std::runtime_error(
          "trace v2: extent header disagrees with the footer index");
    }
    extentOpMask_ = indexed ? indexed->opMask : kAllOpsMask;
    // A valid header is a checkpoint: its cumulative count charges any
    // records a skipped region ate to `skipped`, exactly.
    reconcileCheckpoint(hdr.recordsBefore);
    auto& buf = dec_.buffer();
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
      dec_.load(hdr, names_, handles_);
      if (recover_) {
        // Decode every record once and load the extent again, so one
        // whose records do not all decode is skipped whole here and no
        // later take() throws.
        TraceRecord rec;
        std::uint32_t ids[5];
        while (dec_.remaining() > 0) {
          dec_.take({&rec, &ids[0], &ids[1], &ids[2], &ids[3], &ids[4]}, 1);
        }
        dec_.load(hdr, names_, handles_);
      }
    } catch (const std::exception&) {
      // CRC-valid but undecodable payload (a CRC collision over corrupt
      // bytes, or a hostile writer): treat like a CRC failure.
      if (!recover_) throw;
      rstats_.skipped += hdr.records;
      ++rstats_.resyncs;
      continue;
    }
    return true;
  }
}

bool TraceReader::chainNextSegment(long footerStart) {
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
  // Chained: the stream now sits at the new segment's first extent.  A
  // whole segment follows that this reader cannot decode (an older
  // schema): strict mode refuses it rather than end the stream early.
  std::string error;
  tracev2::Preamble found = tracev2::readPreamble(f_, &error);
  if (found == tracev2::Preamble::Unsupported && !recover_) {
    throw std::runtime_error("trace: " + error);
  }
  return found == tracev2::Preamble::Ok;
}

bool TraceReader::scanToExtent(tracev2::ExtentHeader& hdr) {
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
    // The header knows exactly how many records precede it; anything we
    // did not see (a skipped region) is charged to `skipped`.
    rstats_.skipped += count - seen;
  }
}

namespace {

std::vector<TraceRecord> drainAll(TraceReader& reader) {
  std::vector<TraceRecord> out;
  // Decode straight into the vector's own slots — grow by one, fill it in
  // place, and drop the unfilled slot at EOF — instead of decoding into a
  // temporary and copying it in.
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
  return drainAll(reader);
}

std::vector<TraceRecord> TraceReader::recoverAll(const std::string& path,
                                                 RecoverStats* stats) {
  TraceReader reader(path, /*recover=*/true);
  auto out = drainAll(reader);
  if (stats) *stats = reader.recoverStats();
  return out;
}

}  // namespace nfstrace
