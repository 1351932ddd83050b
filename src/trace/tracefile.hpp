// Trace file I/O.  Every trace is written and read in the columnar v2
// format (trace/v2.hpp).  Text is only a rendering: formatRecord prints
// one record as an nfsdump-style line of key=value pairs,
//
//   t=0.013202 r=0.013514 c=10.1.0.5 s=10.0.0.1 xid=1a2b v=3 p=udp op=read
//   fh=0001...  off=0 cnt=8192 st=OK ret=8192 eof=1 sz=123456 mt=999.0
//
// for digests, printouts and `trace_analyze --records`.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "trace/batch.hpp"
#include "trace/predicate.hpp"
#include "trace/record.hpp"
#include "trace/v2.hpp"
#include "util/interner.hpp"
#include "util/time.hpp"

namespace nfstrace {

class IoFaultInjector;  // src/fault — optional write-fault hook

/// Append one record as a text line (no trailing newline) to `out`.
/// Allocation-light: everything is rendered into the destination buffer,
/// so thousands of records can be formatted into one buffer without a
/// heap allocation per record.  Name fields percent-encode space, `=`,
/// `%` and control bytes.
void appendRecord(std::string& out, const TraceRecord& rec);
/// Render one record as a text line (no trailing newline).
std::string formatRecord(const TraceRecord& rec);

/// Buffered v2 trace writer: records accumulate in a column encoder and
/// reach the file one sealed extent at a time (tracev2::ExtentEncoder).
class TraceWriter {
 public:
  /// The one on-disk format.
  enum class Format { V2 };

  struct Options {
    /// Unread: every trace is v2.
    Format format = Format::V2;
    /// Seal an extent after this many records, or once its encoded
    /// payload reaches tracev2::kExtentSealBytes, whichever comes first.
    /// Each extent header carries the cumulative record count, so the
    /// extents are a recovering reader's checkpoints.
    std::uint64_t v2ExtentRecords = 8192;
    /// Transient write errors (EIO, ENOSPC) are retried with exponential
    /// backoff this many times before the writer gives up and throws.
    int maxRetries = 8;
    MicroTime backoffInitialUs = 50;
    MicroTime backoffMaxUs = 10'000;
    /// Optional deterministic fault hook consulted before each physical
    /// write attempt (not owned; may be nullptr).
    IoFaultInjector* faults = nullptr;
  };

  /// Write-path robustness stats.
  struct IoStats {
    std::uint64_t retries = 0;      // failed attempts that were retried
    std::uint64_t shortWrites = 0;  // attempts that made partial progress
    std::uint64_t checkpoints = 0;  // extents sealed
  };

  explicit TraceWriter(const std::string& path);
  TraceWriter(const std::string& path, const Options& opts);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Throws when the extent the record completes cannot be sealed: the
  /// disk failed past the retry budget, or the payload would exceed
  /// tracev2::kExtentMaxPayloadBytes (a name of megabytes).
  void write(const TraceRecord& rec);
  /// Seal the records buffered so far as an extent and flush them to the
  /// OS; throws on failure, as finalize() does.
  void flush();
  /// Seal the file completely (tail extent + footer index + trailer),
  /// flush, optionally fsync, and close.  Unlike the destructor — which
  /// does the same work but must swallow errors — finalize() throws on
  /// failure, so a caller that needs to *know* the file is durable (the
  /// daemon's rotation, a tool's exit status) can react.
  /// After finalize() the writer accepts no more records; the destructor
  /// becomes a no-op.
  void finalize(bool syncToDisk = false);
  std::uint64_t recordsWritten() const { return count_; }
  /// Bytes on the file plus bytes still in the batch buffer — the size
  /// the file will have after the next flush (size-based rotation).
  std::uint64_t bytesWritten() const { return fileBytes_ + buf_.size(); }
  const IoStats& ioStats() const { return ioStats_; }

  /// Bind self-monitoring instruments: records/bytes written counters,
  /// a flush-latency histogram (trace.flush_ns), and write-path
  /// robustness counters (trace.write_retries / short_writes /
  /// checkpoints, one per sealed extent).
  void attachMetrics(obs::Registry& registry);

  /// Bind a flight-recorder track ("trace.writer"): flush spans with
  /// byte counts, retry instants, extent-seal instants.  Call
  /// before the first write; events are emitted by whichever single
  /// thread drives this writer.
  void attachFlight(obs::FlightRecorder& flight);

 private:
  void flushBuffer();
  /// flushBuffer() then fflush; throws if the stream reports an error.
  void flushToOs();
  /// Write [p, p+n) fully, retrying transient failures with backoff.
  void writeAll(const char* p, std::size_t n);
  /// Encode the buffered records as one extent (header + CRC'd payload),
  /// record it for the footer index, and flush.
  void sealExtent();

  std::FILE* f_ = nullptr;
  Options opts_;
  std::string buf_;
  std::uint64_t count_ = 0;
  /// Bytes physically written to the file so far; extent offsets for the
  /// footer index are fileBytes_ + buf_.size() at seal time.
  std::uint64_t fileBytes_ = 0;
  tracev2::ExtentEncoder enc_;
  std::vector<tracev2::ExtentInfo> extents_;
  /// Records already pushed to trace.records_written; the counter is
  /// published per buffer flush, not per record, to keep a single atomic
  /// add off the per-record path.
  std::uint64_t publishedCount_ = 0;
  IoStats ioStats_;
  obs::CounterHandle recordsC_;
  obs::CounterHandle bytesC_;
  obs::CounterHandle retriesC_;
  obs::CounterHandle shortWritesC_;
  obs::CounterHandle ckptC_;
  obs::HistogramHandle flushNs_;
  obs::ThreadLog* flog_ = nullptr;
};

class TraceReader {
 public:
  /// Recovery bookkeeping (populated in recover mode; checkpoints are
  /// counted in both modes).
  struct RecoverStats {
    std::uint64_t recovered = 0;          // records successfully returned
    std::uint64_t skipped = 0;            // records lost to corruption
    std::uint64_t resyncs = 0;            // distinct corrupt regions crossed
    std::uint64_t checkpoints = 0;        // extent headers seen
    std::uint64_t checkpointRecords = 0;  // records before the last one
  };

  /// `recover == false` (the default) refuses damage: a file that is not
  /// v2 throws one error naming the path, and any corrupt extent throws
  /// mid-scan.  `recover == true` treats every bad byte, a damaged file
  /// magic included, as damage to skip: the reader scans forward to the
  /// next valid extent header and keeps going, tallying RecoverStats.
  /// An extent whose CRC holds but whose records do not all decode is
  /// skipped whole, so recover mode only throws when it cannot open the
  /// file.
  ///
  /// `predicate` prunes by zone map, and only when all of these hold:
  /// the reader is strict, the chained footer index is clean
  /// (tracev2::loadChainedIndex) and the predicate is non-trivial.  The
  /// reader then visits only the extents whose zone maps may match, in
  /// file order, and throws if an extent's header disagrees with its
  /// footer entry.  Every other input is read sequentially.  Pruning
  /// drops whole extents only: filtering records is the caller's job
  /// (AnalysisEngine::Config::predicate).
  explicit TraceReader(const std::string& path, bool recover = false,
                       const ScanPredicate& predicate = {});
  ~TraceReader();
  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  /// Decode the next record into `rec`, reusing its string capacity.
  /// Returns false at EOF.
  bool nextInto(TraceRecord& rec);
  /// Decode up to `maxRecords` records into `batch` (slots reused fill to
  /// fill, paths/handles as the reader's interned 32-bit ids — see
  /// trace/batch.hpp).  Returns false when the batch came back empty
  /// (EOF).  A batch never straddles two extents, so in recover mode it
  /// never straddles a corrupt region either: the reader resyncs and the
  /// next good extent opens the following batch.
  bool nextBatch(TraceBatch& batch,
                 std::size_t maxRecords = TraceBatch::kDefaultCapacity);
  const RecoverStats& recoverStats() const { return rstats_; }

  /// Zone-map pruning: footer extents seen and skipped.  Both 0 when the
  /// reader scans sequentially.
  std::uint64_t extentsTotal() const { return extentsTotal_; }
  std::uint64_t extentsPruned() const { return extentsPruned_; }

  /// Interners shared by every batch this reader fills.
  const StringInterner& nameInterner() const { return names_; }
  const StringInterner& handleInterner() const { return handles_; }

  /// Convenience: read a whole trace file into memory.
  static std::vector<TraceRecord> readAll(const std::string& path);
  /// Read a possibly-corrupt trace end-to-end, skipping bad regions.
  static std::vector<TraceRecord> recoverAll(const std::string& path,
                                             RecoverStats* stats = nullptr);

 private:
  /// Read + validate the next extent header and CRC'd payload into the
  /// decoder — the next one in the file, or when pruning the next
  /// surviving one.  In recover mode damage is skipped with exact
  /// accounting (the header's cumulative count is a checkpoint); returns
  /// false at EOF / footer index.
  bool loadNextExtent();
  /// The stream hit a footer index at `footerStart`.  If another sealed
  /// segment follows (concatenated daemon output), position the stream
  /// at its first extent and return true; otherwise leave the position
  /// unspecified and return false (the caller seeks back to the footer).
  /// Throws in strict mode when the following segment's schema block is
  /// whole but not one this reader decodes.
  bool chainNextSegment(long footerStart);
  /// Recover mode: byte-scan forward for the next valid extent header;
  /// on success `hdr` is filled and the stream sits at its payload.
  /// Returns false at EOF.
  bool scanToExtent(tracev2::ExtentHeader& hdr);
  void reconcileCheckpoint(std::uint64_t count);

  std::FILE* f_ = nullptr;
  tracev2::ExtentDecoder dec_;
  // Pruned scan: the extents whose zone maps may match, in file order,
  // and the op bitmask of the one in the decoder (all ops otherwise).
  bool pruning_ = false;
  std::vector<tracev2::ExtentInfo> extents_;
  std::size_t nextExtent_ = 0;
  std::uint32_t extentOpMask_ = kAllOpsMask;
  std::uint64_t extentsTotal_ = 0;
  std::uint64_t extentsPruned_ = 0;
  bool recover_ = false;
  RecoverStats rstats_;
  StringInterner names_;
  StringInterner handles_;
  std::uint64_t batchSeq_ = 0;
};

}  // namespace nfstrace
