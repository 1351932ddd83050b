// Trace file I/O.
//
// Text format: one record per line of space-separated key=value pairs,
// nfsdump-style, human-greppable:
//
//   t=0.013202 r=0.013514 c=10.1.0.5 s=10.0.0.1 xid=1a2b v=3 p=udp op=read
//   fh=0001...:  off=0 cnt=8192 st=OK ret=8192 eof=1 sz=123456 mt=999.0
//
// Unknown keys are skipped on read, so the format can grow.  For large
// traces the columnar v2 format (trace/v2.hpp) is smaller and scans
// faster; readers detect either by its magic.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
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
/// Allocation-light: everything is rendered with snprintf into the
/// destination buffer, so a writer can format thousands of records into
/// one flush buffer without a heap allocation per record.
void appendRecord(std::string& out, const TraceRecord& rec);
/// Render one record as a text line (no trailing newline).
std::string formatRecord(const TraceRecord& rec);
/// Parse a text line; nullopt for blank/comment lines; throws
/// std::runtime_error on malformed records.
std::optional<TraceRecord> parseRecord(const std::string& line);
/// Allocation-reusing parse: fills `rec` in place (string fields keep
/// their capacity across calls).  Returns false for blank/comment lines;
/// throws std::runtime_error on malformed records.
bool parseRecordInto(std::string_view line, TraceRecord& rec);

/// Buffered trace writer: records are formatted into an in-memory batch
/// buffer and flushed to the file in large writes, so the per-record cost
/// is formatting only (no per-record heap allocation or fwrite call).
class TraceWriter {
 public:
  enum class Format { Text, V2 };

  /// Durability knobs.  Defaults match the historical writer except for
  /// checkpoints, which are cheap (a comment line every few thousand
  /// records) and make crash/corruption recovery exact.
  struct Options {
    Format format = Format::Text;
    /// Append a checkpoint footer every N records (0 disables).  The
    /// footer records the cumulative record count, so a recovering
    /// reader can compute exactly how many records a corrupt region ate.
    /// Ignored for V2, where every extent header carries the cumulative
    /// count — extents *are* the checkpoints.
    std::uint64_t checkpointEveryRecords = 4096;
    /// V2 only: seal an extent after this many records...  (8K rather
    /// than the 4K checkpoint interval: the reader re-interns each
    /// extent's dictionaries, and doubling the extent halves that
    /// amortized per-record cost while staying well under the payload
    /// byte cap.)
    std::uint64_t v2ExtentRecords = 8192;
    /// ...or when its encoded payload reaches this size, whichever first.
    std::size_t v2ExtentMaxBytes = 1 << 20;
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
    std::uint64_t checkpoints = 0;  // checkpoint footers appended
  };

  TraceWriter(const std::string& path, Format format = Format::Text);
  TraceWriter(const std::string& path, const Options& opts);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void write(const TraceRecord& rec);
  /// Flush the batch buffer and the underlying stream.
  void flush();
  /// Seal the file completely (V2: tail extent + footer index + trailer;
  /// text: final checkpoint), flush, optionally fsync, and close.  Unlike
  /// the destructor — which does the same work but must swallow errors —
  /// finalize() throws on failure, so a caller that needs to *know* the
  /// segment is durable (the rotation path in src/daemon) can react.
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
  /// checkpoints).
  void attachMetrics(obs::Registry& registry);

  /// Bind a flight-recorder track ("trace.writer"): flush spans with
  /// byte counts, retry instants, checkpoint/extent-seal instants.  Call
  /// before the first write; events are emitted by whichever single
  /// thread drives this writer.
  void attachFlight(obs::FlightRecorder& flight);

 private:
  void flushBuffer();
  /// Write [p, p+n) fully, retrying transient failures with backoff.
  void writeAll(const char* p, std::size_t n);
  void appendCheckpoint();
  /// V2: encode the buffered records as one extent (header + CRC'd
  /// payload), record it for the footer index, and flush.
  void sealV2Extent();

  std::FILE* f_ = nullptr;
  Format format_;
  Options opts_;
  std::string buf_;
  std::uint64_t count_ = 0;
  std::uint64_t lastCkptCount_ = 0;
  /// Bytes physically written to the file so far; extent offsets for the
  /// v2 footer index are fileBytes_ + buf_.size() at seal time.
  std::uint64_t fileBytes_ = 0;
  std::unique_ptr<tracev2::ExtentEncoder> v2enc_;
  std::vector<tracev2::ExtentInfo> v2extents_;
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
    std::uint64_t checkpoints = 0;        // checkpoint footers seen
    std::uint64_t checkpointRecords = 0;  // count in the last footer seen
  };

  /// `recover == false` (the default) preserves historical behaviour:
  /// corruption throws.  `recover == true` skips corrupt bytes forward to
  /// the next parseable boundary (text: next well-formed line; v2: next
  /// valid extent header) and keeps going, tallying RecoverStats.  A v1
  /// binary ("NFST1") trace is rejected in either mode.
  ///
  /// `predicate` prunes by zone map, and only when all of these hold:
  /// the input is v2, the reader is strict, the chained footer index is
  /// clean (tracev2::loadChainedIndex) and the predicate is non-trivial.
  /// The reader then visits only the extents whose zone maps may match,
  /// in file order, and throws if an extent's header disagrees with its
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
  /// fill, paths/handles interned into 32-bit ids — see trace/batch.hpp).
  /// Returns false when the batch came back empty (EOF).  A v2 batch
  /// never straddles two extents, so in recover mode it never straddles
  /// a corrupt region either: the reader resyncs and the next good
  /// extent opens the following batch.
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

  /// Convenience: read a whole trace file into memory.  Reserves from the
  /// file size and decodes into the vector's own slots, so no record is
  /// parsed into a temporary and copied.
  static std::vector<TraceRecord> readAll(const std::string& path);
  /// Read a possibly-corrupt trace end-to-end, skipping bad regions.
  static std::vector<TraceRecord> recoverAll(const std::string& path,
                                             RecoverStats* stats = nullptr);

 private:
  /// Refill chunk_ from the file; returns false at EOF.
  bool refill();
  bool nextTextInto(TraceRecord& rec);
  bool nextV2Into(TraceRecord& rec);
  bool nextBatchV2(TraceBatch& batch, std::size_t maxRecords);
  /// V2: read + validate the next extent header and CRC'd payload into
  /// the decoder — the next one in the file, or when pruning the next
  /// surviving one.  In recover mode damage is skipped with exact
  /// accounting (the header's cumulative count is a checkpoint); returns
  /// false at EOF / footer index.
  bool loadNextV2Extent();
  /// V2: the stream hit a footer index at `footerStart`.  If another
  /// sealed segment follows (concatenated daemon output), position the
  /// stream at its first extent and return true; otherwise leave the
  /// position unspecified and return false (the caller seeks back to
  /// the footer).  Throws in strict mode when the following segment's
  /// schema block is whole but not one this reader decodes.
  bool chainNextV2Segment(long footerStart);
  /// V2 recover mode: byte-scan forward for the next valid extent
  /// header; on success `hdr` is filled and the stream sits at its
  /// payload.  Returns false at EOF.
  bool scanToV2Extent(tracev2::ExtentHeader& hdr);
  /// Handle a "#ckpt n=<count>" comment line (text format).
  void noteTextCheckpoint(std::string_view line);
  void reconcileCheckpoint(std::uint64_t count);

  std::FILE* f_ = nullptr;
  bool v2_ = false;
  std::unique_ptr<tracev2::ExtentDecoder> v2dec_;
  // Pruned scan: the extents whose zone maps may match, in file order,
  // and the op bitmask of the one in the decoder (all ops otherwise).
  bool pruning_ = false;
  std::vector<tracev2::ExtentInfo> extents_;
  std::size_t nextExtent_ = 0;
  std::uint32_t extentOpMask_ = kAllOpsMask;
  std::uint64_t extentsTotal_ = 0;
  std::uint64_t extentsPruned_ = 0;
  bool recover_ = false;
  bool inBadRun_ = false;  // inside a run of consecutive corrupt lines
  RecoverStats rstats_;
  // Text path: chunked read buffer (replaces the old fgetc-per-byte loop).
  std::string chunk_;
  std::size_t pos_ = 0;
  std::string carry_;  // partial line spanning chunk boundaries
  // Batch path: interners, sequence counter, and the one-record stash
  // used to cut batches at recovery resync points.
  StringInterner names_;
  StringInterner handles_;
  std::uint64_t batchSeq_ = 0;
  TraceRecord pending_;
  bool pendingValid_ = false;
};

/// Identify a trace file's format by its magic (files without a known
/// magic are the text format).  Throws if the file cannot be opened or
/// is a v1 binary ("NFST1") trace, which is no longer read.
TraceWriter::Format detectTraceFormat(const std::string& path);

/// "text" / "v2" — for CLI flags and status output.
const char* traceFormatName(TraceWriter::Format format);

/// Inverse of traceFormatName; nullopt for unknown names.
std::optional<TraceWriter::Format> traceFormatFromName(std::string_view name);

}  // namespace nfstrace
