// Flight recorder: always-on, wait-free per-thread span tracing with
// stall attribution.
//
// The obs registry (metrics.hpp) answers "how much, in total" — the
// flight recorder answers "what was this thread doing at 14:03:07.2 and
// why was it waiting".  Every instrumented thread owns one bounded SPSC
// event ring (a *track*) holding fixed-size 24-byte typed records, the
// same cheap-tracepoint idiom Linux uses in fs/nfsd/trace.h: the hot
// path pays one steady_clock read plus one ring store per event, no
// locks, no allocation.  When a ring fills, new events are dropped and
// counted — the recorder never blocks the thread it is watching, and the
// books always balance exactly:
//
//     eventsEmitted == eventsWritten + eventsDropped
//
// Event vocabulary (Stage): every stage boundary in the system, split
// into *work* stages (partition dispatch, sniff, merge release, writer
// flush, reader decode, pass observe) and *wait* stages (frame ring
// empty, record ring full, batch pool exhausted, ...).  Each wait stage
// statically names who is stalled and which work stage it is blocked on,
// so the post-run stall report can attribute every stalled nanosecond to
// the stage that caused it — queue-wait vs service time, per thread.
//
// Two consumers:
//  * chromeTraceJson() / writeChromeTrace() render the Chrome trace-event
//    format (load the file in Perfetto or chrome://tracing): one track
//    per ring, B/E span pairs, X complete spans, i instants, and C
//    counter series sampled from the metrics registry by the snapshot
//    exporter.
//  * stallReport() renders the per-stage busy/wait breakdown and the top
//    blocking edges as text (printed by `capture_to_trace --flight` and
//    `trace_analyze --flight`).
//
// Overhead is enforced, not estimated: bench/obs_overhead runs the full
// pipeline with the recorder on and off under the same 2% budget as the
// metrics registry.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace nfstrace::obs {

inline constexpr std::size_t kFlightCacheLine = 64;

/// Every instrumented stage boundary in the system.  Work stages burn
/// CPU on behalf of the pipeline; wait stages are stalls whose blocking
/// stage is named by stageBlocker().  Instant stages mark one-shot
/// degradation/decision events.
enum class Stage : std::uint16_t {
  // Capture pipeline (src/pipeline).
  PartitionDispatch,  ///< producer: staging + pushing a frame batch
  PartitionWait,      ///< producer stalled: a shard's frame ring is full
  FrameRingWait,      ///< worker starved: its frame ring is empty
  Sniff,              ///< worker: decoding a popped frame batch
  RecordRingWait,     ///< worker stalled: its record ring is full
  MergeWait,          ///< merge stalled: no record is releasable yet
  MergeRelease,       ///< merge: releasing a run of records to the sink
  // Sniffer state machine (src/sniffer).
  ExpiryScan,    ///< quantized pending-call expiry scan
  CallEvicted,   ///< instant: pending table hit its bound
  FlowEvicted,   ///< instant: TCP flow table hit its bound
  // Trace writer (src/trace).
  WriterFlush,       ///< flushing the batch buffer to disk
  WriterRetry,       ///< instant: a write attempt failed and was retried
  WriterCheckpoint,  ///< instant: checkpoint footer appended
  // Analysis engine (src/analysis/engine).
  ReaderDecode,    ///< reader: decoding one batch from the trace
  BatchPoolWait,   ///< reader stalled: every pool slot still referenced
  WorkerBatchWait, ///< engine worker starved: batch ring empty
  PassObserve,     ///< worker: one pass observing one batch
  Finalize,        ///< finalize/merge phase across passes
  PassFinalize,    ///< finalize thread: one pass's finalize
  Namespace,       ///< reader: applying the namespace to one batch
  // Degradation & fault-plan decisions.
  FaultDrop,     ///< instant: fault plan dropped a frame (arg = index)
  FaultCorrupt,  ///< instant: fault plan truncated/bit-flipped a frame
  FrameShed,     ///< instant: pipeline shed frames under overload
  RecoveryCut,   ///< instant: reader resynced past corruption
  // Continuous-capture daemon (src/daemon).
  DaemonRotate,   ///< sealing + renaming the active segment
  DaemonRecover,  ///< startup recovery of a torn active segment
  DaemonShed,     ///< instant: record shed while the trace disk is down
  kStageCount
};

inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kStageCount);

/// Dotted lowercase stage name ("pipeline.sniff", "trace.flush", ...).
const char* stageName(Stage s);
/// True for stall stages (time attributed to a blocking stage).
bool stageIsWait(Stage s);
/// For a wait stage: the work stage that is stalled (the waiter).
Stage stageWaiter(Stage s);
/// For a wait stage: the work stage the waiter is blocked on.
Stage stageBlocker(Stage s);

enum class EventKind : std::uint8_t {
  SpanBegin,     ///< open a span of `stage` on this track
  SpanEnd,       ///< close the innermost open span of `stage`
  SpanComplete,  ///< retroactive span: tsNs = start, arg = duration ns
  Instant,       ///< point event (arg = payload)
  Counter,       ///< counter sample: stage = track id, arg = double bits
};

/// Fixed-size tracepoint record (24 bytes).
struct FlightEvent {
  std::uint64_t tsNs = 0;  ///< ns since recorder epoch
  std::uint64_t arg = 0;   ///< Complete: duration ns; Counter: double bits
  std::uint32_t aux = 0;   ///< small payload: batch size, records, bytes
  std::uint16_t stage = 0; ///< Stage, or counter-track id for Counter
  std::uint8_t kind = 0;   ///< EventKind
  std::uint8_t pad = 0;
};
static_assert(sizeof(FlightEvent) == 24);

class FlightRecorder;

/// One track: a bounded SPSC event ring owned by exactly one writer
/// thread.  All emit paths are wait-free; a full ring drops the event
/// and counts the drop.  Null ThreadLog pointers at call sites make
/// instrumentation a no-op, mirroring the unbound-handle idiom of the
/// metrics registry.
class ThreadLog {
 public:
  void begin(Stage s, std::uint32_t aux = 0) {
    emit(s, EventKind::SpanBegin, 0, aux);
  }
  void end(Stage s, std::uint32_t aux = 0) {
    emit(s, EventKind::SpanEnd, 0, aux);
  }
  /// Retroactive span: started at `startNs` (from nowNs()), ends now.
  void complete(Stage s, std::uint64_t startNs, std::uint32_t aux = 0);
  void instant(Stage s, std::uint64_t arg = 0, std::uint32_t aux = 0) {
    emit(s, EventKind::Instant, arg, aux);
  }
  /// Sample one registered counter track (see counterTrack()).
  void counterSample(std::uint16_t track, double value);

  /// Nanoseconds since the owning recorder's epoch.
  std::uint64_t nowNs() const;

  const std::string& name() const { return name_; }
  std::uint64_t eventsEmitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t eventsWritten() const {
    return written_.load(std::memory_order_relaxed);
  }
  std::uint64_t eventsDropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  friend class FlightRecorder;
  ThreadLog(FlightRecorder* rec, std::string name, std::size_t capacity);

  void emit(Stage s, EventKind kind, std::uint64_t arg, std::uint32_t aux);
  void push(const FlightEvent& ev);

  std::vector<FlightEvent> slots_;
  std::size_t mask_;
  alignas(kFlightCacheLine) std::atomic<std::uint64_t> tail_{0};  // producer
  alignas(kFlightCacheLine) std::atomic<std::uint64_t> head_{0};  // consumer
  alignas(kFlightCacheLine) std::atomic<std::uint64_t> emitted_{0};
  std::atomic<std::uint64_t> written_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::string name_;
  FlightRecorder* rec_;
  /// Drained events, consumer side (guarded by the recorder mutex).
  std::vector<FlightEvent> collected_;
};

/// RAII span: begin on construction, end on destruction (or close()).
/// Null log = complete no-op, so call sites need no recorder checks.
class FlightSpan {
 public:
  FlightSpan(ThreadLog* log, Stage stage, std::uint32_t aux = 0)
      : log_(log), stage_(stage) {
    if (log_) log_->begin(stage_, aux);
  }
  ~FlightSpan() { close(); }
  void close(std::uint32_t aux = 0) {
    if (log_) log_->end(stage_, aux);
    log_ = nullptr;
  }
  FlightSpan(const FlightSpan&) = delete;
  FlightSpan& operator=(const FlightSpan&) = delete;

 private:
  ThreadLog* log_;
  Stage stage_;
};

/// Per-stage aggregation computed by the stall report (exposed so tests
/// and tools can assert on attribution without parsing the text table).
struct StageTally {
  std::uint64_t spans = 0;    ///< closed spans (or instants)
  std::uint64_t totalNs = 0;  ///< time inside closed spans
};

class FlightRecorder {
 public:
  struct Config {
    /// Events per track ring (rounded up to a power of two).  At 24
    /// bytes per event the default costs 1.5 MiB per track.
    std::size_t ringCapacity = 1 << 16;
  };

  FlightRecorder() : FlightRecorder(Config{}) {}
  explicit FlightRecorder(Config config);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Create a new track for the calling thread.  Takes the registry
  /// mutex — do it at thread start, not per event.  The returned pointer
  /// stays valid for the recorder's lifetime; all emit calls on it must
  /// come from one thread at a time (it is an SPSC producer cursor).
  ThreadLog* attachThread(std::string_view name);

  /// Register (or look up) a named counter track for Counter samples.
  std::uint16_t counterTrack(std::string_view name);

  /// Nanoseconds since the recorder was constructed (monotonic).
  std::uint64_t nowNs() const;

  struct Totals {
    std::uint64_t emitted = 0;
    std::uint64_t written = 0;
    std::uint64_t dropped = 0;
  };
  /// Exact reconciliation across every track:
  /// totals().emitted == totals().written + totals().dropped, always.
  Totals totals() const;

  /// Pull every available event out of every ring into consumer-side
  /// storage (safe while producers keep emitting; serialized internally).
  void drain();

  /// The full Chrome trace-event document ({"traceEvents":[...]}).
  /// Drains first.  `eventsOut` (optional) receives the number of
  /// span/instant/counter events rendered — equal to totals().written
  /// once the producers have quiesced.
  std::string chromeTraceJson(std::uint64_t* eventsOut = nullptr);
  /// Write chromeTraceJson() to `path`; false on I/O failure.
  bool writeChromeTrace(const std::string& path,
                        std::uint64_t* eventsOut = nullptr);

  /// Post-run stall attribution: per-stage busy/wait/instant breakdown,
  /// top blocking edges, and per-track event accounting.  Drains first.
  std::string stallReport();

  /// Per-stage tallies (drains first): [0] = closed work/wait span time,
  /// indexed by Stage.  Instant stages count occurrences only.
  std::vector<StageTally> stageTallies();

 private:
  Config config_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::vector<std::string> counterNames_;
};

}  // namespace nfstrace::obs
