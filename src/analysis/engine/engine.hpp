// Single-pass, multi-consumer analysis driver.
//
// Legacy analysis tooling scanned the trace once per analysis — eight
// decodes of the same bytes for the standard table set.  The engine
// decodes each batch exactly once and hands it to every registered
// AnalysisPass.
//
// One batch source, TraceReader::nextBatch: strict or recover mode, and —
// given a non-trivial predicate over an indexed trace — zone-map pruning,
// with each batch tagged with its extent's op bitmask (see TraceReader).
//
// One namespace per scan: on the calling thread, after the predicate and
// before any pass, the engine applies its Namespace to every admitted
// batch, filling the batch's namespace columns (analysis/namespace.hpp).
//
// Two loops:
//   inline        decodeThreads <= 1: decode and observe on the calling
//                 thread
//   fan-out       decodeThreads = N > 1: the calling thread decodes into
//                 a refcounted batch slot and pushes one pointer per
//                 worker SPSC ring; worker w observes
//                   mergeable passes  — iff batch.seq % N == w
//                   sequential passes — pass p is pinned to worker
//                                       p % N and sees every batch in
//                                       stream order
//
// Either way a pass whose opMask() misses the batch's op bitmask is
// skipped, and finalize runs the passes on up to N threads; mergeable
// passes fold their shards with exact (integer/min-max/union) merges.
//
// Determinism: batches are numbered by the reader, shard assignment is
// seq % N, and every merge is exact — so results are byte-identical to
// the inline loop at any thread count, pruned or not (pinned in
// tests/engine_test and tests/query_test).
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/engine/pass.hpp"
#include "analysis/namespace.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "trace/tracefile.hpp"

namespace nfstrace {

class AnalysisEngine {
 public:
  /// Upper bound of Config::decodeThreads: every scan thread is an OS
  /// thread that busy-yields while it waits for batches.
  static constexpr std::size_t kMaxDecodeThreads = 64;

  struct Config {
    /// Records per batch.
    std::size_t batchRecords = TraceBatch::kDefaultCapacity;
    /// Scan threads, for run() and runFile() alike.  0 or 1 scans inline
    /// on the calling thread; N > 1 decodes on the calling thread and
    /// fans every batch out to N observer threads, then finalizes the
    /// passes on up to N threads.  Reports are byte-identical at any
    /// value.  At most kMaxDecodeThreads.  (The name predates the
    /// fan-out: it once counted extent-decode threads.)
    std::size_t decodeThreads = 1;
    /// Pushdown filter, applied record by record to every batch.
    /// runFile() also hands it to the reader, which then prunes whole
    /// extents via the v2 footer zone maps.
    ScanPredicate predicate;
  };

  struct Stats {
    std::uint64_t batches = 0;
    std::uint64_t records = 0;
    std::uint64_t resyncCuts = 0;  // batches cut at a recovery resync
    std::size_t internedNames = 0;
    std::size_t internedHandles = 0;
    std::uint64_t mergeSkewAlerts = 0;
    std::uint64_t internHighWaterAlerts = 0;
    /// Pruned scans only: footer entries seen / skipped by zone maps
    /// (TraceReader::extentsTotal / extentsPruned).
    std::uint64_t extentsTotal = 0;
    std::uint64_t extentsPruned = 0;
    /// Records decoded but rejected by the record-level predicate.
    std::uint64_t recordsFiltered = 0;
  };

  AnalysisEngine();
  /// Throws std::invalid_argument when config.decodeThreads exceeds
  /// kMaxDecodeThreads.
  explicit AnalysisEngine(const Config& config);

  /// Register a pass (not owned; must outlive run()).
  void addPass(AnalysisPass* pass);
  void addPasses(const std::vector<AnalysisPass*>& passes);

  /// Bind self-monitoring: batch/record counters, intern-table gauges,
  /// the namespace's and each pass's timing histograms
  /// (engine.namespace_ns, engine.pass.<name>.observe_ns / .finalize_ns),
  /// and the two alert counters.  Call after the passes are registered.
  void attachMetrics(obs::Registry& registry);

  /// Bind a flight recorder: decode, namespace, pass-observe and
  /// pass-finalize spans, pool- and ring-wait stall episodes, and
  /// recovery-cut instants land on "engine.reader" / "engine.worker<w>"
  /// tracks.
  void attachFlight(obs::FlightRecorder& flight);

  /// Drive every pass over the reader's stream in one scan (prepare ->
  /// observe* -> finalize).  Reusable: each call re-prepares the passes.
  /// An error from a decode, an observe() or a finalize() on any thread
  /// is rethrown here once every thread the scan started has joined.
  const Stats& run(TraceReader& reader);

  /// run() over a reader opened on `path` with config_.predicate, so
  /// the reader prunes by zone map where it can (see TraceReader).
  const Stats& runFile(const std::string& path, bool recover = false);

  const Stats& stats() const { return stats_; }

 private:
  void scanInline(TraceReader& reader);
  void scanFanOut(TraceReader& reader);
  /// Per-batch bookkeeping shared by both loops: resync and predicate
  /// accounting, the batch/record counters, then the namespace.  False
  /// when the predicate filtered the batch down to nothing.
  bool admit(TraceBatch& batch);
  /// Drop records failing config_.predicate, compacting the batch in
  /// place; returns how many were dropped.
  std::size_t applyPredicate(TraceBatch& batch) const;
  /// observe() of pass i on one batch, timed into its histogram and a
  /// flight span on `flog`.
  void observe(std::size_t i, const TraceBatch& batch, std::size_t shard,
               obs::ThreadLog* flog);
  /// finalize() of pass i, timed into its histogram (slot `slot`) and a
  /// flight span on `flog`.
  void finalizePass(std::size_t i, std::size_t slot, obs::ThreadLog* flog);
  void finalizeAll(std::size_t parallelism);
  /// The flight track of worker w ("engine.worker<w>"), attached on first
  /// use and kept across runs; null without a flight recorder.  Call
  /// before the threads that use it start.
  obs::ThreadLog* workerFlog(std::size_t w);
  void noteScanDone(const std::vector<std::uint64_t>& shardRecords,
                    const TraceReader& reader);

  Config config_;
  std::vector<AnalysisPass*> passes_;
  Namespace ns_;  // the scan's hierarchy, reset at each run()
  Stats stats_;
  obs::CounterHandle batchesC_;
  obs::CounterHandle recordsC_;
  obs::CounterHandle resyncC_;
  obs::CounterHandle mergeSkewC_;
  obs::CounterHandle internHighC_;
  obs::GaugeHandle internNamesG_;
  obs::GaugeHandle internHandlesG_;
  obs::HistogramHandle namespaceHist_;
  // Parallel to passes_.
  std::vector<obs::Histogram*> passHist_;
  std::vector<obs::Histogram*> passFinalizeHist_;
  obs::FlightRecorder* flight_ = nullptr;
  obs::ThreadLog* readerFlog_ = nullptr;
  std::vector<obs::ThreadLog*> workerFlogs_;
};

}  // namespace nfstrace
