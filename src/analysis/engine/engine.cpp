#include "analysis/engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/timer.hpp"
#include "pipeline/spsc_ring.hpp"

namespace nfstrace {
namespace {

/// In-flight batches per fan-out worker ring; the slot pool holds
/// workers * kQueueBatches + 1 batches.
constexpr std::size_t kQueueBatches = 8;
/// Alert (engine.intern_high_water) when the interners grow past this
/// many ids combined — a runaway namespace or a corrupt trace interning
/// garbage.
constexpr std::size_t kInternHighWater = 1u << 20;
/// Alert (engine.merge_skew) when the busiest mergeable shard saw more
/// than this factor times the records of the laziest: the deterministic
/// seq % workers deal went pathological.
constexpr double kMergeSkewFactor = 8.0;

/// reader.nextBatch() under a decode span.
bool decodeNext(TraceReader& reader, TraceBatch& batch,
                std::size_t batchRecords, obs::ThreadLog* flog) {
  std::uint64_t start = flog ? flog->nowNs() : 0;
  if (!reader.nextBatch(batch, batchRecords)) return false;
  if (flog) {
    flog->complete(obs::Stage::ReaderDecode, start,
                   static_cast<std::uint32_t>(batch.n));
  }
  return true;
}

/// A pooled fan-out batch and its refcount.  The decoding thread only
/// reuses a slot after every worker's release-decrement has landed
/// (acquire scan), so slot reuse never races a worker still reading the
/// batch.
struct BatchSlot {
  TraceBatch batch;
  std::atomic<std::uint32_t> refs{0};
};

}  // namespace

AnalysisEngine::AnalysisEngine() : AnalysisEngine(Config()) {}

AnalysisEngine::AnalysisEngine(const Config& config) : config_(config) {
  if (config_.decodeThreads > kMaxDecodeThreads) {
    throw std::invalid_argument(
        "engine: decodeThreads " + std::to_string(config_.decodeThreads) +
        " exceeds " + std::to_string(kMaxDecodeThreads));
  }
}

void AnalysisEngine::addPass(AnalysisPass* pass) {
  passes_.push_back(pass);
  passHist_.push_back(nullptr);
  passFinalizeHist_.push_back(nullptr);
}

void AnalysisEngine::addPasses(const std::vector<AnalysisPass*>& passes) {
  for (AnalysisPass* p : passes) addPass(p);
}

void AnalysisEngine::attachMetrics(obs::Registry& registry) {
  batchesC_ = registry.counterHandle("engine.batches", 0);
  recordsC_ = registry.counterHandle("engine.records", 0);
  resyncC_ = registry.counterHandle("engine.resync_cuts", 0);
  mergeSkewC_ = registry.counterHandle("engine.merge_skew", 0);
  internHighC_ = registry.counterHandle("engine.intern_high_water", 0);
  internNamesG_ = registry.gaugeHandle("engine.intern_names");
  internHandlesG_ = registry.gaugeHandle("engine.intern_handles");
  namespaceHist_ =
      obs::HistogramHandle(registry.histogram("engine.namespace_ns"), 0);
  for (std::size_t i = 0; i < passes_.size(); ++i) {
    std::string base = "engine.pass.";
    base += passes_[i]->name();
    passHist_[i] = &registry.histogram(base + ".observe_ns");
    passFinalizeHist_[i] = &registry.histogram(base + ".finalize_ns");
  }
}

void AnalysisEngine::attachFlight(obs::FlightRecorder& flight) {
  flight_ = &flight;
  readerFlog_ = flight.attachThread("engine.reader");
  workerFlogs_.clear();
}

obs::ThreadLog* AnalysisEngine::workerFlog(std::size_t w) {
  if (!flight_) return nullptr;
  while (workerFlogs_.size() <= w) {
    workerFlogs_.push_back(flight_->attachThread(
        "engine.worker" + std::to_string(workerFlogs_.size())));
  }
  return workerFlogs_[w];
}

std::size_t AnalysisEngine::applyPredicate(TraceBatch& batch) const {
  const ScanPredicate& pred = config_.predicate;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < batch.n; ++i) {
    if (!pred.matches(batch.records[i])) continue;
    if (kept != i) {
      // swap, not copy: both slots stay capacity-reusable for refills.
      std::swap(batch.records[kept], batch.records[i]);
      batch.fhId[kept] = batch.fhId[i];
      batch.fh2Id[kept] = batch.fh2Id[i];
      batch.resFhId[kept] = batch.resFhId[i];
      batch.nameId[kept] = batch.nameId[i];
      batch.name2Id[kept] = batch.name2Id[i];
    }
    ++kept;
  }
  std::size_t dropped = batch.n - kept;
  batch.n = kept;
  return dropped;
}

bool AnalysisEngine::admit(TraceBatch& batch) {
  if (batch.endedAtResync) {
    ++stats_.resyncCuts;
    resyncC_.inc();
    if (readerFlog_) {
      readerFlog_->instant(obs::Stage::RecoveryCut, stats_.batches);
    }
  }
  if (!config_.predicate.trivial()) {
    stats_.recordsFiltered += applyPredicate(batch);
  }
  if (batch.n == 0) return false;  // fully filtered
  ++stats_.batches;
  stats_.records += batch.n;
  batchesC_.inc();
  recordsC_.inc(batch.n);
  obs::TimerSpan span(namespaceHist_);
  obs::FlightSpan fspan(readerFlog_, obs::Stage::Namespace,
                        static_cast<std::uint32_t>(batch.n));
  ns_.apply(batch);
  return true;
}

void AnalysisEngine::observe(std::size_t i, const TraceBatch& batch,
                             std::size_t shard, obs::ThreadLog* flog) {
  AnalysisPass* pass = passes_[i];
  obs::TimerSpan span(passHist_[i] ? obs::HistogramHandle(*passHist_[i], shard)
                                   : obs::HistogramHandle());
  obs::FlightSpan fspan(flog, obs::Stage::PassObserve,
                        static_cast<std::uint32_t>(i));
  pass->observe(batch, pass->mergeable() ? shard : 0);
}

void AnalysisEngine::scanInline(TraceReader& reader) {
  TraceBatch batch;
  while (decodeNext(reader, batch, config_.batchRecords, readerFlog_)) {
    if (!admit(batch)) continue;
    for (std::size_t i = 0; i < passes_.size(); ++i) {
      if ((passes_[i]->opMask() & batch.opMask) == 0) continue;
      observe(i, batch, 0, readerFlog_);
    }
  }
  noteScanDone({}, reader);
}

void AnalysisEngine::scanFanOut(TraceReader& reader) {
  const std::size_t workers = config_.decodeThreads;
  const std::size_t poolSize = workers * kQueueBatches + 1;

  std::vector<std::unique_ptr<BatchSlot>> pool;
  pool.reserve(poolSize);
  for (std::size_t i = 0; i < poolSize; ++i) {
    pool.push_back(std::make_unique<BatchSlot>());
  }
  std::vector<std::unique_ptr<SpscRing<BatchSlot*>>> rings;
  rings.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    rings.push_back(std::make_unique<SpscRing<BatchSlot*>>(kQueueBatches));
  }

  std::vector<std::uint64_t> shardRecords(workers, 0);
  std::vector<obs::ThreadLog*> workerFlogs(workers, nullptr);
  for (std::size_t w = 0; w < workers; ++w) workerFlogs[w] = workerFlog(w);
  // A throwing observe() parks its worker's exception here; the worker
  // keeps releasing slots (so the decoder never stalls) until the
  // sentinel, and the scan rethrows after the join.
  std::vector<std::exception_ptr> workerErrors(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  // Sends each started worker its EOF sentinel and joins it.
  auto stopWorkers = [&] {
    for (std::size_t w = 0; w < threads.size(); ++w) {
      BatchSlot* sentinel = nullptr;
      while (!rings[w]->tryPush(sentinel)) {
        std::this_thread::yield();
        sentinel = nullptr;
      }
    }
    for (auto& t : threads) t.join();
  };
  try {
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([this, w, workers, &rings, &workerFlogs,
                            &workerErrors] {
        SpscRing<BatchSlot*>& ring = *rings[w];
        obs::ThreadLog* flog = workerFlogs[w];
        for (;;) {
          BatchSlot* slot = nullptr;
          std::uint64_t starveStart = 0;  // batch-ring-empty episode
          while (!ring.tryPop(slot)) {
            if (flog && starveStart == 0) starveStart = flog->nowNs();
            std::this_thread::yield();
          }
          if (starveStart != 0) {
            flog->complete(obs::Stage::WorkerBatchWait, starveStart);
          }
          if (!slot) break;  // EOF sentinel
          const TraceBatch& batch = slot->batch;
          try {
            for (std::size_t i = 0; i < passes_.size() && !workerErrors[w];
                 ++i) {
              AnalysisPass* pass = passes_[i];
              bool mine = pass->mergeable() ? batch.seq % workers == w
                                            : i % workers == w;
              if (!mine || (pass->opMask() & batch.opMask) == 0) continue;
              observe(i, batch, w, flog);
            }
          } catch (...) {
            workerErrors[w] = std::current_exception();
          }
          slot->refs.fetch_sub(1, std::memory_order_release);
        }
      });
    }
  } catch (...) {
    // A thread that failed to start (std::system_error): the ones
    // already running wait for a batch, so stop them before rethrowing.
    stopWorkers();
    throw;
  }

  // Decode loop: fill a free pooled slot, then hand the same pointer to
  // every worker (refcount = workers).  A decode error still shuts the
  // workers down before it propagates.
  std::exception_ptr error;
  try {
    std::size_t scan = 0;
    for (;;) {
      BatchSlot* slot = nullptr;
      std::uint64_t poolWaitStart = 0;  // every-slot-referenced episode
      for (;;) {
        for (std::size_t tries = 0; tries < poolSize; ++tries) {
          BatchSlot* cand = pool[scan].get();
          scan = (scan + 1) % poolSize;
          if (cand->refs.load(std::memory_order_acquire) == 0) {
            slot = cand;
            break;
          }
        }
        if (slot) break;
        if (readerFlog_ && poolWaitStart == 0) {
          poolWaitStart = readerFlog_->nowNs();
        }
        std::this_thread::yield();
      }
      if (poolWaitStart != 0) {
        readerFlog_->complete(obs::Stage::BatchPoolWait, poolWaitStart);
      }
      if (!decodeNext(reader, slot->batch, config_.batchRecords,
                      readerFlog_)) {
        break;
      }
      if (!admit(slot->batch)) continue;  // slot stays free
      shardRecords[slot->batch.seq % workers] += slot->batch.n;
      slot->refs.store(static_cast<std::uint32_t>(workers),
                       std::memory_order_relaxed);
      for (std::size_t w = 0; w < workers; ++w) {
        BatchSlot* p = slot;
        while (!rings[w]->tryPush(p)) {
          std::this_thread::yield();
          p = slot;  // tryPush moves from its argument
        }
      }
    }
  } catch (...) {
    error = std::current_exception();
  }
  stopWorkers();
  for (const std::exception_ptr& e : workerErrors) {
    if (!error) error = e;
  }
  if (error) std::rethrow_exception(error);
  noteScanDone(shardRecords, reader);
}

const AnalysisEngine::Stats& AnalysisEngine::run(TraceReader& reader) {
  stats_ = {};
  const std::size_t threads = std::max<std::size_t>(config_.decodeThreads, 1);
  for (AnalysisPass* p : passes_) p->prepare(threads);
  ns_ = {};
  if (threads <= 1) {
    scanInline(reader);
  } else {
    scanFanOut(reader);
  }
  {
    obs::FlightSpan span(readerFlog_, obs::Stage::Finalize,
                         static_cast<std::uint32_t>(passes_.size()));
    finalizeAll(threads);
  }
  return stats_;
}

const AnalysisEngine::Stats& AnalysisEngine::runFile(const std::string& path,
                                                     bool recover) {
  TraceReader reader(path, recover, config_.predicate);
  return run(reader);
}

void AnalysisEngine::noteScanDone(
    const std::vector<std::uint64_t>& shardRecords, const TraceReader& reader) {
  stats_.internedNames = reader.nameInterner().size();
  stats_.internedHandles = reader.handleInterner().size();
  stats_.extentsTotal = reader.extentsTotal();
  stats_.extentsPruned = reader.extentsPruned();
  internNamesG_.set(static_cast<double>(stats_.internedNames));
  internHandlesG_.set(static_cast<double>(stats_.internedHandles));
  if (stats_.internedNames + stats_.internedHandles > kInternHighWater) {
    ++stats_.internHighWaterAlerts;
    internHighC_.inc();
  }
  if (shardRecords.size() > 1) {
    auto [mn, mx] = std::minmax_element(shardRecords.begin(),
                                        shardRecords.end());
    double low = static_cast<double>(std::max<std::uint64_t>(*mn, 1));
    if (static_cast<double>(*mx) > kMergeSkewFactor * low) {
      ++stats_.mergeSkewAlerts;
      mergeSkewC_.inc();
    }
  }
}

void AnalysisEngine::finalizePass(std::size_t i, std::size_t slot,
                                  obs::ThreadLog* flog) {
  obs::TimerSpan span(passFinalizeHist_[i]
                          ? obs::HistogramHandle(*passFinalizeHist_[i], slot)
                          : obs::HistogramHandle());
  obs::FlightSpan fspan(flog, obs::Stage::PassFinalize,
                        static_cast<std::uint32_t>(i));
  passes_[i]->finalize();
}

void AnalysisEngine::finalizeAll(std::size_t parallelism) {
  const std::size_t n =
      std::min(std::max<std::size_t>(parallelism, 1), passes_.size());
  if (n <= 1) {
    for (std::size_t i = 0; i < passes_.size(); ++i) {
      finalizePass(i, 0, readerFlog_);
    }
    return;
  }
  // Passes are independent after the scan; finalize them concurrently
  // (work-stealing over an atomic index).  Thread t > 0 records on worker
  // track t - 1, idle since the scan's join; the calling thread on the
  // reader's.
  std::vector<obs::ThreadLog*> flogs(n, readerFlog_);
  for (std::size_t t = 1; t < n; ++t) flogs[t] = workerFlog(t - 1);
  std::atomic<std::size_t> next{0};
  auto drain = [this, &next, &flogs](std::size_t t) {
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= passes_.size()) break;
      finalizePass(i, t, flogs[t]);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(n - 1);
  try {
    for (std::size_t t = 1; t < n; ++t) threads.emplace_back(drain, t);
  } catch (...) {
    // A thread that failed to start: join the running ones before the
    // exception destroys them.
    for (auto& t : threads) t.join();
    throw;
  }
  drain(0);
  for (auto& t : threads) t.join();
}

}  // namespace nfstrace
