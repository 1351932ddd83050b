#include "analysis/engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/timer.hpp"
#include "pipeline/spsc_ring.hpp"
#include "util/crc32.hpp"

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

/// Source 1: the classic reader stream (every format, recover mode).
/// Its batches carry no op bitmask, so no pass is ever skipped.
struct ReaderSource {
  static constexpr obs::Stage kDecodeStage = obs::Stage::ReaderDecode;

  TraceReader& reader;
  std::size_t batchRecords;

  bool next(TraceBatch& batch, std::uint32_t& opMask) {
    opMask = kAllOpsMask;
    return reader.nextBatch(batch, batchRecords);
  }
  const StringInterner& names() const { return reader.nameInterner(); }
  const StringInterner& handles() const { return reader.handleInterner(); }
};

/// Source 2: the footer-indexed extent walk over a (possibly chained)
/// v2 file.  Extents whose zone maps cannot match the predicate are
/// dropped before a byte of them is read; the rest are read, CRC-checked
/// and loaded in file order — so interned ids match a reader scan — and
/// handed out in batches that never straddle two extents, each tagged
/// with its extent's footer op bitmask.  Strict only: the footer
/// promised every extent, so damage throws (recover-mode scans take the
/// reader).  Owns the scan's interners, so it must outlive finalize.
class ExtentWalk {
 public:
  static constexpr obs::Stage kDecodeStage = obs::Stage::ExtentDecode;

  ExtentWalk(const std::string& path,
             const std::vector<tracev2::ExtentInfo>& extents,
             const ScanPredicate& pred, std::size_t batchRecords,
             AnalysisEngine::Stats& stats)
      : batchRecords_(std::max<std::size_t>(batchRecords, 1)) {
    stats.extentsTotal = extents.size();
    for (const tracev2::ExtentInfo& e : extents) {
      if (e.records == 0) continue;
      if (!pred.trivial() && !pred.mayMatch(e)) {
        ++stats.extentsPruned;
        continue;
      }
      extents_.push_back(e);
    }
    f_ = std::fopen(path.c_str(), "rb");
    if (!f_) throw std::runtime_error("extent scan: cannot open " + path);
  }
  ~ExtentWalk() { std::fclose(f_); }
  ExtentWalk(const ExtentWalk&) = delete;
  ExtentWalk& operator=(const ExtentWalk&) = delete;

  bool next(TraceBatch& batch, std::uint32_t& opMask) {
    while (dec_.remaining() == 0) {
      if (next_ == extents_.size()) return false;
      load(extents_[next_++]);
    }
    if (batch.records.size() < batchRecords_) {
      batch.records.resize(batchRecords_);
      batch.fhId.resize(batchRecords_);
      batch.fh2Id.resize(batchRecords_);
      batch.resFhId.resize(batchRecords_);
      batch.nameId.resize(batchRecords_);
      batch.name2Id.resize(batchRecords_);
    }
    batch.nameInterner = &names_;
    batch.handleInterner = &handles_;
    tracev2::ExtentDecoder::BatchOut out;
    out.recs = batch.records.data();
    out.fh = batch.fhId.data();
    out.fh2 = batch.fh2Id.data();
    out.resFh = batch.resFhId.data();
    out.name = batch.nameId.data();
    out.name2 = batch.name2Id.data();
    batch.n = dec_.take(out, batchRecords_);
    batch.seq = seq_++;
    batch.endedAtResync = false;
    opMask = opMask_;
    return true;
  }
  const StringInterner& names() const { return names_; }
  const StringInterner& handles() const { return handles_; }

 private:
  /// fread + validate one extent (header, payload, CRC) and load it.
  void load(const tracev2::ExtentInfo& e) {
    unsigned char hdrBuf[tracev2::kExtentHeaderBytes];
    tracev2::ExtentHeader hdr;
    if (std::fseek(f_, static_cast<long>(e.offset), SEEK_SET) != 0 ||
        std::fread(hdrBuf, 1, sizeof(hdrBuf), f_) != sizeof(hdrBuf) ||
        !tracev2::parseExtentHeader(hdrBuf, hdr) || hdr.records != e.records) {
      throw std::runtime_error("extent scan: bad extent header");
    }
    auto& buf = dec_.buffer();
    if (buf.size() < hdr.payloadBytes) buf.resize(hdr.payloadBytes);
    if (std::fread(buf.data(), 1, hdr.payloadBytes, f_) != hdr.payloadBytes) {
      throw std::runtime_error("extent scan: truncated extent payload");
    }
    if (crc32(buf.data(), hdr.payloadBytes) != hdr.payloadCrc) {
      throw std::runtime_error("extent scan: extent payload CRC mismatch");
    }
    dec_.load(hdr, names_, handles_);
    opMask_ = e.opMask;
  }

  std::size_t batchRecords_;
  std::vector<tracev2::ExtentInfo> extents_;  // the survivors, file order
  std::size_t next_ = 0;
  std::FILE* f_ = nullptr;
  tracev2::ExtentDecoder dec_;
  std::uint32_t opMask_ = kAllOpsMask;
  std::uint64_t seq_ = 0;
  StringInterner names_, handles_;
};

/// source.next() under a decode span of the source's flight stage.
template <class Source>
bool decodeNext(Source& source, TraceBatch& batch, std::uint32_t& opMask,
                obs::ThreadLog* flog) {
  std::uint64_t start = flog ? flog->nowNs() : 0;
  if (!source.next(batch, opMask)) return false;
  if (flog) {
    flog->complete(Source::kDecodeStage, start,
                   static_cast<std::uint32_t>(batch.n));
  }
  return true;
}

/// A pooled fan-out batch, its op bitmask, and its refcount.  The
/// decoding thread only reuses a slot after every worker's
/// release-decrement has landed (acquire scan), so slot reuse never
/// races a worker still reading the batch.
struct BatchSlot {
  TraceBatch batch;
  std::uint32_t opMask = kAllOpsMask;
  std::atomic<std::uint32_t> refs{0};
};

}  // namespace

AnalysisEngine::AnalysisEngine() : AnalysisEngine(Config()) {}

AnalysisEngine::AnalysisEngine(const Config& config) : config_(config) {}

void AnalysisEngine::addPass(AnalysisPass* pass) {
  passes_.push_back(pass);
  passHist_.push_back(nullptr);
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
  for (std::size_t i = 0; i < passes_.size(); ++i) {
    std::string name = "engine.pass.";
    name += passes_[i]->name();
    name += ".observe_ns";
    passHist_[i] = &registry.histogram(name);
  }
}

void AnalysisEngine::attachFlight(obs::FlightRecorder& flight) {
  flight_ = &flight;
  readerFlog_ = flight.attachThread("engine.reader");
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

template <class Source>
void AnalysisEngine::scanInline(Source& source) {
  TraceBatch batch;
  std::uint32_t opMask = kAllOpsMask;
  while (decodeNext(source, batch, opMask, readerFlog_)) {
    if (!admit(batch)) continue;
    for (std::size_t i = 0; i < passes_.size(); ++i) {
      if ((passes_[i]->opMask() & opMask) == 0) continue;
      observe(i, batch, 0, readerFlog_);
    }
  }
  noteScanDone({}, source.names().size(), source.handles().size());
}

template <class Source>
void AnalysisEngine::scanFanOut(Source& source) {
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
  if (flight_) {
    for (std::size_t w = 0; w < workers; ++w) {
      workerFlogs[w] =
          flight_->attachThread("engine.worker" + std::to_string(w));
    }
  }
  // A throwing observe() parks its worker's exception here; the worker
  // keeps releasing slots (so the decoder never stalls) until the
  // sentinel, and the scan rethrows after the join.
  std::vector<std::exception_ptr> workerErrors(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
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
            if (!mine || (pass->opMask() & slot->opMask) == 0) continue;
            observe(i, batch, w, flog);
          }
        } catch (...) {
          workerErrors[w] = std::current_exception();
        }
        slot->refs.fetch_sub(1, std::memory_order_release);
      }
    });
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
      if (!decodeNext(source, slot->batch, slot->opMask, readerFlog_)) break;
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
  for (std::size_t w = 0; w < workers; ++w) {
    BatchSlot* sentinel = nullptr;
    while (!rings[w]->tryPush(sentinel)) {
      std::this_thread::yield();
      sentinel = nullptr;
    }
  }
  for (auto& t : threads) t.join();
  for (const std::exception_ptr& e : workerErrors) {
    if (!error) error = e;
  }
  if (error) std::rethrow_exception(error);
  noteScanDone(shardRecords, source.names().size(), source.handles().size());
}

template <class Source>
const AnalysisEngine::Stats& AnalysisEngine::scan(Source& source) {
  const std::size_t threads = std::max<std::size_t>(config_.decodeThreads, 1);
  for (AnalysisPass* p : passes_) p->prepare(threads);
  if (threads <= 1) {
    scanInline(source);
  } else {
    scanFanOut(source);
  }
  {
    obs::FlightSpan span(readerFlog_, obs::Stage::Finalize,
                         static_cast<std::uint32_t>(passes_.size()));
    finalizeAll(threads);
  }
  return stats_;
}

const AnalysisEngine::Stats& AnalysisEngine::run(TraceReader& reader) {
  stats_ = {};
  ReaderSource source{reader, config_.batchRecords};
  return scan(source);
}

const AnalysisEngine::Stats& AnalysisEngine::runFile(const std::string& path,
                                                     bool recover) {
  // The extent walk needs a complete, CRC-valid chained index (its
  // extent hops trust the footer) and strict-mode semantics; anything
  // it cannot serve falls back to the reader, which produces the
  // byte-identical report.
  if (!recover &&
      (config_.decodeThreads > 1 || !config_.predicate.trivial()) &&
      detectTraceFormat(path) == TraceWriter::Format::V2) {
    if (auto extents = tracev2::loadChainedIndex(path)) {
      stats_ = {};
      ExtentWalk source(path, *extents, config_.predicate,
                        config_.batchRecords, stats_);
      return scan(source);
    }
  }
  TraceReader reader(path, recover);
  return run(reader);
}

void AnalysisEngine::noteScanDone(
    const std::vector<std::uint64_t>& shardRecords, std::size_t internedNames,
    std::size_t internedHandles) {
  stats_.internedNames = internedNames;
  stats_.internedHandles = internedHandles;
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

void AnalysisEngine::finalizeAll(std::size_t parallelism) {
  std::size_t workers = std::max<std::size_t>(parallelism, 1);
  if (workers <= 1 || passes_.size() <= 1) {
    for (AnalysisPass* p : passes_) p->finalize();
    return;
  }
  // Passes are independent after the scan; finalize them concurrently
  // (work-stealing over an atomic index).
  std::atomic<std::size_t> next{0};
  auto drain = [this, &next] {
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= passes_.size()) break;
      passes_[i]->finalize();
    }
  };
  std::size_t n = std::min(workers, passes_.size());
  std::vector<std::thread> threads;
  threads.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) threads.emplace_back(drain);
  drain();
  for (auto& t : threads) t.join();
}

}  // namespace nfstrace
