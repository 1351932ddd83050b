#include "pipeline/pipeline.hpp"

#include <algorithm>

#include "pipeline/partition.hpp"

namespace nfstrace {
namespace {

/// Producer-side dispatch batch per shard: push frames to the ring in
/// bursts so each shard crossing costs one release store, not one per
/// frame.
constexpr std::size_t kStageBatch = 512;
/// Worker-side pop batch.
constexpr std::size_t kWorkerBatch = 1024;
/// Merge-side pop batch per shard ring.
constexpr std::size_t kMergeBatch = 1024;

}  // namespace

ParallelPipeline::Shard::Shard(const Config& config)
    : in(config.frameRingCapacity), out(config.recordRingCapacity) {}

ParallelPipeline::ParallelPipeline(Config config, RecordCallback sink)
    : config_(config), sink_(std::move(sink)) {
  if (config_.shards < 1) config_.shards = 1;
  staged_.resize(static_cast<std::size_t>(config_.shards));
  for (auto& s : staged_) s.reserve(kStageBatch);
  for (int i = 0; i < config_.shards; ++i) {
    auto sh = std::make_unique<Shard>(config_);
    Shard* raw = sh.get();
    // Shard sniffers publish into the shared registry with their shard
    // index as the counter slot, so their increments never contend.
    Sniffer::Config snifferCfg = config_.sniffer;
    snifferCfg.metrics = config_.metrics;
    snifferCfg.metricsShard = i;
    snifferCfg.flight = config_.flight;
    // The per-shard sniffer tags every emitted record with the merge key
    // of the message being processed and hands it to the merge stage.
    sh->sniffer = std::make_unique<Sniffer>(
        snifferCfg, [this, raw](const TraceRecord& rec) {
          TaggedRecord tr;
          tr.key.seq = raw->curSeq;
          tr.key.phase = raw->curPhase;
          tr.key.sub = raw->curPhase == 0
                           ? (static_cast<std::uint64_t>(rec.client) << 32) |
                                 rec.xid
                           : raw->emitIdx++;
          tr.rec = rec;
          // Record-ring-full stall: one retroactive span per episode, not
          // one event per spin, so a long stall costs one ring slot.
          std::uint64_t stallStart = 0;
          while (!raw->out.tryPush(tr)) {
            raw->recordPushStallsC.inc();
            if (raw->flog && stallStart == 0) stallStart = raw->flog->nowNs();
            std::this_thread::yield();
          }
          if (stallStart != 0) {
            raw->flog->complete(obs::Stage::RecordRingWait, stallStart);
          }
        });
    shards_.push_back(std::move(sh));
  }
  if (config_.flight) {
    producerFlog_ = config_.flight->attachThread("pipeline.partition");
    mergeFlog_ = config_.flight->attachThread("pipeline.merge");
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      shards_[i]->flog = config_.flight->attachThread(
          "pipeline.shard" + std::to_string(i));
    }
  }
  bindMetrics();  // bind worker handles before any worker thread starts
  try {
    for (auto& sh : shards_) {
      Shard* raw = sh.get();
      raw->thread = std::thread([this, raw] { workerLoop(*raw); });
    }
    merger_ = std::thread([this] { mergeLoop(); });
  } catch (...) {
    // A thread that failed to start (std::system_error): the workers
    // already running wait for frames, so send each its End and join it
    // (no frame was fed, so its flush emits nothing for the merge) before
    // the unwinding destroys them.
    for (auto& sh : shards_) {
      if (!sh->thread.joinable()) continue;
      Msg end;
      end.kind = Msg::Kind::End;
      pushToShard(*sh, std::move(end));
      sh->thread.join();
    }
    unregisterGaugeFns();
    throw;
  }
}

ParallelPipeline::~ParallelPipeline() {
  finish();
  unregisterGaugeFns();
}

void ParallelPipeline::unregisterGaugeFns() {
  // The ring-depth gauge fns capture pointers into shards_; pull them
  // out of the registry before the rings are destroyed.
  if (!config_.metrics) return;
  for (const auto& name : gaugeFnNames_) {
    config_.metrics->unregisterGaugeFn(name);
  }
}

void ParallelPipeline::bindMetrics() {
  if (!config_.metrics) return;
  obs::Registry& reg = *config_.metrics;
  framesDispatchedC_ = reg.counterHandle("pipeline.frames_dispatched", 0);
  pushStallsC_ = reg.counterHandle("pipeline.push_stalls", 0);
  framesShedC_ = reg.counterHandle("pipeline.frames_shed", 0);
  recordsReleasedC_ = reg.counterHandle("pipeline.records_released", 0);
  mergeLagG_ = reg.gaugeHandle("pipeline.merge_watermark_lag");
  mergeBufferedG_ = reg.gaugeHandle("pipeline.merge_buffered_records");
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard* sh = shards_[i].get();
    sh->popStallsC = reg.counterHandle("pipeline.pop_stalls", i);
    sh->recordPushStallsC = reg.counterHandle("pipeline.record_push_stalls", i);
    std::string suffix = ".s" + std::to_string(i);
    std::string framesName = "pipeline.ring.frames.depth" + suffix;
    reg.gaugeFn(framesName, [sh] {
      return static_cast<double>(sh->in.sizeApprox());
    });
    gaugeFnNames_.push_back(framesName);
    std::string recordsName = "pipeline.ring.records.depth" + suffix;
    reg.gaugeFn(recordsName, [sh] {
      return static_cast<double>(sh->out.sizeApprox());
    });
    gaugeFnNames_.push_back(recordsName);
  }
}

void ParallelPipeline::pushToShard(Shard& sh, Msg&& msg) {
  while (!sh.in.tryPush(msg)) {
    pushStallsC_.inc();
    std::this_thread::yield();
  }
}

void ParallelPipeline::drainStaged(std::size_t s) {
  auto& batch = staged_[s];
  Shard& sh = *shards_[s];
  std::size_t pushed = 0;
  int stalls = 0;
  std::uint64_t stallStart = 0;  // frame-ring-full episode, retroactive span
  std::uint64_t dispatchStart =
      (producerFlog_ && !batch.empty()) ? producerFlog_->nowNs() : 0;
  while (pushed < batch.size()) {
    std::size_t n = sh.in.tryPushBatch(
        std::span<Msg>(batch.data() + pushed, batch.size() - pushed));
    pushed += n;
    if (pushed >= batch.size()) break;
    pushStallsC_.inc();
    if (producerFlog_ && stallStart == 0) stallStart = producerFlog_->nowNs();
    if (n > 0) {
      stalls = 0;  // partial progress: the consumer is alive, keep going
    } else if (config_.shedAfterStalls > 0 &&
               ++stalls >= config_.shedAfterStalls) {
      // The ring has stayed full past the watermark: the shard cannot
      // keep up.  Drop the rest of the batch (frames only — ticks and
      // End never pass through staging) rather than stall the capture.
      std::uint64_t dropped = batch.size() - pushed;
      shed_ += dropped;
      framesShedC_.inc(dropped);
      if (producerFlog_) {
        producerFlog_->instant(obs::Stage::FrameShed, dropped,
                               static_cast<std::uint32_t>(s));
      }
      break;
    }
    std::this_thread::yield();
  }
  if (stallStart != 0) {
    producerFlog_->complete(obs::Stage::PartitionWait, stallStart,
                            static_cast<std::uint32_t>(s));
  }
  if (dispatchStart != 0) {
    producerFlog_->complete(obs::Stage::PartitionDispatch, dispatchStart,
                            static_cast<std::uint32_t>(pushed));
  }
  batch.clear();
}

void ParallelPipeline::maybeTick(MicroTime ts) {
  MicroTime boundary = ts / config_.sniffer.expiryScanInterval;
  bool heartbeat = ++framesSinceHeartbeat_ >= config_.heartbeatFrames;
  if (boundary <= lastTickBoundary_ && !heartbeat) return;
  if (boundary > lastTickBoundary_) lastTickBoundary_ = boundary;
  framesSinceHeartbeat_ = 0;
  // Staged frames precede this tick in dispatch order; drain them first
  // so per-shard ring order matches global sequence order.
  for (std::size_t s = 0; s < staged_.size(); ++s) drainStaged(s);
  for (auto& sh : shards_) {
    Msg tick;
    tick.kind = Msg::Kind::Tick;
    tick.seq = seq_ + 1;  // seq of the frame about to be dispatched
    tick.ts = ts;
    pushToShard(*sh, std::move(tick));
  }
}

void ParallelPipeline::dispatch(Msg&& msg, int shard) {
  maybeTick(msg.ts);
  msg.seq = ++seq_;
  framesDispatchedC_.inc();
  auto& batch = staged_[static_cast<std::size_t>(shard)];
  batch.push_back(std::move(msg));
  if (batch.size() >= kStageBatch) {
    drainStaged(static_cast<std::size_t>(shard));
  }
}

void ParallelPipeline::onFrame(const CapturedPacket& pkt) {
  Msg msg;
  msg.kind = Msg::Kind::FrameOwned;
  msg.ts = pkt.ts;
  msg.own = pkt;
  dispatch(std::move(msg), shardOfFrame(pkt, config_.shards));
}

void ParallelPipeline::feed(const CapturedPacket* pkt) {
  Msg msg;
  msg.kind = Msg::Kind::FrameRef;
  msg.ts = pkt->ts;
  msg.ref = pkt;
  dispatch(std::move(msg), shardOfFrame(*pkt, config_.shards));
}

void ParallelPipeline::finish() {
  if (finished_) return;
  finished_ = true;
  for (std::size_t s = 0; s < staged_.size(); ++s) drainStaged(s);
  for (auto& sh : shards_) {
    Msg end;
    end.kind = Msg::Kind::End;
    pushToShard(*sh, std::move(end));
  }
  for (auto& sh : shards_) sh->thread.join();
  merger_.join();
  for (const auto& sh : shards_) {
    const Sniffer::Stats& st = sh->sniffer->stats();
    aggregated_.framesSeen += st.framesSeen;
    aggregated_.framesUndecodable += st.framesUndecodable;
    aggregated_.rpcCalls += st.rpcCalls;
    aggregated_.rpcReplies += st.rpcReplies;
    aggregated_.nonNfsCalls += st.nonNfsCalls;
    aggregated_.orphanReplies += st.orphanReplies;
    aggregated_.expiredCalls += st.expiredCalls;
    aggregated_.fragmentsExpired += st.fragmentsExpired;
    aggregated_.evictedCalls += st.evictedCalls;
    aggregated_.evictedFlows += st.evictedFlows;
    aggregated_.flushedCalls += st.flushedCalls;
    // Peaks report the largest per-shard table, not a (meaningless) sum.
    aggregated_.pendingPeak = std::max(aggregated_.pendingPeak, st.pendingPeak);
    aggregated_.tcpFlowsPeak =
        std::max(aggregated_.tcpFlowsPeak, st.tcpFlowsPeak);
  }
}

Sniffer::Stats ParallelPipeline::stats() const { return aggregated_; }

void ParallelPipeline::workerLoop(Shard& sh) {
  std::vector<Msg> batch;
  batch.reserve(kWorkerBatch);
  std::uint64_t starveStart = 0;  // frame-ring-empty episode
  for (;;) {
    batch.clear();
    if (sh.in.tryPopBatch(batch, kWorkerBatch) == 0) {
      sh.popStallsC.inc();
      if (sh.flog && starveStart == 0) starveStart = sh.flog->nowNs();
      std::this_thread::yield();
      continue;
    }
    if (starveStart != 0) {
      sh.flog->complete(obs::Stage::FrameRingWait, starveStart);
      starveStart = 0;
    }
    // One sniff span per popped batch (up to kWorkerBatch messages), so
    // instrumentation stays off the per-frame path.
    obs::FlightSpan sniffSpan(sh.flog, obs::Stage::Sniff,
                              static_cast<std::uint32_t>(batch.size()));
    std::uint64_t watermark = 0;
    for (auto& m : batch) {
      switch (m.kind) {
        case Msg::Kind::Tick:
          sh.curSeq = m.seq;
          sh.curPhase = 0;
          sh.sniffer->advanceTime(m.ts);
          // The frame with this seq (if any) is not ours or not yet
          // processed, so we only vouch for everything strictly before.
          watermark = m.seq - 1;
          break;
        case Msg::Kind::FrameOwned:
        case Msg::Kind::FrameRef:
          sh.curSeq = m.seq;
          sh.curPhase = 1;
          sh.emitIdx = 0;
          sh.sniffer->onFrame(m.kind == Msg::Kind::FrameRef ? *m.ref : m.own);
          watermark = m.seq;
          break;
        case Msg::Kind::End:
          sh.curSeq = kFlushSeq;
          sh.curPhase = 0;
          sh.sniffer->flush();
          sh.watermark.store(kDoneSeq, std::memory_order_release);
          return;
      }
    }
    sh.watermark.store(watermark, std::memory_order_release);
  }
}

void ParallelPipeline::mergeLoop() {
  const std::size_t n = shards_.size();
  std::vector<std::deque<TaggedRecord>> buf(n);
  std::vector<std::uint64_t> wm(n, 0);
  std::vector<TaggedRecord> popBuf;
  popBuf.reserve(kMergeBatch);
  std::uint64_t idleStart = 0;  // no-releasable-record episode
  for (;;) {
    // Load watermarks first (acquire), then drain: everything a shard
    // pushed before publishing its watermark is then visible, so `wm`
    // is a sound lower bound on what may still arrive.
    for (std::size_t s = 0; s < n; ++s) {
      wm[s] = shards_[s]->watermark.load(std::memory_order_acquire);
    }
    if (config_.metrics) {
      // Watermark lag: how far the slowest live shard trails the fastest
      // — the imbalance the merge has to buffer around.  Done shards
      // (kDoneSeq) no longer bound the merge, so they are excluded.
      std::uint64_t lo = kDoneSeq, hi = 0, buffered = 0;
      for (std::size_t s = 0; s < n; ++s) {
        if (wm[s] < kFlushSeq) {
          lo = std::min(lo, wm[s]);
          hi = std::max(hi, wm[s]);
        }
        buffered += buf[s].size();
      }
      mergeLagG_.set(lo == kDoneSeq ? 0.0 : static_cast<double>(hi - lo));
      mergeBufferedG_.set(static_cast<double>(buffered));
    }
    for (std::size_t s = 0; s < n; ++s) {
      for (;;) {
        popBuf.clear();
        if (shards_[s]->out.tryPopBatch(popBuf, kMergeBatch) == 0) break;
        for (auto& tr : popBuf) buf[s].push_back(std::move(tr));
      }
    }
    bool progress = false;
    std::uint64_t released = 0;
    std::uint64_t releaseStart = 0;
    for (;;) {
      std::size_t best = n;
      for (std::size_t s = 0; s < n; ++s) {
        if (buf[s].empty()) continue;
        if (best == n || buf[s].front().key < buf[best].front().key) best = s;
      }
      if (best == n) break;
      // The record after the head is the likely next release from this
      // shard; pull its line in while the sink runs.
      if (buf[best].size() > 1) {
        __builtin_prefetch(&buf[best][1]);
      }
      const MergeKey& k = buf[best].front().key;
      // Releasable only if no other shard can still produce an earlier
      // key.  Nonempty buffers vouch for themselves (streams are sorted);
      // empty ones vouch via their watermark.
      bool safe = true;
      for (std::size_t s = 0; s < n && safe; ++s) {
        if (s == best || !buf[s].empty()) continue;
        if (wm[s] < k.seq) safe = false;
      }
      if (!safe) break;
      if (released == 0 && mergeFlog_) {
        // Progress resumed: close any idle episode, open the release run.
        if (idleStart != 0) {
          mergeFlog_->complete(obs::Stage::MergeWait, idleStart);
          idleStart = 0;
        }
        releaseStart = mergeFlog_->nowNs();
      }
      sink_(buf[best].front().rec);
      ++merged_;
      ++released;
      recordsReleasedC_.inc();
      buf[best].pop_front();
      progress = true;
    }
    if (releaseStart != 0) {
      mergeFlog_->complete(obs::Stage::MergeRelease, releaseStart,
                           static_cast<std::uint32_t>(released));
    }
    if (!progress) {
      bool done = true;
      for (std::size_t s = 0; s < n && done; ++s) {
        if (wm[s] != kDoneSeq || !buf[s].empty()) done = false;
      }
      if (done) return;
      if (mergeFlog_ && idleStart == 0) idleStart = mergeFlog_->nowNs();
      std::this_thread::yield();
    }
  }
}

}  // namespace nfstrace
