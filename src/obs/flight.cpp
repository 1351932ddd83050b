#include "obs/flight.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "obs/json.hpp"
#include "util/table.hpp"

namespace nfstrace::obs {
namespace {

/// Static stage catalogue: name, wait flag, and — for wait stages — the
/// attribution edge (which work stage is stalled, and which work stage
/// it is blocked on).  This table is the stall-attribution method: every
/// stalled nanosecond lands on a named blocking stage.
struct StageInfo {
  const char* name;
  bool wait;
  Stage waiter;   // meaningful when wait
  Stage blocker;  // meaningful when wait
};

constexpr StageInfo kStages[kStageCount] = {
    // Pipeline.
    {"pipeline.partition", false, Stage::kStageCount, Stage::kStageCount},
    {"pipeline.partition_wait", true, Stage::PartitionDispatch, Stage::Sniff},
    {"pipeline.frame_ring_wait", true, Stage::Sniff,
     Stage::PartitionDispatch},
    {"pipeline.sniff", false, Stage::kStageCount, Stage::kStageCount},
    {"pipeline.record_ring_wait", true, Stage::Sniff, Stage::MergeRelease},
    {"pipeline.merge_wait", true, Stage::MergeRelease, Stage::Sniff},
    {"pipeline.merge", false, Stage::kStageCount, Stage::kStageCount},
    // Sniffer.
    {"sniffer.expiry_scan", false, Stage::kStageCount, Stage::kStageCount},
    {"sniffer.call_evicted", false, Stage::kStageCount, Stage::kStageCount},
    {"sniffer.flow_evicted", false, Stage::kStageCount, Stage::kStageCount},
    // Trace writer.
    {"trace.flush", false, Stage::kStageCount, Stage::kStageCount},
    {"trace.write_retry", false, Stage::kStageCount, Stage::kStageCount},
    {"trace.checkpoint", false, Stage::kStageCount, Stage::kStageCount},
    // Analysis engine.
    {"engine.reader_decode", false, Stage::kStageCount, Stage::kStageCount},
    {"engine.batch_pool_wait", true, Stage::ReaderDecode, Stage::PassObserve},
    {"engine.worker_batch_wait", true, Stage::PassObserve,
     Stage::ReaderDecode},
    {"engine.pass_observe", false, Stage::kStageCount, Stage::kStageCount},
    {"engine.finalize", false, Stage::kStageCount, Stage::kStageCount},
    {"engine.pass_finalize", false, Stage::kStageCount, Stage::kStageCount},
    {"engine.namespace", false, Stage::kStageCount, Stage::kStageCount},
    // Degradation / fault decisions.
    {"fault.drop", false, Stage::kStageCount, Stage::kStageCount},
    {"fault.corrupt", false, Stage::kStageCount, Stage::kStageCount},
    {"pipeline.frames_shed", false, Stage::kStageCount, Stage::kStageCount},
    {"engine.recovery_cut", false, Stage::kStageCount, Stage::kStageCount},
    // Daemon.
    {"daemon.rotate", false, Stage::kStageCount, Stage::kStageCount},
    {"daemon.recover", false, Stage::kStageCount, Stage::kStageCount},
    {"daemon.records_shed", false, Stage::kStageCount, Stage::kStageCount},
};

const StageInfo& info(Stage s) {
  return kStages[static_cast<std::size_t>(s)];
}

std::string msString(std::uint64_t ns) {
  return TextTable::fixed(static_cast<double>(ns) / 1e6, 3);
}

}  // namespace

const char* stageName(Stage s) { return info(s).name; }
bool stageIsWait(Stage s) { return info(s).wait; }
Stage stageWaiter(Stage s) { return info(s).waiter; }
Stage stageBlocker(Stage s) { return info(s).blocker; }

// ---------------------------------------------------------------- ThreadLog

ThreadLog::ThreadLog(FlightRecorder* rec, std::string name,
                     std::size_t capacity)
    : slots_(std::bit_ceil(capacity < 2 ? 2 : capacity)),
      mask_(slots_.size() - 1),
      name_(std::move(name)),
      rec_(rec) {}

std::uint64_t ThreadLog::nowNs() const { return rec_->nowNs(); }

void ThreadLog::emit(Stage s, EventKind kind, std::uint64_t arg,
                     std::uint32_t aux) {
  FlightEvent ev;
  ev.tsNs = rec_->nowNs();
  ev.arg = arg;
  ev.aux = aux;
  ev.stage = static_cast<std::uint16_t>(s);
  ev.kind = static_cast<std::uint8_t>(kind);
  push(ev);
}

void ThreadLog::complete(Stage s, std::uint64_t startNs, std::uint32_t aux) {
  FlightEvent ev;
  std::uint64_t now = rec_->nowNs();
  ev.tsNs = startNs;
  ev.arg = now > startNs ? now - startNs : 0;  // duration
  ev.aux = aux;
  ev.stage = static_cast<std::uint16_t>(s);
  ev.kind = static_cast<std::uint8_t>(EventKind::SpanComplete);
  push(ev);
}

void ThreadLog::counterSample(std::uint16_t track, double value) {
  FlightEvent ev;
  ev.tsNs = rec_->nowNs();
  ev.arg = std::bit_cast<std::uint64_t>(value);
  ev.stage = track;
  ev.kind = static_cast<std::uint8_t>(EventKind::Counter);
  push(ev);
}

void ThreadLog::push(const FlightEvent& ev) {
  emitted_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  std::uint64_t head = head_.load(std::memory_order_acquire);
  if (tail - head >= slots_.size()) {
    // Ring full: drop-and-count.  The hot path never blocks on its own
    // instrumentation.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slots_[tail & mask_] = ev;
  tail_.store(tail + 1, std::memory_order_release);
  written_.fetch_add(1, std::memory_order_relaxed);
}

// ------------------------------------------------------------ FlightRecorder

FlightRecorder::FlightRecorder(Config config)
    : config_(config), epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t FlightRecorder::nowNs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

ThreadLog* FlightRecorder::attachThread(std::string_view name) {
  std::lock_guard lock(mu_);
  logs_.push_back(std::unique_ptr<ThreadLog>(
      new ThreadLog(this, std::string(name), config_.ringCapacity)));
  return logs_.back().get();
}

std::uint16_t FlightRecorder::counterTrack(std::string_view name) {
  std::lock_guard lock(mu_);
  for (std::size_t i = 0; i < counterNames_.size(); ++i) {
    if (counterNames_[i] == name) return static_cast<std::uint16_t>(i);
  }
  counterNames_.emplace_back(name);
  return static_cast<std::uint16_t>(counterNames_.size() - 1);
}

FlightRecorder::Totals FlightRecorder::totals() const {
  std::lock_guard lock(mu_);
  Totals t;
  for (const auto& log : logs_) {
    t.emitted += log->eventsEmitted();
    t.written += log->eventsWritten();
    t.dropped += log->eventsDropped();
  }
  return t;
}

void FlightRecorder::drain() {
  std::lock_guard lock(mu_);
  for (auto& log : logs_) {
    std::uint64_t head = log->head_.load(std::memory_order_relaxed);
    std::uint64_t tail = log->tail_.load(std::memory_order_acquire);
    while (head != tail) {
      log->collected_.push_back(log->slots_[head & log->mask_]);
      ++head;
    }
    log->head_.store(head, std::memory_order_release);
  }
}

std::string FlightRecorder::chromeTraceJson(std::uint64_t* eventsOut) {
  drain();
  std::lock_guard lock(mu_);
  std::uint64_t rendered = 0;
  JsonWriter w;
  w.beginObject();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents").beginArray();
  for (std::size_t t = 0; t < logs_.size(); ++t) {
    const ThreadLog& log = *logs_[t];
    std::int64_t tid = static_cast<std::int64_t>(t) + 1;
    // Track metadata: name the thread so Perfetto labels the track.
    w.beginObject();
    w.field("ph", "M");
    w.field("pid", 1);
    w.field("tid", tid);
    w.field("name", "thread_name");
    w.key("args").beginObject().field("name", log.name_).endObject();
    w.endObject();
    for (const FlightEvent& ev : log.collected_) {
      double tsUs = static_cast<double>(ev.tsNs) / 1e3;
      auto kind = static_cast<EventKind>(ev.kind);
      w.beginObject();
      w.field("pid", 1);
      w.field("tid", tid);
      w.field("ts", tsUs);
      switch (kind) {
        case EventKind::SpanBegin:
          w.field("ph", "B");
          w.field("name", stageName(static_cast<Stage>(ev.stage)));
          if (ev.aux) {
            w.key("args").beginObject()
                .field("n", static_cast<std::uint64_t>(ev.aux))
                .endObject();
          }
          break;
        case EventKind::SpanEnd:
          w.field("ph", "E");
          w.field("name", stageName(static_cast<Stage>(ev.stage)));
          if (ev.aux) {
            w.key("args").beginObject()
                .field("n", static_cast<std::uint64_t>(ev.aux))
                .endObject();
          }
          break;
        case EventKind::SpanComplete:
          w.field("ph", "X");
          w.field("name", stageName(static_cast<Stage>(ev.stage)));
          w.field("dur", static_cast<double>(ev.arg) / 1e3);
          if (ev.aux) {
            w.key("args").beginObject()
                .field("n", static_cast<std::uint64_t>(ev.aux))
                .endObject();
          }
          break;
        case EventKind::Instant:
          w.field("ph", "i");
          w.field("name", stageName(static_cast<Stage>(ev.stage)));
          w.field("s", "t");
          w.key("args").beginObject()
              .field("arg", ev.arg)
              .field("n", static_cast<std::uint64_t>(ev.aux))
              .endObject();
          break;
        case EventKind::Counter: {
          w.field("ph", "C");
          std::size_t track = ev.stage;
          w.field("name", track < counterNames_.size()
                              ? std::string_view(counterNames_[track])
                              : std::string_view("counter"));
          w.key("args").beginObject()
              .field("value", std::bit_cast<double>(ev.arg))
              .endObject();
          break;
        }
      }
      w.endObject();
      ++rendered;
    }
  }
  w.endArray();
  w.endObject();
  if (eventsOut) *eventsOut = rendered;
  return w.str();
}

bool FlightRecorder::writeChromeTrace(const std::string& path,
                                      std::uint64_t* eventsOut) {
  std::string doc = chromeTraceJson(eventsOut);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  std::size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
  bool ok = n == doc.size() && std::fclose(f) == 0;
  if (n != doc.size()) std::fclose(f);
  return ok;
}

std::vector<StageTally> FlightRecorder::stageTallies() {
  drain();
  std::lock_guard lock(mu_);
  std::vector<StageTally> tally(kStageCount);
  // Per-track, per-stage begin stacks: events in a track are in emit
  // (= timestamp) order, so a simple stack matches B/E pairs even when
  // the same stage nests.  Drops can orphan a Begin or an End; orphans
  // are ignored rather than inventing time.
  std::vector<std::vector<std::uint64_t>> open(kStageCount);
  for (const auto& log : logs_) {
    for (auto& st : open) st.clear();
    for (const FlightEvent& ev : log->collected_) {
      if (ev.stage >= kStageCount) continue;  // counter track ids
      auto kind = static_cast<EventKind>(ev.kind);
      StageTally& t = tally[ev.stage];
      switch (kind) {
        case EventKind::SpanBegin:
          open[ev.stage].push_back(ev.tsNs);
          break;
        case EventKind::SpanEnd:
          if (!open[ev.stage].empty()) {
            std::uint64_t startNs = open[ev.stage].back();
            open[ev.stage].pop_back();
            ++t.spans;
            t.totalNs += ev.tsNs > startNs ? ev.tsNs - startNs : 0;
          }
          break;
        case EventKind::SpanComplete:
          ++t.spans;
          t.totalNs += ev.arg;
          break;
        case EventKind::Instant:
          ++t.spans;
          break;
        case EventKind::Counter:
          break;
      }
    }
  }
  return tally;
}

std::string FlightRecorder::stallReport() {
  std::vector<StageTally> tally = stageTallies();
  std::lock_guard lock(mu_);

  std::string out = "---- flight recorder: stall attribution ----\n";
  // Work stages: service time.  Wait stages: stall time with the blocking
  // edge spelled out.  stall% is each wait's share of (busy + wait) for
  // its stalled stage — "sniff spent 32% of its life waiting on merge".
  std::uint64_t busyBy[kStageCount] = {};
  std::uint64_t waitBy[kStageCount] = {};  // total waiting charged to waiter
  for (std::size_t i = 0; i < kStageCount; ++i) {
    Stage s = static_cast<Stage>(i);
    if (stageIsWait(s)) {
      waitBy[static_cast<std::size_t>(stageWaiter(s))] += tally[i].totalNs;
    } else {
      busyBy[i] += tally[i].totalNs;
    }
  }

  TextTable work({"stage", "spans", "busy_ms", "wait_ms", "stall_pct"});
  bool any = false;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    Stage s = static_cast<Stage>(i);
    if (stageIsWait(s) || tally[i].spans == 0) continue;
    std::uint64_t busy = busyBy[i];
    std::uint64_t wait = waitBy[i];
    double stallPct =
        busy + wait ? 100.0 * static_cast<double>(wait) /
                          static_cast<double>(busy + wait)
                    : 0.0;
    work.addRow({stageName(s), TextTable::withCommas(tally[i].spans),
                 msString(busy), msString(wait),
                 TextTable::fixed(stallPct, 1)});
    any = true;
  }
  if (any) out += work.render();

  // Top blocking edges, most stalled first.
  struct Edge {
    Stage wait;
    std::uint64_t ns;
    std::uint64_t n;
  };
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    Stage s = static_cast<Stage>(i);
    if (!stageIsWait(s) || tally[i].spans == 0) continue;
    edges.push_back({s, tally[i].totalNs, tally[i].spans});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.ns > b.ns; });
  if (!edges.empty()) {
    TextTable et({"blocked stage", "waits on", "episodes", "stalled_ms",
                  "via"});
    for (const Edge& e : edges) {
      et.addRow({stageName(stageWaiter(e.wait)),
                 stageName(stageBlocker(e.wait)), TextTable::withCommas(e.n),
                 msString(e.ns), stageName(e.wait)});
    }
    out += "top blocking edges:\n";
    out += et.render();
  }

  TextTable tracks({"track", "emitted", "written", "dropped"});
  std::uint64_t emitted = 0, written = 0, dropped = 0;
  for (const auto& log : logs_) {
    std::uint64_t e = log->eventsEmitted(), w = log->eventsWritten(),
                  d = log->eventsDropped();
    emitted += e;
    written += w;
    dropped += d;
    tracks.addRow({log->name_, TextTable::withCommas(e),
                   TextTable::withCommas(w), TextTable::withCommas(d)});
  }
  out += tracks.render();
  char foot[128];
  std::snprintf(foot, sizeof(foot),
                "events: %llu emitted == %llu written + %llu dropped\n",
                static_cast<unsigned long long>(emitted),
                static_cast<unsigned long long>(written),
                static_cast<unsigned long long>(dropped));
  out += foot;
  return out;
}

}  // namespace nfstrace::obs
