#include "obs/exporter.hpp"

#include "obs/json.hpp"
#include "util/atomicfile.hpp"
#include "util/table.hpp"

namespace nfstrace::obs {

std::vector<std::string> defaultAlertCounters() {
  return {
      "netcap.mirror_dropped",
      "sniffer.evicted_calls",
      "sniffer.evicted_flows",
      "sniffer.malformed_rpc",
      "sniffer.orphan_replies",
      "pipeline.frames_shed",
      "pipeline.pop_stalls",
      "pipeline.push_stalls",
      "pipeline.record_push_stalls",
      "trace.write_retries",
      "trace.short_writes",
      "engine.resync_cuts",
      "engine.merge_skew",
      "engine.intern_high_water",
      "daemon.records_shed",
      "daemon.segments_recovered",
  };
}

SnapshotExporter::SnapshotExporter(Registry& registry, Config config)
    : registry_(registry),
      config_(std::move(config)),
      start_(std::chrono::steady_clock::now()) {
  if (!config_.jsonlPath.empty()) {
    // Append mode, held open for the exporter's lifetime: a restarted
    // daemon accumulates history, and each emit costs one line of I/O
    // regardless of how long the run has been going.  Open failure
    // degrades to best-effort off.
    jsonlFile_ = std::fopen(config_.jsonlPath.c_str(), "ab");
  }
  if (config_.intervalUs > 0) {
    thread_ = std::thread([this] { threadLoop(); });
  }
}

SnapshotExporter::~SnapshotExporter() { stop(); }

void SnapshotExporter::threadLoop() {
  std::unique_lock lock(stopMu_);
  for (;;) {
    if (stopCv_.wait_for(lock, std::chrono::microseconds(config_.intervalUs),
                         [this] { return stopping_; })) {
      return;  // final snapshot is emitted by stop()
    }
    lock.unlock();
    emit();
    lock.lock();
  }
}

void SnapshotExporter::exportOnce() { emit(); }

void SnapshotExporter::stop() {
  {
    std::lock_guard lock(stopMu_);
    if (stopped_) return;
    stopping_ = true;
  }
  stopCv_.notify_all();
  if (thread_.joinable()) thread_.join();
  emit();  // end-of-run snapshot: final counter totals always land
  {
    std::lock_guard lock(emitMu_);
    if (jsonlFile_) {
      std::fclose(jsonlFile_);
      jsonlFile_ = nullptr;
    }
  }
  {
    std::lock_guard lock(stopMu_);
    stopped_ = true;
  }
}

void SnapshotExporter::emit() {
  Snapshot snap = registry_.scrape();
  auto uptime = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
  std::lock_guard lock(emitMu_);
  std::uint64_t seqNo = seq_++;
  if (config_.statusStream) {
    std::string table = renderStatusTable(snap, seqNo, uptime);
    table += renderAlerts(snap, config_.alertCounters);
    std::fwrite(table.data(), 1, table.size(), config_.statusStream);
    std::fflush(config_.statusStream);
  }
  if (jsonlFile_) {
    std::string line = renderJsonLine(snap, seqNo, uptime);
    line.push_back('\n');
    // One buffered fwrite of the whole line, flushed per emit: the only
    // incomplete line a reader (or a crash) can ever see is the last one,
    // which JSONL consumers skip.
    std::fwrite(line.data(), 1, line.size(), jsonlFile_);
    std::fflush(jsonlFile_);
  }
  if (!config_.promPath.empty()) {
    // Atomic whole-file rewrite, so a textfile collector always reads a
    // complete exposition (never a half-written scrape).
    try {
      writeFileAtomic(config_.promPath, renderPrometheus(snap));
    } catch (...) {
    }
  }
  if (config_.flight) sampleFlight(snap);
  written_.fetch_add(1, std::memory_order_relaxed);
}

void SnapshotExporter::sampleFlight(const Snapshot& snap) {
  // Called under emitMu_, so this thread is the track's sole producer
  // even when exportOnce() races the scrape thread.
  if (!flog_) flog_ = config_.flight->attachThread("obs.exporter");
  auto trackOf = [this](const std::string& name) {
    for (const auto& [n, id] : flightTracks_) {
      if (n == name) return id;
    }
    std::uint16_t id = config_.flight->counterTrack(name);
    flightTracks_.emplace_back(name, id);
    return id;
  };
  for (const auto& [name, v] : snap.counters) {
    flog_->counterSample(trackOf(name), static_cast<double>(v));
  }
  for (const auto& [name, v] : snap.gauges) {
    flog_->counterSample(trackOf(name), v);
  }
}

std::string SnapshotExporter::renderStatusTable(const Snapshot& snap,
                                                std::uint64_t seqNo,
                                                std::int64_t uptimeUs) {
  std::string out;
  char head[96];
  std::snprintf(head, sizeof(head),
                "---- obs snapshot #%llu  (uptime %.3f s) ----\n",
                static_cast<unsigned long long>(seqNo),
                static_cast<double>(uptimeUs) / 1e6);
  out += head;

  if (!snap.counters.empty() || !snap.gauges.empty()) {
    TextTable t({"metric", "value"});
    for (const auto& [name, v] : snap.counters) {
      t.addRow({name, TextTable::withCommas(v)});
    }
    if (!snap.counters.empty() && !snap.gauges.empty()) t.addRule();
    for (const auto& [name, v] : snap.gauges) {
      t.addRow({name, TextTable::fixed(v, 3)});
    }
    out += t.render();
  }
  if (!snap.histograms.empty()) {
    TextTable t({"histogram", "count", "mean", "p50", "p95", "p99", "max"});
    for (const auto& [name, h] : snap.histograms) {
      t.addRow({name, TextTable::withCommas(h.count),
                TextTable::fixed(h.mean(), 1), TextTable::fixed(h.quantile(0.5), 1),
                TextTable::fixed(h.quantile(0.95), 1),
                TextTable::fixed(h.quantile(0.99), 1),
                TextTable::fixed(h.max(), 0)});
    }
    out += t.render();
  }
  return out;
}

std::string SnapshotExporter::renderAlerts(
    const Snapshot& snap, const std::vector<std::string>& names) {
  std::string out;
  for (const auto& name : names) {
    for (const auto& [counter, v] : snap.counters) {
      if (counter != name || v == 0) continue;
      out += out.empty() ? "DEGRADED:" : "";
      out += ' ';
      out += name;
      out += '=';
      out += TextTable::withCommas(v);
    }
  }
  if (!out.empty()) out += '\n';
  return out;
}

namespace {

/// Prometheus metric name: [a-zA-Z0-9_] only, under the nfstrace_ prefix.
std::string promName(const std::string& name) {
  std::string out = "nfstrace_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

void promNumber(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out += buf;
}

}  // namespace

std::string SnapshotExporter::renderPrometheus(const Snapshot& snap) {
  std::string out;
  for (const auto& [name, v] : snap.counters) {
    std::string n = promName(name) + "_total";
    out += "# TYPE " + n + " counter\n";
    out += n;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
  }
  for (const auto& [name, v] : snap.gauges) {
    std::string n = promName(name);
    out += "# TYPE " + n + " gauge\n";
    out += n;
    out += ' ';
    promNumber(out, v);
    out += '\n';
  }
  for (const auto& [name, h] : snap.histograms) {
    // Summaries, not native histograms: the log2 buckets reduce to the
    // interpolated quantiles the status table already shows.
    std::string n = promName(name);
    out += "# TYPE " + n + " summary\n";
    for (double q : {0.5, 0.95, 0.99}) {
      out += n;
      out += "{quantile=\"";
      promNumber(out, q);
      out += "\"} ";
      promNumber(out, h.quantile(q));
      out += '\n';
    }
    out += n + "_sum " + std::to_string(h.sum) + '\n';
    out += n + "_count " + std::to_string(h.count) + '\n';
  }
  return out;
}

std::string SnapshotExporter::renderJsonLine(const Snapshot& snap,
                                             std::uint64_t seqNo,
                                             std::int64_t uptimeUs) {
  JsonWriter w;
  w.beginObject();
  w.field("snapshot", seqNo);
  w.field("uptime_us", static_cast<std::int64_t>(uptimeUs));
  w.key("counters").beginObject();
  for (const auto& [name, v] : snap.counters) w.field(name, v);
  w.endObject();
  w.key("gauges").beginObject();
  for (const auto& [name, v] : snap.gauges) w.field(name, v);
  w.endObject();
  w.key("histograms").beginObject();
  for (const auto& [name, h] : snap.histograms) {
    w.key(name).beginObject();
    w.field("count", h.count);
    w.field("sum", h.sum);
    w.field("mean", h.mean());
    w.field("p50", h.quantile(0.5));
    w.field("p95", h.quantile(0.95));
    w.field("p99", h.quantile(0.99));
    w.field("max", h.max());
    // Sparse buckets: [low_edge, high_edge, count] triples, non-empty only.
    w.key("buckets").beginArray();
    for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
      if (h.buckets[i] == 0) continue;
      w.beginArray();
      w.value(HistogramSnapshot::bucketLow(i));
      w.value(HistogramSnapshot::bucketHigh(i));
      w.value(h.buckets[i]);
      w.endArray();
    }
    w.endArray();
    w.endObject();
  }
  w.endObject();
  w.endObject();
  return w.str();
}

}  // namespace nfstrace::obs
