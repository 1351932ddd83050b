// nfsbench: capture and analysis, end to end and layer by layer.
//
//   nfsbench --workload campus|eecs --seed N --seconds S --trace 0|1
//            [--work-dir DIR] [--smoke] [--digest-only]
//
// Set-up simulates the workload's capture from the seed (see inputs.hpp),
// encodes the input trace with the serial capture path and warms up; it
// is repeated `setupReps` times and timed.  The
// timed phase then interleaves four operations until S seconds have
// passed (and each ran a minimum number of times):
//
//   capture   frames -> Sniffer -> Anonymizer -> v2 TraceWriter (serial)
//   sharded   the same frames and sink through ParallelPipeline, 2 shards
//   report    TraceReader + AnalysisEngine (8 passes, tool defaults) +
//             renderReportText over the captured v2 trace
//   query     the same bundle through runFile with a one-hour window
//
// Every operation's output is checked against an oracle; a mismatch
// counts as a failed operation.  With --trace 1 the same operations also
// run wrapped in Tracer scopes and the per-layer breakdown is reported
// instead of the end-to-end metrics.  The last line of stdout is one JSON
// object (metrics, counts, provenance); perfbench/run.py reads it.
#include <malloc.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/engine/engine.hpp"
#include "analysis/engine/passes.hpp"
#include "analysis/engine/report.hpp"
#include "anon/anon.hpp"
#include "inputs.hpp"
#include "net/packet.hpp"
#include "pipeline/pipeline.hpp"
#include "sniffer/sniffer.hpp"
#include "timed_pass.hpp"
#include "trace/tracefile.hpp"
#include "tracer.hpp"

#ifndef NFSBENCH_BUILD_TYPE
#define NFSBENCH_BUILD_TYPE "unknown"
#endif
#ifndef NFSBENCH_COMPILER
#define NFSBENCH_COMPILER "unknown"
#endif

namespace nfsbench {
namespace {

using namespace nfstrace;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  /// Set up once, print the report digest and stop (pinning digests).
  bool digestOnly = false;
  /// Internal: run one report over this trace and print its peak RSS.
  std::string peakRssProbe;
  std::string workDir = ".";
};

/// Layer self times must cover all but this share of the traced
/// operations' wall time.
constexpr double kReconcileTolerance = 0.05;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t digestOf(const std::string& s) {
  return fnv1a(s.data(), s.size());
}

/// "VmHWM" / "VmRSS" from /proc/self/status, in bytes (0 if unreadable).
std::uint64_t procStatusBytes(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0 && line.size() > klen &&
        line[klen] == ':') {
      return std::strtoull(line.c_str() + klen + 1, nullptr, 10) * 1024;
    }
  }
  return 0;
}

/// Return freed heap to the OS and restart the peak-RSS watermark, so
/// VmHWM - VmRSS afterwards is the growth of what follows.
std::uint64_t resetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return procStatusBytes("VmRSS");
}

// ------------------------------------------------------------- layers

struct Layers {
  explicit Layers(Tracer& t)
      : captureOp(t.layer("capture.op", true)),
        captureSetup(t.layer("capture.setup", true)),
        captureTeardown(t.layer("capture.teardown", true)),
        onFrame(t.layer("sniffer.onframe", true)),
        flush(t.layer("sniffer.flush", true)),
        anon(t.layer("anon.anonymize")),
        write(t.layer("trace.write")),
        finalize(t.layer("trace.finalize", true)),
        shardedOp(t.layer("sharded.op", true)),
        pipelineStart(t.layer("pipeline.start", true)),
        pipelineTeardown(t.layer("pipeline.teardown", true)),
        feed(t.layer("pipeline.feed", true)),
        finish(t.layer("pipeline.finish", true)),
        sink(t.layer("pipeline.sink")),
        shardedFinalize(t.layer("pipeline.trace_finalize", true)),
        reportOp(t.layer("report.op", true)),
        open(t.layer("trace.open", true)),
        engineRun(t.layer("engine.run", true)),
        render(t.layer("report.render", true)),
        release(t.layer("report.release", true)),
        queryOp(t.layer("query.op", true)),
        runFile(t.layer("engine.runfile", true)),
        queryRender(t.layer("query.render", true)) {}

  Tracer::LayerId captureOp, captureSetup, captureTeardown, onFrame, flush,
      anon, write, finalize;
  Tracer::LayerId shardedOp, pipelineStart, pipelineTeardown, feed, finish,
      sink, shardedFinalize;
  Tracer::LayerId reportOp, open, engineRun, render, release;
  Tracer::LayerId queryOp, runFile, queryRender;
};

// ------------------------------------------------------------ capture

struct CaptureOut {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t retries = 0;
  std::uint64_t shed = 0;
  std::size_t mapEntries = 0;
  Sniffer::Stats stats;
  /// FNV-1a over the text form of every record handed to the writer
  /// (only when requested).
  std::uint64_t recordDigest = 0xcbf29ce484222325ULL;
};

TraceWriter::Options v2Options(bool smoke) {
  TraceWriter::Options o;
  o.format = TraceWriter::Format::V2;
  // Smoke traces are tiny; small extents keep the footer index and
  // zone-map pruning in play.
  if (smoke) o.v2ExtentRecords = 256;
  return o;
}

/// The serial capture path, as capture_to_trace runs it with the default
/// sniffer and anonymizer settings.
CaptureOut captureSerial(const Inputs& in, const std::string& path,
                         bool smoke, Tracer* tr, const Layers& L,
                         bool digest = false) {
  CaptureOut out;
  std::optional<Anonymizer> anon;
  std::optional<TraceWriter> writer;
  std::optional<Sniffer> sniffer;
  auto emit = [&](const TraceRecord& rec) {
    TraceRecord a;
    {
      Tracer::Scope s(tr, L.anon);
      a = anon->anonymize(rec);
    }
    if (digest) {
      const std::string line = formatRecord(a);
      out.recordDigest = fnv1a(line.data(), line.size(), out.recordDigest);
    }
    Tracer::Scope s(tr, L.write);
    writer->write(a);
    ++out.records;
  };
  {
    Tracer::Scope s(tr, L.captureSetup);
    anon.emplace(Anonymizer::Config{});
    writer.emplace(path, v2Options(smoke));
    sniffer.emplace(Sniffer::Config{}, emit);
  }
  {
    // One scope around the frame loop: per-frame scopes would cost more
    // than they measure.  The record callback's scopes nest inside, so
    // this layer's self time is onFrame minus the callback.
    Tracer::Scope s(tr, L.onFrame);
    for (const auto& f : in.frames) sniffer->onFrame(f);
  }
  {
    Tracer::Scope s(tr, L.flush);
    sniffer->flush();
  }
  {
    Tracer::Scope s(tr, L.finalize);
    writer->finalize();
  }
  out.bytes = writer->bytesWritten();
  out.retries = writer->ioStats().retries;
  out.mapEntries = anon->mappedNames();
  out.stats = sniffer->stats();
  Tracer::Scope s(tr, L.captureTeardown);
  sniffer.reset();
  writer.reset();
  anon.reset();
  return out;
}

/// The same frames and sink through the sharded pipeline (producer, two
/// sniffer workers and the merge: four threads).
CaptureOut captureSharded(const Inputs& in, const std::string& path,
                          bool smoke, Tracer* tr, const Layers& L) {
  CaptureOut out;
  std::optional<Anonymizer> anon;
  std::optional<TraceWriter> writer;
  std::optional<ParallelPipeline> pipe;
  auto sink = [&](const TraceRecord& rec) {
    Tracer::Scope s(tr, L.sink);
    writer->write(anon->anonymize(rec));
    ++out.records;
  };
  {
    // Rings, sniffers and the worker and merge threads.
    Tracer::Scope s(tr, L.pipelineStart);
    anon.emplace(Anonymizer::Config{});
    writer.emplace(path, v2Options(smoke));
    ParallelPipeline::Config pc;
    pc.shards = 2;
    pipe.emplace(pc, sink);
  }
  {
    Tracer::Scope s(tr, L.feed);
    for (const auto& f : in.frames) pipe->feed(&f);
  }
  {
    Tracer::Scope s(tr, L.finish);
    pipe->finish();
  }
  out.stats = pipe->stats();
  out.shed = pipe->framesShed();
  {
    Tracer::Scope s(tr, L.shardedFinalize);
    writer->finalize();
  }
  out.bytes = writer->bytesWritten();
  out.retries = writer->ioStats().retries;
  out.mapEntries = anon->mappedNames();
  Tracer::Scope s(tr, L.pipelineTeardown);
  pipe.reset();
  writer.reset();
  anon.reset();
  return out;
}

/// Re-read a written trace: it must return exactly the records the
/// capture handed to the writer.
bool rereadMatches(const std::string& path, const CaptureOut& cap) {
  TraceReader reader(path);
  TraceRecord rec;
  std::uint64_t n = 0;
  std::uint64_t d = 0xcbf29ce484222325ULL;
  while (reader.nextInto(rec)) {
    const std::string line = formatRecord(rec);
    d = fnv1a(line.data(), line.size(), d);
    ++n;
  }
  return n == cap.records && d == cap.recordDigest;
}

// ------------------------------------------------------------- report

struct ReportOut {
  std::string text;
  AnalysisEngine::Stats stats;
  double seconds = 0;
  std::uint64_t deferredRecords = 0;  // blocklife, just before finalize
  std::uint64_t runs = 0;
};

/// The 8-pass report as trace_analyze runs it by default (TraceReader +
/// engine.run, workers=1), timed from opening the file to the rendered
/// text.  With a tracer, every pass is registered through a TimedPass.
ReportOut runReport(const std::string& path, Tracer* tr, const Layers& L) {
  ReportOut out;
  auto a = std::make_unique<StandardAnalyses>();
  std::vector<AnalysisPass*> passes = a->all();
  std::vector<std::unique_ptr<TimedPass>> wrapped;
  if (tr) {
    for (auto*& p : passes) {
      wrapped.push_back(std::make_unique<TimedPass>(*p, *tr));
      if (p == &a->blocklife) {
        wrapped.back()->beforeFinalize = [&] {
          out.deferredRecords = a->blocklife.deferredRecords();
        };
      }
      p = wrapped.back().get();
    }
  }
  const auto t0 = Clock::now();
  {
    std::unique_ptr<TraceReader> reader;
    {
      Tracer::Scope s(tr, L.open);
      reader = std::make_unique<TraceReader>(path);
    }
    AnalysisEngine engine;
    engine.addPasses(passes);
    {
      Tracer::Scope s(tr, L.engineRun);
      out.stats = engine.run(*reader);
    }
    Tracer::Scope s(tr, L.render);
    out.text = renderReportText("trace", *a);
  }
  out.seconds = secondsSince(t0);
  out.runs = a->runs.runs().size();
  Tracer::Scope s(tr, L.release);
  a.reset();
  return out;
}

/// The bundle through runFile with `cfg` (a predicate, decode threads).
ReportOut runFileReport(const std::string& path,
                        const AnalysisEngine::Config& cfg, Tracer* tr,
                        const Layers& L) {
  ReportOut out;
  StandardAnalyses a;
  AnalysisEngine engine(cfg);
  engine.addPasses(a.all());
  const auto t0 = Clock::now();
  {
    Tracer::Scope s(tr, L.runFile);
    out.stats = engine.runFile(path);
  }
  {
    Tracer::Scope s(tr, L.queryRender);
    out.text = renderReportText("trace", a);
  }
  out.seconds = secondsSince(t0);
  return out;
}

/// The query oracle: the classic reader scan with record-level
/// filtering only (no zone maps).
std::string classicQuery(const std::string& path, const ScanPredicate& pred) {
  StandardAnalyses a;
  AnalysisEngine::Config cfg;
  cfg.predicate = pred;
  AnalysisEngine engine(cfg);
  engine.addPasses(a.all());
  TraceReader reader(path);
  engine.run(reader);
  return renderReportText("trace", a);
}

/// Query windows: hour `h` of the simulated period.
int queryHours(const WorkloadSpec& spec) {
  return std::max(1, static_cast<int>(spec.days * 24 + 0.5));
}
ScanPredicate queryWindow(int h) {
  ScanPredicate pred;
  pred.from = hours(h);
  pred.to = pred.from + hours(1) - 1;
  return pred;
}

/// Run this program again with `args`; returns its standard output and
/// throws unless it exits with 0.
std::string runSelf(const std::vector<std::string>& args) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  std::vector<char*> argv{const_cast<char*>("nfsbench")};
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &fa, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    throw std::runtime_error("cannot start the memory probe");
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("the memory probe failed");
  }
  return out;
}

/// --report-peak-rss: the 8-pass report in this fresh process; prints
/// "<peak RSS growth in bytes> <report digest>".
int reportPeakRss(const std::string& path) {
  Tracer unused;
  Layers L(unused);
  const std::uint64_t base = resetPeakRss();
  const std::string text = runReport(path, nullptr, L).text;
  const std::uint64_t peak = procStatusBytes("VmHWM");
  std::printf("%llu %s\n",
              static_cast<unsigned long long>(peak > base ? peak - base : 0),
              hex64(digestOf(text)).c_str());
  return 0;
}

// ------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Result {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::printf("ORACLE FAILED: %s\n", what.c_str());
    }
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::string metricsJson() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
      out += (i ? "," : "") + std::string("\"") + metrics_[i].name +
             "\":{\"value\":" + buf + ",\"unit\":\"" + metrics_[i].unit +
             "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// -------------------------------------------------------------- phases

/// Everything set-up leaves for the timed phase.
struct Prepared {
  Inputs inputs;
  CaptureOut capture;        // the encoding run (records + digest)
  std::string captureBytes;  // its v2 file: the capture oracle
  std::string reportText;    // the warm-up report: the report oracle
  std::string queryText;     // classic-scan oracle for the hour-0 query
};

/// Set-up, once: simulate + mirror, encode the input trace with the
/// serial capture path (re-read check), warm up report and query.
Prepared setUp(const WorkloadSpec& spec, const Options& opt,
               const std::string& inputPath, Tracer* tr, const Layers& L,
               Result& res) {
  Prepared p;
  p.inputs = makeInputs(spec, opt.seed, tr);
  p.capture = captureSerial(p.inputs, inputPath, opt.smoke, nullptr, L, true);
  res.check(rereadMatches(inputPath, p.capture),
            "re-read v2 trace returns every captured record");
  p.captureBytes = slurp(inputPath);
  p.reportText = runReport(inputPath, nullptr, L).text;
  p.queryText = classicQuery(inputPath, queryWindow(0));
  AnalysisEngine::Config qc;
  qc.predicate = queryWindow(0);
  res.check(runFileReport(inputPath, qc, nullptr, L).text == p.queryText,
            "pruned query report equals the classic-scan oracle");
  return p;
}

enum Kind { kCapture = 0, kSharded, kReport, kQuery, kKinds };
const char* const kKindNames[kKinds] = {"capture", "sharded", "report",
                                        "query"};

int run(const Options& opt) {
  WorkloadSpec spec = workloadSpec(opt.workload);
  if (opt.smoke) spec = smokeSpec(spec);
  std::filesystem::create_directories(opt.workDir);
  const std::string inputPath = opt.workDir + "/input.v2";
  const std::string outPath = opt.workDir + "/capture.v2";
  const std::string shardedPath = opt.workDir + "/sharded.v2";

  Tracer tracer;
  Layers L(tracer);
  Tracer* tr = opt.trace ? &tracer : nullptr;
  Result res;

  // ---- set-up, repeated; the median is setup_s.
  const int setupReps = opt.smoke || opt.digestOnly ? 1 : 3;
  std::vector<double> setupSecs;
  Prepared prep;
  for (int r = 0; r < setupReps; ++r) {
    const std::string lastTrace = std::move(prep.captureBytes);
    const std::string lastReport = std::move(prep.reportText);
    prep = Prepared{};
    const auto t0 = Clock::now();
    prep = setUp(spec, opt, inputPath, tr, L, res);
    setupSecs.push_back(secondsSince(t0));
    if (r > 0) {
      res.check(prep.captureBytes == lastTrace && prep.reportText == lastReport,
                "set-up is deterministic for a seed");
    }
    std::printf("setup %d: %.3f s  (%zu frames, %llu records, report %s)\n",
                r, setupSecs.back(), prep.inputs.frames.size(),
                static_cast<unsigned long long>(prep.capture.records),
                hex64(digestOf(prep.reportText)).c_str());
    std::fflush(stdout);
  }
  const Inputs& in = prep.inputs;
  if (prep.capture.records == 0) throw std::runtime_error("empty capture");
  if (opt.digestOnly) {
    std::remove(inputPath.c_str());
    std::printf("{\"report_digest\":\"%s\",\"failed\":%llu}\n",
                hex64(digestOf(prep.reportText)).c_str(),
                static_cast<unsigned long long>(res.failed()));
    return 0;
  }

  // ---- timed phase.
  // Share of the timed phase per operation kind, and the minimum count.
  // The sharded capture runs for its byte-identity oracle and its layer
  // breakdown; its throughput, on four threads of a shared 4-core host,
  // was too unsteady to be an end-to-end metric.
  const double weight[kKinds] = {1, 0.25, 3, 2};
  const int minOps = opt.smoke ? 1 : 3;
  std::vector<double> secs[kKinds];
  std::vector<double> plainSecs[kKinds];  // traced run: untraced twins
  double spent[kKinds] = {0, 0, 0, 0};
  CaptureOut lastCapture, lastSharded;
  ReportOut lastReport;
  // Query operations walk the hours of the trace in turn; each hour's
  // classic-scan oracle is computed (untimed) the first time it is asked.
  const int nHours = queryHours(spec);
  std::vector<std::string> queryOracle(static_cast<std::size_t>(nHours));
  queryOracle[0] = prep.queryText;
  std::vector<std::vector<double>> hourSecs(static_cast<std::size_t>(nHours));
  AnalysisEngine::Stats queryTotals;  // summed over the query operations

  auto runOne = [&](int k, Tracer* t) -> double {
    switch (k) {
      case kCapture: {
        Tracer::Scope s(t, L.captureOp);
        const auto t0 = Clock::now();
        lastCapture = captureSerial(in, outPath, opt.smoke, t, L);
        const double dt = secondsSince(t0);
        res.check(slurp(outPath) == prep.captureBytes,
                  "serial capture output is byte-identical to set-up's");
        return dt;
      }
      case kSharded: {
        Tracer::Scope s(t, L.shardedOp);
        const auto t0 = Clock::now();
        lastSharded = captureSharded(in, shardedPath, opt.smoke, t, L);
        const double dt = secondsSince(t0);
        res.check(slurp(shardedPath) == prep.captureBytes,
                  "2-shard capture output is byte-identical to serial");
        return dt;
      }
      case kReport: {
        Tracer::Scope s(t, L.reportOp);
        lastReport = runReport(inputPath, t, L);
        res.check(lastReport.text == prep.reportText,
                  "report text equals set-up's");
        return lastReport.seconds;
      }
      default: {
        const int h = static_cast<int>(secs[kQuery].size() % hourSecs.size());
        auto& oracle = queryOracle[static_cast<std::size_t>(h)];
        if (oracle.empty()) {
          oracle = classicQuery(inputPath, queryWindow(h));
        }
        AnalysisEngine::Config qc;
        qc.predicate = queryWindow(h);
        ReportOut q;
        {
          Tracer::Scope s(t, L.queryOp);
          q = runFileReport(inputPath, qc, t, L);
        }
        res.check(q.text == oracle,
                  "query report equals the classic-scan oracle");
        queryTotals.extentsTotal += q.stats.extentsTotal;
        queryTotals.extentsPruned += q.stats.extentsPruned;
        queryTotals.recordsFiltered += q.stats.recordsFiltered;
        hourSecs[static_cast<std::size_t>(h)].push_back(q.seconds);
        return q.seconds;
      }
    }
  };

  const auto phase0 = Clock::now();
  // peak_rss_mb: the report's peak RSS growth in a fresh process, whose
  // heap has no history (in this one it depends on what ran before).
  double peakRssMb = 0;
  if (!tr) {
    std::istringstream probe(
        runSelf({"--report-peak-rss", inputPath, "--workload", opt.workload}));
    std::uint64_t growth = 0;
    std::string digest;
    probe >> growth >> digest;
    res.check(digest == hex64(digestOf(prep.reportText)),
              "report in a fresh process equals set-up's");
    peakRssMb = static_cast<double>(growth) / (1024.0 * 1024.0);
  }
  for (;;) {
    bool needMore = false;
    for (int k = 0; k < kKinds; ++k) {
      needMore = needMore || static_cast<int>(secs[k].size()) < minOps;
    }
    if (!needMore && secondsSince(phase0) >= opt.seconds) break;
    int k = 0;
    for (int j = 1; j < kKinds; ++j) {
      if (spent[j] / weight[j] < spent[k] / weight[k]) k = j;
    }
    const auto t0 = Clock::now();
    // The traced run pairs each traced capture and report with an
    // untraced twin that runs first, for the tracing overhead; the
    // traced operation's outputs are the ones kept.
    if (tr && (k == kCapture || k == kReport)) {
      plainSecs[k].push_back(runOne(k, nullptr));
    }
    secs[k].push_back(runOne(k, tr));
    spent[k] += secondsSince(t0);
  }
  const double timedS = secondsSince(phase0);

  // ---- after the timed phase: the remaining report oracles (and, in the
  // traced run, the separately timed layer passes).
  std::vector<double> decode4Secs;
  AnalysisEngine::Config d4;
  d4.decodeThreads = 4;
  for (int r = 0; r < (tr && !opt.smoke ? 3 : 1); ++r) {
    ReportOut rep = runFileReport(inputPath, d4, nullptr, L);
    res.check(rep.text == prep.reportText,
              "report via runFile at decodeThreads=4 equals inline");
    decode4Secs.push_back(rep.seconds);
  }
  if (!tr) {
    Tracer scratch;
    Layers sl(scratch);
    res.check(runReport(inputPath, &scratch, sl).text == prep.reportText,
              "report with timed pass wrappers equals unwrapped");
  }

  // ---- metrics.
  auto rps = [](std::uint64_t n, const std::vector<double>& s) {
    const double m = median(s);
    return m > 0 ? static_cast<double>(n) / m : 0.0;
  };
  if (!tr) {
    res.add("setup_s", median(setupSecs), "s");
    res.add("capture_rps", rps(prep.capture.records, secs[kCapture]), "rec/s");
    res.add("trace_bytes_per_rec",
            static_cast<double>(prep.capture.bytes) /
                static_cast<double>(prep.capture.records),
            "B/rec");
    res.add("report_rps", rps(prep.capture.records, secs[kReport]), "rec/s");
    // Mean over the hours of each hour's median: hours differ in
    // activity, and the extents a window touches change with it.
    double hourSum = 0;
    int hoursSeen = 0;
    for (const auto& v : hourSecs) {
      if (v.empty()) continue;
      hourSum += median(v);
      ++hoursSeen;
    }
    res.add("query_rps",
            hourSum > 0 ? static_cast<double>(prep.capture.records) *
                              hoursSeen / hourSum
                        : 0.0,
            "rec/s");
    res.add("peak_rss_mb", peakRssMb, "MB");
  } else {
    const double nCap = static_cast<double>(secs[kCapture].size());
    const double nShard = static_cast<double>(secs[kSharded].size());
    const double nRep = static_cast<double>(secs[kReport].size());
    auto selfS = [&](const char* layer, double n) {
      return static_cast<double>(tracer.totals(layer).selfNs) / 1e9 / n;
    };
    auto totalS = [&](const char* layer, double n) {
      return static_cast<double>(tracer.totals(layer).totalNs) / 1e9 / n;
    };
    const Sniffer::Stats& st = lastCapture.stats;
    res.add("sniffer.onframe_self_s", selfS("sniffer.onframe", nCap), "s");
    res.add("sniffer.flush_s", selfS("sniffer.flush", nCap), "s");
    // net: parseFrame alone over the same frames (median of 3 passes).
    {
      std::vector<double> ps;
      std::uint64_t parsed = 0;
      for (int r = 0; r < 3; ++r) {
        const auto t0 = Clock::now();
        for (const auto& f : in.frames) parsed += parseFrame(f.data) ? 1 : 0;
        ps.push_back(secondsSince(t0));
      }
      res.add("net.parse_frame_s", median(ps), "s");
      std::printf("parseFrame accepted %llu frames\n",
                  static_cast<unsigned long long>(parsed / 3));
    }
    res.add("sniffer.frames", static_cast<double>(st.framesSeen), "count");
    res.add("sniffer.records", static_cast<double>(lastCapture.records),
            "count");
    res.add("sniffer.undecodable_frames",
            static_cast<double>(st.framesUndecodable), "count");
    res.add("sniffer.orphan_replies", static_cast<double>(st.orphanReplies),
            "count");
    res.add("sniffer.expired_calls", static_cast<double>(st.expiredCalls),
            "count");
    res.add("sniffer.pending_peak", static_cast<double>(st.pendingPeak),
            "count");
    res.add("sniffer.tcp_flows_peak", static_cast<double>(st.tcpFlowsPeak),
            "count");
    res.add("sniffer.records_per_frame",
            st.framesSeen ? static_cast<double>(lastCapture.records) /
                                static_cast<double>(st.framesSeen)
                          : 0.0,
            "ratio");
    res.add("anon.anonymize_s", selfS("anon.anonymize", nCap), "s");
    res.add("anon.map_entries", static_cast<double>(lastCapture.mapEntries),
            "count");
    res.add("trace.write_s", selfS("trace.write", nCap), "s");
    res.add("trace.finalize_s", selfS("trace.finalize", nCap), "s");
    res.add("trace.bytes", static_cast<double>(lastCapture.bytes), "B");
    res.add("trace.write_retries", static_cast<double>(lastCapture.retries),
            "count");
    res.add("pipeline.start_s", totalS("pipeline.start", nShard), "s");
    res.add("pipeline.feed_s", totalS("pipeline.feed", nShard), "s");
    res.add("pipeline.finish_s", totalS("pipeline.finish", nShard), "s");
    res.add("pipeline.sink_s", totalS("pipeline.sink", nShard), "s");
    res.add("pipeline.frames_shed", static_cast<double>(lastSharded.shed),
            "count");
    res.add("workload.generate_s",
            totalS("workload.generate", static_cast<double>(setupReps)), "s");
    res.add("netcap.mirror_s",
            totalS("netcap.mirror", static_cast<double>(setupReps)), "s");

    for (const char* p : {"summary", "hourly", "users", "reorder", "runs",
                          "blocklife", "names", "pathrec"}) {
      const std::string base = std::string("pass.") + p;
      res.add(base + ".observe_s", selfS((base + ".observe").c_str(), nRep),
              "s");
      res.add(base + ".finalize_s", selfS((base + ".finalize").c_str(), nRep),
              "s");
    }
    res.add("engine.self_s", selfS("engine.run", nRep), "s");
    {
      std::vector<double> ss;
      for (int r = 0; r < 3; ++r) {
        const auto t0 = Clock::now();
        TraceReader reader(inputPath);
        TraceBatch batch;
        while (reader.nextBatch(batch)) {
        }
        ss.push_back(secondsSince(t0));
      }
      res.add("trace.scan_s", median(ss), "s");
    }
    res.add("report.render_s", selfS("report.render", nRep), "s");
    const AnalysisEngine::Stats& es = lastReport.stats;
    res.add("engine.records", static_cast<double>(es.records), "count");
    res.add("engine.batches", static_cast<double>(es.batches), "count");
    res.add("engine.interned_names", static_cast<double>(es.internedNames),
            "count");
    res.add("engine.interned_handles",
            static_cast<double>(es.internedHandles), "count");
    res.add("pass.blocklife.deferred_records",
            static_cast<double>(lastReport.deferredRecords), "count");
    res.add("pass.runs.runs", static_cast<double>(lastReport.runs), "count");
    const AnalysisEngine::Stats& qs = queryTotals;
    const double nQuery = static_cast<double>(secs[kQuery].size());
    // Query counts are per query operation (mean over the hours).
    res.add("engine.extents_total",
            static_cast<double>(qs.extentsTotal) / nQuery, "count");
    res.add("engine.extents_pruned",
            static_cast<double>(qs.extentsPruned) / nQuery, "count");
    res.add("engine.extent_prune_frac",
            qs.extentsTotal ? static_cast<double>(qs.extentsPruned) /
                                  static_cast<double>(qs.extentsTotal)
                            : 0.0,
            "ratio");
    res.add("engine.records_filtered",
            static_cast<double>(qs.recordsFiltered) / nQuery, "count");
    res.add("engine.decode4_speedup",
            median(plainSecs[kReport]) / median(decode4Secs), "ratio");

    // Reconciliation: inside every traced operation, the time no layer
    // covers is the operation scope's own self time.
    std::int64_t opSelf = 0, opTotal = 0;
    for (const char* op : {"capture.op", "sharded.op", "report.op",
                           "query.op"}) {
      const Tracer::Totals t = tracer.totals(op);
      opSelf += t.selfNs;
      opTotal += t.totalNs;
      std::printf("reconcile %-10s: %.4f s of %.4f s not under a layer\n",
                  op, static_cast<double>(t.selfNs) / 1e9,
                  static_cast<double>(t.totalNs) / 1e9);
    }
    const double unattributed =
        opTotal ? static_cast<double>(opSelf) / static_cast<double>(opTotal)
                : 1.0;
    res.add("reconcile.unattributed_frac", unattributed, "ratio");
    res.check(unattributed <= kReconcileTolerance,
              "layer self times reconcile with wall time");
    res.add("overhead.capture_frac",
            median(secs[kCapture]) / median(plainSecs[kCapture]) - 1, "ratio");
    res.add("overhead.report_frac",
            median(secs[kReport]) / median(plainSecs[kReport]) - 1, "ratio");
    const std::string spansPath = opt.workDir + "/spans.json";
    if (!tracer.writeSpans(spansPath)) {
      throw std::runtime_error("cannot write " + spansPath);
    }
    std::printf("spans written to %s\n", spansPath.c_str());
  }

  for (int k = 0; k < kKinds; ++k) {
    std::printf("%-8s ops=%zu median=%.4f s\n", kKindNames[k], secs[k].size(),
                median(secs[k]));
  }
  for (const auto& p : {inputPath, outPath, shardedPath}) {
    std::remove(p.c_str());
  }

  char prov[1024];
  std::snprintf(
      prov, sizeof prov,
      "{\"workload\":\"%s\",\"seed\":%llu,\"sim_seed\":%llu,\"trace\":%s,"
      "\"smoke\":%s,\"hw_threads\":%u,\"build_type\":\"%s\","
      "\"compiler\":\"%s\",\"setup_reps\":%d,\"timed_s\":%.3f,"
      "\"ops\":{\"capture\":%zu,\"sharded\":%zu,\"report\":%zu,"
      "\"query\":%zu},\"inputs\":{\"users\":%d,\"days\":%g,"
      "\"frames\":%zu,\"frame_bytes\":%llu,"
      "\"mirror_dropped\":%llu,\"records\":%llu,\"trace_bytes\":%llu}}",
      spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(spec.baseSeed + opt.seed),
      opt.trace ? "true" : "false", opt.smoke ? "true" : "false",
      std::thread::hardware_concurrency(), NFSBENCH_BUILD_TYPE,
      NFSBENCH_COMPILER, setupReps, timedS, secs[kCapture].size(),
      secs[kSharded].size(), secs[kReport].size(), secs[kQuery].size(),
      spec.users, spec.days,
      in.frames.size(),
      static_cast<unsigned long long>(in.frameBytes),
      static_cast<unsigned long long>(in.mirrorDropped),
      static_cast<unsigned long long>(prep.capture.records),
      static_cast<unsigned long long>(prep.capture.bytes));
  std::string samples = "{";
  for (int k = 0; k < kKinds; ++k) {
    samples += std::string(k ? "," : "") + "\"" + kKindNames[k] + "\":[";
    for (std::size_t i = 0; i < secs[k].size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.6f", i ? "," : "", secs[k][i]);
      samples += buf;
    }
    samples += "]";
  }
  samples += "}";
  std::printf(
      "{\"attempted\":%llu,\"failed\":%llu,\"report_digest\":\"%s\","
      "\"provenance\":%s,\"samples_s\":%s,\"metrics\":%s}\n",
      static_cast<unsigned long long>(res.attempted()),
      static_cast<unsigned long long>(res.failed()),
      hex64(digestOf(prep.reportText)).c_str(), prov, samples.c_str(),
      res.metricsJson().c_str());
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload campus|eecs --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--smoke] [--digest-only]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace nfsbench

int main(int argc, char** argv) {
  using namespace nfsbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool hasValue = i + 1 < argc;
    if (a == "--workload" && hasValue) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && hasValue) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && hasValue) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && hasValue) {
      opt.trace = std::string(argv[++i]) != "0";
    } else if (a == "--work-dir" && hasValue) {
      opt.workDir = argv[++i];
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--digest-only") {
      opt.digestOnly = true;
    } else if (a == "--report-peak-rss" && hasValue) {
      opt.peakRssProbe = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.workload.empty()) return usage(argv[0]);
  try {
    if (!opt.peakRssProbe.empty()) return reportPeakRss(opt.peakRssProbe);
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nfsbench: %s\n", e.what());
    return 1;
  }
}
