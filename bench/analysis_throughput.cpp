// Throughput of the analysis side: legacy one-scan-per-analysis vs the
// single-pass engine at 1/2/4 threads (AnalysisEngine::Config::
// decodeThreads).
//
// The legacy model is what the repo's tooling did before the engine
// existed: each of the eight standard analyses re-read the trace file
// from disk and decoded every record again — eight decodes of the same
// bytes to produce one report.  The engine decodes each batch exactly
// once (strings interned to 32-bit ids, record slots reused) and hands
// it to all eight passes, optionally fanned out across threads.
//
// The engine's report text is the identity oracle: the run at every
// thread count must render byte-identical output to the serial run, or
// the bench fails.  Results land in BENCH_analysis.json; exit is nonzero
// unless the 4-thread engine beats the legacy baseline by >= 3x with
// identical output (skipped in NFSTRACE_SMOKE=1 mode).  On a single
// hardware thread the multi-thread phases run single-rep.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "analysis/blocklife.hpp"
#include "analysis/engine/engine.hpp"
#include "analysis/engine/passes.hpp"
#include "analysis/engine/report.hpp"
#include "analysis/hourly.hpp"
#include "analysis/names.hpp"
#include "analysis/pathrec.hpp"
#include "analysis/reorder.hpp"
#include "analysis/runs.hpp"
#include "analysis/summary.hpp"
#include "analysis/users.hpp"
#include "bench_common.hpp"
#include "trace/tracefile.hpp"

namespace nfstrace {
namespace {

using bench::kWeekStart;
using bench::makeEecs;

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

constexpr int kReps = 3;

template <typename Fn>
double bestRps(std::uint64_t records, Fn&& run, int reps) {
  double best = 0;
  for (int i = 0; i < reps; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    run();
    double dt = secondsSince(t0);
    double rps = static_cast<double>(records) / dt;
    if (rps > best) best = rps;
  }
  return best;
}

/// One full report's worth of work, the pre-engine way: every analysis
/// re-reads and re-decodes the trace file for itself.
void runLegacy(const std::string& path) {
  {  // summary
    auto records = TraceReader::readAll(path);
    summarize(records);
  }
  {  // hourly
    auto records = TraceReader::readAll(path);
    HourlyStats hs;
    for (const auto& r : records) hs.observe(r);
    hs.allHours();
    hs.peakHours();
    hs.findLeastVarianceWindow();
  }
  {  // users
    auto records = TraceReader::readAll(path);
    UserStats us;
    for (const auto& r : records) us.observe(r);
  }
  {  // reorder sweep
    auto records = TraceReader::readAll(path);
    sweepReorderWindows(records, {0, 1'000, 5'000, 10'000, 50'000, 100'000,
                                  1'000'000});
  }
  {  // runs
    auto records = TraceReader::readAll(path);
    auto sorted = sortWithReorderWindow(records, 10'000);
    auto runs = detectRuns(sorted.records);
    summarizeRunPatterns(runs);
    bytesByFileSize(runs);
    sequentialityBySize(runs, false, true);
    sequentialityBySize(runs, true, false);
  }
  {  // block life
    auto records = TraceReader::readAll(path);
    auto s = summarize(records);
    BlockLifeConfig cfg;
    cfg.phase1Start = s.firstTs;
    cfg.phase1Length = std::max<MicroTime>((s.lastTs - s.firstTs) / 2, 1);
    cfg.phase2Length = cfg.phase1Length;
    EmpiricalCdf lifetimes;
    analyzeBlockLife(records, cfg, &lifetimes);
  }
  {  // names
    auto records = TraceReader::readAll(path);
    FileLifeCensus census;
    for (const auto& r : records) census.observe(r);
    census.finish();
  }
  {  // pathrec
    auto records = TraceReader::readAll(path);
    PathReconstructor pr;
    for (const auto& r : records) pr.observe(r);
  }
}

std::string runEngine(const std::string& path, std::size_t threads) {
  StandardAnalyses analyses;
  AnalysisEngine::Config cfg;
  cfg.decodeThreads = threads;
  AnalysisEngine engine(cfg);
  engine.addPasses(analyses.all());
  TraceReader reader(path);
  engine.run(reader);
  return renderReportText("trace", analyses);
}

}  // namespace
}  // namespace nfstrace

int main(int argc, char** argv) {
  using namespace nfstrace;
  const std::string jsonPath = argc > 1 ? argv[1] : "BENCH_analysis.json";
  const bool smoke = bench::smokeMode();
  const double simDays = smoke ? 0.05 : 1.0;
  const int users = smoke ? 6 : 16;
  const int reps = smoke ? 1 : kReps;
  const std::string tracePath = "bench_analysis.trace";

  std::printf("generating synthetic EECS trace (%.2f days, %d users)...\n",
              simDays, users);
  std::uint64_t records = 0;
  {
    TraceWriter writer(tracePath);
    auto eecs = makeEecs(users, [&](const TraceRecord& r) {
      writer.write(r);
      ++records;
    });
    eecs.workload->setup(kWeekStart);
    eecs.workload->run(kWeekStart, kWeekStart + days(simDays));
    eecs.env->finishCapture();
  }
  std::printf("  %llu records\n", static_cast<unsigned long long>(records));

  // Warm-up: one decode so page cache and allocator state are comparable.
  TraceReader::readAll(tracePath);

  const unsigned hwThreads =
      std::max(1u, std::thread::hardware_concurrency());
  // On a single hardware thread, multi-thread timings only measure
  // scheduler overhead: run those phases once (the identity oracle
  // still applies).
  const int multiReps = hwThreads > 1 ? reps : 1;
  if (hwThreads == 1) {
    std::printf("single hardware thread: multi-thread phases run 1 rep\n");
  }

  double legacyRps =
      bestRps(records, [&] { runLegacy(tracePath); }, reps);
  std::printf("legacy 8-scan   : %10.0f rec/s\n", legacyRps);

  std::string serialReport;
  double engineRps[3] = {0, 0, 0};
  const std::size_t threadCounts[3] = {1, 2, 4};
  bool identical = true;
  for (int i = 0; i < 3; ++i) {
    std::string report;
    engineRps[i] = bestRps(
        records, [&] { report = runEngine(tracePath, threadCounts[i]); },
        i == 0 ? reps : multiReps);
    if (i == 0) {
      serialReport = report;
    } else if (report != serialReport) {
      identical = false;
    }
    std::printf("engine x%zu       : %10.0f rec/s  (identical=%s)\n",
                threadCounts[i], engineRps[i],
                i == 0 || report == serialReport ? "yes" : "NO");
  }
  identical = identical && !serialReport.empty();

  double speedup4 = legacyRps > 0 ? engineRps[2] / legacyRps : 0;
  std::printf("\nspeedup at 4 threads over legacy: %.2fx\n", speedup4);
  std::printf("engine output identical at every thread count: %s\n",
              identical ? "true" : "false");

  std::remove(tracePath.c_str());

  std::FILE* j = std::fopen(jsonPath.c_str(), "w");
  if (!j) {
    std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
    return 1;
  }
  std::fprintf(j,
               "{\"bench\":\"analysis_throughput\",\"records\":%llu,"
               "\"hw_threads\":%u,"
               "\"legacy_rps\":%.0f,\"engine1_rps\":%.0f,"
               "\"engine2_rps\":%.0f,\"engine4_rps\":%.0f,"
               "\"speedup_4worker\":%.5g,"
               "\"output_identical\":%s",
               static_cast<unsigned long long>(records), hwThreads, legacyRps,
               engineRps[0], engineRps[1], engineRps[2], speedup4,
               identical ? "true" : "false");
  if (hwThreads == 1) {
    std::fprintf(j,
                 ",\"skipped_reason\":\"hw_threads==1: multi-thread phases "
                 "single-rep\"");
  }
  std::fprintf(j, "}\n");
  std::fclose(j);
  std::printf("wrote %s\n", jsonPath.c_str());

  if (smoke) return 0;
  return identical && speedup4 >= 3.0 ? 0 : 1;
}
