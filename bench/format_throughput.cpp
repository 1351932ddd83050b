// Trace format bench: size and scan throughput of the v2 columnar format
// on a multi-day synthetic EECS trace.
//
// Measures bytes on disk (the paper's traces ran to hundreds of GB; the
// bytes per record decide what a capture host can keep) and batch-scan
// throughput (the analysis engine decodes the trace once per report;
// scan records/sec decides how fast a report comes back).  The v2
// columns decode almost directly into the batch arena: extent
// dictionaries land in the reader's interners at load time, so there is
// no per-record parse and no per-record hash.
//
// A pruned-scan phase times a time-windowed query two ways: the classic
// reader scan with record-level filtering (the oracle) vs runFile with
// zone-map pushdown, whose reader skips whole extents whose footer
// [tsMin,tsMax] misses the window before any decode.  pruned_scan_rps is
// total file records over elapsed time — effective throughput, where
// pruning is the win.
//
// Correctness gate: the full 8-pass analysis report must be
// byte-identical at 1 and 4 threads (through runFile, so at 4 threads
// the reader feeds the fan-out), and the pruned query report
// byte-identical to its unpruned oracle.  Results land in
// BENCH_format.json; non-smoke exit is nonzero unless the reports are
// identical and the windowed query prunes >= 50% of extents.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "analysis/engine/engine.hpp"
#include "analysis/engine/passes.hpp"
#include "analysis/engine/report.hpp"
#include "bench_common.hpp"
#include "trace/tracefile.hpp"
#include "trace/v2.hpp"

namespace nfstrace {
namespace {

using bench::kWeekStart;
using bench::makeEecs;

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

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

/// The engine's input path: drain the trace through nextBatch, touching
/// every decoded record the way a pass would.
std::uint64_t scanBatches(const std::string& path) {
  TraceReader reader(path);
  TraceBatch batch;
  std::uint64_t n = 0;
  while (reader.nextBatch(batch)) n += batch.n;
  return n;
}

std::string runEngine(const std::string& path, std::size_t threads) {
  StandardAnalyses analyses;
  AnalysisEngine::Config cfg;
  cfg.decodeThreads = threads;
  AnalysisEngine engine(cfg);
  engine.addPasses(analyses.all());
  engine.runFile(path);
  // Constant label: reports from different runs must compare equal.
  return renderReportText("trace", analyses);
}

/// The same predicate two ways: pushdown=false is the oracle (classic
/// reader scan, record-level filtering only); pushdown=true goes
/// through runFile, whose reader prunes via zone maps first.
std::string runEngineFiltered(const std::string& path,
                              const ScanPredicate& pred, bool pushdown,
                              AnalysisEngine::Stats* statsOut) {
  StandardAnalyses analyses;
  AnalysisEngine::Config cfg;
  cfg.predicate = pred;
  AnalysisEngine engine(cfg);
  engine.addPasses(analyses.all());
  if (pushdown) {
    engine.runFile(path);
  } else {
    TraceReader reader(path);
    engine.run(reader);
  }
  if (statsOut) *statsOut = engine.stats();
  return renderReportText("trace", analyses);
}

}  // namespace
}  // namespace nfstrace

int main(int argc, char** argv) {
  using namespace nfstrace;
  const std::string jsonPath = argc > 1 ? argv[1] : "BENCH_format.json";
  const bool smoke = bench::smokeMode();
  const double simDays = smoke ? 0.05 : 2.0;
  const int users = smoke ? 6 : 16;
  const int reps = smoke ? 1 : 3;

  const std::string path = "bench_format_v2.trace";

  std::printf("generating synthetic EECS trace (%.2f days, %d users)...\n",
              simDays, users);
  std::uint64_t records = 0;
  {
    TraceWriter::Options opts;
    // Smoke traces are tiny; shrink extents so the scan still exercises
    // multi-extent reads and the footer index.
    if (smoke) opts.v2ExtentRecords = 256;
    TraceWriter writer(path, opts);
    auto eecs = makeEecs(users, [&](const TraceRecord& r) {
      writer.write(r);
      ++records;
    });
    eecs.workload->setup(kWeekStart);
    eecs.workload->run(kWeekStart, kWeekStart + days(simDays));
    eecs.env->finishCapture();
    writer.finalize();
  }
  std::printf("  %llu records\n", static_cast<unsigned long long>(records));

  const std::uint64_t bytes = std::filesystem::file_size(path);
  scanBatches(path);  // warm-up: page cache + allocator
  const double scanRps = bestRps(records, [&] { scanBatches(path); }, reps);
  std::printf("v2     : %9.2f MB  %10.0f rec/s scan  (%5.1f B/rec)\n",
              static_cast<double>(bytes) / 1e6, scanRps,
              records ? static_cast<double>(bytes) / records : 0.0);

  // The report oracle: the serial engine.  The fan-out must render the
  // identical bytes.
  std::string oracle = runEngine(path, 1);
  bool identical = !oracle.empty() && runEngine(path, 4) == oracle;
  if (!identical) std::printf("REPORT MISMATCH at 4 threads\n");

  auto index = tracev2::loadChainedIndex(path);
  std::size_t extents = index ? index->size() : 0;

  // Pruned scan: a time-windowed query over the middle of the trace.
  // The window edges come from the footer zone maps themselves, so the
  // phase is self-calibrating whatever the simulated time span.
  double prunedRps = 0;
  bool prunedIdentical = false;
  std::uint64_t prunedExtents = 0;
  if (index && !index->empty()) {
    MicroTime tsMin = (*index)[0].tsMin, tsMax = (*index)[0].tsMax;
    for (const auto& e : *index) {
      tsMin = std::min(tsMin, e.tsMin);
      tsMax = std::max(tsMax, e.tsMax);
    }
    MicroTime span = tsMax - tsMin;
    ScanPredicate pred;
    pred.from = tsMin + static_cast<MicroTime>(span * 0.60);
    pred.to = tsMin + static_cast<MicroTime>(span * 0.85);
    std::string prunedOracle = runEngineFiltered(path, pred, false, nullptr);
    AnalysisEngine::Stats pstats;
    std::string prunedReport;
    prunedRps = bestRps(
        records,
        [&] {
          prunedReport = runEngineFiltered(path, pred, true, &pstats);
        },
        reps);
    prunedIdentical = prunedReport == prunedOracle && !prunedOracle.empty();
    prunedExtents = pstats.extentsPruned;
    std::printf(
        "pruned scan     : %10.0f rec/s effective  (%llu/%zu extents "
        "pruned, %llu records kept, identical=%s)\n",
        prunedRps, static_cast<unsigned long long>(prunedExtents), extents,
        static_cast<unsigned long long>(pstats.records),
        prunedIdentical ? "yes" : "NO");
  }
  double prunedFrac =
      extents ? static_cast<double>(prunedExtents) / extents : 0;

  std::printf("\nextents indexed : %zu\n", extents);
  std::printf("reports byte-identical across threads: %s\n",
              identical ? "true" : "false");

  std::remove(path.c_str());

  std::FILE* j = std::fopen(jsonPath.c_str(), "w");
  if (!j) {
    std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
    return 1;
  }
  std::fprintf(
      j,
      "{\"bench\":\"format_throughput\",\"records\":%llu,"
      "\"hw_threads\":%u,"
      "\"v2_bytes\":%llu,\"v2_bytes_per_rec\":%.5g,"
      "\"v2_extents\":%zu,\"v2_scan_rps\":%.0f,"
      "\"pruned_scan_rps\":%.0f,\"pruned_extents\":%llu,"
      "\"pruned_extents_frac\":%.5g,\"pruned_report_identical\":%s,"
      "\"report_identical\":%s}\n",
      static_cast<unsigned long long>(records),
      std::max(1u, std::thread::hardware_concurrency()),
      static_cast<unsigned long long>(bytes),
      records ? static_cast<double>(bytes) / records : 0.0, extents,
      scanRps, prunedRps,
      static_cast<unsigned long long>(prunedExtents), prunedFrac,
      prunedIdentical ? "true" : "false", identical ? "true" : "false");
  std::fclose(j);
  std::printf("wrote %s\n", jsonPath.c_str());

  if (smoke) {
    // Under ctest -L perf the smoke run doubles as a pruned-scan sanity
    // check: byte-identical pruned report plus a conservative effective
    // records/sec floor (far below steady state, so a real pushdown
    // regression trips it but scheduler noise cannot).
    bool ok = identical && prunedIdentical;
    if (const char* floorEnv = std::getenv("NFSTRACE_SMOKE_PRUNED_RPS_FLOOR")) {
      double floor = std::atof(floorEnv);
      bool rpsOk = prunedRps >= floor;
      std::printf("smoke sanity: pruned scan %.0f rec/s effective "
                  "(floor %.0f), identical=%s -> %s\n",
                  prunedRps, floor, prunedIdentical ? "true" : "false",
                  ok && rpsOk ? "PASS" : "FAIL");
      ok = ok && rpsOk;
    }
    return ok ? 0 : 1;
  }
  return identical && prunedIdentical && prunedFrac >= 0.5 ? 0 : 1;
}
