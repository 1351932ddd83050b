// Trace statistics tool: run the paper's analyses over any trace file —
// the `nfsscan` counterpart to capture_to_trace's `nfsdump`.
//
//   trace_stats [--json] [--recover] [--decode-threads N]
//               [--from SEC] [--to SEC] [--ops a,b,...] [--uid N]
//               [--metrics] [trace-file]
//
// Prints the operation mix, data volumes, hourly activity, run pattern
// classification, block-lifetime summary, and name-category census.
// The scan is one pass through the analysis engine: every record is
// decoded once and fanned out to all eight standard passes, instead of
// the historical one-decode-per-analysis loop.  --decode-threads N runs
// the scan on N threads; output is byte-identical at any thread count.
// With --json the summary is emitted as one JSON object on stdout for
// scripting; progress goes to stderr.
// With --recover a damaged trace is read end-to-end anyway: corrupt
// regions are skipped to the next parseable boundary (resyncs land on
// batch boundaries) and a recovery summary goes to stderr.
// With --metrics the engine's obs registry snapshot and any DEGRADED
// alert line go to stderr after the report.
// --from/--to/--ops/--uid build a pushdown predicate that filters
// records and prunes whole extents via the v2 footer zone maps before
// any decode.
// With no input argument it generates a demo trace first.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "analysis/engine/engine.hpp"
#include "analysis/engine/passes.hpp"
#include "analysis/engine/report.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "trace/tracefile.hpp"
#include "workload/campus.hpp"
#include "workload/sim.hpp"

#include "scan_flags.hpp"

using namespace nfstrace;

namespace {

std::string makeDemoTrace(bool toStderr) {
  std::string path = "/tmp/trace_stats_demo.trace";
  std::fprintf(toStderr ? stderr : stdout,
               "no input given; generating a demo trace at %s\n\n",
               path.c_str());
  SimEnvironment::Config cfg;
  cfg.fsConfig.fsid = 2;
  cfg.clientHosts = 3;
  SimEnvironment env(cfg);
  CampusConfig wl;
  wl.users = 12;
  CampusWorkload workload(wl, env);
  MicroTime start = days(1) + hours(9);
  workload.setup(start);
  workload.run(start, start + hours(2));
  env.finishCapture();
  TraceWriter writer(path);
  for (const auto& rec : env.records()) writer.write(rec);
  return path;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json] [--recover] [--decode-threads N] "
               "[--from SEC] [--to SEC] [--ops a,b,...] [--uid N] "
               "[--metrics] [trace-file]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool recover = false;
  bool metrics = false;
  ScanFlags sf;
  std::string input;
  for (int i = 1; i < argc; ++i) {
    int consumed = sf.tryParse(argc, argv, &i);
    if (consumed < 0) return usage(argv[0]);
    if (consumed > 0) continue;
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--recover") {
      recover = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      input = arg;
    }
  }
  if (input.empty()) input = makeDemoTrace(json);
  std::fprintf(stderr, "%s: %s format\n", input.c_str(),
               traceFormatName(detectTraceFormat(input)));

  obs::Registry registry;
  StandardAnalyses analyses;
  AnalysisEngine::Config cfg;
  cfg.decodeThreads = sf.decodeThreads;
  cfg.predicate = sf.predicate;
  AnalysisEngine engine(cfg);
  engine.addPasses(analyses.all());
  if (metrics) engine.attachMetrics(registry);

  AnalysisEngine::Stats st;
  // The reader gets the predicate too: on indexed v2 input it prunes
  // whole extents via the footer zone maps before any decode.
  TraceReader reader(input, recover, sf.predicate);
  try {
    st = engine.run(reader);
  } catch (const std::exception& e) {
    // A torn or corrupt trace read without --recover: report how far
    // the scan got (the checkpoint accounting bounds the damage) and
    // exit nonzero instead of dying on a bare exception.
    const auto& rs = reader.recoverStats();
    std::fprintf(stderr,
                 "%s: %s\n"
                 "scanned %llu records before the damage "
                 "(%llu checkpoints, last checkpoint at %llu records)\n"
                 "rerun with --recover to skip corrupt regions with exact "
                 "loss accounting\n",
                 input.c_str(), e.what(),
                 static_cast<unsigned long long>(engine.stats().records),
                 static_cast<unsigned long long>(rs.checkpoints),
                 static_cast<unsigned long long>(rs.checkpointRecords));
    return 3;
  }
  if (recover) {
    const auto& rs = reader.recoverStats();
    std::fprintf(stderr,
                 "recovery: %llu records recovered, %llu skipped "
                 "(%llu resyncs, %llu checkpoints)\n",
                 static_cast<unsigned long long>(rs.recovered),
                 static_cast<unsigned long long>(rs.skipped),
                 static_cast<unsigned long long>(rs.resyncs),
                 static_cast<unsigned long long>(rs.checkpoints));
  }
  sf.reportPruning(st);
  if (st.records == 0) {
    std::fprintf(stderr, "%s: no records%s\n", input.c_str(),
                 sf.predicate.trivial() ? "" : " matched the predicate");
    return 1;
  }

  std::string report = json ? renderReportJson(input, analyses)
                            : renderReportText(input, analyses);
  std::fwrite(report.data(), 1, report.size(), stdout);
  if (metrics) {
    auto snap = registry.scrape();
    std::string table = obs::SnapshotExporter::renderStatusTable(snap, 0, 0);
    table += obs::SnapshotExporter::renderAlerts(
        snap, obs::defaultAlertCounters());
    std::fwrite(table.data(), 1, table.size(), stderr);
  }
  return 0;
}
