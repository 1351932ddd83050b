// Single-pass analysis driver: every table and figure from one scan.
//
//   trace_analyze [--decode-threads N] [--json] [--recover] [--batch N]
//                 [--from SEC] [--to SEC] [--ops a,b,...] [--uid N]
//                 [--metrics] [--flight trace.json] [trace-file]
//
// Where trace_stats grew up one analysis at a time (one full decode of
// the trace per table), trace_analyze decodes each record exactly once
// and hands the batches to all eight standard analysis passes.  With
// --decode-threads N the batches fan out to N threads; the output is
// byte-identical to the serial run at any thread count.
//
//   --decode-threads N
//                 scan threads (default 1 = inline): one thread decodes,
//                 N observe, and up to N finalize the passes
//   --from/--to SEC, --ops LIST, --uid N
//                 pushdown predicate: filters records and, on indexed
//                 v2 input, prunes whole extents via footer zone maps
//                 before any decode
//   --json        emit the report as one JSON object on stdout
//   --recover     read a damaged trace end-to-end (resyncs land on
//                 batch boundaries; summary goes to stderr)
//   --batch N     records per batch (default 4096)
//   --metrics     print the engine's self-monitoring snapshot (batch and
//                 record counters, intern-table sizes, per-pass observe
//                 timings) and any DEGRADED alert line to stderr
//   --flight F    record a per-thread span timeline of the scan (reader
//                 decode, per-pass observe, pool/ring stalls) to Chrome
//                 trace-event file F (open in Perfetto) and print the
//                 stall-attribution report to stderr
//
// With no input argument it generates a demo trace first.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "analysis/engine/engine.hpp"
#include "analysis/engine/passes.hpp"
#include "analysis/engine/report.hpp"
#include "obs/exporter.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "trace/tracefile.hpp"
#include "workload/campus.hpp"
#include "workload/sim.hpp"

#include "scan_flags.hpp"

using namespace nfstrace;

namespace {

std::string makeDemoTrace() {
  std::string path = "/tmp/trace_analyze_demo.trace";
  std::fprintf(stderr, "no input given; generating a demo trace at %s\n",
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
               "usage: %s [--decode-threads N] [--json] "
               "[--recover] [--batch N] [--from SEC] [--to SEC] "
               "[--ops a,b,...] [--uid N] [--metrics] "
               "[--flight trace.json] [trace-file]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool recover = false;
  bool metrics = false;
  std::string flightPath;
  std::size_t batchRecords = TraceBatch::kDefaultCapacity;
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
    } else if (arg == "--flight" && i + 1 < argc) {
      flightPath = argv[++i];
    } else if (arg == "--batch" && i + 1 < argc) {
      batchRecords =
          static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
      if (batchRecords == 0) batchRecords = 1;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      input = arg;
    }
  }
  if (input.empty()) input = makeDemoTrace();
  std::fprintf(stderr, "%s: %s format\n", input.c_str(),
               traceFormatName(detectTraceFormat(input)));

  obs::Registry registry;
  StandardAnalyses analyses;
  AnalysisEngine::Config cfg;
  cfg.batchRecords = batchRecords;
  cfg.decodeThreads = sf.decodeThreads;
  cfg.predicate = sf.predicate;
  AnalysisEngine engine(cfg);
  engine.addPasses(analyses.all());
  engine.attachMetrics(registry);
  obs::FlightRecorder flight;
  if (!flightPath.empty()) engine.attachFlight(flight);

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
                 "(%llu resyncs, %llu checkpoints, %llu batch cuts)\n",
                 static_cast<unsigned long long>(rs.recovered),
                 static_cast<unsigned long long>(rs.skipped),
                 static_cast<unsigned long long>(rs.resyncs),
                 static_cast<unsigned long long>(rs.checkpoints),
                 static_cast<unsigned long long>(st.resyncCuts));
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
  if (!flightPath.empty()) {
    std::string stall = flight.stallReport();
    std::fwrite(stall.data(), 1, stall.size(), stderr);
    std::uint64_t rendered = 0;
    if (!flight.writeChromeTrace(flightPath, &rendered)) {
      std::fprintf(stderr, "failed to write flight trace %s\n",
                   flightPath.c_str());
      return 1;
    }
    std::fprintf(
        stderr,
        "flight timeline: %s (%llu events; load in https://ui.perfetto.dev)\n",
        flightPath.c_str(), static_cast<unsigned long long>(rendered));
  }
  return 0;
}
