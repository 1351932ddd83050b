// Single-pass analysis driver: every table and figure from one scan.
//
//   trace_analyze [--decode-threads N] [--json | --records] [--recover]
//                 [--from SEC] [--to SEC] [--ops a,b,...] [--uid N]
//                 [--metrics] [--flight trace.json] [trace-file]
//
// trace_analyze decodes each record exactly once and hands the batches
// to all eight standard analysis passes.  With --decode-threads N the
// batches fan out to N threads; the output is byte-identical to the
// serial run at any thread count.
//
//   --decode-threads N
//                 scan threads, 1 to 64 (default 1 = inline): one thread
//                 decodes, N observe, and up to N finalize the passes
//   --from/--to SEC, --ops LIST, --uid N
//                 pushdown predicate: keep records with from <= timestamp
//                 <= to (decimal seconds, the unit the reports print), of
//                 the named NFS ops (read,write,...), issued by uid N; on
//                 indexed v2 input, whole extents are pruned via footer
//                 zone maps before any decode
//   --json        emit the report as one JSON object on stdout
//   --records     print each record that passes the predicate as one
//                 text line (the human view of a trace) instead of the
//                 report; the scan, pruning and --recover are the same
//   --recover     read a damaged trace end-to-end (resyncs land on
//                 batch boundaries; summary goes to stderr)
//   --metrics     print the engine's self-monitoring snapshot (batch and
//                 record counters, intern-table sizes, the namespace's
//                 and each pass's timings: engine.namespace_ns,
//                 engine.pass.<p>.observe_ns and .finalize_ns) and any
//                 DEGRADED alert line to stderr
//   --flight F    record a per-thread span timeline of the scan (reader
//                 decode, namespace, per-pass observe, per-pass finalize,
//                 pool/ring stalls) to Chrome trace-event file F (open in
//                 Perfetto) and print the stall-attribution report to
//                 stderr
//
// An unknown flag or a malformed flag value prints the usage line and
// exits 2; an unreadable input exits 1; damage met during the scan
// exits 3.
// With no input argument it generates a demo trace first.
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>

#include "analysis/engine/engine.hpp"
#include "analysis/engine/passes.hpp"
#include "analysis/engine/report.hpp"
#include "nfs/proc.hpp"
#include "obs/exporter.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "trace/predicate.hpp"
#include "trace/tracefile.hpp"
#include "workload/campus.hpp"
#include "workload/sim.hpp"

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
  writer.finalize();
  return path;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--decode-threads N] [--json | --records] "
               "[--recover] [--from SEC] [--to SEC] [--ops a,b,...] "
               "[--uid N] [--metrics] [--flight trace.json] [trace-file]\n",
               argv0);
  return 2;
}

/// A complete unsigned decimal in [lo, hi]; nullopt (with a message
/// naming the flag) for anything else, signs and blanks included.
std::optional<std::uint64_t> parseCount(const std::string& flag,
                                        const char* v, std::uint64_t lo,
                                        std::uint64_t hi) {
  const char* end = v + std::strlen(v);
  std::uint64_t n = 0;
  auto [p, ec] = std::from_chars(v, end, n);
  if (ec != std::errc() || p != end || n < lo || n > hi) {
    std::fprintf(stderr,
                 "%s: bad value \"%s\" (want a whole number %llu..%llu)\n",
                 flag.c_str(), v, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    return std::nullopt;
  }
  return n;
}

/// Decimal seconds as MicroTime; nullopt (with a message) if malformed.
std::optional<MicroTime> parseSeconds(const std::string& flag,
                                      const char* v) {
  char* end = nullptr;
  double sec = std::strtod(v, &end);
  if (end == v || *end != '\0') {
    std::fprintf(stderr, "%s: bad seconds value \"%s\"\n", flag.c_str(), v);
    return std::nullopt;
  }
  return static_cast<MicroTime>(std::llround(sec * 1e6));
}

/// One "a,b,c" op list as a mask; nullopt (with a message) on an
/// unknown name or an empty list.
std::optional<std::uint32_t> parseOpsList(const std::string& list) {
  std::uint32_t m = 0;
  std::size_t pos = 0;
  for (;;) {
    std::size_t comma = list.find(',', pos);
    std::string name = comma == std::string::npos
                           ? list.substr(pos)
                           : list.substr(pos, comma - pos);
    if (!name.empty()) {
      NfsOp op = nfsOpFromName(name);
      if (op == NfsOp::Unknown && name != "unknown") {
        std::fprintf(stderr, "--ops: unknown NFS op \"%s\"\n", name.c_str());
        return std::nullopt;
      }
      m |= opMaskBit(op);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (m == 0) {
    std::fprintf(stderr, "--ops: empty op list\n");
    return std::nullopt;
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) try {
  bool json = false;
  bool records = false;
  bool recover = false;
  bool metrics = false;
  std::string flightPath;
  std::size_t decodeThreads = 1;
  ScanPredicate predicate;
  std::string input;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--records") {
      records = true;
    } else if (arg == "--recover") {
      recover = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--flight" || arg == "--decode-threads" ||
               arg == "--from" || arg == "--to" || arg == "--ops" ||
               arg == "--uid") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        return usage(argv[0]);
      }
      const char* v = argv[++i];
      if (arg == "--flight") {
        flightPath = v;
      } else if (arg == "--decode-threads") {
        auto n = parseCount(arg, v, 1, AnalysisEngine::kMaxDecodeThreads);
        if (!n) return usage(argv[0]);
        decodeThreads = static_cast<std::size_t>(*n);
      } else if (arg == "--uid") {
        auto n = parseCount(arg, v, 0, UINT32_MAX);
        if (!n) return usage(argv[0]);
        predicate.uid = static_cast<std::uint32_t>(*n);
      } else if (arg == "--ops") {
        auto mask = parseOpsList(v);
        if (!mask) return usage(argv[0]);
        predicate.ops = *mask;
      } else {
        auto t = parseSeconds(arg, v);
        if (!t) return usage(argv[0]);
        if (arg == "--from") {
          predicate.from = *t;
        } else {
          predicate.to = *t;
        }
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      input = arg;
    }
  }
  if (json && records) {
    std::fprintf(stderr, "--records and --json are exclusive\n");
    return usage(argv[0]);
  }
  if (input.empty()) input = makeDemoTrace();

  obs::Registry registry;
  StandardAnalyses analyses;
  RecordLinesPass lines(stdout);
  AnalysisEngine::Config cfg;
  cfg.decodeThreads = decodeThreads;
  cfg.predicate = predicate;
  AnalysisEngine engine(cfg);
  if (records) {
    engine.addPass(&lines);
  } else {
    engine.addPasses(analyses.all());
  }
  engine.attachMetrics(registry);
  obs::FlightRecorder flight;
  if (!flightPath.empty()) engine.attachFlight(flight);

  AnalysisEngine::Stats st;
  // The reader gets the predicate too: on an indexed trace it prunes
  // whole extents via the footer zone maps before any decode.
  TraceReader reader(input, recover, predicate);
  try {
    st = engine.run(reader);
  } catch (const std::exception& e) {
    // A torn or corrupt trace read without --recover: report how far
    // the scan got (each extent header is a checkpoint that bounds the
    // damage) and exit nonzero instead of dying on a bare exception.
    const auto& rs = reader.recoverStats();
    std::fprintf(stderr,
                 "%s: %s\n"
                 "scanned %llu records before the damage "
                 "(%llu extents, the last after %llu records)\n"
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
                 "(%llu resyncs, %llu extents, %llu batch cuts)\n",
                 static_cast<unsigned long long>(rs.recovered),
                 static_cast<unsigned long long>(rs.skipped),
                 static_cast<unsigned long long>(rs.resyncs),
                 static_cast<unsigned long long>(rs.checkpoints),
                 static_cast<unsigned long long>(st.resyncCuts));
  }
  if (!predicate.trivial()) {
    std::fprintf(stderr,
                 "predicate: pruned %llu of %llu extents via zone maps, "
                 "filtered %llu decoded records, kept %llu\n",
                 static_cast<unsigned long long>(st.extentsPruned),
                 static_cast<unsigned long long>(st.extentsTotal),
                 static_cast<unsigned long long>(st.recordsFiltered),
                 static_cast<unsigned long long>(st.records));
  }
  if (st.records == 0) {
    std::fprintf(stderr, "%s: no records%s\n", input.c_str(),
                 predicate.trivial() ? "" : " matched the predicate");
    return 1;
  }

  if (!records) {
    std::string report = json ? renderReportJson(input, analyses)
                              : renderReportText(input, analyses);
    std::fwrite(report.data(), 1, report.size(), stdout);
  }
  if (std::fflush(stdout) != 0) {
    std::fprintf(stderr, "trace_analyze: writing stdout failed\n");
    return 1;
  }

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
} catch (const std::exception& e) {
  std::fprintf(stderr, "trace_analyze: %s\n", e.what());
  return 1;
}
