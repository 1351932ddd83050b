// The trace anonymizer tool (paper §2): read a trace file, anonymize it
// with consistent random mappings into a v2 trace, save the mapping
// table, and show what the transformation preserves and hides.
//
//   anonymize_trace [--metrics]
//                   [input.trace [output.trace [map-file [policy.cfg]]]]
//
// The optional policy.cfg is a key=value file (see util/config.hpp):
//   keep_name = CVS
//   keep_suffix = .lock
//   omit_identities = false
//   seed = 12345
//
// --metrics prints the obs registry snapshot (records anonymized, trace
// writer flush/retry counters, mapping-table size) and any DEGRADED
// alert line to stderr, same as trace_analyze.
//
// An unknown flag prints the usage line and exits 2; an unreadable input
// or an output that cannot be written exits 1.  With no arguments it
// generates a demo trace first.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "analysis/summary.hpp"
#include "anon/anon.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "trace/tracefile.hpp"
#include "workload/campus.hpp"
#include "workload/sim.hpp"

using namespace nfstrace;

namespace {

std::string makeDemoTrace() {
  std::string path = "/tmp/anonymize_demo.trace";
  std::printf("no input given; generating a demo trace at %s\n",
              path.c_str());
  SimEnvironment::Config cfg;
  cfg.fsConfig.fsid = 2;
  cfg.clientHosts = 3;
  SimEnvironment env(cfg);
  CampusConfig wl;
  wl.users = 8;
  CampusWorkload workload(wl, env);
  MicroTime start = days(1) + hours(10);
  workload.setup(start);
  workload.run(start, start + minutes(30));
  env.finishCapture();
  TraceWriter writer(path);
  for (const auto& rec : env.records()) writer.write(rec);
  writer.finalize();
  return path;
}

}  // namespace

int main(int argc, char** argv) try {
  bool metrics = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--metrics") {
      metrics = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr,
                   "usage: %s [--metrics] [input.trace [output.trace "
                   "[map-file [policy.cfg]]]]\n",
                   argv[0]);
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  std::string input =
      !positional.empty() ? positional[0] : makeDemoTrace();
  std::string output =
      positional.size() > 1 ? positional[1] : "/tmp/anonymized.trace";
  std::string mapFile =
      positional.size() > 2 ? positional[2] : "/tmp/anonymized.map";

  obs::Registry registry;
  obs::CounterHandle recordsC = registry.counterHandle("anon.records", 0);
  obs::GaugeHandle mappingsG = registry.gaugeHandle("anon.name_mappings");

  TraceReader reader(input);

  // The default configuration keeps the names the paper kept (CVS,
  // .inbox, .pinerc, lock components) and root/daemon UIDs; a policy
  // file overrides it.
  Anonymizer::Config cfg;
  if (positional.size() > 3) cfg = Anonymizer::Config::fromFile(positional[3]);
  Anonymizer anon{cfg};
  TraceWriter writer(output);
  if (metrics) writer.attachMetrics(registry);

  // One record at a time: anonymize, write, and fold both sides into the
  // running summaries; keep the first named record as the example pair.
  TraceRecord rec;
  TraceSummary s1, s2;
  std::string before, after;
  while (reader.nextInto(rec)) {
    TraceRecord out = anon.anonymize(rec);
    writer.write(out);
    recordsC.inc();
    summaryObserve(s1, rec);
    summaryObserve(s2, out);
    if (before.empty() && !rec.name.empty() && rec.name != ".inbox.lock") {
      before = formatRecord(rec);
      after = formatRecord(out);
    }
  }
  // Sealed before anything is reported: a full disk fails the run here.
  writer.finalize();
  anon.saveMap(mapFile);
  mappingsG.set(static_cast<double>(anon.mappedNames()));

  std::printf("read %llu records from %s\n",
              static_cast<unsigned long long>(s1.totalOps), input.c_str());
  if (positional.size() > 3) {
    std::printf("loaded anonymization policy from %s\n",
                positional[3].c_str());
  }
  std::printf("wrote %s and mapping table %s (%zu name mappings)\n",
              output.c_str(), mapFile.c_str(), anon.mappedNames());

  // Show a before/after pair.
  if (!before.empty()) {
    std::printf("\nbefore: %s\nafter:  %s\n", before.c_str(), after.c_str());
  }

  // What survives: every analysis.  What doesn't: identities.
  std::printf(
      "\nanalysis invariance: totalOps %llu == %llu, bytesRead %llu == %llu\n",
      static_cast<unsigned long long>(s1.totalOps),
      static_cast<unsigned long long>(s2.totalOps),
      static_cast<unsigned long long>(s1.bytesRead),
      static_cast<unsigned long long>(s2.bytesRead));
  std::printf(
      "\nwhy not a hash? a deterministic hash would let an outsider test\n"
      "guessed filenames against the published trace and compare traces\n"
      "from different sites; the random table (kept by the trace owner)\n"
      "permits neither.\n");

  if (metrics) {
    auto snap = registry.scrape();
    std::string table = obs::SnapshotExporter::renderStatusTable(snap, 0, 0);
    table += obs::SnapshotExporter::renderAlerts(
        snap, obs::defaultAlertCounters());
    std::fwrite(table.data(), 1, table.size(), stderr);
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "anonymize_trace: %s\n", e.what());
  return 1;
}
