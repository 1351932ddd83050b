// nfstraced: the unattended continuous-capture daemon (§4.1) — capture,
// extent-aligned rotation, crash recovery, retention, supervision.
//
//   nfstraced [--config FILE] [--KEY VALUE]... [--status] [--recover-only]
//
// Every setting has one name, its key in configs/daemon.cfg (which lists
// them all); on the command line a key's '_' is spelt '-', so
// `--rotate-records 5000` sets rotate_records.  Config files and flags
// apply in command-line order and the last value wins.  An unknown key
// or flag, or a malformed or out-of-range value, prints the usage line,
// names the key and exits 2.
//
// The record source is the deterministic EECS workload simulation (the
// repo's stand-in for a mirror port), streamed straight into the daemon:
// capture -> sniffer -> TraceDaemon -> rotating sealed v2 segments + a
// crash-consistent manifest.  Because the simulation is a pure function
// of its seed, a restarted daemon resumes the stream exactly at the
// manifest's position — re-run nfstraced after killing it and the
// sealed segments continue with no gaps and no duplicates.
//
//   --chaos plan.cfg  injects deterministic disk faults (short writes,
//                     EIO, ENOSPC episodes) under the trace writer; when
//                     the retry budget is exhausted the daemon degrades
//                     to shedding (DEGRADED alert) instead of dying
//   --supervise N     run the capture loop as a supervised child,
//                     restarting on crash (up to N times) with
//                     exponential backoff and auditing the manifest's
//                     loss-accounting invariant between restarts
//   --status          print obs snapshots to stderr once per second
//   --prom/--jsonl    atomically rewritten metric exports
//   --recover-only    run startup recovery, print the books, and exit
//
// Signals: SIGTERM/SIGINT drain gracefully (seal the active segment,
// save the manifest); SIGHUP rotates now.
#include <algorithm>
#include <climits>
#include <csignal>
#include <cstdio>
#include <exception>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "daemon/daemon.hpp"
#include "daemon/supervisor.hpp"
#include "fault/fault.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "util/config.hpp"
#include "workload/eecs.hpp"
#include "workload/sim.hpp"

using namespace nfstrace;

namespace {

volatile std::sig_atomic_t gDrain = 0;   // SIGTERM/SIGINT
volatile std::sig_atomic_t gRotate = 0;  // SIGHUP

void onDrain(int) { gDrain = 1; }
void onRotate(int) { gRotate = 1; }

/// Keys that take no value on the command line: `--status` sets
/// status = true.
constexpr std::string_view kSwitches[] = {"status", "recover_only"};

/// Bounds sim_hours so the simulated window's end fits in a MicroTime.
constexpr double kMaxSimHours = 1e6;

/// What one nfstraced run needs, filled once by readSettings().
struct Settings {
  daemon::TraceDaemon::Config daemon;
  obs::SnapshotExporter::Config exporter;
  EecsConfig workload;
  std::optional<FaultPlan> chaos;
  std::uint64_t maxRecords = 0;  // 0 = run the whole simulated window
  double simHours = 0;
  std::optional<int> supervise;  // restart budget; unset = unsupervised
  bool recoverOnly = false;
};

/// Config files and flags in command-line order: `--config FILE` adds
/// FILE's lines, `--KEY VALUE` one more line (a switch takes no value).
ConfigFile collectSettings(int argc, char** argv) {
  ConfigFile settings;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.size() <= 2 || arg.compare(0, 2, "--") != 0) {
      throw std::runtime_error("unexpected argument \"" + arg + "\"");
    }
    std::string key = arg.substr(2);
    std::replace(key.begin(), key.end(), '-', '_');
    if (std::find(std::begin(kSwitches), std::end(kSwitches), key) !=
        std::end(kSwitches)) {
      settings.add(key, "true");
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
    std::string value = argv[++i];
    if (key != "config") {
      settings.add(key, value);
      continue;
    }
    ConfigFile file = ConfigFile::load(value);
    for (const std::string& k : file.keys()) {
      for (const std::string& v : file.getAll(k)) settings.add(k, v);
    }
  }
  return settings;
}

/// The one reader of nfstraced's settings; defaults are the tool's.
Settings readSettings(const ConfigFile& c) {
  Settings s;
  daemon::TraceDaemon::Config& d = s.daemon;
  d.dir = c.get("dir", "/tmp/nfstraced");
  d.prefix = c.get("prefix", "eecs");
  d.rotateRecords = c.getUnsigned("rotate_records", 20'000);
  d.rotateBytes = c.getUnsigned("rotate_bytes", 0);
  d.retention.maxSegments = c.getUnsigned("retain_segments", 0);
  d.retention.maxTotalBytes = c.getUnsigned("retain_bytes", 0);
  d.retention.maxAgeSec =
      static_cast<std::int64_t>(c.getUnsigned("retain_age_s", 0, INT64_MAX));
  s.maxRecords = c.getUnsigned("max_records", 0);
  s.simHours = c.getDouble("sim_hours", 2.0, 0.0, kMaxSimHours);
  s.workload.users =
      static_cast<int>(c.getUnsigned("sim_users", 24, INT_MAX));
  s.workload.seed = c.getUnsigned("seed", 4004);
  if (auto plan = c.get("chaos")) s.chaos = FaultPlan::load(*plan);
  if (c.has("supervise")) {
    s.supervise = static_cast<int>(c.getUnsigned("supervise", 0, INT_MAX));
  }
  bool status = c.getBool("status", false);
  s.exporter.intervalUs = status ? kMicrosPerSecond : 0;
  s.exporter.statusStream = status ? stderr : nullptr;
  s.exporter.promPath = c.get("prom", "");
  s.exporter.jsonlPath = c.get("jsonl", "");
  s.exporter.alertCounters = obs::defaultAlertCounters();
  s.recoverOnly = c.getBool("recover_only", false);
  c.rejectUnknownKeys();
  return s;
}

void printBooks(const daemon::TraceDaemon& d) {
  const daemon::Books& b = d.books();
  std::fprintf(stderr,
               "books: captured=%llu sealed=%llu recovered=%llu lost=%llu "
               "(%s)  segments=%zu stream_pos=%llu%s\n",
               static_cast<unsigned long long>(b.captured),
               static_cast<unsigned long long>(b.sealed),
               static_cast<unsigned long long>(b.recovered),
               static_cast<unsigned long long>(b.lost),
               b.balanced() ? "balanced" : "UNBALANCED",
               d.manifest().segments.size(),
               static_cast<unsigned long long>(d.streamPos()),
               d.degraded() ? "  DEGRADED" : "");
}

/// One daemon incarnation: recover, resume the simulated capture at the
/// manifest's stream position, drain on SIGTERM.  Returns the process
/// exit code (0 = clean drain, 1 = books unbalanced at exit).
int runOnce(const Settings& s) {
  IoFaultInjector ioFaults(s.chaos.value_or(FaultPlan{}));
  obs::Registry registry;
  daemon::TraceDaemon::Config dc = s.daemon;
  dc.faults = s.chaos ? &ioFaults : nullptr;
  dc.metrics = &registry;
  daemon::TraceDaemon daemon(std::move(dc));

  const auto& rec = daemon.recovery();
  if (rec.tornSegments || rec.adoptedSegments || rec.rebuiltFromScan) {
    std::fprintf(stderr,
                 "recovery: %llu torn segment(s) salvaged "
                 "(%llu records recovered, %llu lost), %llu adopted%s\n",
                 static_cast<unsigned long long>(rec.tornSegments),
                 static_cast<unsigned long long>(rec.recoveredRecords),
                 static_cast<unsigned long long>(rec.lostRecords),
                 static_cast<unsigned long long>(rec.adoptedSegments),
                 rec.rebuiltFromScan ? " (manifest rebuilt from scan)" : "");
  }
  if (s.recoverOnly) {
    printBooks(daemon);
    daemon.stop();
    return daemon.books().balanced() ? 0 : 1;
  }

  obs::SnapshotExporter exporter(registry, s.exporter);

  std::signal(SIGTERM, onDrain);
  std::signal(SIGINT, onDrain);
  std::signal(SIGHUP, onRotate);

  // Deterministic capture source: the same seed replays the same record
  // stream, so resuming = skipping the records already durable.
  std::uint64_t resume = daemon.streamPos();
  std::uint64_t index = 0;
  SimEnvironment::Config sc;
  sc.fsConfig.fsid = 7;
  sc.clientHosts = 4;
  sc.seed = s.workload.seed;
  SimEnvironment env(sc, [&](const TraceRecord& r) {
    if (s.maxRecords > 0 && index >= s.maxRecords) return;
    if (index++ < resume) return;  // already sealed by a past incarnation
    daemon.submit(r);
  });
  EecsWorkload workload(s.workload, env);

  MicroTime start = days(1) + hours(9);
  MicroTime end = start + seconds(s.simHours * 3600.0);
  workload.setup(start);
  // Run in one-simulated-minute slices so signals are honoured promptly.
  for (MicroTime t = start; t < end && !gDrain; t += minutes(1)) {
    workload.run(t, std::min<MicroTime>(t + minutes(1), end));
    if (gRotate) {
      gRotate = 0;
      daemon.rotateNow();
    }
    if (s.maxRecords > 0 && index >= s.maxRecords) break;
  }
  env.finishCapture();
  daemon.stop();
  exporter.stop();

  std::fprintf(stderr, "%s: %llu records captured this run\n",
               gDrain ? "drained" : "done",
               static_cast<unsigned long long>(daemon.recordsSubmitted()));
  printBooks(daemon);
  return daemon.books().balanced() ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--config FILE] [--KEY VALUE]... [--status] "
               "[--recover-only]\n"
               "       KEY: any key of configs/daemon.cfg, '-' for '_' "
               "(--rotate-records 5000)\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Settings s;
  try {
    s = readSettings(collectSettings(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nfstraced: %s\n", e.what());
    return usage(argv[0]);
  }
  try {
    if (!s.supervise) return runOnce(s);

    daemon::Supervisor::Config sc;
    sc.manifestPath =
        daemon::TraceDaemon::manifestPathFor(s.daemon.dir, s.daemon.prefix);
    sc.maxRestarts = *s.supervise;
    daemon::Supervisor::Result r =
        daemon::Supervisor::run(sc, [&](int) { return runOnce(s); });
    std::fprintf(stderr,
                 "supervisor: %d incarnation(s), %d restart(s), books %s\n",
                 r.incarnations, r.restarts,
                 r.booksBalanced ? "balanced" : "UNBALANCED");
    return (r.cleanExit && r.booksBalanced) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nfstraced: %s\n", e.what());
    return 1;
  }
}
