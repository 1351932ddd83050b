// nfstraced: the unattended continuous-capture daemon (§4.1) — capture,
// checkpoint-aligned rotation, crash recovery, retention, supervision.
//
//   nfstraced [--config configs/daemon.cfg] [--dir DIR] [--prefix P]
//             [--format text|v2] [--rotate-records N]
//             [--rotate-bytes N] [--retain-segments N] [--retain-bytes N]
//             [--compact-after-s S] [--records N] [--sim-hours H]
//             [--chaos plan.cfg] [--supervise N] [--status]
//             [--prom FILE] [--jsonl FILE] [--recover-only]
//
// The record source is the deterministic EECS workload simulation (the
// repo's stand-in for a mirror port), streamed straight into the daemon:
// capture -> sniffer -> TraceDaemon -> rotating sealed segments + a
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
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "daemon/daemon.hpp"
#include "daemon/supervisor.hpp"
#include "fault/fault.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "trace/tracefile.hpp"
#include "util/config.hpp"
#include "workload/eecs.hpp"
#include "workload/sim.hpp"

using namespace nfstrace;

namespace {

volatile std::sig_atomic_t gDrain = 0;   // SIGTERM/SIGINT
volatile std::sig_atomic_t gRotate = 0;  // SIGHUP

void onDrain(int) { gDrain = 1; }
void onRotate(int) { gRotate = 1; }

struct Options {
  std::string dir = "/tmp/nfstraced";
  std::string prefix = "eecs";
  TraceWriter::Format format = TraceWriter::Format::V2;
  std::uint64_t rotateRecords = 20'000;
  std::uint64_t rotateBytes = 0;
  std::size_t retainSegments = 0;
  std::uint64_t retainBytes = 0;
  std::int64_t retainAgeSec = 0;
  std::int64_t compactAfterSec = -1;
  std::uint64_t checkpointEvery = 4096;
  std::uint64_t v2ExtentRecords = 8192;
  int maxRetries = 8;
  std::uint64_t reopenAfterSheds = 256;
  std::uint64_t maxRecords = 0;  // 0 = run the whole simulated window
  double simHours = 2.0;
  int simUsers = 24;
  std::uint64_t seed = 4004;
  std::string chaosPath;
  int supervise = -1;  // <0 = unsupervised
  bool status = false;
  std::string promPath;
  std::string jsonlPath;
  bool recoverOnly = false;
};

/// The one place a format name becomes a TraceWriter::Format, for the
/// config key and the flag alike: an unknown name (the retired v1
/// "binary" included) is an error, never a silent default.
TraceWriter::Format parseFormat(const std::string& name) {
  auto f = traceFormatFromName(name);
  if (!f) {
    throw std::runtime_error("unknown trace format \"" + name +
                             "\" (text, v2)");
  }
  return *f;
}

void applyConfigFile(Options& o, const std::string& path) {
  ConfigFile cfg = ConfigFile::load(path);
  o.dir = cfg.get("dir", o.dir);
  o.prefix = cfg.get("prefix", o.prefix);
  if (auto f = cfg.get("format")) o.format = parseFormat(*f);
  o.rotateRecords = static_cast<std::uint64_t>(
      cfg.getInt("rotate_records", static_cast<std::int64_t>(o.rotateRecords)));
  o.rotateBytes = static_cast<std::uint64_t>(
      cfg.getInt("rotate_bytes", static_cast<std::int64_t>(o.rotateBytes)));
  o.retainSegments = static_cast<std::size_t>(cfg.getInt(
      "retain_segments", static_cast<std::int64_t>(o.retainSegments)));
  o.retainBytes = static_cast<std::uint64_t>(
      cfg.getInt("retain_bytes", static_cast<std::int64_t>(o.retainBytes)));
  o.retainAgeSec = cfg.getInt("retain_age_s", o.retainAgeSec);
  o.compactAfterSec = cfg.getInt("compact_after_s", o.compactAfterSec);
  o.checkpointEvery = static_cast<std::uint64_t>(cfg.getInt(
      "checkpoint_every", static_cast<std::int64_t>(o.checkpointEvery)));
  o.v2ExtentRecords = static_cast<std::uint64_t>(cfg.getInt(
      "v2_extent_records", static_cast<std::int64_t>(o.v2ExtentRecords)));
  o.maxRetries = static_cast<int>(cfg.getInt("max_retries", o.maxRetries));
  o.reopenAfterSheds = static_cast<std::uint64_t>(cfg.getInt(
      "reopen_after_sheds", static_cast<std::int64_t>(o.reopenAfterSheds)));
  o.maxRecords = static_cast<std::uint64_t>(
      cfg.getInt("max_records", static_cast<std::int64_t>(o.maxRecords)));
  o.simHours = cfg.getDouble("sim_hours", o.simHours);
  o.simUsers = static_cast<int>(cfg.getInt("sim_users", o.simUsers));
  o.seed = static_cast<std::uint64_t>(
      cfg.getInt("seed", static_cast<std::int64_t>(o.seed)));
  o.chaosPath = cfg.get("chaos", o.chaosPath);
}

daemon::TraceDaemon::Config daemonConfig(const Options& o,
                                         IoFaultInjector* faults,
                                         obs::Registry* metrics) {
  daemon::TraceDaemon::Config dc;
  dc.dir = o.dir;
  dc.prefix = o.prefix;
  dc.format = o.format;
  dc.rotateRecords = o.rotateRecords;
  dc.rotateBytes = o.rotateBytes;
  dc.checkpointEveryRecords = o.checkpointEvery;
  dc.v2ExtentRecords = o.v2ExtentRecords;
  dc.maxRetries = o.maxRetries;
  dc.reopenAfterSheds = o.reopenAfterSheds;
  dc.faults = faults;
  dc.retention.maxSegments = o.retainSegments;
  dc.retention.maxTotalBytes = o.retainBytes;
  dc.retention.maxAgeSec = o.retainAgeSec;
  dc.retention.compactAfterSec = o.compactAfterSec;
  dc.metrics = metrics;
  return dc;
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
int runOnce(const Options& o) {
  FaultPlan plan;
  if (!o.chaosPath.empty()) plan = FaultPlan::load(o.chaosPath);
  IoFaultInjector ioFaults(plan);

  obs::Registry registry;
  daemon::TraceDaemon daemon(
      daemonConfig(o, o.chaosPath.empty() ? nullptr : &ioFaults, &registry));

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
  if (o.recoverOnly) {
    printBooks(daemon);
    daemon.stop();
    return daemon.books().balanced() ? 0 : 1;
  }

  obs::SnapshotExporter::Config ec;
  ec.intervalUs = o.status ? kMicrosPerSecond : 0;
  ec.statusStream = o.status ? stderr : nullptr;
  ec.promPath = o.promPath;
  ec.jsonlPath = o.jsonlPath;
  ec.alertCounters = obs::defaultAlertCounters();
  obs::SnapshotExporter exporter(registry, ec);

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
  sc.seed = o.seed;
  SimEnvironment env(sc, [&](const TraceRecord& r) {
    if (o.maxRecords > 0 && index >= o.maxRecords) return;
    if (index++ < resume) return;  // already sealed by a past incarnation
    daemon.submit(r);
  });
  EecsConfig wc;
  wc.users = o.simUsers;
  wc.seed = o.seed;
  EecsWorkload workload(wc, env);

  MicroTime start = days(1) + hours(9);
  MicroTime end = start + seconds(o.simHours * 3600.0);
  workload.setup(start);
  // Run in one-simulated-minute slices so signals are honoured promptly.
  for (MicroTime t = start; t < end && !gDrain; t += minutes(1)) {
    workload.run(t, std::min<MicroTime>(t + minutes(1), end));
    if (gRotate) {
      gRotate = 0;
      daemon.rotateNow();
    }
    if (o.maxRecords > 0 && index >= o.maxRecords) break;
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
  std::fprintf(
      stderr,
      "usage: %s [--config FILE] [--dir DIR] [--prefix P] [--format F]\n"
      "          [--rotate-records N] [--rotate-bytes N]\n"
      "          [--retain-segments N] [--retain-bytes N]\n"
      "          [--compact-after-s S]\n"
      "          [--records N] [--sim-hours H]\n"
      "          [--chaos plan.cfg] [--supervise N] [--status]\n"
      "          [--prom FILE] [--jsonl FILE] [--recover-only]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error("missing value: " + arg);
        return argv[++i];
      };
      if (arg == "--config") {
        applyConfigFile(o, next());
      } else if (arg == "--dir") {
        o.dir = next();
      } else if (arg == "--prefix") {
        o.prefix = next();
      } else if (arg == "--format") {
        o.format = parseFormat(next());
      } else if (arg == "--rotate-records") {
        o.rotateRecords = std::strtoull(next().c_str(), nullptr, 10);
      } else if (arg == "--rotate-bytes") {
        o.rotateBytes = std::strtoull(next().c_str(), nullptr, 10);
      } else if (arg == "--retain-segments") {
        o.retainSegments = std::strtoull(next().c_str(), nullptr, 10);
      } else if (arg == "--retain-bytes") {
        o.retainBytes = std::strtoull(next().c_str(), nullptr, 10);
      } else if (arg == "--compact-after-s") {
        o.compactAfterSec = std::strtoll(next().c_str(), nullptr, 10);
      } else if (arg == "--records") {
        o.maxRecords = std::strtoull(next().c_str(), nullptr, 10);
      } else if (arg == "--sim-hours") {
        o.simHours = std::strtod(next().c_str(), nullptr);
      } else if (arg == "--chaos") {
        o.chaosPath = next();
      } else if (arg == "--supervise") {
        o.supervise = static_cast<int>(std::strtol(next().c_str(), nullptr, 10));
      } else if (arg == "--status") {
        o.status = true;
      } else if (arg == "--prom") {
        o.promPath = next();
      } else if (arg == "--jsonl") {
        o.jsonlPath = next();
      } else if (arg == "--recover-only") {
        o.recoverOnly = true;
      } else {
        return usage(argv[0]);
      }
    }

    if (o.supervise < 0) return runOnce(o);

    daemon::Supervisor::Config sc;
    sc.manifestPath = daemon::TraceDaemon::manifestPathFor(o.dir, o.prefix);
    sc.maxRestarts = o.supervise;
    daemon::Supervisor::Result r =
        daemon::Supervisor::run(sc, [&](int) { return runOnce(o); });
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
