#include "inputs.hpp"

#include <memory>
#include <stdexcept>

#include "netcap/netcap.hpp"
#include "util/time.hpp"
#include "workload/campus.hpp"
#include "workload/eecs.hpp"
#include "workload/sim.hpp"

namespace nfsbench {
namespace {

using namespace nfstrace;

struct FrameCollector : FrameSink {
  std::vector<CapturedPacket> frames;
  void onFrame(const CapturedPacket& pkt) override { frames.push_back(pkt); }
};

/// Times each frame's trip through the mirror port.
struct TimedSink : FrameSink {
  TimedSink(FrameSink& inner, Tracer* tracer, Tracer::LayerId layer)
      : inner(inner), tracer(tracer), layer(layer) {}
  void onFrame(const CapturedPacket& pkt) override {
    Tracer::Scope s(tracer, layer);
    inner.onFrame(pkt);
  }
  FrameSink& inner;
  Tracer* tracer;
  Tracer::LayerId layer;
};

// The environments below match bench/bench_common.hpp's makeCampus and
// makeEecs, so seed 0 reproduces the inputs the repo's benches use.
SimEnvironment::Config campusEnv(std::uint64_t seed) {
  SimEnvironment::Config cfg;
  cfg.fsConfig.fsid = 2;
  cfg.fsConfig.defaultQuotaBytes = 50ULL << 20;
  cfg.clientHosts = 3;
  cfg.nfsVers = 3;
  cfg.useTcp = true;
  cfg.mtu = kJumboMtu;
  cfg.clientConfig.dataCacheCapacityBytes = 48ULL << 20;
  cfg.seed = seed;
  return cfg;
}

SimEnvironment::Config eecsEnv(std::uint64_t seed) {
  SimEnvironment::Config cfg;
  cfg.fsConfig.fsid = 1;
  cfg.clientHosts = 8;
  cfg.nfsVers = 3;
  cfg.hostVersions = {3, 3, 3, 3, 3, 3, 2, 2};
  cfg.useTcp = false;
  cfg.mtu = kStandardMtu;
  cfg.seed = seed;
  return cfg;
}

}  // namespace

WorkloadSpec workloadSpec(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "campus") {
    // A Sunday of 16 mailboxes.  The gigabit mirror port cannot keep up
    // with the bursts of whole-inbox reads and drops ~1% of the frames,
    // as the paper's CAMPUS span port did (§4.1.4).
    s.campus = true;
    s.users = 16;
    s.days = 1.0;
    s.baseSeed = 2001;
    s.mirror = true;
  } else if (name == "eecs") {
    // Sunday and Monday of 8 workstation users.  The EECS monitor port
    // was as fast as the server's and lost nothing: a lossless tap.
    s.campus = false;
    s.users = 8;
    s.days = 2.0;
    s.baseSeed = 4004;
    s.mirror = false;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return s;
}

WorkloadSpec smokeSpec(WorkloadSpec spec) {
  spec.users = 4;
  spec.days = 0.05;
  return spec;
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

Inputs makeInputs(const WorkloadSpec& spec, std::uint64_t seed,
                  Tracer* tracer) {
  // The seed drives the wire: XIDs, network delay jitter and nfsiod
  // timing, hence the reordering the analyses see.  The population and
  // its event schedule keep the workload's default seed, so every seed
  // measures the same amount and mix of work.
  const std::uint64_t simSeed = spec.baseSeed + seed;
  const std::uint64_t populationSeed = spec.baseSeed + 1;
  const MicroTime start = 0;
  const MicroTime end = start + days(spec.days);
  const Tracer::LayerId generate =
      tracer ? tracer->layer("workload.generate", true) : 0;
  const Tracer::LayerId mirrorLayer =
      tracer ? tracer->layer("netcap.mirror") : 0;

  FrameCollector delivered;
  MirrorPort mirror(MirrorPort::Config{}, delivered);
  TimedSink timedMirror(mirror, tracer, mirrorLayer);
  FrameSink& tap = spec.mirror ? static_cast<FrameSink&>(timedMirror)
                               : static_cast<FrameSink&>(delivered);
  {
    Tracer::Scope s(tracer, generate);
    // The simulator's own sniffer sees the frames too; its records are
    // not the benchmark's, so they are dropped.
    auto drop = [](const TraceRecord&) {};
    if (spec.campus) {
      SimEnvironment env(campusEnv(simSeed), drop);
      env.addTapSink(&tap);
      CampusConfig wl;
      wl.users = spec.users;
      wl.seed = populationSeed;
      CampusWorkload w(wl, env);
      w.setup(start);
      w.run(start, end);
    } else {
      SimEnvironment env(eecsEnv(simSeed), drop);
      env.addTapSink(&tap);
      EecsConfig wl;
      wl.users = spec.users;
      wl.seed = populationSeed;
      EecsWorkload w(wl, env);
      w.setup(start);
      w.run(start, end);
    }
  }

  Inputs in;
  in.mirrorDropped = mirror.dropped();
  in.frames = std::move(delivered.frames);
  for (const auto& f : in.frames) in.frameBytes += f.data.size();
  return in;
}

}  // namespace nfsbench
