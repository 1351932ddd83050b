// Benchmark inputs: the simulated captures each workload replays.
//
// A workload's input is the frame stream a passive tracer's mirror port
// would deliver for one simulated population: the CAMPUS email system or
// the EECS research filer (src/workload), generated from a seed by the
// repo's own simulator and, for CAMPUS, delivered through a
// bandwidth-limited MirrorPort.  The benchmark hands the program only
// these frames; the seed never reaches the code under test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pcap/pcap.hpp"
#include "tracer.hpp"

namespace nfsbench {

struct WorkloadSpec {
  std::string name;
  bool campus = true;  // CAMPUS email system, else EECS research filer
  int users = 16;
  double days = 1.0;  // simulated from Sunday midnight
  /// The environment seed for benchmark seed 0 (the repo's defaults:
  /// makeCampus 2001, makeEecs 4004); seed n uses base + n.  The
  /// population always uses base + 1, as makeCampus/makeEecs do.
  std::uint64_t baseSeed = 2001;
  /// Deliver through a gigabit mirror port (MirrorPort's defaults);
  /// false is a lossless tap.
  bool mirror = true;
};

/// The benchmark's workloads, by name; throws on an unknown name.
WorkloadSpec workloadSpec(const std::string& name);
/// Shrink a spec to a few simulated minutes (smoke runs).
WorkloadSpec smokeSpec(WorkloadSpec spec);

struct Inputs {
  std::vector<nfstrace::CapturedPacket> frames;  // after the mirror port
  std::uint64_t frameBytes = 0;
  std::uint64_t mirrorDropped = 0;
};

/// Simulate the workload (layer `workload.generate`), streaming its
/// frames through the mirror port (layer `netcap.mirror`, nested).
Inputs makeInputs(const WorkloadSpec& spec, std::uint64_t seed,
                  Tracer* tracer);

/// 64-bit FNV-1a, continuing from `h`.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace nfsbench
