// Deterministic fault injection for the capture→trace path.
//
// The paper's tracer ran unattended for months on a live mirror port and
// had to survive burst loss (§4.1.4), coalesced and malformed traffic,
// and full trace disks.  This module makes those scenarios *injectable
// and reproducible*: a FaultPlan (parsed from a config file such as
// configs/chaos.cfg) drives
//
//  * FaultySink — a FrameSink decorator on the wire path that drops,
//    duplicates, reorders, truncates, bit-flips, and burst-drops frames
//    (composing with MirrorPort: wire → FaultySink → mirror → sniffer),
//    and
//  * IoFaultInjector — a hook in the trace writer that simulates short
//    writes, transient EIO, and ENOSPC episodes on the output disk.
//
// Determinism.  Every per-event decision is drawn from an Rng seeded by
// mix(plan.seed, event index), so the fault sequence is a pure function
// of (seed, index): byte-identical across runs, shard counts, and
// unrelated code changes that would perturb a single shared generator.
// Both injectors fold each decision into a running digest so tests can
// assert two runs injected the identical sequence.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "netcap/netcap.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "util/config.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace nfstrace {

/// All fault probabilities and shapes, normally parsed from a config
/// file.  Rates are per-event probabilities in [0, 1]; everything
/// defaults to 0 (a no-op plan).
struct FaultPlan {
  std::uint64_t seed = 1;

  // Wire faults (per captured frame).  Evaluated in this order; at most
  // one of drop/truncate/bitflip applies to a frame, then duplication
  // and reordering are considered for frames that still forward.
  double dropRate = 0.0;      ///< drop the frame outright
  double burstRate = 0.0;     ///< start a drop burst at this frame
  std::uint32_t burstMin = 4;   ///< burst length lower bound (frames)
  std::uint32_t burstMax = 64;  ///< burst length upper bound (inclusive)
  double truncateRate = 0.0;  ///< cut the frame's tail (TCP coalesce/snap)
  double bitflipRate = 0.0;   ///< flip one bit somewhere in the frame
  double dupRate = 0.0;       ///< deliver the frame twice
  double reorderRate = 0.0;   ///< swap the frame with its successor

  // Trace-disk faults (per write attempt in the trace writer).
  double ioShortWriteRate = 0.0;  ///< write only a prefix of the buffer
  double ioEioRate = 0.0;         ///< one transient EIO
  double ioEnospcRate = 0.0;      ///< start an ENOSPC episode
  std::uint32_t ioEnospcStreak = 2;  ///< attempts per ENOSPC episode

  /// True when every rate is zero (the sink/injector pass through).
  bool quiet() const;

  /// Keys: seed, drop_rate, burst_rate, burst_min, burst_max,
  /// truncate_rate, bitflip_rate, dup_rate, reorder_rate,
  /// io_short_write_rate, io_eio_rate, io_enospc_rate, io_enospc_streak.
  /// Unknown keys and rates outside [0,1] throw.
  static FaultPlan fromConfig(const ConfigFile& cfg);
  static FaultPlan load(const std::string& path);
};

/// Wire-path fault injector: forwards frames to `downstream` after
/// applying the plan's frame faults.  Single-threaded (sits on the
/// capture/producer thread, upstream of any sharding, which is what
/// makes the fault sequence independent of shard count).
class FaultySink : public FrameSink {
 public:
  struct Stats {
    std::uint64_t frames = 0;       ///< frames offered
    std::uint64_t forwarded = 0;    ///< frames delivered downstream
    std::uint64_t dropped = 0;      ///< all drops (incl. burst)
    std::uint64_t burstDropped = 0; ///< drops attributable to bursts
    std::uint64_t bursts = 0;       ///< burst episodes started
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;    ///< adjacent pairs swapped
    std::uint64_t truncated = 0;
    std::uint64_t bitflipped = 0;

    /// Fraction of offered frames that never reached downstream.
    double lossFraction() const {
      return frames ? static_cast<double>(dropped) /
                          static_cast<double>(frames)
                    : 0.0;
    }
  };

  FaultySink(const FaultPlan& plan, FrameSink& downstream);

  void onFrame(const CapturedPacket& pkt) override;

  /// Deliver a held reordered frame (end of capture).  Idempotent.
  void flush();

  const Stats& stats() const { return stats_; }
  /// Running digest over (frame index, decision) pairs; equal digests
  /// mean byte-identical fault sequences.
  std::uint64_t decisionDigest() const { return digest_; }

  /// Publish fault counters (fault.frames, fault.dropped, ...) so a live
  /// run's degradation is visible in snapshots.
  void attachMetrics(obs::Registry& registry);

  /// Bind a "fault.wire" flight track: every drop/burst lands as a
  /// fault.drop instant and every truncate/bit-flip as a fault.corrupt
  /// instant (arg = frame index), so chaos decisions line up on the
  /// timeline next to the stalls and sheds they cause.
  void attachFlight(obs::FlightRecorder& flight);

 private:
  void forward(const CapturedPacket& pkt);
  void note(std::uint64_t decision) {
    digest_ = hashCombine(digest_, hashCombine(index_, decision));
  }

  FaultPlan plan_;
  FrameSink& downstream_;
  Stats stats_;
  std::uint64_t index_ = 0;          ///< frames seen (decision stream pos)
  std::uint64_t digest_ = 0;
  std::uint32_t burstRemaining_ = 0;
  std::optional<CapturedPacket> held_;  ///< frame awaiting a reorder swap
  obs::CounterHandle framesC_;
  obs::CounterHandle droppedC_;
  obs::CounterHandle dupC_;
  obs::CounterHandle reorderC_;
  obs::CounterHandle corruptC_;
  obs::ThreadLog* flog_ = nullptr;
};

/// Trace-disk fault source: the trace writer asks it, once per write
/// attempt, whether that attempt short-writes, fails with a transient
/// EIO, or hits an ENOSPC episode (which then fails `ioEnospcStreak`
/// consecutive attempts, modelling a briefly full disk).
class IoFaultInjector {
 public:
  enum class Kind : std::uint8_t { None, ShortWrite, Eio, Enospc };
  struct Fault {
    Kind kind = Kind::None;
    std::size_t shortLen = 0;  ///< bytes that land when kind==ShortWrite
  };

  struct Stats {
    std::uint64_t attempts = 0;
    std::uint64_t shortWrites = 0;
    std::uint64_t eio = 0;
    std::uint64_t enospc = 0;  ///< failing attempts (not episodes)
    std::uint64_t enospcEpisodes = 0;
  };

  explicit IoFaultInjector(const FaultPlan& plan) : plan_(plan) {}

  /// Decide the fate of the next write attempt of `len` bytes.
  Fault nextWrite(std::size_t len);

  const Stats& stats() const { return stats_; }
  std::uint64_t decisionDigest() const { return digest_; }

 private:
  FaultPlan plan_;
  Stats stats_;
  std::uint64_t index_ = 0;
  std::uint64_t digest_ = 0;
  std::uint32_t enospcRemaining_ = 0;
};

}  // namespace nfstrace
