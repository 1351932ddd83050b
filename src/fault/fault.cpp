#include "fault/fault.hpp"

#include <limits>
#include <stdexcept>

namespace nfstrace {
namespace {

/// Domain-separation salts so the wire and IO decision streams derived
/// from one seed are independent.
constexpr std::uint64_t kWireSalt = 0x57495245u;  // "WIRE"
constexpr std::uint64_t kIoSalt = 0x494f4f50u;    // "IOOP"

double rateOf(const ConfigFile& cfg, const std::string& key) {
  return cfg.getDouble(key, 0.0, 0.0, 1.0);
}

}  // namespace

bool FaultPlan::quiet() const {
  return dropRate == 0.0 && burstRate == 0.0 && truncateRate == 0.0 &&
         bitflipRate == 0.0 && dupRate == 0.0 && reorderRate == 0.0 &&
         ioShortWriteRate == 0.0 && ioEioRate == 0.0 && ioEnospcRate == 0.0;
}

FaultPlan FaultPlan::fromConfig(const ConfigFile& cfg) {
  FaultPlan p;
  constexpr auto kU32Max = std::numeric_limits<std::uint32_t>::max();
  p.seed = cfg.getUnsigned("seed", 1);
  p.dropRate = rateOf(cfg, "drop_rate");
  p.burstRate = rateOf(cfg, "burst_rate");
  p.burstMin = static_cast<std::uint32_t>(
      cfg.getUnsigned("burst_min", 4, kU32Max));
  p.burstMax = static_cast<std::uint32_t>(
      cfg.getUnsigned("burst_max", 64, kU32Max));
  p.truncateRate = rateOf(cfg, "truncate_rate");
  p.bitflipRate = rateOf(cfg, "bitflip_rate");
  p.dupRate = rateOf(cfg, "dup_rate");
  p.reorderRate = rateOf(cfg, "reorder_rate");
  p.ioShortWriteRate = rateOf(cfg, "io_short_write_rate");
  p.ioEioRate = rateOf(cfg, "io_eio_rate");
  p.ioEnospcRate = rateOf(cfg, "io_enospc_rate");
  p.ioEnospcStreak = static_cast<std::uint32_t>(
      cfg.getUnsigned("io_enospc_streak", 2, kU32Max));
  cfg.rejectUnknownKeys();
  if (p.burstMin == 0 || p.burstMax < p.burstMin) {
    throw std::runtime_error("fault: need 1 <= burst_min <= burst_max");
  }
  return p;
}

FaultPlan FaultPlan::load(const std::string& path) {
  return fromConfig(ConfigFile::load(path));
}

FaultySink::FaultySink(const FaultPlan& plan, FrameSink& downstream)
    : plan_(plan), downstream_(downstream) {}

void FaultySink::attachMetrics(obs::Registry& registry) {
  framesC_ = registry.counterHandle("fault.frames", 0);
  droppedC_ = registry.counterHandle("fault.frames_dropped", 0);
  dupC_ = registry.counterHandle("fault.frames_duplicated", 0);
  reorderC_ = registry.counterHandle("fault.frames_reordered", 0);
  corruptC_ = registry.counterHandle("fault.frames_corrupted", 0);
}

void FaultySink::attachFlight(obs::FlightRecorder& flight) {
  flog_ = flight.attachThread("fault.wire");
}

void FaultySink::forward(const CapturedPacket& pkt) {
  ++stats_.forwarded;
  downstream_.onFrame(pkt);
}

void FaultySink::onFrame(const CapturedPacket& pkt) {
  std::uint64_t idx = index_++;
  ++stats_.frames;
  framesC_.inc();

  // A burst in progress swallows the frame before any per-frame draw, so
  // burst drops are contiguous like real monitor-port overruns.
  if (burstRemaining_ > 0) {
    --burstRemaining_;
    ++stats_.dropped;
    ++stats_.burstDropped;
    droppedC_.inc();
    if (flog_) flog_->instant(obs::Stage::FaultDrop, idx, 1);
    note(1);
    return;
  }

  // One generator per frame, derived from (seed, frame index): frame
  // idx's fate never depends on how many draws earlier frames consumed.
  Rng rng(hashCombine(plan_.seed ^ kWireSalt, idx));

  if (plan_.burstRate > 0.0 && rng.chance(plan_.burstRate)) {
    burstRemaining_ = static_cast<std::uint32_t>(
        rng.range(plan_.burstMin, plan_.burstMax));
    ++stats_.bursts;
    --burstRemaining_;  // this frame is the first of the burst
    ++stats_.dropped;
    ++stats_.burstDropped;
    droppedC_.inc();
    if (flog_) flog_->instant(obs::Stage::FaultDrop, idx, 2);
    note(2);
    return;
  }
  if (plan_.dropRate > 0.0 && rng.chance(plan_.dropRate)) {
    ++stats_.dropped;
    droppedC_.inc();
    if (flog_) flog_->instant(obs::Stage::FaultDrop, idx, 3);
    note(3);
    return;
  }

  CapturedPacket out = pkt;
  if (plan_.truncateRate > 0.0 && !out.data.empty() &&
      rng.chance(plan_.truncateRate)) {
    // Keep a strict prefix (possibly empty), as snaplen/coalescing would.
    out.data.resize(static_cast<std::size_t>(rng.below(out.data.size())));
    ++stats_.truncated;
    corruptC_.inc();
    if (flog_) flog_->instant(obs::Stage::FaultCorrupt, idx, 4);
    note(4);
  } else if (plan_.bitflipRate > 0.0 && !out.data.empty() &&
             rng.chance(plan_.bitflipRate)) {
    // Flip past the deepest header stack (Ethernet + IPv4 + TCP): the
    // knob models garbage reaching the RPC/XDR decoder.  A flip in the
    // addressing bytes would not survive a real capture stack's checksum
    // validation, and it would re-route the frame to a different
    // pipeline shard, breaking the serial-vs-sharded trace identity.
    constexpr std::size_t kHeaderFloor = 14 + 20 + 20;
    std::size_t lo = out.data.size() > kHeaderFloor ? kHeaderFloor
                                                    : out.data.size() - 1;
    std::uint64_t byte =
        lo + rng.below(static_cast<std::uint64_t>(out.data.size() - lo));
    out.data[static_cast<std::size_t>(byte)] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    ++stats_.bitflipped;
    corruptC_.inc();
    if (flog_) flog_->instant(obs::Stage::FaultCorrupt, idx, 5);
    note(5);
  }

  bool dup = plan_.dupRate > 0.0 && rng.chance(plan_.dupRate);
  if (dup) {
    ++stats_.duplicated;
    dupC_.inc();
    note(6);
  }

  if (held_) {
    // Complete a pending swap: the newer frame jumps ahead of the held
    // one (and ahead of its own duplicate).
    CapturedPacket prior = std::move(*held_);
    held_.reset();
    forward(out);
    if (dup) forward(out);
    forward(prior);
    return;
  }
  if (plan_.reorderRate > 0.0 && rng.chance(plan_.reorderRate)) {
    ++stats_.reordered;
    reorderC_.inc();
    note(7);
    held_ = std::move(out);
    if (dup) forward(*held_);  // duplicate still leaves in order
    return;
  }

  forward(out);
  if (dup) forward(out);
}

void FaultySink::flush() {
  if (!held_) return;
  forward(*held_);
  held_.reset();
}

IoFaultInjector::Fault IoFaultInjector::nextWrite(std::size_t len) {
  std::uint64_t idx = index_++;
  ++stats_.attempts;

  if (enospcRemaining_ > 0) {
    --enospcRemaining_;
    ++stats_.enospc;
    digest_ = hashCombine(digest_, hashCombine(idx, 1));
    return {Kind::Enospc, 0};
  }

  Rng rng(hashCombine(plan_.seed ^ kIoSalt, idx));
  if (plan_.ioEnospcRate > 0.0 && rng.chance(plan_.ioEnospcRate)) {
    ++stats_.enospcEpisodes;
    ++stats_.enospc;
    enospcRemaining_ =
        plan_.ioEnospcStreak > 0 ? plan_.ioEnospcStreak - 1 : 0;
    digest_ = hashCombine(digest_, hashCombine(idx, 2));
    return {Kind::Enospc, 0};
  }
  if (plan_.ioEioRate > 0.0 && rng.chance(plan_.ioEioRate)) {
    ++stats_.eio;
    digest_ = hashCombine(digest_, hashCombine(idx, 3));
    return {Kind::Eio, 0};
  }
  if (plan_.ioShortWriteRate > 0.0 && len > 1 &&
      rng.chance(plan_.ioShortWriteRate)) {
    ++stats_.shortWrites;
    digest_ = hashCombine(digest_, hashCombine(idx, 4));
    // A nonzero strict prefix: progress is made, the rest is retried.
    return {Kind::ShortWrite,
            1 + static_cast<std::size_t>(rng.below(len - 1))};
  }
  digest_ = hashCombine(digest_, hashCombine(idx, 0));
  return {Kind::None, 0};
}

}  // namespace nfstrace
