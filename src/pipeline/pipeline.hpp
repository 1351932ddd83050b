// Parallel capture -> decode -> analyze pipeline.
//
// Topology (one producer thread, N worker threads, one merge thread):
//
//   capture thread ── flow-hash partition ──► SPSC ring ──► worker 0 (Sniffer)
//                 │                           SPSC ring ──► worker 1 (Sniffer) ──► SPSC ring ─┐
//                 └── time ticks (broadcast)  ...                                             ├─► merge ──► sink
//                                             SPSC ring ──► worker N-1          ──► SPSC ring ─┘
//
// Frames are sharded by the unordered (src ip, dst ip) pair (partition.hpp),
// which keeps XID call/reply pairing, IP fragment reassembly, and TCP
// stream reassembly shard-local, so each worker runs an unmodified serial
// Sniffer over its slice of the capture.
//
// Determinism.  The merge stage re-serializes the per-shard record streams
// into the byte-identical sequence a single serial Sniffer would emit over
// the same capture.  Every frame gets a global sequence number; a worker
// tags each emitted record with a three-part merge key:
//
//   (seq, phase, sub)
//     seq   — sequence number of the message whose processing emitted it
//     phase — 0: pending-call expiry during a time tick; 1: frame decode
//     sub   — phase 0: packed (client, xid); phase 1: emission index
//
// Per-shard streams are sorted by this key (frames are processed in seq
// order; the sniffer emits expiries sorted by (client, xid)), so a k-way
// merge on it reconstructs the serial emission order exactly.  The only
// subtlety is call expiry, which in a serial run is triggered by frames a
// shard never sees; the sniffer therefore quantizes its expiry scan to
// absolute-time boundaries (Sniffer::Config::expiryScanInterval) and the
// partitioner broadcasts a tick to every shard whenever the capture clock
// crosses one, before dispatching the crossing frame.  Every shard thus
// scans at exactly the global boundary points a serial sniffer scans at,
// with the same `now`, and tags the resulting records with the same seq.
//
// End of capture: finish() sends an end-of-stream message to every shard;
// workers flush still-pending calls (tagged with a past-the-end seq,
// ordered by (client, xid), matching Sniffer::flush in a serial run).
//
// Liveness: workers publish a watermark (the last seq they fully
// processed); the merge emits a record only once every other shard's
// watermark guarantees nothing earlier can still arrive.  The partitioner
// broadcasts heartbeat ticks every `heartbeatFrames` frames so watermarks
// advance even for shards receiving no traffic.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "netcap/netcap.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "pipeline/spsc_ring.hpp"
#include "sniffer/sniffer.hpp"

namespace nfstrace {

class ParallelPipeline : public FrameSink {
 public:
  struct Config {
    /// Number of worker Sniffer instances (>= 1).
    int shards = 4;
    /// Per-shard frame ring capacity (rounded up to a power of two).
    std::size_t frameRingCapacity = 1 << 15;
    /// Per-shard record ring capacity.
    std::size_t recordRingCapacity = 1 << 14;
    /// Broadcast a watermark heartbeat every this many frames.
    std::uint64_t heartbeatFrames = 4096;
    /// Overload shedding.  0 (default): the producer blocks (spin/yield)
    /// until ring space appears — lossless, byte-identical to a serial
    /// run.  > 0: after this many consecutive zero-progress push attempts
    /// on a full shard ring, the producer drops the remaining frames of
    /// the staged batch instead of stalling the capture source.  Shed
    /// frames are counted (framesShed(), pipeline.frames_shed) and look
    /// to the sniffer exactly like mirror-port loss, so they fold into
    /// the §4.1.4 orphan-reply loss estimate organically.  Time ticks and
    /// end-of-stream messages are never shed.
    int shedAfterStalls = 0;
    /// Optional self-monitoring registry (src/obs).  When set, every
    /// layer publishes pipeline health metrics: per-shard ring depths,
    /// push/pop stall counts, merge watermark lag, records released, and
    /// the per-shard sniffers' counters (Sniffer::Config::metrics is
    /// overridden with this pointer and the shard index).
    obs::Registry* metrics = nullptr;
    /// Optional flight recorder (src/obs/flight).  When set, the
    /// producer, every worker, and the merge each own a track: spans for
    /// sniff/merge service time, retroactive stall episodes for every
    /// ring wait (so stalls are attributed to the blocking stage), and
    /// instants for shed frames.  Emission is wait-free; full rings
    /// drop-and-count.
    obs::FlightRecorder* flight = nullptr;
    /// Configuration for every per-shard Sniffer.
    Sniffer::Config sniffer;
  };

  using RecordCallback = Sniffer::RecordCallback;

  /// `sink` receives the merged record stream (on the merge thread), in
  /// the exact order a serial Sniffer over the same capture would emit.
  ParallelPipeline(Config config, RecordCallback sink);
  ~ParallelPipeline() override;

  ParallelPipeline(const ParallelPipeline&) = delete;
  ParallelPipeline& operator=(const ParallelPipeline&) = delete;

  /// Dispatch one frame (copies the packet).  Single producer thread.
  void onFrame(const CapturedPacket& pkt) override;

  /// Zero-copy dispatch: the caller guarantees `pkt` stays valid and
  /// unmodified until finish() returns (e.g. frames held in a vector).
  void feed(const CapturedPacket* pkt);

  /// End of capture: flush every shard, drain the merge, join all
  /// threads.  Idempotent.  After this, stats() is valid.
  void finish();

  /// Aggregated per-shard sniffer statistics (valid after finish()).
  Sniffer::Stats stats() const;

  std::uint64_t framesDispatched() const { return seq_; }
  std::uint64_t recordsMerged() const { return merged_; }
  /// Frames dropped by overload shedding (Config::shedAfterStalls).
  /// Invariant: stats().framesSeen + framesShed() == framesDispatched().
  std::uint64_t framesShed() const { return shed_; }
  int shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct MergeKey {
    std::uint64_t seq = 0;
    std::uint32_t phase = 0;
    std::uint64_t sub = 0;
    bool operator<(const MergeKey& o) const {
      if (seq != o.seq) return seq < o.seq;
      if (phase != o.phase) return phase < o.phase;
      return sub < o.sub;
    }
  };
  struct TaggedRecord {
    MergeKey key;
    TraceRecord rec;
  };
  struct Msg {
    enum class Kind : std::uint8_t { FrameOwned, FrameRef, Tick, End };
    Kind kind = Kind::Tick;
    std::uint64_t seq = 0;
    MicroTime ts = 0;
    const CapturedPacket* ref = nullptr;
    CapturedPacket own;
  };
  struct Shard {
    explicit Shard(const Config& config);
    SpscRing<Msg> in;
    SpscRing<TaggedRecord> out;
    /// Highest seq this shard has fully processed (kDoneSeq once flushed).
    alignas(kCacheLineSize) std::atomic<std::uint64_t> watermark{0};
    // Worker-thread state for record tagging.
    std::uint64_t curSeq = 0;
    std::uint32_t curPhase = 1;
    std::uint64_t emitIdx = 0;
    std::unique_ptr<Sniffer> sniffer;
    // Worker-side stall counters (unbound no-ops without Config::metrics).
    obs::CounterHandle popStallsC;
    obs::CounterHandle recordPushStallsC;
    /// Flight-recorder track for this worker (null = no-op).
    obs::ThreadLog* flog = nullptr;
    std::thread thread;
  };

  static constexpr std::uint64_t kFlushSeq = ~0ULL - 1;
  static constexpr std::uint64_t kDoneSeq = ~0ULL;

  void dispatch(Msg&& msg, int shard);
  void maybeTick(MicroTime ts);
  void pushToShard(Shard& sh, Msg&& msg);
  /// Push a staged frame batch to shard `s`, shedding the tail if the
  /// ring stays full past the stall watermark; clears the batch.
  void drainStaged(std::size_t s);
  void stageFlush(int shard);
  void workerLoop(Shard& sh);
  void mergeLoop();
  void unregisterGaugeFns();

  Config config_;
  RecordCallback sink_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::thread merger_;
  // Producer state.
  std::uint64_t seq_ = 0;
  std::uint64_t shed_ = 0;
  MicroTime lastTickBoundary_ = -1;
  std::uint64_t framesSinceHeartbeat_ = 0;
  std::vector<std::vector<Msg>> staged_;  // per-shard dispatch batches
  bool finished_ = false;
  // Merge state.
  std::uint64_t merged_ = 0;
  Sniffer::Stats aggregated_;
  // Self-monitoring: producer/merge-side handles plus the names of the
  // ring-depth gauge fns we registered (they capture ring pointers, so
  // the destructor must unregister them before the rings die).
  void bindMetrics();
  obs::CounterHandle framesDispatchedC_;
  obs::CounterHandle pushStallsC_;
  obs::CounterHandle framesShedC_;
  obs::CounterHandle recordsReleasedC_;
  obs::GaugeHandle mergeLagG_;
  obs::GaugeHandle mergeBufferedG_;
  std::vector<std::string> gaugeFnNames_;
  // Flight-recorder tracks (null = no-op): producer and merge threads.
  obs::ThreadLog* producerFlog_ = nullptr;
  obs::ThreadLog* mergeFlog_ = nullptr;
};

}  // namespace nfstrace
