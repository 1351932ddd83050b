// The passive NFS tracer (the paper's modified-tcpdump equivalent).
//
// Consumes raw captured frames, reassembles IP fragments and TCP streams,
// decodes ONC RPC and NFSv2/v3, pairs calls with replies by XID, and emits
// one TraceRecord per call.  Losing a call makes its reply undecodable
// (§4.1.4) — the sniffer counts those orphan replies, which is how the
// paper estimated its capture loss.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "netcap/netcap.hpp"
#include "nfs/messages.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "rpc/rpc.hpp"
#include "trace/record.hpp"
#include "util/flatmap.hpp"
#include "util/hash.hpp"
#include "util/runqueue.hpp"

namespace nfstrace {

class Sniffer : public FrameSink {
 public:
  struct Config {
    std::uint16_t nfsPort = 2049;
    /// A call with no reply after this long is emitted reply-less.
    MicroTime pendingTimeout = 60 * kMicrosPerSecond;
    /// The expiry scan fires when the capture clock crosses a multiple of
    /// this interval (not on every frame).  Quantizing the scan makes the
    /// emission points a function of absolute capture time only, so a
    /// sharded pipeline (which broadcasts boundary crossings to every
    /// shard) expires calls at exactly the same points as a serial run.
    MicroTime expiryScanInterval = kMicrosPerSecond;
    /// Optional self-monitoring registry (see src/obs); null disables
    /// instrumentation entirely (handles stay unbound no-ops).
    obs::Registry* metrics = nullptr;
    /// Counter slot and per-shard gauge suffix for this instance — the
    /// pipeline shard id, or 0 for a serial run.
    int metricsShard = 0;
    /// Optional flight recorder: table evictions and non-empty expiry
    /// scans land on a lazily-attached "sniffer.s<shard>" track.  All
    /// instrumented paths are cold, so the hot decode path is untouched.
    obs::FlightRecorder* flight = nullptr;
    /// Hard bounds on per-state tables so a hostile or badly lossy
    /// capture cannot grow memory without limit.  Hitting a bound evicts
    /// the oldest entry (pending calls: emitted reply-less and counted in
    /// `evictedCalls`; TCP flows: coldest flow discarded).  The defaults
    /// are far above anything a healthy capture reaches, so bounded and
    /// unbounded runs behave identically unless the capture is sick.
    /// 0 disables a bound.
    std::size_t maxPendingCalls = 1 << 20;
    std::size_t maxTcpFlows = 65536;
    std::size_t maxIgnoredXids = 1 << 16;
  };

  struct Stats {
    std::uint64_t framesSeen = 0;
    std::uint64_t framesUndecodable = 0;
    std::uint64_t rpcCalls = 0;
    std::uint64_t rpcReplies = 0;
    std::uint64_t nonNfsCalls = 0;   // MOUNT, portmap, ... (not traced)
    std::uint64_t orphanReplies = 0;   // reply whose call was lost
    std::uint64_t expiredCalls = 0;    // call whose reply was lost
    std::uint64_t fragmentsExpired = 0;
    std::uint64_t evictedCalls = 0;  // oldest calls shed at maxPendingCalls
    std::uint64_t evictedFlows = 0;  // coldest TCP flows shed at maxTcpFlows
    std::uint64_t flushedCalls = 0;  // still-pending calls drained by flush()
    std::uint64_t pendingPeak = 0;   // high-water mark of the pending table
    std::uint64_t tcpFlowsPeak = 0;  // high-water mark of the flow table
  };

  using RecordCallback = std::function<void(const TraceRecord&)>;

  Sniffer(Config config, RecordCallback callback);

  void onFrame(const CapturedPacket& pkt) override;

  /// Advance the capture clock without a frame: runs the (quantized)
  /// pending-call expiry scan if `now` crossed a scan boundary.  Called
  /// internally on every frame; the parallel pipeline also calls it for
  /// broadcast time ticks so all shards expire at the same global points.
  void advanceTime(MicroTime now);

  /// Emit all still-pending calls as reply-less records (end of capture),
  /// ordered by (client, xid).
  void flush();

  const Stats& stats() const { return stats_; }

 private:
  struct FlowKey {
    IpAddr src, dst;
    std::uint16_t srcPort, dstPort;
    bool operator==(const FlowKey&) const = default;
  };
  struct FlowKeyHash {
    std::size_t operator()(const FlowKey& k) const noexcept {
      std::uint64_t ips =
          (static_cast<std::uint64_t>(k.src) << 32) | k.dst;
      std::uint64_t ports =
          (static_cast<std::uint64_t>(k.srcPort) << 16) | k.dstPort;
      return static_cast<std::size_t>(hashCombine(mix64(ips), ports));
    }
  };
  struct TcpFlow {
    TcpReassembler reassembler;
    RecordMarkReader records;
    MicroTime lastTs = 0;  // last segment time; LRU key for eviction
  };
  struct PendingCall {
    MicroTime ts = 0;
    IpAddr client = 0;
    IpAddr server = 0;
    std::uint32_t vers = 3;
    std::uint32_t proc = 0;
    bool overTcp = false;
    std::uint32_t uid = 0;
    std::uint32_t gid = 0;
    NfsCallArgs args;
  };

  void onRpcBytes(MicroTime ts, IpAddr src, IpAddr dst, bool overTcp,
                  std::span<const std::uint8_t> body, bool toServer);
  void handleCall(MicroTime ts, IpAddr client, IpAddr server, bool overTcp,
                  const RpcCallLite& call, std::span<const std::uint8_t> body);
  void handleReply(MicroTime ts, IpAddr client, const RpcReply& reply,
                   std::span<const std::uint8_t> body);
  void expirePending(MicroTime now);
  /// Emit-and-erase the oldest live pending call (table at capacity).
  void evictOldestPending();
  /// Drop stale keys once the order queue outgrows the live table.
  void compactPendingOrder();
  /// Erase the least-recently-active TCP flow (table at capacity).
  void evictColdestFlow();
  TraceRecord recordFromCall(std::uint32_t xid, const PendingCall& pc) const;
  void fillReply(TraceRecord& rec, const PendingCall& pc,
                 const NfsReplyRes& res) const;

  /// Pack the (client ip, xid) pair that keys call/reply matching.
  static constexpr std::uint64_t xidKey(IpAddr client, std::uint32_t xid) {
    return (static_cast<std::uint64_t>(client) << 32) | xid;
  }

  Config config_;
  RecordCallback callback_;
  Stats stats_;
  IpReassembler ipReassembler_;
  /// Last expiry-scan boundary (floor(ts / expiryScanInterval)) crossed.
  MicroTime lastScanBoundary_ = -1;
  FlatMap<FlowKey, TcpFlow, FlowKeyHash> tcpFlows_;
  /// Pending calls keyed by packed (client ip, xid).
  FlatMap<std::uint64_t, PendingCall, U64Hash> pending_;
  /// Insertion order of pending keys, for oldest-first eviction.  Entries
  /// go stale when a reply or expiry removes the call; eviction skips
  /// them lazily and compactPendingOrder() trims the backlog.
  std::deque<std::uint64_t> pendingOrder_;
  /// Min-queue of (call ts, key) driving the expiry scan: each boundary
  /// pops only the entries past the timeout horizon instead of walking
  /// the whole table (2-hour timeout ⇒ a big table, scanned every 30
  /// simulated seconds — the old walk dominated the decode profile).
  /// Capture timestamps arrive in order, so nearly every pair lands in
  /// the RunQueue's FIFO; a frame stamped earlier goes to its heap.
  /// Pairs go stale when a reply/eviction removes the call or a
  /// retransmission refreshes its ts; the (key, ts) liveness match skips
  /// them, so the popped set equals the full scan's exactly — under any
  /// frame order — which the byte-identical guarantee requires.
  RunQueue<std::pair<MicroTime, std::uint64_t>> pendingByTs_;
  /// Calls for other RPC programs whose replies we must skip silently.
  FlatSet<std::uint64_t, U64Hash> ignoredXids_;

  // Self-monitoring (unbound no-ops unless Config::metrics is set).
  // Counters are NOT bumped per event: on the reworked hot path even a
  // relaxed atomic add per record costs a visible slice of the 2%
  // instrumentation budget.  stats_ (plain fields, always maintained) is
  // the source of truth; publishCounters() pushes the deltas to the obs
  // registry at expiry-scan boundaries and on flush(), so scrapes see
  // totals that are exact at every boundary and at end of capture.
  void bindMetrics();
  void updateResourceGauges();
  void publishCounters();
  /// Lazily attach this instance's flight track (cold paths only).
  obs::ThreadLog* flightLog();
  obs::ThreadLog* flog_ = nullptr;
  /// Frames parseFrame accepted; feeds sniffer.frames_decoded (counted
  /// separately from Stats, which folds later RPC failures into
  /// framesUndecodable).
  std::uint64_t framesParsed_ = 0;
  /// Counter totals already pushed to the registry.
  Stats published_;
  std::uint64_t publishedFramesParsed_ = 0;
  obs::CounterHandle framesC_;
  obs::CounterHandle framesDecodedC_;
  obs::CounterHandle malformedC_;
  obs::CounterHandle rpcCallsC_;
  obs::CounterHandle rpcRepliesC_;
  obs::CounterHandle nonNfsC_;
  obs::CounterHandle orphansC_;
  obs::CounterHandle expiredC_;
  obs::CounterHandle evictedC_;
  obs::CounterHandle evictedFlowsC_;
  obs::CounterHandle flushedC_;
  obs::GaugeHandle pendingG_;
  obs::GaugeHandle tcpBufferedG_;
};

/// Convenience front-end: run the sniffer over a pcap file, returning the
/// extracted trace (the `nfsdump`-style conversion tool).
std::vector<TraceRecord> sniffPcap(const std::string& pcapPath,
                                   Sniffer::Stats* statsOut = nullptr);

}  // namespace nfstrace
