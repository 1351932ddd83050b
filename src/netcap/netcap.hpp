// Simulated wire, mirror port, and NFS transport.
//
// Frames exchanged between the simulated client and server are copied to a
// mirror port (as on the real switch hosting the CAMPUS arrays).  The
// mirror port has finite bandwidth: during bursts it cannot forward
// everything and drops frames — the §4.1.4 effect that cost the authors up
// to 10% of packets on CAMPUS, while the EECS monitor port (as fast as the
// server port) lost nothing.
#pragma once

#include <cstdint>
#include <memory>

#include "net/packet.hpp"
#include "nfs/messages.hpp"
#include "obs/metrics.hpp"
#include "pcap/pcap.hpp"
#include "rpc/rpc.hpp"
#include "server/mountd.hpp"
#include "server/portmap.hpp"
#include "server/server.hpp"
#include "util/rng.hpp"

namespace nfstrace {

/// Anything that consumes captured frames (the sniffer, a pcap writer, a
/// mirror port in front of either).
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void onFrame(const CapturedPacket& pkt) = 0;
};

/// Tee: copy frames to several sinks.
class FrameTee : public FrameSink {
 public:
  void addSink(FrameSink* sink) { sinks_.push_back(sink); }
  void onFrame(const CapturedPacket& pkt) override {
    for (auto* s : sinks_) s->onFrame(pkt);
  }

 private:
  std::vector<FrameSink*> sinks_;
};

/// Bandwidth-limited mirror port with a drop-tail buffer.  Forwarding a
/// frame occupies the port for size*8/bandwidth seconds; frames that would
/// overflow the buffer while the port is busy are dropped.
class MirrorPort : public FrameSink {
 public:
  struct Config {
    double bandwidthBitsPerSec = 1e9;
    std::size_t bufferBytes = 256 * 1024;
  };

  MirrorPort(Config config, FrameSink& downstream)
      : config_(config), downstream_(downstream) {}

  void onFrame(const CapturedPacket& pkt) override;

  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t dropped() const { return dropped_; }
  double dropRate() const {
    auto total = forwarded_ + dropped_;
    return total ? static_cast<double>(dropped_) / static_cast<double>(total)
                 : 0.0;
  }

  /// Publish forwarded/dropped counters and a drop-rate gauge
  /// (netcap.mirror_*).  Plain handles updated inline — no captured
  /// state, so the port may be destroyed before the registry.
  void attachMetrics(obs::Registry& registry) {
    forwardedC_ = registry.counterHandle("netcap.mirror_forwarded", 0);
    droppedC_ = registry.counterHandle("netcap.mirror_dropped", 0);
    dropRateG_ = registry.gaugeHandle("netcap.mirror_drop_rate");
  }

 private:
  Config config_;
  FrameSink& downstream_;
  MicroTime busyUntil_ = 0;
  std::size_t queuedBytes_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t dropped_ = 0;
  obs::CounterHandle forwardedC_;
  obs::CounterHandle droppedC_;
  obs::GaugeHandle dropRateG_;
};

/// Network + server round trip for one client host.  Encodes calls to real
/// frames (UDP datagrams or record-marked TCP segments), offers every frame
/// to the tap, runs the server, and returns the decoded reply with its
/// observed timestamp.
class NfsTransport {
 public:
  struct Config {
    IpAddr clientIp = makeIp(10, 1, 0, 2);
    IpAddr serverIp = makeIp(10, 0, 0, 1);
    std::uint8_t nfsVers = 3;
    bool useTcp = true;
    std::size_t mtu = kJumboMtu;       // CAMPUS: jumbo; EECS/UDP: 1500
    MicroTime oneWayDelay = 60;        // switch + stack latency, usec
    MicroTime serverCpuPerCall = 40;   // usec of server think time
    std::uint16_t clientPort = 1023;   // reserved port, as real clients use
    std::string machineName = "client";
  };

  NfsTransport(Config config, NfsServer& server, FrameSink* tap,
               std::uint64_t seed = 1, MountServer* mountd = nullptr,
               Portmapper* portmap = nullptr);

  struct Outcome {
    NfsReplyRes reply;
    MicroTime sentTs = 0;     // when the call hit the wire
    MicroTime replyTs = 0;    // when the reply was observable at the tap
    std::uint32_t xid = 0;
  };

  /// Send one call at `sendTs` with the given AUTH_UNIX identity.
  Outcome call(MicroTime sendTs, const NfsCallArgs& args, std::uint32_t uid,
               std::uint32_t gid);

  /// MOUNT protocol MNT: resolve an export path to its root handle over
  /// the wire (requires a MountServer).  Returns nullopt on failure.
  std::optional<FileHandle> mount(MicroTime& sendTs, const std::string& path,
                                  std::uint32_t uid, std::uint32_t gid);

  /// Portmap GETPORT over the wire (requires a Portmapper); 0 = not
  /// registered / no portmapper.
  std::uint32_t getport(MicroTime& sendTs, std::uint32_t prog,
                        std::uint32_t vers, std::uint32_t proto);

  const Config& config() const { return config_; }
  std::uint64_t callsSent() const { return callsSent_; }

 private:
  void emitFrames(MicroTime ts, std::span<const std::uint8_t> rpcBody,
                  bool fromClient);

  Config config_;
  NfsServer& server_;
  MountServer* mountd_;
  Portmapper* portmap_;
  FrameSink* tap_;
  Rng rng_;
  std::uint32_t nextXid_;
  std::uint32_t tcpSeqClient_ = 1;
  std::uint32_t tcpSeqServer_ = 1;
  /// IPv4 id of the next UDP datagram either side sends.  Per transport,
  /// so a simulation's frames depend only on its own config and seed.
  std::uint16_t ipId_ = 1;
  std::uint64_t callsSent_ = 0;
};

}  // namespace nfstrace
