// Ethernet II / IPv4 / UDP / TCP frame construction and parsing.
//
// The simulated clients and server exchange real frames (built here), the
// netcap mirror copies them, and the sniffer parses them back — so the
// capture pipeline exercises the same decode problem a hardware tap faces,
// including jumbo (9000-byte) frames on the CAMPUS segment.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/flatmap.hpp"

namespace nfstrace {

/// IPv4 address as a host-order 32-bit value.
using IpAddr = std::uint32_t;

constexpr IpAddr makeIp(int a, int b, int c, int d) {
  return (static_cast<IpAddr>(a) << 24) | (static_cast<IpAddr>(b) << 16) |
         (static_cast<IpAddr>(c) << 8) | static_cast<IpAddr>(d);
}
std::string ipToString(IpAddr ip);

enum class IpProto : std::uint8_t { Tcp = 6, Udp = 17 };

inline constexpr std::size_t kEthHeaderLen = 14;
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::size_t kStandardMtu = 1500;
inline constexpr std::size_t kJumboMtu = 9000;

/// Parsed view of a frame down to the transport payload.
struct ParsedFrame {
  IpAddr src = 0;
  IpAddr dst = 0;
  IpProto proto = IpProto::Udp;
  std::uint16_t srcPort = 0;
  std::uint16_t dstPort = 0;
  // IPv4 fragmentation:
  std::uint16_t ipId = 0;
  std::uint16_t fragOffsetBytes = 0;
  bool moreFragments = false;
  bool isFragment() const { return moreFragments || fragOffsetBytes != 0; }
  // TCP only:
  std::uint32_t tcpSeq = 0;
  std::uint32_t tcpAck = 0;
  bool tcpSyn = false;
  bool tcpFin = false;
  bool tcpAckFlag = false;
  /// Transport payload for offset-0 packets; raw IP payload continuation
  /// for non-first fragments (no transport header present).
  std::span<const std::uint8_t> payload;
};

/// Parse an Ethernet/IPv4/{UDP,TCP} frame.  Returns nullopt for frames we
/// do not understand (non-IPv4, truncated, bad header lengths).
std::optional<ParsedFrame> parseFrame(std::span<const std::uint8_t> frame);

/// Internet checksum (RFC 1071) over a byte range.
std::uint16_t internetChecksum(std::span<const std::uint8_t> data);

/// Build a UDP datagram inside a single Ethernet/IPv4 frame (payload must
/// fit the frame; use buildUdpFrames for MTU-constrained paths).
std::vector<std::uint8_t> buildUdpFrame(IpAddr src, std::uint16_t srcPort,
                                        IpAddr dst, std::uint16_t dstPort,
                                        std::span<const std::uint8_t> payload);

/// Build a UDP datagram as one or more Ethernet/IPv4 frames, applying IPv4
/// fragmentation when the datagram exceeds the MTU — exactly what
/// NFS-over-UDP with 8 KB transfers does on a 1500-byte segment.  `ipId`
/// identifies the datagram for reassembly and is incremented by the caller.
std::vector<std::vector<std::uint8_t>> buildUdpFrames(
    IpAddr src, std::uint16_t srcPort, IpAddr dst, std::uint16_t dstPort,
    std::uint16_t ipId, std::span<const std::uint8_t> payload,
    std::size_t mtu);

/// IPv4 fragment reassembler.  Collects fragments per (src, dst, id) and
/// returns the complete IP payload when the last hole closes.  Incomplete
/// datagrams are discarded after `timeout`; a dropped fragment therefore
/// loses the whole datagram, as it does for a real tap.
///
/// Expiry runs two ways with identical reassembly outcomes to a per-feed
/// scan: a stale same-key entry is replaced at the moment a new fragment
/// hits it (so old state can never absorb a new datagram), and a periodic
/// sweep — driven by the capture clock, so still deterministic — reclaims
/// entries whose key never recurs.  Under bursty tap loss the pending set
/// grows large, which is exactly when a per-feed O(pending) scan made the
/// tracer slowest; the hashed table + sweep keeps feed() O(1).
class IpReassembler {
 public:
  explicit IpReassembler(std::int64_t timeoutUs = 30'000'000)
      : timeoutUs_(timeoutUs),
        sweepIntervalUs_(timeoutUs / 4 > 0 ? timeoutUs / 4 : 1) {}

  /// Feed a parsed fragment (or whole datagram).  Returns the complete
  /// transport payload when available.  The returned view aliases either
  /// the caller's frame or an internal buffer that is reused by the next
  /// feed() call — consume it before feeding the next frame.
  std::optional<std::span<const std::uint8_t>> feed(const ParsedFrame& frame,
                                                    std::int64_t now);

  std::uint64_t expired() const { return expired_; }

 private:
  struct Key {
    IpAddr src, dst;
    std::uint16_t id;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = (static_cast<std::uint64_t>(k.src) << 32) | k.dst;
      h = (h ^ k.id) * 0x9ddfea08eb382d69ULL;
      return static_cast<std::size_t>(h ^ (h >> 29));
    }
  };
  struct Pending {
    std::int64_t firstSeen = 0;
    /// Fragments are written straight into their final position here
    /// (IP-payload offsets), so completion needs no second assembly pass.
    std::vector<std::uint8_t> data;
    /// Covered [begin, end) byte ranges, unsorted; merged on completion.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> extents;
    bool haveLast = false;
    std::uint32_t totalLen = 0;
  };

  void recycle(Pending&& p);
  void sweep(std::int64_t now);
  Pending makePending(std::int64_t now);

  FlatMap<Key, Pending, KeyHash> pending_;
  std::int64_t timeoutUs_;
  std::int64_t sweepIntervalUs_;
  std::int64_t lastSweepUs_ = 0;
  std::uint64_t expired_ = 0;
  /// Buffer backing the most recently returned payload; recycled into
  /// the spare pool (and from there into new Pending entries) on the next
  /// feed, so steady-state reassembly allocates nothing.  The pool holds
  /// a few buffers because loss interleaves concurrent reassemblies.
  std::vector<std::uint8_t> completed_;
  std::vector<std::vector<std::uint8_t>> sparePool_;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      spareExtents_;
};

/// Build one TCP segment (no options) in an Ethernet/IPv4 frame.
std::vector<std::uint8_t> buildTcpFrame(IpAddr src, std::uint16_t srcPort,
                                        IpAddr dst, std::uint16_t dstPort,
                                        std::uint32_t seq, std::uint32_t ack,
                                        bool syn, bool fin, bool ackFlag,
                                        std::span<const std::uint8_t> payload);

/// Split a byte stream into TCP segments of at most `mss` payload bytes,
/// advancing `seq`; returns the frames in order.  This is where TCP packet
/// coalescing behaviour originates: one RPC record may span segments and
/// one segment may carry several records.
std::vector<std::vector<std::uint8_t>> segmentTcpStream(
    IpAddr src, std::uint16_t srcPort, IpAddr dst, std::uint16_t dstPort,
    std::uint32_t& seq, std::span<const std::uint8_t> stream, std::size_t mss);

/// In-order TCP stream reassembler for one direction of one connection.
/// Tracks the expected sequence number, buffers out-of-order segments, and
/// reports gaps (from dropped frames) so the RPC layer can resynchronize.
class TcpReassembler {
 public:
  /// Feed one segment.  Returns the bytes that became contiguously
  /// available, in stream order.  An in-order segment with nothing parked
  /// behind it (every segment the sniffer delivers, since it resyncs at
  /// each gap) comes back as a view into `payload` itself, trimmed of any
  /// retransmitted prefix; only a segment that closes a hole is copied,
  /// with the parked segments it releases, into an internal buffer.  The
  /// view is valid until the next feed() and as long as `payload` is.
  std::span<const std::uint8_t> feed(std::uint32_t seq,
                                     std::span<const std::uint8_t> payload,
                                     bool syn);

  /// Skip over a hole: declare the stream resumed at `seq`.  Returns true
  /// if a gap was actually skipped.
  bool resyncTo(std::uint32_t seq);

  bool hasGap() const { return !pending_.empty(); }
  std::uint64_t bytesDelivered() const { return delivered_; }

  /// Bytes currently parked in out-of-order segments awaiting a gap fill
  /// (the reassembly buffer a lossy mirror port makes grow — §4.1.4).
  std::uint64_t bufferedBytes() const {
    std::uint64_t n = 0;
    for (const auto& [seq, seg] : pending_) n += seg.size();
    return n;
  }

 private:
  bool initialized_ = false;
  std::uint32_t expected_ = 0;
  std::uint64_t delivered_ = 0;
  // Out-of-order segments keyed by sequence number.
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> pending_;
  // Backs the view returned when a segment releases parked ones.
  std::vector<std::uint8_t> drained_;
};

}  // namespace nfstrace
