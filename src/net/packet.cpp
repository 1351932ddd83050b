#include "net/packet.hpp"

#include <algorithm>
#include <cstdio>

namespace nfstrace {
namespace {

void put16be(std::vector<std::uint8_t>& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v >> 8));
  b.push_back(static_cast<std::uint8_t>(v));
}

void put32be(std::vector<std::uint8_t>& b, std::uint32_t v) {
  b.push_back(static_cast<std::uint8_t>(v >> 24));
  b.push_back(static_cast<std::uint8_t>(v >> 16));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
  b.push_back(static_cast<std::uint8_t>(v));
}

std::uint16_t get16be(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t get32be(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

void appendEthHeader(std::vector<std::uint8_t>& f, IpAddr src, IpAddr dst) {
  // Locally-administered MACs derived from the IPs; enough for a tap to
  // distinguish hosts.
  f.push_back(0x02);
  f.push_back(0x00);
  put32be(f, dst);
  f.push_back(0x02);
  f.push_back(0x00);
  put32be(f, src);
  put16be(f, kEtherTypeIpv4);
}

void appendIpv4Header(std::vector<std::uint8_t>& f, IpAddr src, IpAddr dst,
                      IpProto proto, std::size_t payloadLen,
                      std::uint16_t ipId = 0, bool moreFrags = false,
                      std::uint16_t fragOffsetBytes = 0) {
  std::size_t start = f.size();
  f.push_back(0x45);  // version 4, IHL 5
  f.push_back(0);     // DSCP/ECN
  put16be(f, static_cast<std::uint16_t>(20 + payloadLen));
  put16be(f, ipId);
  std::uint16_t flagsFrag =
      static_cast<std::uint16_t>((moreFrags ? 0x2000 : 0) |
                                 ((fragOffsetBytes / 8) & 0x1fff));
  if (!moreFrags && fragOffsetBytes == 0) flagsFrag |= 0x4000;  // DF
  put16be(f, flagsFrag);
  f.push_back(64);    // TTL
  f.push_back(static_cast<std::uint8_t>(proto));
  put16be(f, 0);      // checksum placeholder
  put32be(f, src);
  put32be(f, dst);
  std::uint16_t csum = internetChecksum({f.data() + start, 20});
  f[start + 10] = static_cast<std::uint8_t>(csum >> 8);
  f[start + 11] = static_cast<std::uint8_t>(csum);
}

}  // namespace

std::string ipToString(IpAddr ip) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (ip >> 24) & 0xff,
                (ip >> 16) & 0xff, (ip >> 8) & 0xff, ip & 0xff);
  return buf;
}

std::uint16_t internetChecksum(std::span<const std::uint8_t> data) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>(get16be(data.data() + i));
  }
  if (i < data.size()) sum += static_cast<std::uint32_t>(data[i]) << 8;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

std::vector<std::uint8_t> buildUdpFrame(IpAddr src, std::uint16_t srcPort,
                                        IpAddr dst, std::uint16_t dstPort,
                                        std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> f;
  f.reserve(kEthHeaderLen + 20 + 8 + payload.size());
  appendEthHeader(f, src, dst);
  appendIpv4Header(f, src, dst, IpProto::Udp, 8 + payload.size());
  put16be(f, srcPort);
  put16be(f, dstPort);
  put16be(f, static_cast<std::uint16_t>(8 + payload.size()));
  put16be(f, 0);  // UDP checksum optional over IPv4
  f.insert(f.end(), payload.begin(), payload.end());
  return f;
}

std::vector<std::uint8_t> buildTcpFrame(IpAddr src, std::uint16_t srcPort,
                                        IpAddr dst, std::uint16_t dstPort,
                                        std::uint32_t seq, std::uint32_t ack,
                                        bool syn, bool fin, bool ackFlag,
                                        std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> f;
  f.reserve(kEthHeaderLen + 20 + 20 + payload.size());
  appendEthHeader(f, src, dst);
  appendIpv4Header(f, src, dst, IpProto::Tcp, 20 + payload.size());
  put16be(f, srcPort);
  put16be(f, dstPort);
  put32be(f, seq);
  put32be(f, ack);
  std::uint8_t flags = 0;
  if (fin) flags |= 0x01;
  if (syn) flags |= 0x02;
  if (ackFlag) flags |= 0x10;
  f.push_back(0x50);  // data offset 5 words
  f.push_back(flags);
  put16be(f, 65535);  // window
  put16be(f, 0);      // checksum (not verified by the sniffer)
  put16be(f, 0);      // urgent pointer
  f.insert(f.end(), payload.begin(), payload.end());
  return f;
}

std::vector<std::vector<std::uint8_t>> buildUdpFrames(
    IpAddr src, std::uint16_t srcPort, IpAddr dst, std::uint16_t dstPort,
    std::uint16_t ipId, std::span<const std::uint8_t> payload,
    std::size_t mtu) {
  // Assemble the full UDP datagram (header + payload), then slice it into
  // IP fragments of at most mtu-20 bytes (multiples of 8 except the last).
  std::vector<std::uint8_t> datagram;
  put16be(datagram, srcPort);
  put16be(datagram, dstPort);
  put16be(datagram, static_cast<std::uint16_t>(8 + payload.size()));
  put16be(datagram, 0);
  datagram.insert(datagram.end(), payload.begin(), payload.end());

  std::size_t maxIpPayload = mtu - 20;
  std::vector<std::vector<std::uint8_t>> frames;
  if (datagram.size() <= maxIpPayload) {
    std::vector<std::uint8_t> f;
    appendEthHeader(f, src, dst);
    appendIpv4Header(f, src, dst, IpProto::Udp, datagram.size(), ipId);
    f.insert(f.end(), datagram.begin(), datagram.end());
    frames.push_back(std::move(f));
    return frames;
  }

  std::size_t chunk = maxIpPayload & ~std::size_t{7};  // 8-byte aligned
  std::size_t off = 0;
  while (off < datagram.size()) {
    std::size_t n = std::min(chunk, datagram.size() - off);
    bool more = off + n < datagram.size();
    std::vector<std::uint8_t> f;
    appendEthHeader(f, src, dst);
    appendIpv4Header(f, src, dst, IpProto::Udp, n, ipId, more,
                     static_cast<std::uint16_t>(off));
    f.insert(f.end(), datagram.begin() + static_cast<std::ptrdiff_t>(off),
             datagram.begin() + static_cast<std::ptrdiff_t>(off + n));
    frames.push_back(std::move(f));
    off += n;
  }
  return frames;
}

void IpReassembler::recycle(Pending&& p) {
  // Keep a handful of warmed buffers; under tap loss several datagrams
  // reassemble concurrently and each holds one.
  if (sparePool_.size() < 16 && p.data.capacity() != 0) {
    p.data.clear();
    sparePool_.push_back(std::move(p.data));
  }
  if (spareExtents_.size() < 16 && p.extents.capacity() != 0) {
    p.extents.clear();
    spareExtents_.push_back(std::move(p.extents));
  }
}

IpReassembler::Pending IpReassembler::makePending(std::int64_t now) {
  Pending p;
  p.firstSeen = now;
  if (!sparePool_.empty()) {
    p.data = std::move(sparePool_.back());
    sparePool_.pop_back();
  }
  if (!spareExtents_.empty()) {
    p.extents = std::move(spareExtents_.back());
    spareExtents_.pop_back();
  }
  return p;
}

void IpReassembler::sweep(std::int64_t now) {
  lastSweepUs_ = now;
  // erase() invalidates iterators, so collect stale keys first.
  std::vector<Key> stale;
  for (auto& [k, p] : pending_) {
    if (now - p.firstSeen > timeoutUs_) stale.push_back(k);
  }
  for (const Key& k : stale) {
    auto it = pending_.find(k);
    recycle(std::move(it->second));
    pending_.erase(it);
    ++expired_;
  }
}

std::optional<std::span<const std::uint8_t>> IpReassembler::feed(
    const ParsedFrame& frame, std::int64_t now) {
  if (!frame.isFragment()) {
    return frame.payload;
  }
  // The buffer handed out last time is consumable again; recycle it.
  if (completed_.capacity() != 0 && sparePool_.size() < 16) {
    completed_.clear();
    sparePool_.push_back(std::move(completed_));
  }

  // Reclaim state for keys that never recur.  A per-feed scan would be
  // O(pending) on every fragment — the dominant cost under loss — so stale
  // entries are instead caught here periodically and at same-key lookup.
  if (now - lastSweepUs_ >= sweepIntervalUs_) sweep(now);

  Key key{frame.src, frame.dst, frame.ipId};
  auto [it, inserted] = pending_.try_emplace(key);
  Pending* entry = &it->second;
  if (inserted) {
    *entry = makePending(now);
  } else if (now - entry->firstSeen > timeoutUs_) {
    // Same key, but the old datagram timed out: exactly what the per-feed
    // expiry scan would have removed before this fragment arrived.
    Pending fresh = makePending(now);
    recycle(std::move(*entry));
    *entry = std::move(fresh);
    ++expired_;
  }

  std::uint32_t off = frame.fragOffsetBytes;
  std::uint32_t end = off + static_cast<std::uint32_t>(frame.payload.size());
  if (off == entry->data.size()) {
    // In-order arrival (the overwhelmingly common case): append without
    // the zero-fill a resize-past-end would do.
    entry->data.insert(entry->data.end(), frame.payload.begin(),
                       frame.payload.end());
  } else {
    if (end > entry->data.size()) {
      if (end > entry->data.capacity()) {
        entry->data.reserve(std::max<std::size_t>(2 * end, 4096));
      }
      entry->data.resize(end);
    }
    std::copy(frame.payload.begin(), frame.payload.end(),
              entry->data.begin() + off);
  }
  entry->extents.emplace_back(off, end);
  if (!frame.moreFragments) {
    entry->haveLast = true;
    entry->totalLen = end;
  }
  if (!entry->haveLast) return std::nullopt;

  // Check for completeness by merging the covered extents.
  std::sort(entry->extents.begin(), entry->extents.end());
  std::uint32_t pos = 0;
  for (const auto& [b, e] : entry->extents) {
    if (b > pos) return std::nullopt;  // hole
    pos = std::max(pos, e);
  }
  if (pos < entry->totalLen) return std::nullopt;

  // Strip the UDP header so the result matches parseFrame's payload for
  // unfragmented datagrams.  The data stays in place; the returned view
  // just skips the header, so completion does no copy or memmove.
  if (entry->totalLen < 8) return std::nullopt;
  completed_ = std::move(entry->data);
  std::size_t payloadLen = entry->totalLen - 8;

  recycle(std::move(*entry));
  pending_.erase(it);
  return std::span<const std::uint8_t>{completed_.data() + 8, payloadLen};
}

std::vector<std::vector<std::uint8_t>> segmentTcpStream(
    IpAddr src, std::uint16_t srcPort, IpAddr dst, std::uint16_t dstPort,
    std::uint32_t& seq, std::span<const std::uint8_t> stream,
    std::size_t mss) {
  std::vector<std::vector<std::uint8_t>> frames;
  std::size_t off = 0;
  while (off < stream.size()) {
    std::size_t n = std::min(mss, stream.size() - off);
    frames.push_back(buildTcpFrame(src, srcPort, dst, dstPort, seq, 0, false,
                                   false, true, stream.subspan(off, n)));
    seq += static_cast<std::uint32_t>(n);
    off += n;
  }
  return frames;
}

std::optional<ParsedFrame> parseFrame(std::span<const std::uint8_t> frame) {
  if (frame.size() < kEthHeaderLen + 20) return std::nullopt;
  if (get16be(frame.data() + 12) != kEtherTypeIpv4) return std::nullopt;

  auto ip = frame.subspan(kEthHeaderLen);
  if ((ip[0] >> 4) != 4) return std::nullopt;
  std::size_t ihl = static_cast<std::size_t>(ip[0] & 0x0f) * 4;
  if (ihl < 20 || ip.size() < ihl) return std::nullopt;
  std::size_t totalLen = get16be(ip.data() + 2);
  if (totalLen < ihl || totalLen > ip.size()) return std::nullopt;

  ParsedFrame out;
  out.src = get32be(ip.data() + 12);
  out.dst = get32be(ip.data() + 16);
  out.ipId = get16be(ip.data() + 4);
  std::uint16_t flagsFrag = get16be(ip.data() + 6);
  out.moreFragments = (flagsFrag & 0x2000) != 0;
  out.fragOffsetBytes = static_cast<std::uint16_t>((flagsFrag & 0x1fff) * 8);
  std::uint8_t proto = ip[9];
  auto transport = ip.subspan(ihl, totalLen - ihl);

  if (out.fragOffsetBytes != 0) {
    // Non-first fragment: raw IP payload continuation, no transport header.
    out.proto = static_cast<IpProto>(proto);
    out.payload = transport;
    return out;
  }
  if (out.moreFragments) {
    // First fragment: report the transport header fields but hand the
    // whole IP payload (header included) to the reassembler.
    if (proto == static_cast<std::uint8_t>(IpProto::Udp) &&
        transport.size() >= 8) {
      out.proto = IpProto::Udp;
      out.srcPort = get16be(transport.data());
      out.dstPort = get16be(transport.data() + 2);
    }
    out.payload = transport;
    return out;
  }

  if (proto == static_cast<std::uint8_t>(IpProto::Udp)) {
    if (transport.size() < 8) return std::nullopt;
    out.proto = IpProto::Udp;
    out.srcPort = get16be(transport.data());
    out.dstPort = get16be(transport.data() + 2);
    std::size_t udpLen = get16be(transport.data() + 4);
    if (udpLen < 8 || udpLen > transport.size()) return std::nullopt;
    out.payload = transport.subspan(8, udpLen - 8);
    return out;
  }
  if (proto == static_cast<std::uint8_t>(IpProto::Tcp)) {
    if (transport.size() < 20) return std::nullopt;
    out.proto = IpProto::Tcp;
    out.srcPort = get16be(transport.data());
    out.dstPort = get16be(transport.data() + 2);
    out.tcpSeq = get32be(transport.data() + 4);
    out.tcpAck = get32be(transport.data() + 8);
    std::size_t dataOff = static_cast<std::size_t>(transport[12] >> 4) * 4;
    if (dataOff < 20 || dataOff > transport.size()) return std::nullopt;
    std::uint8_t flags = transport[13];
    out.tcpFin = flags & 0x01;
    out.tcpSyn = flags & 0x02;
    out.tcpAckFlag = flags & 0x10;
    out.payload = transport.subspan(dataOff);
    return out;
  }
  return std::nullopt;
}

std::span<const std::uint8_t> TcpReassembler::feed(
    std::uint32_t seq, std::span<const std::uint8_t> payload, bool syn) {
  if (syn) {
    initialized_ = true;
    expected_ = seq + 1;  // SYN consumes one sequence number
    pending_.clear();
    return {};
  }
  if (!initialized_) {
    // Mid-stream capture: adopt the first seen segment's position.
    initialized_ = true;
    expected_ = seq;
  }
  if (payload.empty()) return {};

  // Discard stale retransmissions; trim partially-old segments.
  std::int32_t delta = static_cast<std::int32_t>(seq - expected_);
  if (delta < 0) {
    std::size_t overlap = static_cast<std::size_t>(-delta);
    if (overlap >= payload.size()) return {};
    payload = payload.subspan(overlap);
    seq = expected_;
    delta = 0;
  }
  if (delta > 0) {
    pending_.emplace_back(seq, std::vector<std::uint8_t>(payload.begin(),
                                                         payload.end()));
    return {};
  }

  expected_ += static_cast<std::uint32_t>(payload.size());
  delivered_ += payload.size();
  if (pending_.empty()) return payload;

  // Drain any buffered segments that are now contiguous.
  drained_.assign(payload.begin(), payload.end());
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      std::int32_t d = static_cast<std::int32_t>(pending_[i].first - expected_);
      if (d <= 0) {
        auto& seg = pending_[i].second;
        std::size_t skip = static_cast<std::size_t>(-d);
        if (skip < seg.size()) {
          drained_.insert(drained_.end(),
                          seg.begin() + static_cast<std::ptrdiff_t>(skip),
                          seg.end());
          expected_ += static_cast<std::uint32_t>(seg.size() - skip);
          delivered_ += seg.size() - skip;
        }
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        progressed = true;
        break;
      }
    }
  }
  return drained_;
}

bool TcpReassembler::resyncTo(std::uint32_t seq) {
  if (!initialized_ || seq == expected_) return false;
  expected_ = seq;
  pending_.clear();
  return true;
}

}  // namespace nfstrace
