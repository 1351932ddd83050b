#include "sniffer/sniffer.hpp"

#include <algorithm>
#include <tuple>

#include "pcap/pcap.hpp"

namespace nfstrace {

Sniffer::Sniffer(Config config, RecordCallback callback)
    : config_(config), callback_(std::move(callback)) {
  // The per-frame path does one lookup in each of these; pre-size them so
  // a gigabit-rate capture never rehashes mid-burst.
  tcpFlows_.reserve(256);
  pending_.reserve(4096);
  ignoredXids_.reserve(1024);
  if (config_.metrics) bindMetrics();
}

obs::ThreadLog* Sniffer::flightLog() {
  if (!config_.flight) return nullptr;
  if (!flog_) {
    flog_ = config_.flight->attachThread(
        "sniffer.s" + std::to_string(config_.metricsShard));
  }
  return flog_;
}

void Sniffer::bindMetrics() {
  obs::Registry& reg = *config_.metrics;
  auto slot = static_cast<std::size_t>(config_.metricsShard);
  framesC_ = reg.counterHandle("sniffer.frames", slot);
  framesDecodedC_ = reg.counterHandle("sniffer.frames_decoded", slot);
  malformedC_ = reg.counterHandle("sniffer.malformed_rpc", slot);
  rpcCallsC_ = reg.counterHandle("sniffer.rpc_calls", slot);
  rpcRepliesC_ = reg.counterHandle("sniffer.rpc_replies", slot);
  nonNfsC_ = reg.counterHandle("sniffer.non_nfs_calls", slot);
  orphansC_ = reg.counterHandle("sniffer.orphan_replies", slot);
  expiredC_ = reg.counterHandle("sniffer.expired_calls", slot);
  evictedC_ = reg.counterHandle("sniffer.evicted_calls", slot);
  evictedFlowsC_ = reg.counterHandle("sniffer.evicted_flows", slot);
  flushedC_ = reg.counterHandle("sniffer.flushed_calls", slot);
  std::string suffix = ".s" + std::to_string(config_.metricsShard);
  pendingG_ = reg.gaugeHandle("sniffer.pending_calls" + suffix);
  tcpBufferedG_ = reg.gaugeHandle("sniffer.tcp_buffered_bytes" + suffix);
  // The paper's live capture-loss estimate (§4.1.4): a reply whose call
  // was never captured means the call frame was dropped, so
  // orphans / (calls + orphans) estimates the fraction of calls lost.
  // Derived from registry-owned counters at scrape time; keep-first on
  // the name, so every shard may register it.
  obs::Counter* calls = &reg.counter("sniffer.rpc_calls");
  obs::Counter* orphans = &reg.counter("sniffer.orphan_replies");
  reg.gaugeFn("sniffer.loss_estimate", [calls, orphans] {
    double o = static_cast<double>(orphans->total());
    double c = static_cast<double>(calls->total());
    return o + c > 0 ? o / (o + c) : 0.0;
  });
  // The complementary reply-loss estimate: captured calls whose reply
  // never arrived, whether they timed out mid-capture or were still
  // outstanding at the final flush (short captures report loss correctly
  // only if the flushed tail is included).
  obs::Counter* expired = &reg.counter("sniffer.expired_calls");
  obs::Counter* flushed = &reg.counter("sniffer.flushed_calls");
  reg.gaugeFn("sniffer.reply_loss_estimate", [calls, expired, flushed] {
    double c = static_cast<double>(calls->total());
    double e = static_cast<double>(expired->total() + flushed->total());
    return c > 0 ? e / c : 0.0;
  });
}

void Sniffer::publishCounters() {
  auto push = [](obs::CounterHandle& h, std::uint64_t cur,
                 std::uint64_t& prev) {
    if (cur != prev) {
      h.inc(cur - prev);
      prev = cur;
    }
  };
  push(framesC_, stats_.framesSeen, published_.framesSeen);
  push(framesDecodedC_, framesParsed_, publishedFramesParsed_);
  push(malformedC_, stats_.framesUndecodable, published_.framesUndecodable);
  push(rpcCallsC_, stats_.rpcCalls, published_.rpcCalls);
  push(rpcRepliesC_, stats_.rpcReplies, published_.rpcReplies);
  push(nonNfsC_, stats_.nonNfsCalls, published_.nonNfsCalls);
  push(orphansC_, stats_.orphanReplies, published_.orphanReplies);
  push(expiredC_, stats_.expiredCalls, published_.expiredCalls);
  push(evictedC_, stats_.evictedCalls, published_.evictedCalls);
  push(evictedFlowsC_, stats_.evictedFlows, published_.evictedFlows);
  push(flushedC_, stats_.flushedCalls, published_.flushedCalls);
}

void Sniffer::updateResourceGauges() {
  publishCounters();
  pendingG_.set(static_cast<double>(pending_.size()));
  if (tcpBufferedG_) {
    // What the flows hold between frames: mostly the record reader's
    // partial records (the reassembler parks nothing past a resync).
    std::uint64_t buffered = 0;
    for (const auto& [key, flow] : tcpFlows_) {
      buffered +=
          flow.reassembler.bufferedBytes() + flow.records.bufferedBytes();
    }
    tcpBufferedG_.set(static_cast<double>(buffered));
  }
}

void Sniffer::onFrame(const CapturedPacket& pkt) {
  ++stats_.framesSeen;
  advanceTime(pkt.ts);
  auto parsed = parseFrame(pkt.data);
  if (!parsed) {
    ++stats_.framesUndecodable;
    return;
  }
  ++framesParsed_;

  bool toServer = parsed->dstPort == config_.nfsPort;
  bool fromServer = parsed->srcPort == config_.nfsPort;

  if (parsed->proto == IpProto::Udp && !parsed->isFragment()) {
    // Whole datagram: hand the in-frame payload span straight to the RPC
    // decoder, skipping the reassembler's per-packet copy.
    if (!toServer && !fromServer) return;
    onRpcBytes(pkt.ts, parsed->src, parsed->dst, false, parsed->payload,
               toServer);
    return;
  }

  if (parsed->isFragment()) {
    // For fragments the ports are only visible in the first fragment; we
    // recover direction after reassembly by decoding the RPC header.
    auto payload = ipReassembler_.feed(*parsed, pkt.ts);
    stats_.fragmentsExpired = ipReassembler_.expired();
    if (!payload) return;
    onRpcBytes(pkt.ts, parsed->src, parsed->dst, false, *payload, true);
    return;
  }

  // TCP path.
  if (!toServer && !fromServer) return;
  FlowKey key{parsed->src, parsed->dst, parsed->srcPort, parsed->dstPort};
  auto fit = tcpFlows_.find(key);
  if (fit == tcpFlows_.end()) {
    if (config_.maxTcpFlows > 0 && tcpFlows_.size() >= config_.maxTcpFlows) {
      evictColdestFlow();
    }
    fit = tcpFlows_.try_emplace(key).first;
    if (tcpFlows_.size() > stats_.tcpFlowsPeak) {
      stats_.tcpFlowsPeak = tcpFlows_.size();
    }
  }
  TcpFlow& flow = fit->second;
  flow.lastTs = pkt.ts;
  auto bytes = flow.reassembler.feed(parsed->tcpSeq, parsed->payload,
                                     parsed->tcpSyn);
  if (bytes.empty()) {
    // A gap can stall the stream forever if the missing segment was
    // dropped by the mirror; resynchronize at the newest segment.  So no
    // segment stays parked, and `bytes` is always a view into this frame.
    if (flow.reassembler.hasGap() && !parsed->payload.empty()) {
      flow.reassembler.resyncTo(parsed->tcpSeq);
      flow.records.reset();
      bytes = flow.reassembler.feed(parsed->tcpSeq, parsed->payload, false);
    }
    if (bytes.empty()) return;
  }
  // A resync that lands mid-record reads payload as a record mark; a
  // length past any decodable record drops the flow's record state here
  // and parsing restarts at the next segment.
  const bool sane = flow.records.feed(
      bytes, [&](std::span<const std::uint8_t> body) {
        onRpcBytes(pkt.ts, parsed->src, parsed->dst, true, body, toServer);
      });
  if (!sane) ++stats_.framesUndecodable;
}

void Sniffer::onRpcBytes(MicroTime ts, IpAddr src, IpAddr dst, bool overTcp,
                         std::span<const std::uint8_t> body, bool toServer) {
  (void)toServer;
  RpcMessageLite msg;
  try {
    msg = decodeRpcMessageLite(body);
  } catch (const XdrError&) {
    ++stats_.framesUndecodable;
    return;
  }

  if (msg.type == RpcMsgType::Call) {
    handleCall(ts, src, dst, overTcp, msg.call, body);
  } else {
    // For replies the client is normally the destination, but reassembled
    // IP fragments lose their transport direction; probe dst then src.
    if (!pending_.count(xidKey(dst, msg.reply.xid)) &&
        pending_.count(xidKey(src, msg.reply.xid))) {
      handleReply(ts, src, msg.reply, body);
    } else {
      handleReply(ts, dst, msg.reply, body);
    }
  }
}

void Sniffer::handleCall(MicroTime ts, IpAddr client, IpAddr server,
                         bool overTcp, const RpcCallLite& call,
                         std::span<const std::uint8_t> body) {
  if (call.prog != kNfsProgram) {
    // MOUNT/portmap traffic shares the wire; remember the xid so its
    // reply is not miscounted as an orphan.  The set is advisory only —
    // at capacity it is dropped wholesale, the cheapest bounded policy;
    // the cost is a handful of non-NFS replies counted as orphans.
    ++stats_.nonNfsCalls;
    if (config_.maxIgnoredXids > 0 &&
        ignoredXids_.size() >= config_.maxIgnoredXids) {
      ignoredXids_.clear();
    }
    ignoredXids_.insert(xidKey(client, call.xid));
    return;
  }
  ++stats_.rpcCalls;

  PendingCall pc;
  pc.ts = ts;
  pc.client = client;
  pc.server = server;
  pc.vers = call.vers;
  pc.proc = call.proc;
  pc.overTcp = overTcp;
  if (call.hasUnixCred) {
    pc.uid = call.uid;
    pc.gid = call.gid;
  }

  XdrDecoder dec(body.subspan(call.argsOffset));
  try {
    if (call.vers == 3) {
      pc.args = decodeCall3(static_cast<Proc3>(call.proc), dec);
    } else if (call.vers == 2) {
      pc.args = decodeCall2(static_cast<Proc2>(call.proc), dec);
    } else {
      return;
    }
  } catch (const XdrError&) {
    ++stats_.framesUndecodable;
    return;
  }

  std::uint64_t key = xidKey(client, call.xid);
  auto [it, isNew] = pending_.try_emplace(key);
  it->second = std::move(pc);
  // Both fresh calls and retransmissions (which refresh the entry's ts)
  // get an expiry-queue pair; the stale older pair is skipped at pop time.
  pendingByTs_.push({it->second.ts, key});
  if (isNew) {
    pendingOrder_.push_back(key);
    if (config_.maxPendingCalls > 0) {
      while (pending_.size() > config_.maxPendingCalls) evictOldestPending();
    }
    compactPendingOrder();
  }
  if (pending_.size() > stats_.pendingPeak) {
    stats_.pendingPeak = pending_.size();
  }
}

void Sniffer::evictOldestPending() {
  while (!pendingOrder_.empty()) {
    std::uint64_t key = pendingOrder_.front();
    pendingOrder_.pop_front();
    auto it = pending_.find(key);
    if (it == pending_.end()) continue;  // stale: replied or expired since
    // Emit the evicted call reply-less, like a timeout: the record is
    // preserved even though the table could not hold it any longer.
    TraceRecord rec =
        recordFromCall(static_cast<std::uint32_t>(key), it->second);
    ++stats_.evictedCalls;
    if (obs::ThreadLog* fl = flightLog()) {
      fl->instant(obs::Stage::CallEvicted, key);
    }
    callback_(rec);
    pending_.erase(it);
    return;
  }
}

void Sniffer::compactPendingOrder() {
  if (pendingOrder_.size() <= 2 * pending_.size() + 64) return;
  std::deque<std::uint64_t> keep;
  for (std::uint64_t key : pendingOrder_) {
    if (pending_.count(key)) keep.push_back(key);
  }
  pendingOrder_.swap(keep);
}

void Sniffer::evictColdestFlow() {
  if (tcpFlows_.empty()) return;
  auto flowKeyLess = [](const FlowKey& a, const FlowKey& b) {
    return std::tie(a.src, a.dst, a.srcPort, a.dstPort) <
           std::tie(b.src, b.dst, b.srcPort, b.dstPort);
  };
  auto coldest = tcpFlows_.begin();
  for (auto it = std::next(tcpFlows_.begin()); it != tcpFlows_.end(); ++it) {
    // Tie-break on the flow key so the victim does not depend on hash
    // iteration order (serial and sharded runs must agree).
    if (it->second.lastTs < coldest->second.lastTs ||
        (it->second.lastTs == coldest->second.lastTs &&
         flowKeyLess(it->first, coldest->first))) {
      coldest = it;
    }
  }
  tcpFlows_.erase(coldest);
  ++stats_.evictedFlows;
  if (obs::ThreadLog* fl = flightLog()) {
    fl->instant(obs::Stage::FlowEvicted, 0,
                static_cast<std::uint32_t>(tcpFlows_.size()));
  }
}

void Sniffer::handleReply(MicroTime ts, IpAddr client, const RpcReply& reply,
                          std::span<const std::uint8_t> body) {
  ++stats_.rpcReplies;
  auto it = pending_.find(xidKey(client, reply.xid));
  if (it == pending_.end()) {
    if (ignoredXids_.erase(xidKey(client, reply.xid))) return;  // non-NFS
    // The reply's call was never seen — this is exactly how capture loss
    // manifests, and what the paper counted to estimate it.
    ++stats_.orphanReplies;
    return;
  }
  const PendingCall& pc = it->second;

  TraceRecord rec = recordFromCall(reply.xid, pc);
  rec.hasReply = true;
  rec.replyTs = ts;

  if (reply.acceptStat == RpcAcceptStat::Success) {
    XdrDecoder dec(body.subspan(reply.resultsOffset));
    try {
      NfsReplyRes res;
      if (pc.vers == 3) {
        res = decodeReply3(static_cast<Proc3>(pc.proc), dec);
      } else {
        res = decodeReply2(static_cast<Proc2>(pc.proc), dec);
      }
      fillReply(rec, pc, res);
    } catch (const XdrError&) {
      rec.status = NfsStat::ErrServerFault;
    }
  } else {
    rec.status = NfsStat::ErrServerFault;
  }

  pending_.erase(it);
  callback_(rec);
}

void Sniffer::advanceTime(MicroTime now) {
  // The pending map is unordered, so a scan touches every entry; fire it
  // only when the capture clock crosses a scan-interval boundary.  This
  // both removes the per-frame O(pending) walk from the hot path and
  // pins the scan points to absolute capture time, which the sharded
  // pipeline relies on for deterministic output (see pipeline.hpp).
  MicroTime boundary = now / config_.expiryScanInterval;
  if (boundary <= lastScanBoundary_) return;
  lastScanBoundary_ = boundary;
  expirePending(now);
  // Resource gauges (pending table, TCP reassembly buffers) are sampled
  // at scan boundaries: off the per-frame path, frequent enough to watch.
  if (config_.metrics) updateResourceGauges();
}

void Sniffer::expirePending(MicroTime now) {
  // Collect first, then emit ordered by (client, xid): emission order must
  // not depend on hash-table iteration order, or serial and sharded runs
  // of the same capture would produce differently-ordered traces.  The
  // queue pops exactly the (key, ts) pairs past the timeout horizon; a
  // pair whose ts no longer matches the live entry is stale (answered,
  // evicted, or retransmitted since) and contributes nothing.
  std::vector<std::uint64_t> expired;
  while (!pendingByTs_.empty() &&
         now - pendingByTs_.top().first > config_.pendingTimeout) {
    auto [ts, key] = pendingByTs_.top();
    pendingByTs_.pop();
    auto it = pending_.find(key);
    if (it != pending_.end() && it->second.ts == ts) expired.push_back(key);
  }
  if (expired.empty()) return;
  // Non-empty scans only: a span per quiet boundary would be pure noise.
  obs::FlightSpan scanSpan(flightLog(), obs::Stage::ExpiryScan,
                           static_cast<std::uint32_t>(expired.size()));
  std::sort(expired.begin(), expired.end());
  // A retransmission in the same microsecond can leave two identical
  // pairs; emit each expired call once.
  expired.erase(std::unique(expired.begin(), expired.end()), expired.end());
  for (std::uint64_t key : expired) {
    auto it = pending_.find(key);
    TraceRecord rec =
        recordFromCall(static_cast<std::uint32_t>(key), it->second);
    ++stats_.expiredCalls;
    callback_(rec);
    pending_.erase(it);
  }
}

void Sniffer::flush() {
  // Same deterministic (client, xid) order the old std::map gave us.
  std::vector<std::uint64_t> keys;
  keys.reserve(pending_.size());
  for (const auto& [key, pc] : pending_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (std::uint64_t key : keys) {
    TraceRecord rec =
        recordFromCall(static_cast<std::uint32_t>(key), pending_[key]);
    // Counted separately from timeouts: on a short capture the drained
    // tail dominates, and folding it into expiredCalls would make the
    // reply-loss figure depend on when the capture happened to stop.
    ++stats_.flushedCalls;
    callback_(rec);
  }
  pending_.clear();
  pendingOrder_.clear();
  pendingByTs_.clear();
  if (config_.metrics) updateResourceGauges();
}

TraceRecord Sniffer::recordFromCall(std::uint32_t xid,
                                    const PendingCall& pc) const {
  TraceRecord rec;
  rec.ts = pc.ts;
  rec.client = pc.client;
  rec.server = pc.server;
  rec.xid = xid;
  rec.vers = static_cast<std::uint8_t>(pc.vers);
  rec.overTcp = pc.overTcp;
  rec.op = pc.vers == 3 ? opFromProc3(static_cast<Proc3>(pc.proc))
                        : opFromProc2(static_cast<Proc2>(pc.proc));
  rec.uid = pc.uid;
  rec.gid = pc.gid;

  std::visit(
      [&](const auto& a) {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, GetattrArgs> ||
                      std::is_same_v<T, ReadlinkArgs> ||
                      std::is_same_v<T, FsstatArgs> ||
                      std::is_same_v<T, FsinfoArgs> ||
                      std::is_same_v<T, PathconfArgs>) {
          rec.fh = a.fh;
        } else if constexpr (std::is_same_v<T, SetattrArgs> ||
                             std::is_same_v<T, AccessArgs>) {
          rec.fh = a.fh;
        } else if constexpr (std::is_same_v<T, LookupArgs> ||
                             std::is_same_v<T, RemoveArgs> ||
                             std::is_same_v<T, RmdirArgs>) {
          rec.fh = a.dir;
          rec.name = a.name;
        } else if constexpr (std::is_same_v<T, CreateArgs> ||
                             std::is_same_v<T, MkdirArgs> ||
                             std::is_same_v<T, MknodArgs>) {
          rec.fh = a.dir;
          rec.name = a.name;
        } else if constexpr (std::is_same_v<T, SymlinkArgs>) {
          rec.fh = a.dir;
          rec.name = a.name;
          rec.name2 = a.target;
        } else if constexpr (std::is_same_v<T, ReadArgs>) {
          rec.fh = a.fh;
          rec.offset = a.offset;
          rec.count = a.count;
        } else if constexpr (std::is_same_v<T, WriteArgs>) {
          rec.fh = a.fh;
          rec.offset = a.offset;
          rec.count = a.count;
        } else if constexpr (std::is_same_v<T, CommitArgs>) {
          rec.fh = a.fh;
          rec.offset = a.offset;
          rec.count = a.count;
        } else if constexpr (std::is_same_v<T, RenameArgs>) {
          rec.fh = a.fromDir;
          rec.name = a.fromName;
          rec.fh2 = a.toDir;
          rec.name2 = a.toName;
        } else if constexpr (std::is_same_v<T, LinkArgs>) {
          rec.fh = a.fh;
          rec.fh2 = a.dir;
          rec.name = a.name;
        } else if constexpr (std::is_same_v<T, ReaddirArgs> ||
                             std::is_same_v<T, ReaddirplusArgs>) {
          rec.fh = a.dir;
        }
      },
      pc.args);
  return rec;
}

void Sniffer::fillReply(TraceRecord& rec, const PendingCall& pc,
                        const NfsReplyRes& res) const {
  (void)pc;
  rec.status = statusOf(res);

  auto takeAttrs = [&](const Fattr& a) {
    rec.hasAttrs = true;
    rec.ftype = a.type;
    rec.fileSize = a.size;
    rec.fileMtime = a.mtime.toMicro();
    rec.fileId = a.fileid;
  };

  std::visit(
      [&](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, GetattrRes>) {
          if (r.status == NfsStat::Ok) takeAttrs(r.attrs);
        } else if constexpr (std::is_same_v<T, SetattrRes>) {
          if (r.wcc.hasPost) takeAttrs(r.wcc.post);
          if (r.wcc.hasPre) {
            rec.hasPre = true;
            rec.preSize = r.wcc.pre.size;
            rec.preMtime = r.wcc.pre.mtime.toMicro();
          }
        } else if constexpr (std::is_same_v<T, LookupRes>) {
          if (r.status == NfsStat::Ok) {
            rec.resFh = r.fh;
            rec.hasResFh = true;
            if (r.hasObjAttrs) takeAttrs(r.objAttrs);
          }
        } else if constexpr (std::is_same_v<T, AccessRes> ||
                             std::is_same_v<T, ReadlinkRes>) {
          if (r.hasAttrs) takeAttrs(r.attrs);
        } else if constexpr (std::is_same_v<T, ReadRes>) {
          if (r.hasAttrs) takeAttrs(r.attrs);
          rec.retCount = r.count;
          rec.eof = r.eof;
          // v2 replies carry no EOF flag; infer it from the returned
          // attributes, which v2 always includes on success.
          if (rec.vers == 2 && r.hasAttrs) {
            rec.eof = rec.offset + r.count >= r.attrs.size;
          }
        } else if constexpr (std::is_same_v<T, WriteRes>) {
          if (r.wcc.hasPost) takeAttrs(r.wcc.post);
          if (r.wcc.hasPre) {
            rec.hasPre = true;
            rec.preSize = r.wcc.pre.size;
            rec.preMtime = r.wcc.pre.mtime.toMicro();
          }
          rec.retCount = r.count ? r.count : rec.count;
        } else if constexpr (std::is_same_v<T, CreateRes>) {
          if (r.hasFh) {
            rec.resFh = r.fh;
            rec.hasResFh = true;
          }
          if (r.hasAttrs) takeAttrs(r.attrs);
        } else if constexpr (std::is_same_v<T, LinkRes>) {
          if (r.hasAttrs) takeAttrs(r.attrs);
        } else if constexpr (std::is_same_v<T, ReaddirRes>) {
          if (r.hasDirAttrs) takeAttrs(r.dirAttrs);
        } else if constexpr (std::is_same_v<T, FsstatRes> ||
                             std::is_same_v<T, FsinfoRes> ||
                             std::is_same_v<T, PathconfRes>) {
          if (r.hasAttrs) takeAttrs(r.attrs);
        } else if constexpr (std::is_same_v<T, CommitRes>) {
          if (r.wcc.hasPost) takeAttrs(r.wcc.post);
        }
      },
      res);
}

std::vector<TraceRecord> sniffPcap(const std::string& pcapPath,
                                   Sniffer::Stats* statsOut) {
  std::vector<TraceRecord> out;
  Sniffer sniffer({}, [&](const TraceRecord& rec) { out.push_back(rec); });
  PcapReader reader(pcapPath);
  while (auto pkt = reader.next()) sniffer.onFrame(*pkt);
  sniffer.flush();
  if (statsOut) *statsOut = sniffer.stats();
  return out;
}

}  // namespace nfstrace
