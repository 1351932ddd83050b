#include "netcap/netcap.hpp"

namespace nfstrace {

void MirrorPort::onFrame(const CapturedPacket& pkt) {
  // Backlog currently in the port's buffer, expressed in bytes that will
  // still be transmitting at pkt.ts.
  double txSecondsPerByte = 8.0 / config_.bandwidthBitsPerSec;
  if (pkt.ts >= busyUntil_) {
    queuedBytes_ = 0;
  } else {
    double backlogSeconds = toSeconds(busyUntil_ - pkt.ts);
    queuedBytes_ = static_cast<std::size_t>(backlogSeconds / txSecondsPerByte);
  }

  if (queuedBytes_ + pkt.data.size() > config_.bufferBytes) {
    ++dropped_;
    droppedC_.inc();
    dropRateG_.set(dropRate());
    return;
  }

  auto txUs = static_cast<MicroTime>(
      static_cast<double>(pkt.data.size()) * txSecondsPerByte *
      static_cast<double>(kMicrosPerSecond));
  MicroTime start = std::max(busyUntil_, pkt.ts);
  busyUntil_ = start + std::max<MicroTime>(txUs, 1);

  CapturedPacket forwardedPkt = pkt;
  forwardedPkt.ts = busyUntil_;  // timestamped when it leaves the mirror
  downstream_.onFrame(forwardedPkt);
  ++forwarded_;
  forwardedC_.inc();
}

NfsTransport::NfsTransport(Config config, NfsServer& server, FrameSink* tap,
                           std::uint64_t seed, MountServer* mountd,
                           Portmapper* portmap)
    : config_(config), server_(server), mountd_(mountd), portmap_(portmap),
      tap_(tap), rng_(seed) {
  nextXid_ = static_cast<std::uint32_t>(rng_.next());
}

std::uint32_t NfsTransport::getport(MicroTime& sendTs, std::uint32_t prog,
                                    std::uint32_t vers, std::uint32_t proto) {
  if (!portmap_) return 0;
  std::uint32_t xid = nextXid_++;

  // Portmap runs on its own well-known port; the tap sees the frames but
  // the NFS sniffer rightly ignores them.
  auto emitPortmapFrame = [&](MicroTime ts,
                              std::span<const std::uint8_t> body,
                              bool fromClient) {
    if (!tap_) return;
    IpAddr src = fromClient ? config_.clientIp : config_.serverIp;
    IpAddr dst = fromClient ? config_.serverIp : config_.clientIp;
    std::uint16_t sport = fromClient ? config_.clientPort : kPortmapPort;
    std::uint16_t dport = fromClient ? kPortmapPort : config_.clientPort;
    auto frame = buildUdpFrame(src, sport, dst, dport, body);
    CapturedPacket pkt;
    pkt.ts = ts;
    pkt.origLen = static_cast<std::uint32_t>(frame.size());
    pkt.data = std::move(frame);
    tap_->onFrame(pkt);
  };

  XdrEncoder callEnc;
  encodeRpcCall(callEnc, xid, kPortmapProgram, kPortmapVersion,
                static_cast<std::uint32_t>(PortmapProc::Getport),
                std::nullopt);
  callEnc.putUint32(prog);
  callEnc.putUint32(vers);
  callEnc.putUint32(proto);
  callEnc.putUint32(0);
  emitPortmapFrame(sendTs, callEnc.bytes(), true);

  MicroTime serverNow = sendTs + config_.oneWayDelay +
                        config_.serverCpuPerCall;
  XdrEncoder replyEnc;
  encodeRpcReplySuccess(replyEnc, xid);
  XdrEncoder body;
  {
    XdrEncoder argsEnc;
    argsEnc.putUint32(prog);
    argsEnc.putUint32(vers);
    argsEnc.putUint32(proto);
    argsEnc.putUint32(0);
    XdrDecoder dec(argsEnc.bytes());
    portmap_->handle(PortmapProc::Getport, dec, body);
  }
  replyEnc.putRaw(body.bytes());
  emitPortmapFrame(serverNow, replyEnc.bytes(), false);
  sendTs = serverNow + config_.oneWayDelay;

  XdrDecoder res(body.bytes());
  return res.getUint32();
}

std::optional<FileHandle> NfsTransport::mount(MicroTime& sendTs,
                                              const std::string& path,
                                              std::uint32_t uid,
                                              std::uint32_t gid) {
  if (!mountd_) return std::nullopt;
  std::uint32_t xid = nextXid_++;
  AuthUnix cred;
  cred.machineName = config_.machineName;
  cred.uid = uid;
  cred.gid = gid;

  XdrEncoder callEnc;
  encodeRpcCall(callEnc, xid, kMountProgram, kMountVersion,
                static_cast<std::uint32_t>(MountProc::Mnt), cred);
  callEnc.putString(path);
  emitFrames(sendTs, callEnc.bytes(), true);

  MicroTime serverNow = sendTs + config_.oneWayDelay +
                        config_.serverCpuPerCall;
  XdrEncoder replyEnc;
  encodeRpcReplySuccess(replyEnc, xid);
  XdrEncoder body;
  {
    XdrEncoder pathEnc;
    pathEnc.putString(path);
    XdrDecoder dec(pathEnc.bytes());
    mountd_->handle(MountProc::Mnt, dec, body);
  }
  replyEnc.putRaw(body.bytes());
  emitFrames(serverNow, replyEnc.bytes(), false);
  sendTs = serverNow + config_.oneWayDelay;

  XdrDecoder res(body.bytes());
  auto status = static_cast<MountStat>(res.getUint32());
  if (status != MountStat::Ok) return std::nullopt;
  auto fhBytes = res.getOpaque(kFhSize3);
  return FileHandle::fromBytes(fhBytes);
}

void NfsTransport::emitFrames(MicroTime ts,
                              std::span<const std::uint8_t> rpcBody,
                              bool fromClient) {
  if (!tap_) return;
  IpAddr src = fromClient ? config_.clientIp : config_.serverIp;
  IpAddr dst = fromClient ? config_.serverIp : config_.clientIp;
  std::uint16_t srcPort = fromClient ? config_.clientPort : std::uint16_t{2049};
  std::uint16_t dstPort = fromClient ? std::uint16_t{2049} : config_.clientPort;

  std::vector<std::vector<std::uint8_t>> frames;
  if (config_.useTcp) {
    auto marked = recordMark(rpcBody);
    std::uint32_t& seq = fromClient ? tcpSeqClient_ : tcpSeqServer_;
    frames = segmentTcpStream(src, srcPort, dst, dstPort, seq, marked,
                              config_.mtu - 40);
  } else {
    frames = buildUdpFrames(src, srcPort, dst, dstPort, ipId_++, rpcBody,
                            config_.mtu);
  }

  MicroTime t = ts;
  for (auto& f : frames) {
    CapturedPacket pkt;
    pkt.ts = t;
    pkt.origLen = static_cast<std::uint32_t>(f.size());
    pkt.data = std::move(f);
    tap_->onFrame(pkt);
    t += 1 + static_cast<MicroTime>(pkt.origLen / 125);  // ~1Gb/s pacing
  }
}

NfsTransport::Outcome NfsTransport::call(MicroTime sendTs,
                                         const NfsCallArgs& args,
                                         std::uint32_t uid,
                                         std::uint32_t gid) {
  Outcome out;
  out.xid = nextXid_++;
  out.sentTs = sendTs;
  ++callsSent_;

  AuthUnix cred;
  cred.stamp = static_cast<std::uint32_t>(sendTs / kMicrosPerSecond);
  cred.machineName = config_.machineName;
  cred.uid = uid;
  cred.gid = gid;
  cred.gids = {gid};

  // Encode and emit the call.
  XdrEncoder callEnc;
  NfsOp op = opOf(args);
  if (config_.nfsVers == 3) {
    Proc3 proc;
    if (!procForOp3(op, proc)) throw XdrError("op not encodable as v3");
    encodeRpcCall(callEnc, out.xid, kNfsProgram, 3,
                  static_cast<std::uint32_t>(proc), cred);
    encodeCall3(callEnc, args);
  } else {
    Proc2 proc;
    if (!procForOp2(op, proc)) throw XdrError("op not encodable as v2");
    encodeRpcCall(callEnc, out.xid, kNfsProgram, 2,
                  static_cast<std::uint32_t>(proc), cred);
    encodeCall2(callEnc, args);
  }
  emitFrames(sendTs, callEnc.bytes(), true);

  // Server executes after the one-way delay plus some think time.
  MicroTime arrive = sendTs + config_.oneWayDelay;
  MicroTime cpu = config_.serverCpuPerCall +
                  static_cast<MicroTime>(rng_.exponential(
                      static_cast<double>(config_.serverCpuPerCall)));
  MicroTime serverNow = arrive + cpu;
  out.reply = server_.handle(args, uid, gid, serverNow);

  // Encode and emit the reply.
  XdrEncoder replyEnc;
  encodeRpcReplySuccess(replyEnc, out.xid);
  if (config_.nfsVers == 3) {
    Proc3 proc;
    procForOp3(op, proc);
    encodeReply3(replyEnc, proc, out.reply);
  } else {
    Proc2 proc;
    procForOp2(op, proc);
    encodeReply2(replyEnc, proc, out.reply);
  }
  emitFrames(serverNow, replyEnc.bytes(), false);

  out.replyTs = serverNow + config_.oneWayDelay;
  return out;
}

}  // namespace nfstrace
