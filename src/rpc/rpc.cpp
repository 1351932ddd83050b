#include "rpc/rpc.hpp"

namespace nfstrace {

void AuthUnix::encode(XdrEncoder& enc) const {
  XdrEncoder body;
  body.putUint32(stamp);
  body.putString(machineName);
  body.putUint32(uid);
  body.putUint32(gid);
  body.putUint32(static_cast<std::uint32_t>(gids.size()));
  for (auto g : gids) body.putUint32(g);
  enc.putUint32(static_cast<std::uint32_t>(AuthFlavor::Unix));
  enc.putOpaque(body.bytes());
}

AuthUnix AuthUnix::decode(XdrDecoder& dec) {
  AuthUnix a;
  a.stamp = dec.getUint32();
  a.machineName = dec.getString(255);
  a.uid = dec.getUint32();
  a.gid = dec.getUint32();
  std::uint32_t n = dec.getUint32();
  if (n > 16) throw XdrError("AUTH_UNIX gid list too long");
  a.gids.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) a.gids.push_back(dec.getUint32());
  return a;
}

namespace {

void encodeAuthNone(XdrEncoder& enc) {
  enc.putUint32(static_cast<std::uint32_t>(AuthFlavor::None));
  enc.putUint32(0);  // zero-length body
}

}  // namespace

void encodeRpcCall(XdrEncoder& enc, std::uint32_t xid, std::uint32_t prog,
                   std::uint32_t vers, std::uint32_t proc,
                   const std::optional<AuthUnix>& cred) {
  enc.putUint32(xid);
  enc.putUint32(static_cast<std::uint32_t>(RpcMsgType::Call));
  enc.putUint32(kRpcVersion);
  enc.putUint32(prog);
  enc.putUint32(vers);
  enc.putUint32(proc);
  if (cred) {
    cred->encode(enc);
  } else {
    encodeAuthNone(enc);
  }
  encodeAuthNone(enc);  // verifier
}

void encodeRpcReplySuccess(XdrEncoder& enc, std::uint32_t xid) {
  enc.putUint32(xid);
  enc.putUint32(static_cast<std::uint32_t>(RpcMsgType::Reply));
  enc.putUint32(static_cast<std::uint32_t>(RpcReplyStat::Accepted));
  encodeAuthNone(enc);  // verifier
  enc.putUint32(static_cast<std::uint32_t>(RpcAcceptStat::Success));
}

void encodeRpcReplyError(XdrEncoder& enc, std::uint32_t xid,
                         RpcAcceptStat stat) {
  enc.putUint32(xid);
  enc.putUint32(static_cast<std::uint32_t>(RpcMsgType::Reply));
  enc.putUint32(static_cast<std::uint32_t>(RpcReplyStat::Accepted));
  encodeAuthNone(enc);  // verifier
  enc.putUint32(static_cast<std::uint32_t>(stat));
}

RpcMessage decodeRpcMessage(std::span<const std::uint8_t> body) {
  XdrDecoder dec(body);
  RpcMessage msg;
  std::uint32_t xid = dec.getUint32();
  auto type = dec.getUint32();
  if (type == static_cast<std::uint32_t>(RpcMsgType::Call)) {
    msg.type = RpcMsgType::Call;
    msg.call.xid = xid;
    std::uint32_t rpcvers = dec.getUint32();
    if (rpcvers != kRpcVersion) throw XdrError("bad RPC version");
    msg.call.prog = dec.getUint32();
    msg.call.vers = dec.getUint32();
    msg.call.proc = dec.getUint32();
    // Credential.
    std::uint32_t flavor = dec.getUint32();
    auto credBody = dec.getOpaqueView(400);
    if (flavor == static_cast<std::uint32_t>(AuthFlavor::Unix)) {
      XdrDecoder cd(credBody);
      msg.call.cred = AuthUnix::decode(cd);
    }
    // Verifier.
    dec.getUint32();
    dec.skipOpaque(400);
    msg.call.argsOffset = dec.position();
  } else if (type == static_cast<std::uint32_t>(RpcMsgType::Reply)) {
    msg.type = RpcMsgType::Reply;
    msg.reply.xid = xid;
    auto stat = dec.getUint32();
    msg.reply.replyStat = static_cast<RpcReplyStat>(stat);
    if (msg.reply.replyStat == RpcReplyStat::Accepted) {
      // Verifier.
      dec.getUint32();
      dec.skipOpaque(400);
      msg.reply.acceptStat = static_cast<RpcAcceptStat>(dec.getUint32());
      msg.reply.resultsOffset = dec.position();
    } else {
      throw XdrError("RPC reply denied");
    }
  } else {
    throw XdrError("bad RPC message type");
  }
  return msg;
}

RpcMessageLite decodeRpcMessageLite(std::span<const std::uint8_t> body) {
  XdrDecoder dec(body);
  RpcMessageLite msg;
  std::uint32_t xid = dec.getUint32();
  auto type = dec.getUint32();
  if (type == static_cast<std::uint32_t>(RpcMsgType::Call)) {
    msg.type = RpcMsgType::Call;
    msg.call.xid = xid;
    std::uint32_t rpcvers = dec.getUint32();
    if (rpcvers != kRpcVersion) throw XdrError("bad RPC version");
    msg.call.prog = dec.getUint32();
    msg.call.vers = dec.getUint32();
    msg.call.proc = dec.getUint32();
    // Credential: same validation as the full decode, but only uid/gid
    // survive — no string/vector allocation.
    std::uint32_t flavor = dec.getUint32();
    auto credBody = dec.getOpaqueView(400);
    if (flavor == static_cast<std::uint32_t>(AuthFlavor::Unix)) {
      XdrDecoder cd(credBody);
      cd.getUint32();      // stamp
      cd.skipOpaque(255);  // machine name
      msg.call.uid = cd.getUint32();
      msg.call.gid = cd.getUint32();
      std::uint32_t n = cd.getUint32();
      if (n > 16) throw XdrError("AUTH_UNIX gid list too long");
      cd.require(std::size_t{4} * n);
      msg.call.hasUnixCred = true;
    }
    // Verifier.
    dec.getUint32();
    dec.skipOpaque(400);
    msg.call.argsOffset = dec.position();
  } else if (type == static_cast<std::uint32_t>(RpcMsgType::Reply)) {
    msg.type = RpcMsgType::Reply;
    msg.reply.xid = xid;
    auto stat = dec.getUint32();
    msg.reply.replyStat = static_cast<RpcReplyStat>(stat);
    if (msg.reply.replyStat == RpcReplyStat::Accepted) {
      // Verifier.
      dec.getUint32();
      dec.skipOpaque(400);
      msg.reply.acceptStat = static_cast<RpcAcceptStat>(dec.getUint32());
      msg.reply.resultsOffset = dec.position();
    } else {
      throw XdrError("RPC reply denied");
    }
  } else {
    throw XdrError("bad RPC message type");
  }
  return msg;
}

std::vector<std::uint8_t> recordMark(std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> out;
  out.reserve(body.size() + 4);
  auto len = static_cast<std::uint32_t>(body.size()) | 0x80000000u;
  out.push_back(static_cast<std::uint8_t>(len >> 24));
  out.push_back(static_cast<std::uint8_t>(len >> 16));
  out.push_back(static_cast<std::uint8_t>(len >> 8));
  out.push_back(static_cast<std::uint8_t>(len));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

void RecordMarkReader::reset() {
  markHave_ = 0;
  inFragment_ = false;
  fragmentLeft_ = 0;
  record_.clear();
}

}  // namespace nfstrace
