// ONC RPC version 2 (RFC 1831) message framing.
//
// Only what NFS-over-the-wire needs: CALL and REPLY headers, AUTH_NONE and
// AUTH_UNIX credentials, and the record-marking standard used to delimit
// RPC messages on TCP streams.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "xdr/xdr.hpp"

namespace nfstrace {

inline constexpr std::uint32_t kRpcVersion = 2;
inline constexpr std::uint32_t kNfsProgram = 100003;

enum class RpcMsgType : std::uint32_t { Call = 0, Reply = 1 };
enum class RpcReplyStat : std::uint32_t { Accepted = 0, Denied = 1 };
enum class RpcAcceptStat : std::uint32_t {
  Success = 0,
  ProgUnavail = 1,
  ProgMismatch = 2,
  ProcUnavail = 3,
  GarbageArgs = 4,
  SystemErr = 5,
};

enum class AuthFlavor : std::uint32_t { None = 0, Unix = 1 };

/// AUTH_UNIX credential body (RFC 1831 appendix A) — this is where the
/// tracer learns UIDs and GIDs.
struct AuthUnix {
  std::uint32_t stamp = 0;
  std::string machineName;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::vector<std::uint32_t> gids;

  void encode(XdrEncoder& enc) const;
  static AuthUnix decode(XdrDecoder& dec);
};

/// Decoded RPC call header; `argsOffset` is the byte offset of the
/// procedure arguments within the original message body.
struct RpcCall {
  std::uint32_t xid = 0;
  std::uint32_t prog = kNfsProgram;
  std::uint32_t vers = 3;
  std::uint32_t proc = 0;
  std::optional<AuthUnix> cred;  // nullopt => AUTH_NONE
  std::size_t argsOffset = 0;
};

/// Decoded RPC reply header (accepted replies only carry results).
struct RpcReply {
  std::uint32_t xid = 0;
  RpcReplyStat replyStat = RpcReplyStat::Accepted;
  RpcAcceptStat acceptStat = RpcAcceptStat::Success;
  std::size_t resultsOffset = 0;
};

/// Either side of an RPC message, as seen by the sniffer.
struct RpcMessage {
  RpcMsgType type = RpcMsgType::Call;
  RpcCall call;
  RpcReply reply;
};

/// Serialize a call header (through the verifier); procedure arguments are
/// appended by the caller.
void encodeRpcCall(XdrEncoder& enc, std::uint32_t xid, std::uint32_t prog,
                   std::uint32_t vers, std::uint32_t proc,
                   const std::optional<AuthUnix>& cred);

/// Serialize an accepted-reply header; results are appended by the caller.
void encodeRpcReplySuccess(XdrEncoder& enc, std::uint32_t xid);
void encodeRpcReplyError(XdrEncoder& enc, std::uint32_t xid,
                         RpcAcceptStat stat);

/// Parse an RPC message header.  Throws XdrError on malformed input.
RpcMessage decodeRpcMessage(std::span<const std::uint8_t> body);

/// Allocation-free variant for the capture hot path: identical validation
/// and error behaviour to decodeRpcMessage, but only the fields the tracer
/// consumes (uid/gid from AUTH_UNIX rather than the full credential).
struct RpcCallLite {
  std::uint32_t xid = 0;
  std::uint32_t prog = kNfsProgram;
  std::uint32_t vers = 3;
  std::uint32_t proc = 0;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  bool hasUnixCred = false;
  std::size_t argsOffset = 0;
};

struct RpcMessageLite {
  RpcMsgType type = RpcMsgType::Call;
  RpcCallLite call;
  RpcReply reply;
};

RpcMessageLite decodeRpcMessageLite(std::span<const std::uint8_t> body);

/// RFC 1831 record marking: prepend a 4-byte header with the high bit set
/// (last fragment) and the fragment length.  We always emit single-fragment
/// records, as real NFS implementations overwhelmingly do.
std::vector<std::uint8_t> recordMark(std::span<const std::uint8_t> body);

/// Incremental record-marking parser for reassembled TCP byte streams.
/// Feed bytes in any chunking; each complete record is handed to a
/// callback.  Multi-fragment records are supported on the read side.
///
/// A record wholly inside one feed() — one segment carrying one or more
/// whole records, the common case — is handed out as a view into the
/// fed bytes and never copied.  Only a record that straddles feeds, or
/// has several fragments, is assembled in an internal buffer, and each
/// of its bytes is copied there once.
class RecordMarkReader {
 public:
  /// The largest record body accepted: the decoders' 4 MiB opaque cap
  /// plus room for the RPC and NFS headers around it.  A longer fragment
  /// length can only be damage (a bit flip, a truncated frame, a resync
  /// that landed mid-record), and buffering toward it would swallow every
  /// later record of the flow.
  static constexpr std::size_t kMaxRecordBytes = (std::size_t{1} << 22) + 4096;

  /// Parse the next bytes of the stream, calling
  /// `onRecord(std::span<const std::uint8_t> body)` for each record they
  /// complete, in stream order.  The view is valid only during the call.
  /// Returns false if a fragment length would take the record past
  /// kMaxRecordBytes: the reader then drops its state and the rest of
  /// `data`, and starts afresh, at a record mark, with the next feed().
  template <class OnRecord>
  bool feed(std::span<const std::uint8_t> data, OnRecord&& onRecord);

  /// Discard all buffered state (e.g. after detected stream loss).
  void reset();

  /// Stream bytes held for an incomplete record (mark and body so far).
  std::size_t bufferedBytes() const { return markHave_ + record_.size(); }

 private:
  std::uint8_t mark_[4] = {};  // a record mark split across feeds
  std::uint8_t markHave_ = 0;
  bool inFragment_ = false;    // a mark was read; its body is arriving
  bool lastFragment_ = false;
  std::uint32_t fragmentLeft_ = 0;
  std::vector<std::uint8_t> record_;  // assembled bytes of the record
};

template <class OnRecord>
bool RecordMarkReader::feed(std::span<const std::uint8_t> data,
                            OnRecord&& onRecord) {
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    if (!inFragment_) {
      std::uint32_t mark;
      if (markHave_ == 0 && left >= 4) {
        mark = detail::loadBe32(p);
        p += 4;
        left -= 4;
      } else {
        while (markHave_ < 4 && left > 0) {
          mark_[markHave_++] = *p++;
          --left;
        }
        if (markHave_ < 4) break;
        mark = detail::loadBe32(mark_);
        markHave_ = 0;
      }
      lastFragment_ = (mark & 0x80000000u) != 0;
      fragmentLeft_ = mark & 0x7fffffffu;
      if (fragmentLeft_ > kMaxRecordBytes - record_.size()) {
        reset();
        return false;
      }
      inFragment_ = true;
    }
    if (record_.empty() && lastFragment_ && fragmentLeft_ <= left) {
      // The whole record is in `data`: hand it out where it lies.
      inFragment_ = false;
      onRecord(std::span<const std::uint8_t>(p, fragmentLeft_));
      p += fragmentLeft_;
      left -= fragmentLeft_;
      continue;
    }
    const std::size_t take = std::min<std::size_t>(fragmentLeft_, left);
    record_.insert(record_.end(), p, p + take);
    p += take;
    left -= take;
    fragmentLeft_ -= static_cast<std::uint32_t>(take);
    if (fragmentLeft_ > 0) break;
    inFragment_ = false;
    if (lastFragment_) {
      onRecord(std::span<const std::uint8_t>(record_));
      record_.clear();
    }
  }
  return true;
}

}  // namespace nfstrace
