// Shared NFS wire types (RFC 1094 for v2, RFC 1813 for v3).
//
// The simulated server hands out 16-byte file handles (fsid + fileid +
// generation), but the codecs accept any handle up to the v3 maximum of 64
// bytes, since the sniffer must decode whatever appears on the wire.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>

#include "util/time.hpp"
#include "xdr/xdr.hpp"

namespace nfstrace {

inline constexpr std::size_t kFhSize3 = 64;  // NFSv3 maximum
inline constexpr std::size_t kFhSize2 = 32;  // NFSv2 fixed size
inline constexpr std::uint32_t kNfsBlockSize = 8192;  // analysis block unit

enum class NfsStat : std::uint32_t {
  Ok = 0,
  ErrPerm = 1,
  ErrNoEnt = 2,
  ErrIo = 5,
  ErrAcces = 13,
  ErrExist = 17,
  ErrXDev = 18,
  ErrNoDev = 19,
  ErrNotDir = 20,
  ErrIsDir = 21,
  ErrInval = 22,
  ErrFBig = 27,
  ErrNoSpc = 28,
  ErrRoFs = 30,
  ErrMLink = 31,
  ErrNameTooLong = 63,
  ErrNotEmpty = 66,
  ErrDQuot = 69,
  ErrStale = 70,
  ErrBadHandle = 10001,
  ErrNotSync = 10002,
  ErrBadCookie = 10003,
  ErrNotSupp = 10004,
  ErrTooSmall = 10005,
  ErrServerFault = 10006,
  ErrBadType = 10007,
  ErrJukebox = 10008,
};

const char* nfsStatName(NfsStat s);

enum class FileType : std::uint32_t {
  Regular = 1,
  Directory = 2,
  BlockDev = 3,
  CharDev = 4,
  Symlink = 5,
  Socket = 6,
  Fifo = 7,
};

/// Opaque NFS file handle.  Comparable and hashable so it can key maps in
/// the server, client cache, sniffer, and analyses.
struct FileHandle {
  std::uint8_t len = 0;
  std::array<std::uint8_t, kFhSize3> data{};

  static FileHandle fromBytes(std::span<const std::uint8_t> bytes);
  /// The simulator's canonical handle layout.
  static FileHandle make(std::uint32_t fsid, std::uint64_t fileid,
                         std::uint32_t generation);

  std::span<const std::uint8_t> bytes() const { return {data.data(), len}; }
  std::uint64_t fileid() const;  // decodes the simulator layout
  std::uint32_t fsid() const;

  bool operator==(const FileHandle& o) const {
    return len == o.len && std::memcmp(data.data(), o.data.data(), len) == 0;
  }
  std::strong_ordering operator<=>(const FileHandle& o) const;

  std::string toHex() const;
  static FileHandle fromHex(std::string_view hex);
};

struct FileHandleHash {
  std::size_t operator()(const FileHandle& fh) const;
};

/// NFS time: seconds + nanoseconds.  Converted from/to simulation
/// MicroTime at the boundary.
struct NfsTime {
  std::uint32_t seconds = 0;
  std::uint32_t nseconds = 0;

  static NfsTime fromMicro(MicroTime t);
  MicroTime toMicro() const;
  bool operator==(const NfsTime&) const = default;
};

/// v3 fattr3 (v2 attributes are converted to/from this superset).
struct Fattr {
  FileType type = FileType::Regular;
  std::uint32_t mode = 0644;
  std::uint32_t nlink = 1;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::uint64_t size = 0;
  std::uint64_t used = 0;
  std::uint32_t fsid = 0;
  std::uint64_t fileid = 0;
  NfsTime atime;
  NfsTime mtime;
  NfsTime ctime;

  void encode3(XdrEncoder& enc) const;
  static Fattr decode3(XdrDecoder& dec);
  void encode2(XdrEncoder& enc) const;
  static Fattr decode2(XdrDecoder& dec);
  bool operator==(const Fattr&) const = default;
};

/// v3 wcc_attr: the pre-operation attributes in weak cache consistency
/// data.  Size + times are what clients use to detect concurrent change.
struct WccAttr {
  std::uint64_t size = 0;
  NfsTime mtime;
  NfsTime ctime;

  void encode(XdrEncoder& enc) const;
  static WccAttr decode(XdrDecoder& dec);
  static WccAttr fromFattr(const Fattr& a) {
    return {a.size, a.mtime, a.ctime};
  }
  bool operator==(const WccAttr&) const = default;
};

/// Optional pre/post attribute pair attached to v3 modifying replies.
struct WccData {
  bool hasPre = false;
  WccAttr pre;
  bool hasPost = false;
  Fattr post;

  void encode(XdrEncoder& enc) const;
  static WccData decode(XdrDecoder& dec);
};

/// Settable attributes (sattr3); each field is optional.
struct Sattr {
  bool setMode = false;
  std::uint32_t mode = 0;
  bool setUid = false;
  std::uint32_t uid = 0;
  bool setGid = false;
  std::uint32_t gid = 0;
  bool setSize = false;
  std::uint64_t size = 0;
  bool setAtime = false;  // set-to-client-time only (the common case)
  NfsTime atime;
  bool setMtime = false;
  NfsTime mtime;

  void encode3(XdrEncoder& enc) const;
  static Sattr decode3(XdrDecoder& dec);
};

void encodeOptFattr(XdrEncoder& enc, const Fattr* attr);
bool decodeOptFattr(XdrDecoder& dec, Fattr& out);

}  // namespace nfstrace
