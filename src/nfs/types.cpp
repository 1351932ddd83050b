#include "nfs/types.hpp"

#include <cstdio>

namespace nfstrace {

const char* nfsStatName(NfsStat s) {
  switch (s) {
    case NfsStat::Ok: return "OK";
    case NfsStat::ErrPerm: return "EPERM";
    case NfsStat::ErrNoEnt: return "ENOENT";
    case NfsStat::ErrIo: return "EIO";
    case NfsStat::ErrAcces: return "EACCES";
    case NfsStat::ErrExist: return "EEXIST";
    case NfsStat::ErrXDev: return "EXDEV";
    case NfsStat::ErrNoDev: return "ENODEV";
    case NfsStat::ErrNotDir: return "ENOTDIR";
    case NfsStat::ErrIsDir: return "EISDIR";
    case NfsStat::ErrInval: return "EINVAL";
    case NfsStat::ErrFBig: return "EFBIG";
    case NfsStat::ErrNoSpc: return "ENOSPC";
    case NfsStat::ErrRoFs: return "EROFS";
    case NfsStat::ErrMLink: return "EMLINK";
    case NfsStat::ErrNameTooLong: return "ENAMETOOLONG";
    case NfsStat::ErrNotEmpty: return "ENOTEMPTY";
    case NfsStat::ErrDQuot: return "EDQUOT";
    case NfsStat::ErrStale: return "ESTALE";
    case NfsStat::ErrBadHandle: return "EBADHANDLE";
    case NfsStat::ErrNotSync: return "ENOTSYNC";
    case NfsStat::ErrBadCookie: return "EBADCOOKIE";
    case NfsStat::ErrNotSupp: return "ENOTSUPP";
    case NfsStat::ErrTooSmall: return "ETOOSMALL";
    case NfsStat::ErrServerFault: return "ESERVERFAULT";
    case NfsStat::ErrBadType: return "EBADTYPE";
    case NfsStat::ErrJukebox: return "EJUKEBOX";
  }
  return "E?";
}

FileHandle FileHandle::fromBytes(std::span<const std::uint8_t> bytes) {
  FileHandle fh;
  if (bytes.size() > kFhSize3) throw XdrError("file handle too long");
  fh.len = static_cast<std::uint8_t>(bytes.size());
  std::memcpy(fh.data.data(), bytes.data(), bytes.size());
  return fh;
}

FileHandle FileHandle::make(std::uint32_t fsid, std::uint64_t fileid,
                            std::uint32_t generation) {
  // 32-byte canonical layout (zero-padded) so the identical handle bytes
  // appear under both NFSv2 (fixed 32-byte) and NFSv3 (variable) encodings
  // and analyses see one identity per file regardless of protocol version.
  FileHandle fh;
  fh.len = kFhSize2;
  fh.data[0] = static_cast<std::uint8_t>(fsid >> 24);
  fh.data[1] = static_cast<std::uint8_t>(fsid >> 16);
  fh.data[2] = static_cast<std::uint8_t>(fsid >> 8);
  fh.data[3] = static_cast<std::uint8_t>(fsid);
  for (int i = 0; i < 8; ++i) {
    fh.data[4 + i] = static_cast<std::uint8_t>(fileid >> (56 - 8 * i));
  }
  fh.data[12] = static_cast<std::uint8_t>(generation >> 24);
  fh.data[13] = static_cast<std::uint8_t>(generation >> 16);
  fh.data[14] = static_cast<std::uint8_t>(generation >> 8);
  fh.data[15] = static_cast<std::uint8_t>(generation);
  return fh;
}

std::uint64_t FileHandle::fileid() const {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | data[4 + i];
  return v;
}

std::uint32_t FileHandle::fsid() const {
  return (static_cast<std::uint32_t>(data[0]) << 24) |
         (static_cast<std::uint32_t>(data[1]) << 16) |
         (static_cast<std::uint32_t>(data[2]) << 8) |
         static_cast<std::uint32_t>(data[3]);
}

std::strong_ordering FileHandle::operator<=>(const FileHandle& o) const {
  if (auto c = len <=> o.len; c != 0) return c;
  int r = std::memcmp(data.data(), o.data.data(), len);
  if (r < 0) return std::strong_ordering::less;
  if (r > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

std::string FileHandle::toHex() const {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(len * 2);
  for (std::uint8_t i = 0; i < len; ++i) {
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0xf]);
  }
  return out;
}

namespace {

// 256-entry nibble table: hex digit value, or 0xff for non-hex bytes.
// Branchless per-byte decode on the per-record trace parse path.
constexpr std::array<std::uint8_t, 256> makeNibbleTable() {
  std::array<std::uint8_t, 256> t{};
  for (auto& v : t) v = 0xff;
  for (int c = '0'; c <= '9'; ++c) t[static_cast<std::size_t>(c)] = static_cast<std::uint8_t>(c - '0');
  for (int c = 'a'; c <= 'f'; ++c) t[static_cast<std::size_t>(c)] = static_cast<std::uint8_t>(c - 'a' + 10);
  for (int c = 'A'; c <= 'F'; ++c) t[static_cast<std::size_t>(c)] = static_cast<std::uint8_t>(c - 'A' + 10);
  return t;
}
constexpr std::array<std::uint8_t, 256> kNibble = makeNibbleTable();

}  // namespace

FileHandle FileHandle::fromHex(std::string_view hex) {
  if (hex.size() % 2 != 0 || hex.size() / 2 > kFhSize3) {
    throw XdrError("bad file handle hex length");
  }
  FileHandle fh;
  fh.len = static_cast<std::uint8_t>(hex.size() / 2);
  unsigned bad = 0;
  for (std::uint8_t i = 0; i < fh.len; ++i) {
    unsigned hi = kNibble[static_cast<std::uint8_t>(hex[2 * i])];
    unsigned lo = kNibble[static_cast<std::uint8_t>(hex[2 * i + 1])];
    bad |= hi | lo;  // 0xff propagates into bit 7+
    fh.data[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  if (bad & 0xf0) throw XdrError("bad hex digit in file handle");
  return fh;
}

std::size_t FileHandleHash::operator()(const FileHandle& fh) const {
  // FNV-1a over the handle bytes.
  std::size_t h = 1469598103934665603ULL;
  for (std::uint8_t i = 0; i < fh.len; ++i) {
    h ^= fh.data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

NfsTime NfsTime::fromMicro(MicroTime t) {
  if (t < 0) t = 0;
  return {static_cast<std::uint32_t>(t / kMicrosPerSecond),
          static_cast<std::uint32_t>((t % kMicrosPerSecond) * 1000)};
}

MicroTime NfsTime::toMicro() const {
  return static_cast<MicroTime>(seconds) * kMicrosPerSecond + nseconds / 1000;
}

void Fattr::encode3(XdrEncoder& enc) const {
  enc.putUint32(static_cast<std::uint32_t>(type));
  enc.putUint32(mode);
  enc.putUint32(nlink);
  enc.putUint32(uid);
  enc.putUint32(gid);
  enc.putUint64(size);
  enc.putUint64(used);
  enc.putUint32(0);  // rdev major
  enc.putUint32(0);  // rdev minor
  enc.putUint64(fsid);
  enc.putUint64(fileid);
  enc.putUint32(atime.seconds);
  enc.putUint32(atime.nseconds);
  enc.putUint32(mtime.seconds);
  enc.putUint32(mtime.nseconds);
  enc.putUint32(ctime.seconds);
  enc.putUint32(ctime.nseconds);
}

Fattr Fattr::decode3(XdrDecoder& dec) {
  // fattr3 is a fixed 84-byte layout: one bounds check covers all fields.
  dec.require(84);
  Fattr a;
  a.type = static_cast<FileType>(dec.getUint32U());
  a.mode = dec.getUint32U();
  a.nlink = dec.getUint32U();
  a.uid = dec.getUint32U();
  a.gid = dec.getUint32U();
  a.size = dec.getUint64U();
  a.used = dec.getUint64U();
  dec.getUint32U();  // rdev major
  dec.getUint32U();  // rdev minor
  a.fsid = static_cast<std::uint32_t>(dec.getUint64U());
  a.fileid = dec.getUint64U();
  a.atime.seconds = dec.getUint32U();
  a.atime.nseconds = dec.getUint32U();
  a.mtime.seconds = dec.getUint32U();
  a.mtime.nseconds = dec.getUint32U();
  a.ctime.seconds = dec.getUint32U();
  a.ctime.nseconds = dec.getUint32U();
  return a;
}

void Fattr::encode2(XdrEncoder& enc) const {
  // NFSv2 fattr (RFC 1094 §2.3.5): 32-bit sizes, usec times.
  enc.putUint32(static_cast<std::uint32_t>(type));
  enc.putUint32(mode);
  enc.putUint32(nlink);
  enc.putUint32(uid);
  enc.putUint32(gid);
  enc.putUint32(static_cast<std::uint32_t>(size));
  enc.putUint32(kNfsBlockSize);  // blocksize
  enc.putUint32(0);              // rdev
  enc.putUint32(static_cast<std::uint32_t>(used / 512));  // blocks
  enc.putUint32(fsid);
  enc.putUint32(static_cast<std::uint32_t>(fileid));
  enc.putUint32(atime.seconds);
  enc.putUint32(atime.nseconds / 1000);
  enc.putUint32(mtime.seconds);
  enc.putUint32(mtime.nseconds / 1000);
  enc.putUint32(ctime.seconds);
  enc.putUint32(ctime.nseconds / 1000);
}

Fattr Fattr::decode2(XdrDecoder& dec) {
  // v2 fattr is a fixed 17-word layout: one bounds check covers all fields.
  dec.require(68);
  Fattr a;
  a.type = static_cast<FileType>(dec.getUint32U());
  a.mode = dec.getUint32U();
  a.nlink = dec.getUint32U();
  a.uid = dec.getUint32U();
  a.gid = dec.getUint32U();
  a.size = dec.getUint32U();
  dec.getUint32U();  // blocksize
  dec.getUint32U();  // rdev
  a.used = static_cast<std::uint64_t>(dec.getUint32U()) * 512;
  a.fsid = dec.getUint32U();
  a.fileid = dec.getUint32U();
  a.atime.seconds = dec.getUint32U();
  a.atime.nseconds = dec.getUint32U() * 1000;
  a.mtime.seconds = dec.getUint32U();
  a.mtime.nseconds = dec.getUint32U() * 1000;
  a.ctime.seconds = dec.getUint32U();
  a.ctime.nseconds = dec.getUint32U() * 1000;
  return a;
}

void WccAttr::encode(XdrEncoder& enc) const {
  enc.putUint64(size);
  enc.putUint32(mtime.seconds);
  enc.putUint32(mtime.nseconds);
  enc.putUint32(ctime.seconds);
  enc.putUint32(ctime.nseconds);
}

WccAttr WccAttr::decode(XdrDecoder& dec) {
  WccAttr w;
  w.size = dec.getUint64();
  w.mtime.seconds = dec.getUint32();
  w.mtime.nseconds = dec.getUint32();
  w.ctime.seconds = dec.getUint32();
  w.ctime.nseconds = dec.getUint32();
  return w;
}

void WccData::encode(XdrEncoder& enc) const {
  enc.putBool(hasPre);
  if (hasPre) pre.encode(enc);
  enc.putBool(hasPost);
  if (hasPost) post.encode3(enc);
}

WccData WccData::decode(XdrDecoder& dec) {
  WccData w;
  w.hasPre = dec.getBool();
  if (w.hasPre) w.pre = WccAttr::decode(dec);
  w.hasPost = dec.getBool();
  if (w.hasPost) w.post = Fattr::decode3(dec);
  return w;
}

void Sattr::encode3(XdrEncoder& enc) const {
  enc.putBool(setMode);
  if (setMode) enc.putUint32(mode);
  enc.putBool(setUid);
  if (setUid) enc.putUint32(uid);
  enc.putBool(setGid);
  if (setGid) enc.putUint32(gid);
  enc.putBool(setSize);
  if (setSize) enc.putUint64(size);
  // time_how: 0 = DONT_CHANGE, 2 = SET_TO_CLIENT_TIME.
  enc.putUint32(setAtime ? 2 : 0);
  if (setAtime) {
    enc.putUint32(atime.seconds);
    enc.putUint32(atime.nseconds);
  }
  enc.putUint32(setMtime ? 2 : 0);
  if (setMtime) {
    enc.putUint32(mtime.seconds);
    enc.putUint32(mtime.nseconds);
  }
}

Sattr Sattr::decode3(XdrDecoder& dec) {
  Sattr s;
  s.setMode = dec.getBool();
  if (s.setMode) s.mode = dec.getUint32();
  s.setUid = dec.getBool();
  if (s.setUid) s.uid = dec.getUint32();
  s.setGid = dec.getBool();
  if (s.setGid) s.gid = dec.getUint32();
  s.setSize = dec.getBool();
  if (s.setSize) s.size = dec.getUint64();
  std::uint32_t how = dec.getUint32();
  if (how == 2) {
    s.setAtime = true;
    s.atime.seconds = dec.getUint32();
    s.atime.nseconds = dec.getUint32();
  } else if (how == 1) {
    s.setAtime = true;  // SET_TO_SERVER_TIME carries no payload
  }
  how = dec.getUint32();
  if (how == 2) {
    s.setMtime = true;
    s.mtime.seconds = dec.getUint32();
    s.mtime.nseconds = dec.getUint32();
  } else if (how == 1) {
    s.setMtime = true;
  }
  return s;
}

void encodeOptFattr(XdrEncoder& enc, const Fattr* attr) {
  enc.putBool(attr != nullptr);
  if (attr) attr->encode3(enc);
}

bool decodeOptFattr(XdrDecoder& dec, Fattr& out) {
  if (!dec.getBool()) return false;
  out = Fattr::decode3(dec);
  return true;
}

}  // namespace nfstrace
