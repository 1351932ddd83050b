#include "trace/v2.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "util/crc32.hpp"

namespace nfstrace {
namespace tracev2 {

namespace {

// ---------------------------------------------------------------------------
// Primitive encodings: LEB128 varints, zigzag for signed deltas, and
// explicit little-endian fixed-width fields (the format is defined as LE
// regardless of host order).

void putVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

// Deltas wrap modulo 2^64 in both directions, so values from the wire or
// a crafted column (an offset past 2^63, a delta of INT64_MAX) round-trip
// without signed overflow.
std::uint64_t zigzagDelta(std::int64_t v, std::int64_t prev) {
  return zigzag(static_cast<std::int64_t>(static_cast<std::uint64_t>(v) -
                                          static_cast<std::uint64_t>(prev)));
}

std::int64_t addDelta(std::int64_t prev, std::uint64_t zz) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(prev) +
                                   static_cast<std::uint64_t>(unzigzag(zz)));
}

void putU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void putU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint32_t getU32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t getU64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

/// Bounds-checked read cursor over a decoded payload.  The payload CRC has
/// already been verified when these run, so a throw here means an encoder
/// bug or a CRC collision — either way the reader's recovery path treats
/// it as a corrupt extent.
struct Cursor {
  const std::uint8_t* p = nullptr;
  const std::uint8_t* end = nullptr;

  std::uint64_t varint() {
    // Single-byte values dominate every column (deltas, dict ids, small
    // counts); keep that case to one compare-and-load.
    if (p != end && *p < 0x80) return *p++;
    return varintSlow();
  }

  std::uint64_t varintSlow() {
    // Callers land here for 2..10-byte values (file sizes, mtime deltas,
    // inode numbers).  With >= 10 bytes left the per-byte bounds check is
    // provably dead, so take a branch-lean fixed-trip loop the compiler
    // can unroll; the checked loop only runs near a column's end.
    if (end - p >= 10) {
      std::uint64_t v = 0;
      unsigned shift = 0;
      for (int i = 0; i < 10; ++i) {
        std::uint8_t b = p[i];
        v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
        if (!(b & 0x80)) {
          p += i + 1;
          return v;
        }
        shift += 7;
      }
      throw std::runtime_error("trace v2: varint overlong in extent");
    }
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (p == end || shift > 63) {
        throw std::runtime_error("trace v2: truncated varint in extent");
      }
      std::uint8_t b = *p++;
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if (!(b & 0x80)) return v;
      shift += 7;
    }
  }

  std::uint8_t byte() {
    if (p == end) {
      throw std::runtime_error("trace v2: truncated column in extent");
    }
    return *p++;
  }

  const std::uint8_t* take(std::size_t n) {
    if (static_cast<std::size_t>(end - p) < n) {
      throw std::runtime_error("trace v2: truncated field in extent");
    }
    const std::uint8_t* at = p;
    p += n;
    return at;
  }
};

// ---------------------------------------------------------------------------
// Column set.  One section per entry, written and read in this order;
// readers ignore any extra trailing sections a future writer might add.

enum Column : std::size_t {
  kFlags = 0,   // 1 byte/record: packed presence bits + version
  kOp,          // 1 byte/record
  kTs,          // zigzag varint delta vs previous record
  kReplyTs,     // [hasReply] zigzag varint (replyTs - ts)
  kWho,         // varint id into the extent's identity-tuple dictionary
  kXid,         // 4 bytes LE (effectively random; varints would pessimize)
  kFh,          // varint local handle-dictionary id
  kFh2,         // varint local handle-dictionary id
  kResFh,       // [resFh flag] varint local handle-dictionary id
  kName,        // varint local name-dictionary id
  kName2,       // varint local name-dictionary id
  kOffset,      // [read/write/commit] zigzag varint delta vs prev value
  kCount,       // [read/write/commit] varint
  kStatus,      // [hasReply, err flag] varint NfsStat numeric
  kRetCount,    // [hasReply, read/write] varint
  kFtype,       // [hasAttrs] 1 byte
  kFileSize,    // [hasAttrs] zigzag varint delta vs prev value
  kFileMtime,   // [hasAttrs] zigzag varint delta vs prev value
  kFileId,      // [hasAttrs] zigzag varint delta vs prev value
  kPreSize,     // [hasPre] zigzag varint delta vs prev value
  kPreMtime,    // [hasPre] zigzag varint delta vs prev value
  kColumnCount,
};

// Flag byte layout.  `vers` is stored as a single is-v2 bit: the wire
// protocol only has versions 2 and 3.  The error bit keeps the status
// column empty on the overwhelmingly-common Ok path: a reply's status is
// stored only when it is not Ok.
constexpr std::uint8_t kFlagReply = 1u << 0;
constexpr std::uint8_t kFlagTcp = 1u << 1;
constexpr std::uint8_t kFlagEof = 1u << 2;
constexpr std::uint8_t kFlagResFh = 1u << 3;
constexpr std::uint8_t kFlagAttrs = 1u << 4;
constexpr std::uint8_t kFlagPre = 1u << 5;
constexpr std::uint8_t kFlagV2 = 1u << 6;
constexpr std::uint8_t kFlagErr = 1u << 7;

std::string_view fhView(const FileHandle& fh) {
  return {reinterpret_cast<const char*>(fh.data.data()), fh.len};
}

/// (client, server, uid, gid) packed little-endian — the key and stored
/// form of the identity-tuple dictionary.  A trace has few distinct
/// identity tuples (clients x users), so one varint id per record
/// replaces four delta columns.
constexpr std::size_t kWhoBytes = 16;

inline void packWho(std::uint8_t* out, std::uint32_t client,
                    std::uint32_t server, std::uint32_t uid,
                    std::uint32_t gid) {
  std::uint32_t v[4] = {client, server, uid, gid};
  for (int i = 0; i < 4; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(v[i]);
    out[4 * i + 1] = static_cast<std::uint8_t>(v[i] >> 8);
    out[4 * i + 2] = static_cast<std::uint8_t>(v[i] >> 16);
    out[4 * i + 3] = static_cast<std::uint8_t>(v[i] >> 24);
  }
}

constexpr char kSchemaText[] =
    "nfstrace-v2 schema 4\n"
    "footer=zonemap56\n"
    "dicts=fh,name,who\n"
    "columns=flags,op,ts:delta,replyts:rel,who:dict,"
    "xid:le32,fh:dict,fh2:dict,resfh:dict,name:dict,"
    "name2:dict,offset:delta,count,status:err,retcount,ftype,"
    "filesize:delta,filemtime:delta,fileid:delta,presize:delta,"
    "premtime:delta\n";

}  // namespace

// ---------------------------------------------------------------------------
// Preamble: file magic + schema block

void appendPreamble(std::string& out) {
  std::string_view text(kSchemaText);
  out.append(kFileMagic, sizeof(kFileMagic));
  out.append(kSchemaMagic, sizeof(kSchemaMagic));
  putU32(out, static_cast<std::uint32_t>(text.size()));
  out.append(text);
}

Preamble readPreamble(std::FILE* f, std::string* error) {
  auto fail = [error](Preamble p, std::string why) {
    if (error) *error = std::move(why);
    return p;
  };
  char magic[sizeof(kFileMagic)];
  if (std::fread(magic, 1, sizeof(magic), f) != sizeof(magic) ||
      std::memcmp(magic, kFileMagic, sizeof(magic)) != 0) {
    return fail(Preamble::Bad, "not a v2 trace");
  }
  unsigned char head[sizeof(kSchemaMagic) + 4];
  if (std::fread(head, 1, sizeof(head), f) != sizeof(head) ||
      std::memcmp(head, kSchemaMagic, sizeof(kSchemaMagic)) != 0) {
    return fail(Preamble::Bad, "bad schema header");
  }
  const std::uint32_t len = getU32(head + sizeof(kSchemaMagic));
  if (len > (1u << 16)) return fail(Preamble::Bad, "bad schema header");
  std::string text(len, '\0');
  if (std::fread(text.data(), 1, len, f) != len) {
    return fail(Preamble::Bad, "bad schema header");
  }
  // Require the current major schema line; everything after it (extra
  // columns, new dict kinds) is forward-compatible detail.
  constexpr std::string_view kMajor = "nfstrace-v2 schema 4\n";
  if (text.compare(0, kMajor.size(), kMajor) != 0) {
    std::string line = text.substr(0, std::min<std::size_t>(
                                          text.find('\n'), 64));
    return fail(Preamble::Unsupported, "unsupported schema \"" + line +
                                           "\" (only schema 4 is read)");
  }
  return Preamble::Ok;
}

// ---------------------------------------------------------------------------
// Extent header

bool parseExtentHeader(const unsigned char* p, ExtentHeader& out) {
  if (std::memcmp(p, kExtentMagic, sizeof(kExtentMagic)) != 0) return false;
  std::uint32_t storedHeaderCrc = getU32(p + 32);
  if (crc32(p, 32) != storedHeaderCrc) return false;
  if (getU32(p + 4) > kExtentMaxPayloadBytes) return false;
  out.payloadBytes = getU32(p + 4);
  out.records = getU32(p + 8);
  out.recordsBefore = getU64(p + 12);
  out.tsFirst = static_cast<MicroTime>(getU64(p + 20));
  out.payloadCrc = getU32(p + 28);
  return true;
}

namespace {

void appendExtentHeader(std::string& out, const ExtentHeader& hdr) {
  std::size_t base = out.size();
  out.append(kExtentMagic, sizeof(kExtentMagic));
  putU32(out, hdr.payloadBytes);
  putU32(out, hdr.records);
  putU64(out, hdr.recordsBefore);
  putU64(out, static_cast<std::uint64_t>(hdr.tsFirst));
  putU32(out, hdr.payloadCrc);
  putU32(out, crc32(out.data() + base, 32));
}

}  // namespace

// ---------------------------------------------------------------------------
// Footer index

void appendIndex(std::string& out, const std::vector<ExtentInfo>& extents,
                 std::uint64_t indexOffset) {
  std::string body;
  body.reserve(8 + extents.size() * kIndexEntryBytes);
  body.append(kIndexMagic, sizeof(kIndexMagic));
  putU32(body, static_cast<std::uint32_t>(extents.size()));
  for (const ExtentInfo& e : extents) {
    putU64(body, e.offset);
    putU32(body, e.records);
    putU64(body, static_cast<std::uint64_t>(e.tsMin));
    putU64(body, static_cast<std::uint64_t>(e.tsMax));
    putU32(body, e.opMask);
    putU32(body, e.uidMin);
    putU32(body, e.uidMax);
    putU64(body, e.fileIdMin);
    putU64(body, e.fileIdMax);
  }
  out += body;
  putU32(out, crc32(body.data(), body.size()));
  putU64(out, indexOffset);
  out.append(kTrailerMagic, sizeof(kTrailerMagic));
}

namespace {

ExtentInfo parseIndexEntry(const unsigned char* p) {
  ExtentInfo e;
  e.offset = getU64(p);
  e.records = getU32(p + 8);
  e.tsMin = static_cast<MicroTime>(getU64(p + 12));
  e.tsMax = static_cast<MicroTime>(getU64(p + 20));
  e.opMask = getU32(p + 28);
  e.uidMin = getU32(p + 32);
  e.uidMax = getU32(p + 36);
  e.fileIdMin = getU64(p + 40);
  e.fileIdMax = getU64(p + 48);
  return e;
}

/// Read + CRC-check the "NFIX" footer whose magic sits at `off`.  With
/// non-null `endOut`, reports the file offset just past the footer's
/// trailer.
std::optional<std::vector<ExtentInfo>> readFooterAt(std::FILE* f,
                                                    std::uint64_t off,
                                                    std::uint64_t fileSize,
                                                    std::uint64_t* endOut) {
  if (off < 6 || off + 8 + 4 + 16 > fileSize) return std::nullopt;
  if (std::fseek(f, static_cast<long>(off), SEEK_SET) != 0) {
    return std::nullopt;
  }
  unsigned char head[8];
  if (std::fread(head, 1, 8, f) != 8 ||
      std::memcmp(head, kIndexMagic, sizeof(kIndexMagic)) != 0) {
    return std::nullopt;
  }
  std::uint32_t count = getU32(head + 4);
  std::uint64_t bodyBytes =
      8 + static_cast<std::uint64_t>(count) * kIndexEntryBytes;
  if (off + bodyBytes + 4 + 16 > fileSize) return std::nullopt;
  std::vector<unsigned char> body(bodyBytes);
  std::memcpy(body.data(), head, 8);
  unsigned char crcBuf[4];
  if ((bodyBytes > 8 &&
       std::fread(body.data() + 8, 1, bodyBytes - 8, f) != bodyBytes - 8) ||
      std::fread(crcBuf, 1, 4, f) != 4 ||
      crc32(body.data(), body.size()) != getU32(crcBuf)) {
    return std::nullopt;
  }

  std::vector<ExtentInfo> out;
  out.reserve(count);
  const unsigned char* p = body.data() + 8;
  for (std::uint32_t i = 0; i < count; ++i, p += kIndexEntryBytes) {
    out.push_back(parseIndexEntry(p));
  }
  if (endOut) *endOut = off + bodyBytes + 4 + 8 + 8;
  return out;
}

}  // namespace

std::optional<std::vector<ExtentInfo>> loadChainedIndex(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{f};
  if (std::fseek(f, 0, SEEK_END) != 0) return std::nullopt;
  std::uint64_t size = static_cast<std::uint64_t>(std::ftell(f));

  std::vector<ExtentInfo> out;
  std::uint64_t pos = 0;
  while (pos < size) {
    // Segment start: file magic + schema block.
    const std::uint64_t segBase = pos;
    if (std::fseek(f, static_cast<long>(pos), SEEK_SET) != 0 ||
        readPreamble(f) != Preamble::Ok) {
      return std::nullopt;
    }
    pos = static_cast<std::uint64_t>(std::ftell(f));

    // Hop extent headers (payloads are fseek'd over, never read) until
    // this segment's footer, then cross-check it against the walk.
    std::vector<std::uint64_t> walkedOffsets;
    std::vector<std::uint32_t> walkedRecords;
    bool footerDone = false;
    while (!footerDone) {
      if (std::fseek(f, static_cast<long>(pos), SEEK_SET) != 0) {
        return std::nullopt;
      }
      unsigned char hdrBuf[kExtentHeaderBytes];
      std::size_t got = std::fread(hdrBuf, 1, kExtentHeaderBytes, f);
      if (got >= sizeof(kExtentMagic) &&
          std::memcmp(hdrBuf, kExtentMagic, sizeof(kExtentMagic)) == 0) {
        ExtentHeader hdr;
        if (got != kExtentHeaderBytes || !parseExtentHeader(hdrBuf, hdr)) {
          return std::nullopt;
        }
        walkedOffsets.push_back(pos - segBase);
        walkedRecords.push_back(hdr.records);
        pos += kExtentHeaderBytes + hdr.payloadBytes;
      } else if (got >= sizeof(kIndexMagic) &&
                 std::memcmp(hdrBuf, kIndexMagic, sizeof(kIndexMagic)) ==
                     0) {
        std::uint64_t footerEnd = 0;
        auto entries = readFooterAt(f, pos, size, &footerEnd);
        if (!entries || entries->size() != walkedOffsets.size()) {
          return std::nullopt;
        }
        for (std::size_t i = 0; i < entries->size(); ++i) {
          ExtentInfo e = (*entries)[i];
          if (e.offset != walkedOffsets[i] || e.records != walkedRecords[i]) {
            return std::nullopt;
          }
          e.offset += segBase;
          out.push_back(e);
        }
        pos = footerEnd;
        footerDone = true;
      } else {
        // Torn tail / unknown bytes: no clean footer for this segment.
        return std::nullopt;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// ExtentEncoder

struct ExtentEncoder::Impl {
  std::array<std::string, kColumnCount> col;
  // Extent-local dictionaries.  Reusing StringInterner gives the same
  // first-appearance-order id assignment as the reader's global
  // interners, which is what keeps global ids independent of extent and
  // batch boundaries.  `who` interns the packed (client, server, uid,
  // gid) tuple.
  std::unique_ptr<StringInterner> handles;
  std::unique_ptr<StringInterner> names;
  std::unique_ptr<StringInterner> who;

  MicroTime tsFirst = 0;
  MicroTime prevTs = 0;
  // Per-column prefix state for the big-magnitude fields.  Workloads
  // poll the same files repeatedly (mail inbox getattr loops, sequential
  // reads), so vs-previous-value deltas are mostly zero or tiny where
  // the absolute values would cost 4-7 varint bytes each.
  std::int64_t prevOffset = 0;
  std::int64_t prevFileSize = 0, prevFileMtime = 0, prevFileId = 0;
  std::int64_t prevPreSize = 0, prevPreMtime = 0;
  MicroTime tsMin = 0, tsMax = 0;
  std::uint32_t opMask = 0;
  std::uint32_t uidMin = 0, uidMax = 0;
  std::uint64_t fileIdMin = 0, fileIdMax = 0;

  Impl() { reset(); }

  void reset() {
    for (auto& c : col) c.clear();
    handles = std::make_unique<StringInterner>();
    names = std::make_unique<StringInterner>();
    who = std::make_unique<StringInterner>();
    tsFirst = prevTs = 0;
    prevOffset = 0;
    prevFileSize = prevFileMtime = prevFileId = 0;
    prevPreSize = prevPreMtime = 0;
    tsMin = tsMax = 0;
    opMask = 0;
    uidMin = uidMax = 0;
    fileIdMin = fileIdMax = 0;
  }
};

ExtentEncoder::ExtentEncoder() : impl_(new Impl) {}
ExtentEncoder::~ExtentEncoder() { delete impl_; }

void ExtentEncoder::add(const TraceRecord& rec) {
  Impl& im = *impl_;

  // Normalize presence flags to the fields formatRecord prints: reply
  // fields only exist when the reply was seen, EOF only on READ replies.
  // A round trip therefore renders the same line as the original record.
  const bool reply = rec.hasReply;
  const bool resFh = reply && rec.hasResFh;
  const bool attrs = reply && rec.hasAttrs;
  const bool pre = reply && rec.hasPre;
  const bool eof = reply && rec.op == NfsOp::Read && rec.eof;
  const bool rw = rec.op == NfsOp::Read || rec.op == NfsOp::Write;

  std::uint8_t flags = 0;
  if (reply) flags |= kFlagReply;
  if (rec.overTcp) flags |= kFlagTcp;
  if (eof) flags |= kFlagEof;
  if (resFh) flags |= kFlagResFh;
  if (attrs) flags |= kFlagAttrs;
  if (pre) flags |= kFlagPre;
  if (rec.vers == 2) flags |= kFlagV2;
  if (reply && rec.status != NfsStat::Ok) flags |= kFlagErr;

  // Zone maps over what a decode would produce: uid comes from every
  // record; fileId reads as 0 when the record carries no post-op attrs,
  // so that value participates in the range too.
  const std::uint64_t fid = attrs ? rec.fileId : 0;
  if (records_ == 0) {
    im.tsFirst = im.prevTs = rec.ts;
    im.tsMin = im.tsMax = rec.ts;
    im.uidMin = im.uidMax = rec.uid;
    im.fileIdMin = im.fileIdMax = fid;
  } else {
    if (rec.ts < im.tsMin) im.tsMin = rec.ts;
    if (rec.ts > im.tsMax) im.tsMax = rec.ts;
    if (rec.uid < im.uidMin) im.uidMin = rec.uid;
    if (rec.uid > im.uidMax) im.uidMax = rec.uid;
    if (fid < im.fileIdMin) im.fileIdMin = fid;
    if (fid > im.fileIdMax) im.fileIdMax = fid;
  }
  std::uint32_t opBit = static_cast<std::uint32_t>(rec.op);
  im.opMask |= opBit < 31 ? (1u << opBit) : (1u << 31);

  im.col[kFlags].push_back(static_cast<char>(flags));
  im.col[kOp].push_back(static_cast<char>(rec.op));

  putVarint(im.col[kTs], zigzagDelta(rec.ts, im.prevTs));
  im.prevTs = rec.ts;

  std::uint8_t packed[kWhoBytes];
  packWho(packed, rec.client, rec.server, rec.uid, rec.gid);
  putVarint(im.col[kWho],
            im.who->intern({reinterpret_cast<const char*>(packed), kWhoBytes}));

  putU32(im.col[kXid], rec.xid);

  // Dictionary interning order within a record (fh, fh2, resFh; name,
  // name2) is the order a per-record interning of the decoded fields
  // uses, so global ids follow the record stream.
  putVarint(im.col[kFh], im.handles->intern(fhView(rec.fh)));
  putVarint(im.col[kFh2], im.handles->intern(fhView(rec.fh2)));
  if (resFh) {
    putVarint(im.col[kResFh], im.handles->intern(fhView(rec.resFh)));
  }
  putVarint(im.col[kName], im.names->intern(rec.name));
  putVarint(im.col[kName2], im.names->intern(rec.name2));

  if (rec.hasOffset()) {
    std::int64_t off = static_cast<std::int64_t>(rec.offset);
    putVarint(im.col[kOffset], zigzagDelta(off, im.prevOffset));
    im.prevOffset = off;
    putVarint(im.col[kCount], rec.count);
  }
  if (reply) {
    putVarint(im.col[kReplyTs], zigzagDelta(rec.replyTs, rec.ts));
    if (flags & kFlagErr) {
      putVarint(im.col[kStatus], static_cast<std::uint32_t>(rec.status));
    }
    if (rw) putVarint(im.col[kRetCount], rec.retCount);
  }
  if (attrs) {
    // Varint, not a raw byte: a corrupted wire frame can decode to an
    // out-of-enum ftype (formatRecord prints it faithfully), and the
    // round trip must not truncate it.
    putVarint(im.col[kFtype], static_cast<std::uint32_t>(rec.ftype));
    std::int64_t size = static_cast<std::int64_t>(rec.fileSize);
    putVarint(im.col[kFileSize], zigzagDelta(size, im.prevFileSize));
    im.prevFileSize = size;
    std::int64_t mtime = static_cast<std::int64_t>(rec.fileMtime);
    putVarint(im.col[kFileMtime], zigzagDelta(mtime, im.prevFileMtime));
    im.prevFileMtime = mtime;
    std::int64_t fid = static_cast<std::int64_t>(rec.fileId);
    putVarint(im.col[kFileId], zigzagDelta(fid, im.prevFileId));
    im.prevFileId = fid;
  }
  if (pre) {
    std::int64_t psize = static_cast<std::int64_t>(rec.preSize);
    putVarint(im.col[kPreSize], zigzagDelta(psize, im.prevPreSize));
    im.prevPreSize = psize;
    std::int64_t pmtime = static_cast<std::int64_t>(rec.preMtime);
    putVarint(im.col[kPreMtime], zigzagDelta(pmtime, im.prevPreMtime));
    im.prevPreMtime = pmtime;
  }
  ++records_;
}

std::size_t ExtentEncoder::pendingBytes() const {
  const Impl& im = *impl_;
  std::size_t n = im.handles->bytes() + im.names->bytes() + im.who->bytes();
  // ~2 bytes of dictionary framing per distinct entry.
  n += 2 * (im.handles->size() + im.names->size() + im.who->size());
  for (const auto& c : im.col) n += c.size() + 4;
  return n;
}

ExtentInfo ExtentEncoder::seal(std::string& out, std::uint64_t recordsBefore,
                               std::uint64_t fileOffset) {
  Impl& im = *impl_;
  std::string payload;
  payload.reserve(pendingBytes());

  // Dictionaries first: id 0 (empty) is implicit, entries 1..n-1 in
  // first-appearance order.
  for (const StringInterner* dict :
       {im.handles.get(), im.names.get(), im.who.get()}) {
    putVarint(payload, dict->size() - 1);
    for (std::uint32_t id = 1; id < dict->size(); ++id) {
      std::string_view s = dict->view(id);
      putVarint(payload, s.size());
      payload.append(s);
    }
  }
  for (const auto& c : im.col) {
    putVarint(payload, c.size());
    payload += c;
  }
  if (payload.size() > kExtentMaxPayloadBytes) {
    throw std::runtime_error("trace v2: extent payload of " +
                             std::to_string(payload.size()) +
                             " bytes exceeds the format's cap");
  }

  ExtentHeader hdr;
  hdr.payloadBytes = static_cast<std::uint32_t>(payload.size());
  hdr.records = static_cast<std::uint32_t>(records_);
  hdr.recordsBefore = recordsBefore;
  hdr.tsFirst = im.tsFirst;
  hdr.payloadCrc = crc32(payload.data(), payload.size());
  appendExtentHeader(out, hdr);
  out += payload;

  ExtentInfo info;
  info.offset = fileOffset;
  info.records = hdr.records;
  info.tsMin = im.tsMin;
  info.tsMax = im.tsMax;
  info.opMask = im.opMask;
  info.uidMin = im.uidMin;
  info.uidMax = im.uidMax;
  info.fileIdMin = im.fileIdMin;
  info.fileIdMax = im.fileIdMax;

  im.reset();
  records_ = 0;
  return info;
}

// ---------------------------------------------------------------------------
// ExtentDecoder

struct ExtentDecoder::Impl {
  std::vector<std::uint8_t> buf;
  // Local dictionary id -> global interner id (index 0 is the empty
  // string in both spaces).
  std::vector<std::uint32_t> h2g;
  std::vector<std::uint32_t> n2g;
  // Unpacked identity-tuple dictionary (index 0 is a dummy: who ids
  // start at 1 because the tuples are never empty strings).
  struct Who {
    IpAddr client = 0, server = 0;
    std::uint32_t uid = 0, gid = 0;
  };
  std::vector<Who> who;
  std::array<Cursor, kColumnCount> col;
  StringInterner* gHandles = nullptr;
  StringInterner* gNames = nullptr;

  MicroTime prevTs = 0;
  std::int64_t prevOffset = 0;
  std::int64_t prevFileSize = 0, prevFileMtime = 0, prevFileId = 0;
  std::int64_t prevPreSize = 0, prevPreMtime = 0;

  std::uint32_t mapHandle(std::uint64_t local) const {
    if (local >= h2g.size()) {
      throw std::runtime_error("trace v2: handle dictionary id out of range");
    }
    return h2g[local];
  }
  std::uint32_t mapName(std::uint64_t local) const {
    if (local >= n2g.size()) {
      throw std::runtime_error("trace v2: name dictionary id out of range");
    }
    return n2g[local];
  }
  const Who& mapWho(std::uint64_t local) const {
    if (local >= who.size()) {
      throw std::runtime_error("trace v2: who dictionary id out of range");
    }
    return who[local];
  }
};

ExtentDecoder::ExtentDecoder() : impl_(new Impl) {}
ExtentDecoder::~ExtentDecoder() { delete impl_; }

std::vector<std::uint8_t>& ExtentDecoder::buffer() { return impl_->buf; }

void ExtentDecoder::load(const ExtentHeader& hdr, StringInterner& names,
                         StringInterner& handles) {
  Impl& im = *impl_;
  if (im.buf.size() < hdr.payloadBytes) {
    throw std::runtime_error("trace v2: payload buffer underfilled");
  }
  Cursor c{im.buf.data(), im.buf.data() + hdr.payloadBytes};

  // Intern dictionary entries into the global interners in extent order —
  // first-appearance order across the whole trace, i.e. the exact id
  // sequence a per-record interning of the decoded fields produces.
  // Each entry takes at least `minBytes` of what is left, so a count
  // beyond that is damage, refused before it sizes an allocation.
  auto readCount = [&c](std::uint64_t minBytes) {
    std::uint64_t count = c.varint();
    if (count > static_cast<std::uint64_t>(c.end - c.p) / minBytes) {
      throw std::runtime_error("trace v2: dictionary count exceeds payload");
    }
    return count;
  };
  auto loadDict = [&c, &readCount](std::vector<std::uint32_t>& map,
                                   StringInterner& global,
                                   std::uint64_t maxLen) {
    std::uint64_t count = readCount(1);
    map.clear();
    map.reserve(count + 1);
    map.push_back(StringInterner::kEmptyId);
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t len = c.varint();
      if (len > maxLen) {
        // Validated here so the per-record decode can copy handle bytes
        // without a length check of its own.
        throw std::runtime_error("trace v2: dictionary entry too long");
      }
      const std::uint8_t* p = c.take(len);
      map.push_back(global.intern(
          {reinterpret_cast<const char*>(p), static_cast<std::size_t>(len)}));
    }
  };
  loadDict(im.h2g, handles, kFhSize3);
  loadDict(im.n2g, names, ~std::uint64_t{0});

  // The who dictionary unpacks into a local table rather than a global
  // interner: identity tuples are per-extent lookup state, not strings
  // the analysis layer needs ids for.
  {
    std::uint64_t count = readCount(1 + kWhoBytes);
    im.who.clear();
    im.who.reserve(count + 1);
    im.who.emplace_back();
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t len = c.varint();
      if (len != kWhoBytes) {
        throw std::runtime_error("trace v2: bad who dictionary entry");
      }
      const std::uint8_t* p = c.take(len);
      Impl::Who w;
      w.client = getU32(p);
      w.server = getU32(p + 4);
      w.uid = getU32(p + 8);
      w.gid = getU32(p + 12);
      im.who.push_back(w);
    }
  }

  for (std::size_t i = 0; i < kColumnCount; ++i) {
    std::uint64_t len = c.varint();
    const std::uint8_t* p = c.take(len);
    im.col[i] = Cursor{p, p + len};
  }
  // Trailing bytes after the known columns are a future writer's extra
  // sections; ignore them.

  im.gHandles = &handles;
  im.gNames = &names;
  im.prevTs = hdr.tsFirst;
  im.prevOffset = 0;
  im.prevFileSize = im.prevFileMtime = im.prevFileId = 0;
  im.prevPreSize = im.prevPreMtime = 0;
  remaining_ = hdr.records;
}

namespace {

/// Copy an interned handle view into a record's FileHandle in place —
/// only `len` payload bytes are written, so no 64-byte zero-fill of the
/// unused tail (everything downstream is `len`-bounded).
inline void assignFh(FileHandle& fh, std::string_view v) {
  fh.len = static_cast<std::uint8_t>(v.size());
  std::memcpy(fh.data.data(), v.data(), v.size());
}

}  // namespace

/// Every field of the record is assigned unconditionally (a default where
/// the column doesn't apply), so no cleared temporary is needed and the
/// record stays write-only through the scan hot path.
inline void ExtentDecoder::decodeOne(const BatchOut& out, std::size_t i) {
  Impl& im = *impl_;
  TraceRecord& rec = out.recs[i];
  std::uint8_t flags = im.col[kFlags].byte();
  std::uint8_t op = im.col[kOp].byte();
  rec.op = op < kNfsOpCount ? static_cast<NfsOp>(op) : NfsOp::Unknown;
  rec.vers = (flags & kFlagV2) ? 2 : 3;
  rec.overTcp = (flags & kFlagTcp) != 0;
  rec.hasReply = (flags & kFlagReply) != 0;
  rec.eof = (flags & kFlagEof) != 0;
  rec.hasResFh = (flags & kFlagResFh) != 0;
  rec.hasAttrs = (flags & kFlagAttrs) != 0;
  rec.hasPre = (flags & kFlagPre) != 0;

  im.prevTs = addDelta(im.prevTs, im.col[kTs].varint());
  rec.ts = im.prevTs;

  const Impl::Who& w = im.mapWho(im.col[kWho].varint());
  rec.client = w.client;
  rec.server = w.server;
  rec.uid = w.uid;
  rec.gid = w.gid;

  rec.xid = getU32(im.col[kXid].take(4));

  std::uint32_t fhId = im.mapHandle(im.col[kFh].varint());
  std::uint32_t fh2Id = im.mapHandle(im.col[kFh2].varint());
  std::uint32_t resFhId = StringInterner::kEmptyId;
  if (rec.hasResFh) resFhId = im.mapHandle(im.col[kResFh].varint());
  if (fhId) {
    assignFh(rec.fh, im.gHandles->view(fhId));
  } else {
    rec.fh.len = 0;
  }
  if (fh2Id) {
    assignFh(rec.fh2, im.gHandles->view(fh2Id));
  } else {
    rec.fh2.len = 0;
  }
  if (resFhId) {
    assignFh(rec.resFh, im.gHandles->view(resFhId));
  } else {
    rec.resFh.len = 0;
  }
  std::uint32_t nameId = im.mapName(im.col[kName].varint());
  std::uint32_t name2Id = im.mapName(im.col[kName2].varint());
  if (nameId) {
    rec.name.assign(im.gNames->view(nameId));
  } else {
    rec.name.clear();
  }
  if (name2Id) {
    rec.name2.assign(im.gNames->view(name2Id));
  } else {
    rec.name2.clear();
  }
  out.fh[i] = fhId;
  out.fh2[i] = fh2Id;
  out.resFh[i] = resFhId;
  out.name[i] = nameId;
  out.name2[i] = name2Id;

  if (rec.hasOffset()) {
    im.prevOffset = addDelta(im.prevOffset, im.col[kOffset].varint());
    rec.offset = static_cast<std::uint64_t>(im.prevOffset);
    rec.count = static_cast<std::uint32_t>(im.col[kCount].varint());
  } else {
    rec.offset = 0;
    rec.count = 0;
  }
  rec.replyTs = 0;
  rec.status = NfsStat::Ok;
  rec.retCount = 0;
  if (rec.hasReply) {
    rec.replyTs = addDelta(rec.ts, im.col[kReplyTs].varint());
    if (flags & kFlagErr) {
      rec.status = static_cast<NfsStat>(
          static_cast<std::uint32_t>(im.col[kStatus].varint()));
    }
    if (rec.op == NfsOp::Read || rec.op == NfsOp::Write) {
      rec.retCount = static_cast<std::uint32_t>(im.col[kRetCount].varint());
    }
  }
  if (rec.hasAttrs) {
    rec.ftype = static_cast<FileType>(
        static_cast<std::uint32_t>(im.col[kFtype].varint()));
    im.prevFileSize = addDelta(im.prevFileSize, im.col[kFileSize].varint());
    rec.fileSize = static_cast<std::uint64_t>(im.prevFileSize);
    im.prevFileMtime = addDelta(im.prevFileMtime, im.col[kFileMtime].varint());
    rec.fileMtime = im.prevFileMtime;
    im.prevFileId = addDelta(im.prevFileId, im.col[kFileId].varint());
    rec.fileId = static_cast<std::uint64_t>(im.prevFileId);
  } else {
    rec.ftype = FileType::Regular;
    rec.fileSize = 0;
    rec.fileMtime = 0;
    rec.fileId = 0;
  }
  if (rec.hasPre) {
    im.prevPreSize = addDelta(im.prevPreSize, im.col[kPreSize].varint());
    rec.preSize = static_cast<std::uint64_t>(im.prevPreSize);
    im.prevPreMtime = addDelta(im.prevPreMtime, im.col[kPreMtime].varint());
    rec.preMtime = im.prevPreMtime;
  } else {
    rec.preSize = 0;
    rec.preMtime = 0;
  }
}

std::size_t ExtentDecoder::take(const BatchOut& out, std::size_t max) {
  const std::size_t n = remaining_ < max ? remaining_ : max;
  for (std::size_t i = 0; i < n; ++i) decodeOne(out, i);
  remaining_ -= n;
  return n;
}

}  // namespace tracev2
}  // namespace nfstrace
