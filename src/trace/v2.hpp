// Trace format v2, the one on-disk trace format: fixed-size
// column-oriented extents (DataSeries-style).
//
// v2 groups records into extents of a few thousand records and stores
// each field as its own contiguous column stream with a per-column
// encoding:
//
//   column        encoding
//   ------------  ----------------------------------------------------
//   flags, op     1 byte/record (flags packs reply/tcp/eof/attr/err bits
//                 + vers)
//   ts            zigzag varint delta vs previous record's ts
//   replyTs       [hasReply] zigzag varint (replyTs - ts)
//   who           varint id into the extent's identity-tuple dictionary
//                 — one id stands for (client, server, uid, gid)
//   xid           4 bytes little-endian
//   fh/fh2/resFh  varint id into the extent's file-handle dictionary
//   name/name2    varint id into the extent's name dictionary
//   offset        [read/write/commit] zigzag varint delta vs previous
//                 offset (sequential access decodes to 1 byte)
//   count         [read/write/commit] varint
//   status        [hasReply, err flag] varint — Ok replies store nothing
//   retCount      [hasReply, read/write] varint
//   attrs         [hasAttrs] ftype varint; size/mtime/fileId zigzag varint
//                 delta vs the previous value in the same column (polls
//                 of an unchanged file decode to 1 byte each)
//   pre-op attrs  [hasPre] size/mtime zigzag delta vs previous value
//
// Dictionaries are extent-local (id 0 is always the empty string and is
// never stored), so every extent is independently decodable — the
// property both seekable scans and extent-granular recovery rest on.
// Local dictionary order is first-appearance order within the extent,
// which makes the reader's global interned ids identical to the ids a
// per-record interning of the decoded fields would assign, at any batch
// size and whichever extents a pruned scan skips.  The identity-tuple
// ("who") dictionary stores 16-byte packed little-endian
// (client, server, uid, gid) entries and is decoded into a local lookup
// table — a trace has few distinct identities, so one varint per record
// replaces four delta columns.
//
// Layout on disk:
//
//   "NFST2\n"                                     file magic
//   "NFSH" u32 len  <schema text>                 self-describing schema
//   extent*                                       (see ExtentHeader)
//   "NFIX" u32 n  n x entry  u32 crc  u64 off     footer index (optional,
//   "NFS2EOF\n"                                    written on clean close)
//
// Each extent is  "NFX2" + fixed header (with its own CRC) + payload
// (dictionaries then columns, CRC'd as a unit).  The header carries the
// cumulative record count of all prior extents, so a recovering reader
// that skips damage knows exactly how many records it lost: every extent
// header is a checkpoint.  A header whose payload size is above
// kExtentMaxPayloadBytes is as bad as one that fails its CRC, so no
// header can make a reader allocate more than that.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "trace/record.hpp"
#include "util/interner.hpp"

namespace nfstrace {
namespace tracev2 {

inline constexpr char kFileMagic[6] = {'N', 'F', 'S', 'T', '2', '\n'};
inline constexpr char kSchemaMagic[4] = {'N', 'F', 'S', 'H'};
inline constexpr char kExtentMagic[4] = {'N', 'F', 'X', '2'};
inline constexpr char kIndexMagic[4] = {'N', 'F', 'I', 'X'};
inline constexpr char kTrailerMagic[8] = {'N', 'F', 'S', '2', 'E', 'O', 'F',
                                          '\n'};

/// Fixed extent header: magic, payloadBytes u32, records u32,
/// recordsBefore u64, tsFirst i64, payloadCrc u32, headerCrc u32.
inline constexpr std::size_t kExtentHeaderBytes = 4 + 4 + 4 + 8 + 8 + 4 + 4;

/// The writer seals an extent once its encoded payload reaches this size
/// (or it holds TraceWriter::Options::v2ExtentRecords records).
inline constexpr std::size_t kExtentSealBytes = 1 << 20;
/// No valid extent payload is larger.  The last record before a seal
/// can only overshoot kExtentSealBytes by its own bytes, so only a record
/// carrying megabytes of names gets near it; the writer throws rather
/// than seal past it, and readers refuse a header above it.
inline constexpr std::uint32_t kExtentMaxPayloadBytes = 16 * kExtentSealBytes;

/// One footer-index entry (also what the writer tracks per sealed
/// extent): enough to skip an extent by time range, op mix, uid or
/// fileId range without touching its payload.
struct ExtentInfo {
  std::uint64_t offset = 0;  // file offset of the extent magic
  std::uint32_t records = 0;
  MicroTime tsMin = 0;
  MicroTime tsMax = 0;
  /// Bit i set iff some record in the extent has op == i (ops >= 31
  /// collapse into bit 31).
  std::uint32_t opMask = 0;
  /// Zone maps.  uid ranges over every record; fileId ranges over the
  /// value a decode would produce (0 for records without post-op
  /// attrs), so record-level predicate semantics match.
  std::uint32_t uidMin = 0;
  std::uint32_t uidMax = ~std::uint32_t{0};
  std::uint64_t fileIdMin = 0;
  std::uint64_t fileIdMax = ~std::uint64_t{0};
};

/// Footer-index entry size on disk.
inline constexpr std::size_t kIndexEntryBytes = 56;

struct ExtentHeader {
  std::uint32_t payloadBytes = 0;
  std::uint32_t records = 0;
  std::uint64_t recordsBefore = 0;  // cumulative records in prior extents
  MicroTime tsFirst = 0;            // absolute ts of the extent's record 0
  std::uint32_t payloadCrc = 0;
};

/// Append the file magic and the schema block ("NFSH" + length-prefixed
/// text) to `out`.
void appendPreamble(std::string& out);

/// What readPreamble found.
enum class Preamble {
  Ok,           ///< the v2 file magic and a schema-4 block
  Bad,          ///< no v2 magic, or a torn or malformed schema block
  Unsupported,  ///< a whole schema block naming any schema but 4
};

/// Read the file magic and schema block at `f`'s position, leaving the
/// stream just past the bytes read.  Anything but Ok sets `error`, when
/// non-null, to what was wrong ("not a v2 trace", or the schema found).
Preamble readPreamble(std::FILE* f, std::string* error = nullptr);

/// Parse + validate a fixed extent header (kExtentHeaderBytes bytes
/// starting at the magic).  Returns false on bad magic, a bad header CRC
/// or a payload size above kExtentMaxPayloadBytes.
bool parseExtentHeader(const unsigned char* p, ExtentHeader& out);

/// Append the footer index + trailer for `extents` to `out`;
/// `indexOffset` is the file offset `out` will land at.
void appendIndex(std::string& out, const std::vector<ExtentInfo>& extents,
                 std::uint64_t indexOffset);

/// Load the extent index of a v2 stream that may be several sealed
/// segments concatenated back to back (cat of the daemon's sealed
/// files), with every entry's offset rebased to the whole file.  Walks
/// segments forward, chains every "NFIX" footer, and cross-checks each
/// footer entry against the extent headers actually walked, so a bad or
/// missing footer can never silently drop extents.  nullopt when the
/// file is not v2 or any segment lacks a clean, CRC-valid,
/// header-consistent footer — callers fall back to the sequential
/// magic-scan reader.
std::optional<std::vector<ExtentInfo>> loadChainedIndex(
    const std::string& path);

/// Writer-side column accumulator for one extent.  Records stream in via
/// add(); seal() assembles dictionaries + columns into a CRC'd payload,
/// appends header + payload to the output buffer, and resets for the
/// next extent.
class ExtentEncoder {
 public:
  ExtentEncoder();
  ~ExtentEncoder();
  ExtentEncoder(const ExtentEncoder&) = delete;
  ExtentEncoder& operator=(const ExtentEncoder&) = delete;

  void add(const TraceRecord& rec);
  std::size_t records() const { return records_; }
  /// Encoded payload bytes buffered so far (columns + dictionary
  /// payload); the writer seals at kExtentSealBytes.
  std::size_t pendingBytes() const;

  /// Append header + payload for the buffered records to `out` and reset.
  /// Must not be called with zero records.  `fileOffset` is where the
  /// extent magic will land in the file (recorded in the returned info).
  /// Throws std::runtime_error, leaving `out` untouched, when the payload
  /// would exceed kExtentMaxPayloadBytes.
  ExtentInfo seal(std::string& out, std::uint64_t recordsBefore,
                  std::uint64_t fileOffset);

 private:
  struct Impl;
  Impl* impl_;
  std::size_t records_ = 0;
};

/// Reader-side extent decoder: validates and cursors one extent payload.
/// Dictionary entries are interned into the caller's global interners at
/// load time (a few dozen strings per extent), after which per-record
/// decode is pure varint/byte reads — no hashing, no per-record parse.
class ExtentDecoder {
 public:
  ExtentDecoder();
  ~ExtentDecoder();
  ExtentDecoder(const ExtentDecoder&) = delete;
  ExtentDecoder& operator=(const ExtentDecoder&) = delete;

  /// The payload buffer the caller freads into before load() (reused
  /// across extents).
  std::vector<std::uint8_t>& buffer();

  /// Parse dictionaries + column cursors from buffer() (which must hold
  /// hdr.payloadBytes bytes whose CRC already checked out).  Throws
  /// std::runtime_error on malformed payload, before any allocation a
  /// count in it asks for exceeds what the payload could hold.  Columns
  /// too short for hdr.records, or an id outside its dictionary, throw
  /// from take() instead.  Loading the same extent again starts it over
  /// with the same ids.
  void load(const ExtentHeader& hdr, StringInterner& names,
            StringInterner& handles);

  std::size_t remaining() const { return remaining_; }

  /// Destination arrays for a decode: `recs` plus the five parallel
  /// global interned id arrays of a TraceBatch, all with room for at
  /// least `max` entries.  Every field of a record slot is assigned
  /// (string capacity reused).
  struct BatchOut {
    TraceRecord* recs = nullptr;
    std::uint32_t* fh = nullptr;
    std::uint32_t* fh2 = nullptr;
    std::uint32_t* resFh = nullptr;
    std::uint32_t* name = nullptr;
    std::uint32_t* name2 = nullptr;
  };

  /// Bulk decode of min(remaining(), max) records into `out` — one call
  /// per batch refill instead of one per record.  Returns the count
  /// decoded.
  std::size_t take(const BatchOut& out, std::size_t max);

 private:
  /// Decode the next record into slot `i` of `out`.
  void decodeOne(const BatchOut& out, std::size_t i);

  struct Impl;
  Impl* impl_;
  std::size_t remaining_ = 0;
};

}  // namespace tracev2
}  // namespace nfstrace
