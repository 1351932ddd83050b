// Trace format v2: fixed-size column-oriented extents (DataSeries-style).
//
// The text format is row-oriented — every record carries every field, and
// the reader pays a full per-record parse.  v2 groups records into
// extents of a few thousand records and stores each field as its own
// contiguous column stream with a per-column encoding:
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
// text per-record decode would assign: the analysis engine's byte-identical
// guarantee carries over to v2 input for free.  The identity-tuple
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
// that skips damage knows exactly how many records it lost — the v2
// generalization of the text format's checkpoint comment.
#pragma once

#include <cstdint>
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

/// Append the schema block ("NFSH" + length-prefixed text) to `out`.
void appendSchema(std::string& out);

/// Validate + skip a schema block at `data` (bytes after the file magic).
/// Returns the block's total size, or nullopt if the block is malformed
/// or names any schema but "nfstrace-v2 schema 4" (the only one read);
/// with non-null `error`, says which, naming the schema found.
std::optional<std::size_t> parseSchema(const char* data, std::size_t n,
                                       std::string* error = nullptr);

/// Parse + validate a fixed extent header (kExtentHeaderBytes bytes
/// starting at the magic).  Returns false on bad magic or header CRC.
bool parseExtentHeader(const unsigned char* p, ExtentHeader& out);

/// Append the footer index + trailer for `extents` to `out`;
/// `indexOffset` is the file offset `out` will land at.
void appendIndex(std::string& out, const std::vector<ExtentInfo>& extents,
                 std::uint64_t indexOffset);

/// Load the footer index of a v2 trace.  nullopt when the file is not
/// v2, has no footer (torn tail / still being written), or the footer
/// fails its CRC.
std::optional<std::vector<ExtentInfo>> loadExtentIndex(
    const std::string& path);

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
  /// payload); used to seal early on pathological extents.
  std::size_t pendingBytes() const;

  /// Append header + payload for the buffered records to `out` and reset.
  /// Must not be called with zero records.  `fileOffset` is where the
  /// extent magic will land in the file (recorded in the returned info).
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
  /// Global interned ids for one record's string columns.
  struct Ids {
    std::uint32_t fh = 0, fh2 = 0, resFh = 0;
    std::uint32_t name = 0, name2 = 0;
  };

  ExtentDecoder();
  ~ExtentDecoder();
  ExtentDecoder(const ExtentDecoder&) = delete;
  ExtentDecoder& operator=(const ExtentDecoder&) = delete;

  /// The payload buffer the caller freads into before load() (reused
  /// across extents).
  std::vector<std::uint8_t>& buffer();

  /// Parse dictionaries + column cursors from buffer() (which must hold
  /// hdr.payloadBytes bytes whose CRC already checked out).  Throws
  /// std::runtime_error on malformed payload.
  void load(const ExtentHeader& hdr, StringInterner& names,
            StringInterner& handles);

  std::size_t remaining() const { return remaining_; }

  /// Decode the next record (slot is reset, string capacity reused).
  /// With non-null `ids`, also emits the record's global interned ids.
  /// Must not be called with remaining() == 0.
  void next(TraceRecord& rec, Ids* ids);

  /// Destination arrays for a bulk decode: `recs` plus the five parallel
  /// id arrays of a TraceBatch, all with room for at least `max` entries.
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
  void decodeOne(TraceRecord& rec, Ids* ids);

  struct Impl;
  Impl* impl_;
  std::size_t remaining_ = 0;
};

}  // namespace tracev2
}  // namespace nfstrace
