// Batched trace decode (the analysis engine's unit of work).
//
// TraceReader::nextBatch() decodes up to `TraceBatch::capacity` records
// into a caller-owned batch whose record slots are reused from fill to
// fill, so the steady-state decode loop performs no per-record heap
// allocation: string fields reuse their capacity and every path / file
// handle is additionally interned into dense 32-bit ids (parallel arrays
// alongside the records).  The interners are owned by the reader and
// shared by every batch it fills; ids are assigned in first-appearance
// order, making them deterministic for a given trace.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/predicate.hpp"
#include "trace/record.hpp"
#include "util/interner.hpp"

namespace nfstrace {

/// One record's interned ids: handles in the handle interner, names in
/// the name interner.  0 is the empty handle or name.
struct RecordIds {
  std::uint32_t fh = 0, fh2 = 0, resFh = 0;
  std::uint32_t name = 0, name2 = 0;
};

struct TraceBatch {
  /// Default batch size: large enough to amortize refill/queue costs,
  /// small enough that a handful of in-flight batches stay cache-warm.
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// Sequence number of this batch within the reader's stream (0-based).
  std::uint64_t seq = 0;
  /// Number of valid records; `records[0..n)` and the id arrays are live.
  std::size_t n = 0;
  /// Record slots (capacity-reused across fills; only [0, n) is valid).
  std::vector<TraceRecord> records;
  /// Interned ids, parallel to `records`: handles in `handles()`,
  /// names in `names()`.
  std::vector<std::uint32_t> fhId, fh2Id, resFhId;
  std::vector<std::uint32_t> nameId, name2Id;
  /// The namespace's columns, filled by the engine (analysis/namespace):
  /// the handle id each record unlinks (0: none), and for READ and WRITE
  /// whether the handle's parent was known; then the known files after
  /// the batch.
  std::vector<std::uint32_t> unlinkedId;
  std::vector<std::uint8_t> parentKnown;
  std::size_t knownFiles = 0;
  /// True when the batch was cut short because the reader resynchronized
  /// past a corrupt region (recover mode): a batch never straddles one.
  bool endedAtResync = false;
  /// Ops that may occur in the batch, as an opMaskBit() union: the
  /// footer op bitmask of the extent the records came from when the
  /// reader prunes by zone map (a v2 batch never straddles extents), all
  /// ops otherwise.  A pass whose opMask() misses it may skip the batch.
  std::uint32_t opMask = kAllOpsMask;

  /// Interner for name/name2 strings (set by the reader; reader-owned).
  const StringInterner* nameInterner = nullptr;
  /// Interner for file-handle bytes (set by the reader; reader-owned).
  const StringInterner* handleInterner = nullptr;

  RecordIds ids(std::size_t i) const {
    return {fhId[i], fh2Id[i], resFhId[i], nameId[i], name2Id[i]};
  }
  std::size_t size() const { return n; }
  bool empty() const { return n == 0; }
};

}  // namespace nfstrace
