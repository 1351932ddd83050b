// Crash-consistent segment manifest for the continuous-capture daemon.
//
// The manifest is the daemon's durable source of truth: a small text
// journal listing every sealed trace segment plus the cumulative §4.1.4
// loss accounting, rewritten whole via the tmp + fsync + rename idiom
// (util/atomicfile) after every state change.  Because each save is
// atomic, a crash at any byte leaves either the previous complete
// manifest or the new one — never a torn file — and a restarted daemon
// resumes exactly: re-read the manifest, recover the one possibly-torn
// active segment, fold its salvage into the books, and continue the
// segment sequence with no gaps and no duplicates.
//
// Format (line-oriented, human-greppable, CRC-32 trailer):
//
//   # nfstraced manifest v1
//   next_seq = 3
//   captured = 5000
//   sealed = 4900
//   recovered = 60
//   lost = 40
//   segment = seq=1 file=eecs-000001.trace records=2500 bytes=123456
//             first=0 sealed_unix=1754650000                 (one line)
//   crc = 0x1a2b3c4d
//
// The crc line covers every byte before it; a missing or mismatching
// trailer (or any parse error) reports Damaged, and the daemon falls
// back to reconstructing state from a directory scan — degraded
// accounting, but always a resumable state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nfstrace::daemon {

/// One sealed (immutable, fully checkpointed) v2 trace segment.
struct SegmentInfo {
  std::uint64_t seq = 0;      ///< segment sequence number (1-based)
  std::string file;           ///< basename within the daemon directory
  std::uint64_t records = 0;  ///< records sealed in this segment
  std::uint64_t bytes = 0;    ///< file size at seal time
  /// Cumulative stream position of this segment's first record: the
  /// total records durable (sealed + recovered) before it.  A restarted
  /// source resumes feeding at first + records of the last segment.
  std::uint64_t first = 0;
  std::int64_t sealedUnix = 0;  ///< wall-clock seal time (age retention)
};

/// Cumulative §4.1.4 loss accounting.  The daemon maintains the exact
/// invariant  captured == sealed + recovered + lost  at every manifest
/// save: every record the books know about has exactly one durable
/// disposition.  (A record lost in a torn tail and later re-fed by a
/// restarted source is counted captured twice — once when recovery folds
/// the torn segment's evidence, once on re-submission — and contributes
/// one `lost` and one `sealed`, so the equation stays balanced.)
struct Books {
  std::uint64_t captured = 0;   ///< records with a durable disposition
  std::uint64_t sealed = 0;     ///< records in sealed segments
  std::uint64_t recovered = 0;  ///< records salvaged from torn segments
  std::uint64_t lost = 0;       ///< records accounted as lost (torn
                                ///< tails, degraded-mode sheds)

  bool balanced() const { return captured == sealed + recovered + lost; }
};

struct Manifest {
  /// Sequence number of the current (or next) active segment.  Sealed
  /// segments always have seq < nextSeq.
  std::uint64_t nextSeq = 1;
  Books books;
  std::vector<SegmentInfo> segments;  ///< sealed, ascending seq

  enum class LoadStatus {
    Ok,       ///< parsed and CRC-verified
    Missing,  ///< no manifest file (fresh directory or first run)
    Damaged,  ///< torn, corrupt, or internally inconsistent
  };

  /// Total records present in (or retired from) sealed segments — the
  /// stream position a restarted source resumes from.  Computed from the
  /// books, not the segment list, so retention deleting old segment
  /// files never rewinds the stream.
  std::uint64_t streamPos() const { return books.sealed + books.recovered; }

  /// Render the full manifest text, CRC trailer included.
  std::string render() const;

  /// Parse `path` into `out` (untouched unless Ok).  Missing/Damaged per
  /// LoadStatus; never throws.
  static LoadStatus load(const std::string& path, Manifest& out);

  /// Atomically replace `path` with render() (tmp + fsync + rename).
  /// Throws std::runtime_error on I/O failure.
  void save(const std::string& path) const;
};

}  // namespace nfstrace::daemon
