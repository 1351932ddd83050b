// Run detection and access-pattern classification (§4.2) plus the
// sequentiality metric (§6.4).
//
// NFS has no open/close, so accesses to a file are split into "runs" with
// two break rules: the previous access referenced end-of-file, or the
// previous access is older than 30 seconds.  Each run is then classified:
//
//   sequential — every access begins where the previous one ended
//                (offsets/counts rounded to 8 KB blocks; in "processed"
//                mode forward jumps of < 10 blocks are tolerated);
//   entire     — sequential and covering offset 0 through EOF;
//   random     — everything else;
//
// and typed read / write / read-write by the operations it contains.
//
// The sequentiality metric is the fraction of a run's block accesses that
// are k-consecutive (within k blocks of the preceding access) — Keith
// Smith's layout score adapted to access streams.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/record.hpp"

namespace nfstrace {

enum class RunType : std::uint8_t { Read, Write, ReadWrite };
enum class RunPattern : std::uint8_t { Entire, Sequential, Random };

struct Run {
  FileHandle fh;
  RunType type = RunType::Read;
  RunPattern pattern = RunPattern::Sequential;
  MicroTime start = 0;
  MicroTime end = 0;
  std::uint64_t bytesAccessed = 0;  // sum of access counts
  std::uint64_t fileSize = 0;       // best-known size during the run
  std::uint32_t accesses = 0;
  double seqMetricStrict = 0.0;  // k = 0 (small jumps not allowed)
  double seqMetricLoose = 0.0;   // k = 10 blocks (small jumps allowed)
};

/// Break a run when the previous access is older than this (§4.2: the
/// 30-second rule).  Offsets and counts round to kNfsBlockSize blocks.
inline constexpr MicroTime kRunIdleBreak = 30 * kMicrosPerSecond;
/// k for the loose sequentiality metric, in blocks (§6.4: k = 10).
inline constexpr std::uint32_t kSeqMetricK = 10;

struct RunDetectorConfig {
  /// Small-jump tolerance in blocks for the *classification* ("processed"
  /// mode of Table 3).  Zero reproduces the raw columns.
  std::uint32_t jumpTolerance = 10;
};

/// One data access as run detection sees it (40 bytes).
struct AccessRow {
  MicroTime ts = 0;
  std::uint64_t offset = 0;
  std::uint64_t fileSize = 0;  // from the reply's attributes, 0 without
  std::uint32_t count = 0;     // the reply's count when it has one
  std::uint32_t file = 0;      // dense file id: index into the handles
  bool isWrite = false;
  bool refsEof = false;        // rule (a) of the run split
};
static_assert(sizeof(AccessRow) == 40);

/// The row of a data access (isDataAccess) with file id `file`.
AccessRow accessRow(const TraceRecord& rec, std::uint32_t file);

/// Split rows, taken in `order` (indices into `rows`: apply the
/// reorder-window sort first), into runs.  `handles[row.file]` fills
/// Run::fh, so every row's file must index it.
std::vector<Run> detectRuns(const std::vector<AccessRow>& rows,
                            const std::vector<std::uint32_t>& order,
                            const std::vector<FileHandle>& handles,
                            const RunDetectorConfig& config = {});

/// Split trace records (in list order — apply the reorder-window sort
/// first) into runs.
std::vector<Run> detectRuns(const std::vector<TraceRecord>& records,
                            const RunDetectorConfig& config = {});

/// Aggregate of Table 3: percentages by type and pattern.
struct RunPatternSummary {
  // Fractions of all runs by type:
  double readFrac = 0, writeFrac = 0, rwFrac = 0;
  // Within each type, fractions by pattern (entire/sequential/random):
  double readEntire = 0, readSeq = 0, readRandom = 0;
  double writeEntire = 0, writeSeq = 0, writeRandom = 0;
  double rwEntire = 0, rwSeq = 0, rwRandom = 0;
};

RunPatternSummary summarizeRunPatterns(const std::vector<Run>& runs);

/// Figure 2: bytes accessed by category, bucketed by file size.
struct SizeBucketedBytes {
  std::vector<double> bucketTopBytes;  // bucket upper edges (log scale)
  std::vector<double> total;           // cumulative % of bytes accessed
  std::vector<double> entire;
  std::vector<double> sequential;
  std::vector<double> random;
};

SizeBucketedBytes bytesByFileSize(const std::vector<Run>& runs);

/// Figure 5 (top): average sequentiality metric bucketed by run size.
struct SeqMetricBySize {
  std::vector<double> bucketTopBytes;
  std::vector<double> meanLoose;   // small jumps allowed (k = 10)
  std::vector<double> meanStrict;  // small jumps not allowed (k = 0)
  std::vector<std::uint64_t> runCount;
};

SeqMetricBySize sequentialityBySize(const std::vector<Run>& runs,
                                    bool writesOnly, bool readsOnly);

}  // namespace nfstrace
