// Block birth/death accounting with Roselli's create-based method
// (§5.2, Table 4, Figure 3).
//
// Phase 1 records both block births and deaths; Phase 2 (the "end margin")
// records only deaths, so blocks born late in Phase 1 get a fair chance to
// die.  Lifespans longer than the Phase 2 length are censored into the
// "end surplus" to remove sampling bias.
//
// The phases are a parameter of finish() only, so a caller can split the
// trace's own span, known only at its end.  observe() logs every birth
// (time, cause) and every death of a block born during the trace (birth
// time, death time, cause) in stream order; finish() then decides which
// of them fall inside the phases.  Consecutive identical events share
// one entry with a block count, so one record that births or kills a
// run of blocks logs one event per cause, not one per block.
//
// Births happen when a write or truncate-up allocates a block:
//   * Write     — the block's bytes were actually written;
//   * Extension — the block appeared because the file grew past it without
//     it being written (lseek-past-EOF; the paper notes this category is
//     mildly exaggerated because a gapped write attributes every new block
//     to extension).
// Deaths:
//   * Overwrite — a live block is written again (new version born);
//   * Truncate  — setattr shrank the file over it;
//   * Delete    — the file was removed, or replaced by a RENAME onto its
//     name (the namespace resolves which handle a record unlinks).
#pragma once

#include <cstdint>
#include <vector>

#include "trace/batch.hpp"
#include "trace/record.hpp"
#include "util/histogram.hpp"

namespace nfstrace {

/// Phase bounds.  Blocks are kNfsBlockSize (8 KB) units.
struct BlockLifeConfig {
  MicroTime phase1Start = 0;
  MicroTime phase1Length = kMicrosPerDay;
  MicroTime phase2Length = kMicrosPerDay;  // end margin
};

struct BlockLifeStats {
  std::uint64_t births = 0;
  std::uint64_t birthsWrite = 0;
  std::uint64_t birthsExtension = 0;
  std::uint64_t deaths = 0;  // deaths of phase-1-born blocks within margin
  std::uint64_t deathsOverwrite = 0;
  std::uint64_t deathsTruncate = 0;
  std::uint64_t deathsDelete = 0;
  std::uint64_t endSurplus = 0;  // born in phase 1, outlived the margin

  double surplusFraction() const {
    return births ? static_cast<double>(endSurplus) /
                        static_cast<double>(births)
                  : 0.0;
  }
};

class BlockLifeAnalyzer {
 public:
  /// Feed records in time order, each with its interned ids and the
  /// handle id it unlinks (Namespace::apply), whose blocks die.
  void observe(const TraceRecord& rec, const RecordIds& ids,
               std::uint32_t unlinked);

  /// Close the analysis over `phases`: count the phase-1 births, the
  /// deaths of phase-1 blocks before the end of the margin (censoring
  /// lifespans longer than phase 2 to the end surplus), and every
  /// phase-1 block still alive as end surplus.  May be called again with
  /// other phases; each call replaces stats() and lifetimes().
  void finish(const BlockLifeConfig& phases);

  const BlockLifeStats& stats() const { return stats_; }
  /// Lifetimes (seconds) of phase-1-born blocks that died within the
  /// margin — the Figure 3 CDF.
  EmpiricalCdf& lifetimes() { return lifetimes_; }
  /// Birth and death events logged so far: what finish() has to decide.
  std::size_t loggedEvents() const { return births_.size() + deaths_.size(); }

 private:
  enum class Cause : std::uint8_t { Write, Extension, Overwrite, Truncate,
                                    Delete };
  struct Birth {
    MicroTime ts;
    std::uint32_t blocks;
    Cause cause;
  };
  struct Death {
    MicroTime born, died;
    std::uint32_t blocks;
    Cause cause;
  };
  struct FileState {
    std::uint64_t sizeBytes = 0;
    /// Birth time per block; kUntracked for blocks that existed before
    /// the trace.
    std::vector<MicroTime> birth;
  };
  static constexpr MicroTime kUntracked = -1;

  FileState& file(std::uint32_t id);
  void killBlock(FileState& st, std::size_t block, MicroTime now,
                 Cause cause);
  void recordBirth(FileState& st, std::size_t block, MicroTime now,
                   bool isWrite);

  std::vector<Birth> births_;
  std::vector<Death> deaths_;
  BlockLifeStats stats_;
  EmpiricalCdf lifetimes_;
  /// Per handle id.
  std::vector<FileState> files_;
};

/// Run the analyzer over a full trace, with its own HandleIds and
/// Namespace.
BlockLifeStats analyzeBlockLife(const std::vector<TraceRecord>& records,
                                const BlockLifeConfig& config,
                                EmpiricalCdf* lifetimesOut = nullptr);

}  // namespace nfstrace
