// The eight standard analyses as engine passes: one scan of the trace
// feeds every table and figure the repo produces.
//
// Mergeable (per-worker shards, exact fold at finalize):
//   summary, hourly, users, pathrec — integer accumulation (pathrec also
//   keeps the highest-numbered batch's knownFiles).
//
// Sequential (single state, sees every batch in stream order):
//   reorder, runs   — buffer one compact row per READ/WRITE data access
//                     (the only records those analyses derive anything
//                     from), keyed by the reader's interned handle id:
//                     reorder a 24-byte ReorderKey, runs a 40-byte
//                     AccessRow.  At finalize each runs the reorder kernel
//                     (reorder.hpp) over what it buffered, so results are
//                     bit-identical to the whole-vector functions;
//   blocklife       — streams every record into the analyzer, which
//                     logs block births and deaths; the phase split
//                     needs the trace's span, so only the decision of
//                     which events fall inside the phases waits for
//                     finalize;
//   names           — incremental order-dependent observer.
//
// blocklife, names and pathrec read the namespace's batch columns.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analysis/blocklife.hpp"
#include "analysis/engine/pass.hpp"
#include "analysis/hourly.hpp"
#include "analysis/names.hpp"
#include "analysis/reorder.hpp"
#include "analysis/runs.hpp"
#include "analysis/summary.hpp"
#include "analysis/users.hpp"

namespace nfstrace {

// ----------------------------------------------------------- mergeable

class SummaryPass final : public AnalysisPass {
 public:
  std::string_view name() const override { return "summary"; }
  bool mergeable() const override { return true; }
  void prepare(std::size_t shards) override;
  void observe(const TraceBatch& batch, std::size_t shard) override;
  void finalize() override;
  const TraceSummary& result() const { return result_; }

 private:
  struct alignas(64) Shard {
    TraceSummary s;
  };
  std::vector<Shard> shards_;
  TraceSummary result_;
};

class HourlyPass final : public AnalysisPass {
 public:
  std::string_view name() const override { return "hourly"; }
  bool mergeable() const override { return true; }
  void prepare(std::size_t shards) override;
  void observe(const TraceBatch& batch, std::size_t shard) override;
  void finalize() override;
  const HourlyStats& result() const { return result_; }

 private:
  struct alignas(64) Shard {
    HourlyStats s;
  };
  std::vector<Shard> shards_;
  HourlyStats result_;
};

class UsersPass final : public AnalysisPass {
 public:
  std::string_view name() const override { return "users"; }
  bool mergeable() const override { return true; }
  void prepare(std::size_t shards) override;
  void observe(const TraceBatch& batch, std::size_t shard) override;
  void finalize() override;
  const UserStats& result() const { return result_; }

 private:
  struct alignas(64) Shard {
    UserStats s;
  };
  std::vector<Shard> shards_;
  UserStats result_;
};

// ---------------------------------------------------------- sequential

/// Figure 1: reorder-window sweep (fraction of accesses swapped per
/// window size).
class ReorderPass final : public AnalysisPass {
 public:
  explicit ReorderPass(std::vector<MicroTime> sweepWindows = {
                           0, 1'000, 5'000, 10'000, 50'000, 100'000,
                           1'000'000});
  std::string_view name() const override { return "reorder"; }
  bool mergeable() const override { return false; }
  /// Buffers only READ/WRITE data accesses; everything else is ignored
  /// record by record, so extents without them can be skipped wholesale.
  std::uint32_t opMask() const override {
    return opMaskBit(NfsOp::Read) | opMaskBit(NfsOp::Write);
  }
  void prepare(std::size_t shards) override;
  void observe(const TraceBatch& batch, std::size_t shard) override;
  /// One kernel over the buffered keys, run once per sweep window.
  void finalize() override;
  const std::vector<std::pair<MicroTime, double>>& sweep() const {
    return sweep_;
  }

 private:
  std::vector<MicroTime> sweepWindows_;
  std::vector<ReorderKey> keys_;
  std::vector<std::pair<MicroTime, double>> sweep_;
};

/// Table 3: reorder-sorted run detection and pattern classification.
class RunsPass final : public AnalysisPass {
 public:
  explicit RunsPass(MicroTime reorderWindowUs = 10'000);
  std::string_view name() const override { return "runs"; }
  bool mergeable() const override { return false; }
  /// Like ReorderPass: derives everything from READ/WRITE accesses only.
  std::uint32_t opMask() const override {
    return opMaskBit(NfsOp::Read) | opMaskBit(NfsOp::Write);
  }
  void prepare(std::size_t shards) override;
  void observe(const TraceBatch& batch, std::size_t shard) override;
  /// Runs its own kernel at the pass's window rather than sharing
  /// ReorderPass's: passes finalize concurrently at decodeThreads > 1.
  void finalize() override;

  const std::vector<Run>& runs() const { return runs_; }
  const RunPatternSummary& patterns() const { return patterns_; }
  double reorderSwappedFraction() const { return swappedFraction_; }

 private:
  MicroTime reorderWindowUs_;
  std::vector<AccessRow> rows_;
  /// The handle behind each interned handle id seen in rows_ (Run::fh).
  std::vector<FileHandle> handles_;
  std::vector<Run> runs_;
  RunPatternSummary patterns_;
  double swappedFraction_ = 0.0;
};

/// Table 4 / Figure 3: block birth/death accounting.  The phase
/// boundaries depend on the trace's span, so the analyzer logs births
/// and deaths as the records stream by and decides the phases at
/// finalize.
class BlockLifePass final : public AnalysisPass {
 public:
  std::string_view name() const override { return "blocklife"; }
  bool mergeable() const override { return false; }
  // No opMask() narrowing: the phase split takes the span of every
  // record, and beyond writes the pass consumes Setattr/Create (truncate
  // births and deaths) and Remove/Rename (delete deaths).
  void prepare(std::size_t shards) override;
  void observe(const TraceBatch& batch, std::size_t shard) override;
  void finalize() override;

  const BlockLifeStats& stats() const { return stats_; }
  const EmpiricalCdf& lifetimes() const { return lifetimes_; }
  /// Block events (births plus deaths) held for finalize.
  std::size_t deferredRecords() const { return analyzer_.loggedEvents(); }

 private:
  BlockLifeAnalyzer analyzer_;
  MicroTime firstTs_ = 0, lastTs_ = 0;
  bool sawAny_ = false;
  BlockLifeStats stats_;
  EmpiricalCdf lifetimes_;
};

/// §6.3: file churn census by name category.
class NamesPass final : public AnalysisPass {
 public:
  std::string_view name() const override { return "names"; }
  bool mergeable() const override { return false; }
  void prepare(std::size_t shards) override;
  void observe(const TraceBatch& batch, std::size_t shard) override;
  void finalize() override;
  const FileLifeCensus& census() const { return census_; }

 private:
  FileLifeCensus census_;
};

/// §4.1.1: hierarchy reconstruction coverage.
class PathRecPass final : public AnalysisPass {
 public:
  std::string_view name() const override { return "pathrec"; }
  bool mergeable() const override { return true; }
  // No opMask() narrowing: knownFiles is the last batch's, so the pass
  // must see every batch, whatever ops it holds.
  void prepare(std::size_t shards) override;
  void observe(const TraceBatch& batch, std::size_t shard) override;
  void finalize() override;

  /// Handles whose parent the namespace knew at the end of the scan.
  std::size_t knownFiles() const { return result_.last.second; }
  /// Fraction of READ and WRITE records whose handle had a known parent
  /// (the paper's coverage measure).
  double parentCoverage() const {
    const std::uint64_t total = result_.hits + result_.misses;
    return total ? static_cast<double>(result_.hits) /
                       static_cast<double>(total)
                 : 0.0;
  }

 private:
  struct alignas(64) Shard {
    std::uint64_t hits = 0, misses = 0;
    /// (seq + 1, knownFiles) of the highest-numbered batch seen.
    std::pair<std::uint64_t, std::size_t> last{};
  };
  std::vector<Shard> shards_;
  Shard result_;
};

/// `trace_analyze --records`: writes each record it observes to `out` as
/// its formatRecord line.  Sequential, so the lines keep stream order at
/// any thread count.  Throws when a write to `out` fails.
class RecordLinesPass final : public AnalysisPass {
 public:
  explicit RecordLinesPass(std::FILE* out) : out_(out) {}
  std::string_view name() const override { return "records"; }
  bool mergeable() const override { return false; }
  void prepare(std::size_t) override {}
  void observe(const TraceBatch& batch, std::size_t shard) override;
  void finalize() override {}

 private:
  std::FILE* out_;
  std::string buf_;
};

/// The full standard bundle, in a fixed order (the order also spreads
/// sequential passes round-robin across workers).
struct StandardAnalyses {
  SummaryPass summary;
  HourlyPass hourly;
  UsersPass users;
  ReorderPass reorder;
  RunsPass runs;
  BlockLifePass blocklife;
  NamesPass names;
  PathRecPass pathrec;

  std::vector<AnalysisPass*> all() {
    return {&summary, &hourly, &users,     &reorder,
            &runs,    &names,  &blocklife, &pathrec};
  }
};

}  // namespace nfstrace
