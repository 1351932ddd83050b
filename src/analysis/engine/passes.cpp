#include "analysis/engine/passes.hpp"

#include <algorithm>

namespace nfstrace {
namespace {

/// The only records the reorder/runs analyses derive anything from
/// (everything else passes through their legacy implementations
/// untouched, so buffering just these reproduces their results exactly).
bool isDataAccess(const TraceRecord& rec) {
  return (rec.op == NfsOp::Read || rec.op == NfsOp::Write) && rec.fh.len > 0;
}

}  // namespace

// ----------------------------------------------------------- mergeable

void SummaryPass::prepare(std::size_t shards) {
  shards_.assign(shards ? shards : 1, {});
  result_ = {};
}

void SummaryPass::observe(const TraceBatch& batch, std::size_t shard) {
  TraceSummary& s = shards_[shard].s;
  for (std::size_t i = 0; i < batch.n; ++i) {
    summaryObserve(s, batch.records[i]);
  }
}

void SummaryPass::finalize() {
  result_ = {};
  for (const Shard& sh : shards_) summaryMerge(result_, sh.s);
}

void HourlyPass::prepare(std::size_t shards) {
  shards_.assign(shards ? shards : 1, {});
  result_ = {};
}

void HourlyPass::observe(const TraceBatch& batch, std::size_t shard) {
  HourlyStats& s = shards_[shard].s;
  for (std::size_t i = 0; i < batch.n; ++i) s.observe(batch.records[i]);
}

void HourlyPass::finalize() {
  result_ = {};
  for (const Shard& sh : shards_) result_.merge(sh.s);
}

void UsersPass::prepare(std::size_t shards) {
  shards_.assign(shards ? shards : 1, {});
  result_ = {};
}

void UsersPass::observe(const TraceBatch& batch, std::size_t shard) {
  UserStats& s = shards_[shard].s;
  for (std::size_t i = 0; i < batch.n; ++i) s.observe(batch.records[i]);
}

void UsersPass::finalize() {
  result_ = {};
  for (const Shard& sh : shards_) result_.merge(sh.s);
}

// ---------------------------------------------------------- sequential

ReorderPass::ReorderPass(std::vector<MicroTime> sweepWindows)
    : sweepWindows_(std::move(sweepWindows)) {}

void ReorderPass::prepare(std::size_t) {
  accesses_.clear();
  sweep_.clear();
}

void ReorderPass::observe(const TraceBatch& batch, std::size_t) {
  for (std::size_t i = 0; i < batch.n; ++i) {
    if (isDataAccess(batch.records[i])) {
      accesses_.push_back(batch.records[i]);
    }
  }
}

void ReorderPass::finalize() {
  sweep_ = sweepReorderWindows(accesses_, sweepWindows_);
  accesses_.clear();
  accesses_.shrink_to_fit();
}

RunsPass::RunsPass(MicroTime reorderWindowUs)
    : reorderWindowUs_(reorderWindowUs) {}

void RunsPass::prepare(std::size_t) {
  accesses_.clear();
  runs_.clear();
}

void RunsPass::observe(const TraceBatch& batch, std::size_t) {
  for (std::size_t i = 0; i < batch.n; ++i) {
    if (isDataAccess(batch.records[i])) {
      accesses_.push_back(batch.records[i]);
    }
  }
}

void RunsPass::finalize() {
  // Identical to the legacy whole-trace path: stable-sorting and
  // window-rotating the data-access subsequence yields the same relative
  // order those records have after sorting the full trace (stable sort
  // preserves subsequence order; non-accesses never move relative to
  // them in any way detectRuns can see, since it skips them).
  auto sorted = sortWithReorderWindow(accesses_, reorderWindowUs_);
  swappedFraction_ = sorted.swappedFraction();
  runs_ = detectRuns(sorted.records);
  patterns_ = summarizeRunPatterns(runs_);
  accesses_.clear();
  accesses_.shrink_to_fit();
}

void BlockLifePass::prepare(std::size_t) {
  analyzer_ = {};
  sawAny_ = false;
  stats_ = {};
  lifetimes_ = {};
}

void BlockLifePass::observe(const TraceBatch& batch, std::size_t) {
  for (std::size_t i = 0; i < batch.n; ++i) {
    const TraceRecord& r = batch.records[i];
    if (!sawAny_) {
      firstTs_ = lastTs_ = r.ts;
      sawAny_ = true;
    } else {
      firstTs_ = std::min(firstTs_, r.ts);
      lastTs_ = std::max(lastTs_, r.ts);
    }
    analyzer_.observe(r);
  }
}

void BlockLifePass::finalize() {
  if (!sawAny_) {
    stats_ = {};
    return;
  }
  // The report's phase split over the trace's own span: phase 1 is the
  // first half, phase 2 (the end margin) the second half.
  BlockLifeConfig phases;
  phases.phase1Start = firstTs_;
  phases.phase1Length = std::max<MicroTime>((lastTs_ - firstTs_) / 2, 1);
  phases.phase2Length = phases.phase1Length;
  analyzer_.finish(phases);
  stats_ = analyzer_.stats();
  lifetimes_ = analyzer_.lifetimes();
  analyzer_ = {};
}

void NamesPass::prepare(std::size_t) { census_ = {}; }

void NamesPass::observe(const TraceBatch& batch, std::size_t) {
  for (std::size_t i = 0; i < batch.n; ++i) census_.observe(batch.records[i]);
}

void NamesPass::finalize() { census_.finish(); }

void PathRecPass::prepare(std::size_t) { pathrec_ = {}; }

void PathRecPass::observe(const TraceBatch& batch, std::size_t) {
  for (std::size_t i = 0; i < batch.n; ++i) {
    pathrec_.observe(batch.records[i]);
  }
}

void PathRecPass::finalize() {}

}  // namespace nfstrace
