#include "analysis/engine/passes.hpp"

#include <algorithm>
#include <stdexcept>

#include "trace/tracefile.hpp"

namespace nfstrace {

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
  keys_.clear();
  sweep_.clear();
}

void ReorderPass::observe(const TraceBatch& batch, std::size_t) {
  // The reader interns the empty handle as id 0 only, so a data access's
  // handle id names its file.
  for (std::size_t i = 0; i < batch.n; ++i) {
    const TraceRecord& r = batch.records[i];
    if (isDataAccess(r)) {
      keys_.push_back(
          {r.ts, r.offset, reorderGroup(batch.fhId[i], r.op == NfsOp::Write)});
    }
  }
}

void ReorderPass::finalize() {
  ReorderKernel kernel(keys_);
  keys_ = {};
  sweep_.clear();
  for (MicroTime w : sweepWindows_) {
    sweep_.emplace_back(
        w, swappedFraction(kernel.run(w), kernel.accessesTotal()));
  }
}

RunsPass::RunsPass(MicroTime reorderWindowUs)
    : reorderWindowUs_(reorderWindowUs) {}

void RunsPass::prepare(std::size_t) {
  rows_.clear();
  handles_.clear();
  runs_.clear();
}

void RunsPass::observe(const TraceBatch& batch, std::size_t) {
  for (std::size_t i = 0; i < batch.n; ++i) {
    const TraceRecord& r = batch.records[i];
    if (!isDataAccess(r)) continue;
    const std::uint32_t id = batch.fhId[i];
    if (id >= handles_.size()) handles_.resize(std::size_t{id} + 1);
    if (handles_[id].len == 0) handles_[id] = r.fh;
    rows_.push_back(accessRow(r, id));
  }
}

void RunsPass::finalize() {
  // Identical to the whole-trace functions: stable-sorting and
  // window-sorting the data-access subsequence yields the same relative
  // order those accesses have after sorting the full trace (the stable
  // sort preserves subsequence order, and run detection skips every
  // other record).
  std::vector<std::uint32_t> order;
  std::uint64_t swapped = 0, total = 0;
  {
    std::vector<ReorderKey> keys;
    keys.reserve(rows_.size());
    for (const AccessRow& a : rows_) {
      keys.push_back({a.ts, a.offset, reorderGroup(a.file, a.isWrite)});
    }
    ReorderKernel kernel(keys);
    swapped = kernel.run(reorderWindowUs_, &order);
    total = kernel.accessesTotal();
  }
  swappedFraction_ = swappedFraction(swapped, total);
  runs_ = detectRuns(rows_, order, handles_);
  patterns_ = summarizeRunPatterns(runs_);
  rows_ = {};
  handles_ = {};
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
    analyzer_.observe(r, batch.ids(i), batch.unlinkedId[i]);
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
  for (std::size_t i = 0; i < batch.n; ++i) {
    census_.observe(batch.records[i], batch.ids(i), batch.unlinkedId[i]);
  }
}

void NamesPass::finalize() { census_.finish(); }

void PathRecPass::prepare(std::size_t shards) {
  shards_.assign(shards ? shards : 1, {});
  result_ = {};
}

void PathRecPass::observe(const TraceBatch& batch, std::size_t shard) {
  Shard& s = shards_[shard];
  for (std::size_t i = 0; i < batch.n; ++i) {
    const NfsOp op = batch.records[i].op;
    if (op == NfsOp::Read || op == NfsOp::Write) {
      ++(batch.parentKnown[i] ? s.hits : s.misses);
    }
  }
  s.last = std::max(s.last, {batch.seq + 1, batch.knownFiles});
}

void PathRecPass::finalize() {
  result_ = {};
  for (const Shard& s : shards_) {
    result_.hits += s.hits;
    result_.misses += s.misses;
    result_.last = std::max(result_.last, s.last);
  }
}

void RecordLinesPass::observe(const TraceBatch& batch, std::size_t) {
  buf_.clear();
  for (std::size_t i = 0; i < batch.n; ++i) {
    appendRecord(buf_, batch.records[i]);
    buf_.push_back('\n');
  }
  if (std::fwrite(buf_.data(), 1, buf_.size(), out_) != buf_.size()) {
    throw std::runtime_error("records: write failed");
  }
}

}  // namespace nfstrace
