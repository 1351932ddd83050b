#include "analysis/blocklife.hpp"

#include <algorithm>
#include <limits>

#include "analysis/namespace.hpp"

namespace nfstrace {
namespace {

constexpr std::uint32_t kMaxRun = std::numeric_limits<std::uint32_t>::max();

}  // namespace

void BlockLifeAnalyzer::recordBirth(FileState& st, std::size_t block,
                                    MicroTime now, bool isWrite) {
  if (block >= st.birth.size()) st.birth.resize(block + 1, kUntracked);
  st.birth[block] = now;
  Cause cause = isWrite ? Cause::Write : Cause::Extension;
  if (!births_.empty() && births_.back().ts == now &&
      births_.back().cause == cause && births_.back().blocks < kMaxRun) {
    ++births_.back().blocks;
  } else {
    births_.push_back({now, 1, cause});
  }
}

void BlockLifeAnalyzer::killBlock(FileState& st, std::size_t block,
                                  MicroTime now, Cause cause) {
  if (block >= st.birth.size()) return;
  MicroTime born = st.birth[block];
  st.birth[block] = kUntracked;
  if (born == kUntracked) return;  // existed before the trace
  if (!deaths_.empty() && deaths_.back().born == born &&
      deaths_.back().died == now && deaths_.back().cause == cause &&
      deaths_.back().blocks < kMaxRun) {
    ++deaths_.back().blocks;
  } else {
    deaths_.push_back({born, now, 1, cause});
  }
}

BlockLifeAnalyzer::FileState& BlockLifeAnalyzer::file(std::uint32_t id) {
  if (id >= files_.size()) files_.resize(std::size_t{id} + 1);
  return files_[id];
}

void BlockLifeAnalyzer::observe(const TraceRecord& rec, const RecordIds& ids,
                                std::uint32_t unlinked) {
  if (!rec.hasReply || rec.status != NfsStat::Ok) return;
  constexpr std::uint32_t bs = kNfsBlockSize;

  switch (rec.op) {
    case NfsOp::Write: {
      FileState& st = file(ids.fh);
      // Adopt the server's pre-op size the first time we meet the file.
      std::uint64_t preSize = st.sizeBytes;
      if (st.birth.empty() && rec.hasPre) {
        preSize = rec.preSize;
        st.sizeBytes = preSize;
        st.birth.assign((preSize + bs - 1) / bs, kUntracked);
      }
      std::uint64_t preBlocks = (preSize + bs - 1) / bs;
      std::uint64_t firstBlock = rec.offset / bs;
      std::uint32_t cnt = rec.retCount ? rec.retCount : rec.count;
      if (cnt == 0) break;
      std::uint64_t lastBlock = (rec.offset + cnt - 1) / bs;

      // A write that starts beyond the old EOF block creates the gap
      // blocks *and* the written blocks as extensions (paper's noted
      // over-count); otherwise new blocks are write births.
      bool gapped = firstBlock > preBlocks;
      if (gapped) {
        for (std::uint64_t b = preBlocks; b < firstBlock; ++b) {
          recordBirth(st, b, rec.ts, /*isWrite=*/false);
        }
      }
      for (std::uint64_t b = firstBlock; b <= lastBlock; ++b) {
        if (b < preBlocks) {
          // Overwrite of a live block: old version dies, new one is born.
          killBlock(st, b, rec.ts, Cause::Overwrite);
          recordBirth(st, b, rec.ts, /*isWrite=*/true);
        } else {
          recordBirth(st, b, rec.ts, /*isWrite=*/!gapped);
        }
      }
      std::uint64_t newSize = std::max(preSize, rec.offset + cnt);
      if (rec.hasAttrs) newSize = std::max(newSize, rec.fileSize);
      st.sizeBytes = newSize;
      break;
    }
    case NfsOp::Setattr:
    case NfsOp::Create: {
      // A size-setting SETATTR (truncate) or a CREATE that truncates an
      // existing file.  Use the post-op size against our tracked size.
      // A CREATE reply without the new handle names no file to charge.
      if (!rec.hasAttrs) break;
      if (rec.op == NfsOp::Create && !rec.hasResFh) break;
      FileState& st = file(rec.op == NfsOp::Create ? ids.resFh : ids.fh);
      std::uint64_t newSize = rec.fileSize;
      std::uint64_t oldBlocks = (st.sizeBytes + bs - 1) / bs;
      std::uint64_t newBlocks = (newSize + bs - 1) / bs;
      if (newBlocks < oldBlocks) {
        for (std::uint64_t b = newBlocks; b < oldBlocks; ++b) {
          killBlock(st, b, rec.ts, Cause::Truncate);
        }
      } else if (newBlocks > oldBlocks) {
        for (std::uint64_t b = oldBlocks; b < newBlocks; ++b) {
          recordBirth(st, b, rec.ts, /*isWrite=*/false);
        }
      }
      st.sizeBytes = newSize;
      st.birth.resize(newBlocks, kUntracked);
      break;
    }
    case NfsOp::Remove:
    case NfsOp::Rename: {
      // A removed file, or the file a RENAME replaced.
      if (unlinked == 0 || unlinked >= files_.size()) break;
      FileState& st = files_[unlinked];
      for (std::size_t b = 0; b < st.birth.size(); ++b) {
        killBlock(st, b, rec.ts, Cause::Delete);
      }
      st = {};
      break;
    }
    default:
      break;
  }
}

void BlockLifeAnalyzer::finish(const BlockLifeConfig& phases) {
  const MicroTime phase1End = phases.phase1Start + phases.phase1Length;
  const MicroTime marginEnd = phase1End + phases.phase2Length;
  auto inPhase1 = [&](MicroTime t) {
    return t >= phases.phase1Start && t < phase1End;
  };
  stats_ = {};
  lifetimes_ = {};
  for (const Birth& b : births_) {
    if (!inPhase1(b.ts)) continue;
    stats_.births += b.blocks;
    (b.cause == Cause::Write ? stats_.birthsWrite : stats_.birthsExtension) +=
        b.blocks;
  }
  for (const Death& d : deaths_) {
    // Only blocks born in phase 1 are tracked, and only until the end of
    // the margin.
    if (!inPhase1(d.born) || d.died >= marginEnd) continue;
    MicroTime lifespan = d.died - d.born;
    if (lifespan > phases.phase2Length) {
      // Censor: remove death records for lifespans longer than phase 2
      // to avoid sampling bias (Roselli's rule).
      stats_.endSurplus += d.blocks;
      continue;
    }
    stats_.deaths += d.blocks;
    (d.cause == Cause::Overwrite  ? stats_.deathsOverwrite
     : d.cause == Cause::Truncate ? stats_.deathsTruncate
                                  : stats_.deathsDelete) += d.blocks;
    for (std::uint32_t i = 0; i < d.blocks; ++i) {
      lifetimes_.add(toSeconds(lifespan));
    }
  }
  for (const FileState& st : files_) {
    for (MicroTime born : st.birth) {
      if (born != kUntracked && inPhase1(born)) ++stats_.endSurplus;
    }
  }
}

BlockLifeStats analyzeBlockLife(const std::vector<TraceRecord>& records,
                                const BlockLifeConfig& config,
                                EmpiricalCdf* lifetimesOut) {
  HandleIds ids;
  Namespace ns;
  BlockLifeAnalyzer analyzer;
  for (const TraceRecord& rec : records) {
    const RecordIds id = ids.of(rec);
    analyzer.observe(rec, id, ns.apply(rec, id));
  }
  analyzer.finish(config);
  if (lifetimesOut) *lifetimesOut = analyzer.lifetimes();
  return analyzer.stats();
}

}  // namespace nfstrace
