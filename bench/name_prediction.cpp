// §6.3: predicting file attributes from file names.  On CAMPUS nearly all
// files fall into four name-recognizable categories whose size, lifespan,
// and fate are predicted almost perfectly at create time:
//   - 96% of files created-and-deleted in a week are zero-length locks,
//     99.9% of which live under 0.40 s;
//   - mail-composer temporaries: 45% live < 1 min, 98% are < 8 KB,
//     99.9% < 40 KB;
//   - dot files fit in a block or two (.pinerc is 11-26 KB);
//   - mailboxes are much larger than everything else and never deleted.
#include "analysis/names.hpp"
#include "analysis/namespace.hpp"
#include "bench_common.hpp"

using namespace nfstrace;
using namespace nfstrace::bench;

int main() {
  banner("Section 6.3 -- filename -> attribute prediction (CAMPUS day)");

  FileLifeCensus census;
  {
    HandleIds ids;
    Namespace ns;
    auto s = makeCampus(30, [&](const TraceRecord& r) {
      const RecordIds id = ids.of(r);
      census.observe(r, id, ns.apply(r, id));
    });
    MicroTime start = days(1);
    s.workload->setup(start);
    s.workload->run(start, start + days(1));
    s.env->finishCapture();
  }
  census.finish();

  TextTable t({"Category", "created", "deleted", "zero-len",
               "p50 life (s)", "p99.9 life (s)", "p98 size (KB)",
               "prediction acc."});
  for (const auto& [cat, stats] : census.byCategory()) {
    auto& s = const_cast<CategoryStats&>(stats);
    std::string acc =
        s.predictionsChecked
            ? TextTable::percent(static_cast<double>(s.predictionsCorrect) /
                                 static_cast<double>(s.predictionsChecked))
            : "-";
    t.addRow({std::string(nameCategoryLabel(cat)),
              TextTable::withCommas(s.created),
              TextTable::withCommas(s.deleted),
              TextTable::withCommas(s.zeroLength),
              s.lifetimesSec.empty()
                  ? "-"
                  : TextTable::fixed(s.lifetimesSec.quantile(0.5), 3),
              s.lifetimesSec.empty()
                  ? "-"
                  : TextTable::fixed(s.lifetimesSec.quantile(0.999), 3),
              s.maxSizes.empty()
                  ? "-"
                  : TextTable::fixed(s.maxSizes.quantile(0.98) / 1024.0, 1),
              acc});
  }
  std::fputs(t.render().c_str(), stdout);

  double lockShare = census.lockFractionOfDeleted();
  std::printf(
      "\nLock files are %.1f%% of all created-and-deleted files "
      "(paper: 96%%).\n",
      100.0 * lockShare);

  auto lockIt = census.byCategory().find(NameCategory::LockFile);
  if (lockIt != census.byCategory().end()) {
    auto& lt = const_cast<CategoryStats&>(lockIt->second).lifetimesSec;
    if (!lt.empty()) {
      std::printf("Locks living under 0.40 s: %.1f%% (paper: 99.9%%).\n",
                  100.0 * lt.fractionAtOrBelow(0.40));
    }
  }
  auto compIt = census.byCategory().find(NameCategory::MailComposer);
  if (compIt != census.byCategory().end()) {
    auto& cs = const_cast<CategoryStats&>(compIt->second);
    if (!cs.maxSizes.empty()) {
      std::printf(
          "Composer temporaries under 8 KB: %.1f%% (paper: 98%%); under\n"
          "40 KB: %.1f%% (paper: 99.9%%); living under 1 min: %.1f%% "
          "(paper: 45%%).\n",
          100.0 * cs.maxSizes.fractionAtOrBelow(8 * 1024),
          100.0 * cs.maxSizes.fractionAtOrBelow(40 * 1024),
          cs.lifetimesSec.empty()
              ? 0.0
              : 100.0 * cs.lifetimesSec.fractionAtOrBelow(60.0));
    }
  }
  std::printf(
      "\nThe point (paper §6.3): the file system holds reliable hints at\n"
      "create time — applications effectively pass Cao-style hints through\n"
      "the names they choose, and renames are rare enough that the hints\n"
      "stay valid.\n");
  return 0;
}
