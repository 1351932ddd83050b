// Table 4: daily block life statistics — births by cause (write vs
// extension) and deaths by cause (overwrite / truncate / deletion), using
// Roselli's create-based method with a 24-hour phase 1 starting 9am and a
// 24-hour end margin, streamed over a two-day simulation.
#include "analysis/blocklife.hpp"
#include "analysis/namespace.hpp"
#include "bench_common.hpp"

using namespace nfstrace;
using namespace nfstrace::bench;

namespace {

BlockLifeStats run(bool campusSystem) {
  BlockLifeConfig cfg;
  cfg.phase1Start = days(1) + hours(9);  // Monday 9am
  cfg.phase1Length = kMicrosPerDay;
  cfg.phase2Length = kMicrosPerDay;
  HandleIds ids;
  Namespace ns;
  BlockLifeAnalyzer analyzer;
  auto cb = [&](const TraceRecord& r) {
    const RecordIds id = ids.of(r);
    analyzer.observe(r, id, ns.apply(r, id));
  };
  MicroTime start = days(1);
  MicroTime end = days(3) + hours(9);
  if (campusSystem) {
    auto s = makeCampus(24, cb);
    s.workload->setup(start);
    s.workload->run(start, end);
    s.env->finishCapture();
  } else {
    auto s = makeEecs(16, cb);
    s.workload->setup(start);
    s.workload->run(start, end);
    s.env->finishCapture();
  }
  analyzer.finish(cfg);
  return analyzer.stats();
}

std::string pctOf(std::uint64_t part, std::uint64_t whole) {
  return whole ? TextTable::fixed(100.0 * static_cast<double>(part) /
                                      static_cast<double>(whole),
                                  1) + " %"
               : "n/a";
}

}  // namespace

int main() {
  banner("Table 4 -- daily block life statistics (births/deaths by cause)");

  auto campus = run(true);
  auto eecs = run(false);

  TextTable t({"Statistic", "CAMPUS sim", "EECS sim", "CAMPUS paper",
               "EECS paper"});
  t.addRow({"Total births",
            TextTable::withCommas(campus.births),
            TextTable::withCommas(eecs.births), "28.4M", "9.8M"});
  t.addRow({"  due to writes", pctOf(campus.birthsWrite, campus.births),
            pctOf(eecs.birthsWrite, eecs.births), "99.9 %", "75.5 %"});
  t.addRow({"  due to extension",
            pctOf(campus.birthsExtension, campus.births),
            pctOf(eecs.birthsExtension, eecs.births), "<0.1 %", "24.5 %"});
  t.addRule();
  t.addRow({"Total deaths",
            TextTable::withCommas(campus.deaths),
            TextTable::withCommas(eecs.deaths), "27.5M", "9.2M"});
  t.addRow({"  due to overwrites",
            pctOf(campus.deathsOverwrite, campus.deaths),
            pctOf(eecs.deathsOverwrite, eecs.deaths), "99.1 %", "42.4 %"});
  t.addRow({"  due to truncates",
            pctOf(campus.deathsTruncate, campus.deaths),
            pctOf(eecs.deathsTruncate, eecs.deaths), "0.6 %", "5.8 %"});
  t.addRow({"  due to file deletion",
            pctOf(campus.deathsDelete, campus.deaths),
            pctOf(eecs.deathsDelete, eecs.deaths), "0.3 %", "51.8 %"});
  t.addRule();
  t.addRow({"End surplus (% of births)",
            TextTable::percent(campus.surplusFraction()),
            TextTable::percent(eecs.surplusFraction()), "2.1-5.9 %",
            "3.5-9.5 %"});
  std::fputs(t.render().c_str(), stdout);

  std::printf(
      "\nShape checks: CAMPUS deaths are almost entirely overwrites\n"
      "(mailboxes are rewritten, never deleted); EECS splits between\n"
      "overwrites and deletions (build outputs, browser caches, applet\n"
      "files); extensions matter only on EECS.\n");
  return 0;
}
