// Figure 3: cumulative distribution of block lifetimes for CAMPUS and
// EECS (create-based method, 24-hour phase with a 24-hour end margin).
#include "analysis/blocklife.hpp"
#include "analysis/namespace.hpp"
#include "bench_common.hpp"

using namespace nfstrace;
using namespace nfstrace::bench;

namespace {

EmpiricalCdf runSystem(bool campusSystem) {
  BlockLifeConfig cfg;
  cfg.phase1Start = days(1) + hours(9);
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
  return analyzer.lifetimes();
}

}  // namespace

int main() {
  banner("Figure 3 -- cumulative distribution of block lifetimes");

  auto campus = runSystem(true);
  auto eecs = runSystem(false);

  struct Point {
    const char* label;
    double seconds;
    const char* paperCampus;
    const char* paperEecs;
  };
  // Paper curve landmarks read off Figure 3.
  const Point points[] = {
      {"1 sec", 1.0, "~2%", "~50%"},
      {"30 sec", 30.0, "~8%", "~62%"},
      {"5 min", 300.0, "~25%", "~72%"},
      {"15 min", 900.0, "~50%", "~78%"},
      {"1 hour", 3600.0, "~70%", "~85%"},
      {"1 day", 86400.0, "100% (of margin)", "100% (of margin)"},
  };

  TextTable t({"Lifetime <=", "CAMPUS sim", "EECS sim", "CAMPUS paper",
               "EECS paper"});
  for (const auto& p : points) {
    t.addRow({p.label,
              TextTable::percent(campus.fractionAtOrBelow(p.seconds)),
              TextTable::percent(eecs.fractionAtOrBelow(p.seconds)),
              p.paperCampus, p.paperEecs});
  }
  std::fputs(t.render().c_str(), stdout);

  std::printf("\nMedians: CAMPUS %.1f min, EECS %.2f s\n",
              campus.quantile(0.5) / 60.0, eecs.quantile(0.5));
  std::printf(
      "\nShape checks (paper Figure 3 + §5.2.3): on EECS over half the\n"
      "blocks die within one second (unbuffered log/index files); on\n"
      "CAMPUS few blocks die that fast and about half live longer than\n"
      "10-15 minutes — roughly the length of a mail-reading session.\n");
  return 0;
}
