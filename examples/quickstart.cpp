// Quickstart: simulate one hour of the CAMPUS email system, capture its
// NFS traffic with the passive sniffer, anonymize it, and print summary
// statistics — the whole pipeline in ~60 lines.
#include <cstdio>

#include "analysis/summary.hpp"
#include "anon/anon.hpp"
#include "trace/tracefile.hpp"
#include "workload/campus.hpp"
#include "workload/sim.hpp"

using namespace nfstrace;

int main() {
  // 1. Build the simulated environment: one NFS server (a 53 GB CAMPUS
  //    disk array with 50 MB user quotas) and three client hosts (SMTP,
  //    POP, login), captured by a lossless tap.
  SimEnvironment::Config simCfg;
  simCfg.fsConfig.fsid = 2;
  simCfg.fsConfig.defaultQuotaBytes = 50ULL << 20;
  simCfg.clientHosts = 3;
  simCfg.useTcp = true;         // CAMPUS uses NFSv3 over TCP
  simCfg.mtu = kJumboMtu;       // ... on jumbo-frame gigabit Ethernet
  SimEnvironment env(simCfg);

  // 2. Populate 40 users and run one peak hour (Monday 10am-11am).
  CampusConfig wlCfg;
  wlCfg.users = 40;
  CampusWorkload workload(wlCfg, env);
  MicroTime start = days(1) + hours(10);
  workload.setup(start);
  workload.run(start, start + hours(1));
  env.finishCapture();

  // 3. The sniffer produced trace records; anonymize and save them.
  auto& records = env.records();
  Anonymizer anon{Anonymizer::Config{}};
  TraceWriter writer("/tmp/quickstart.trace");
  for (const auto& rec : records) writer.write(anon.anonymize(rec));

  // 4. Report.
  TraceSummary s = summarize(records);
  std::printf("captured %llu NFS calls (%llu without replies)\n",
              static_cast<unsigned long long>(s.totalOps),
              static_cast<unsigned long long>(s.repliesMissing));
  std::printf("  reads:  %8llu ops  %10.1f MB\n",
              static_cast<unsigned long long>(s.readOps),
              static_cast<double>(s.bytesRead) / 1e6);
  std::printf("  writes: %8llu ops  %10.1f MB\n",
              static_cast<unsigned long long>(s.writeOps),
              static_cast<double>(s.bytesWritten) / 1e6);
  std::printf("  read/write byte ratio: %.2f   op ratio: %.2f\n",
              s.readWriteByteRatio(), s.readWriteOpRatio());
  std::printf("  data ops: %.1f%%   metadata ops: %.1f%%\n",
              100.0 * s.dataOpFraction(), 100.0 * (1 - s.dataOpFraction()));
  std::printf("  deliveries=%llu popChecks=%llu sessions=%llu\n",
              static_cast<unsigned long long>(workload.deliveries()),
              static_cast<unsigned long long>(workload.popChecks()),
              static_cast<unsigned long long>(workload.sessions()));
  std::printf("anonymized trace written to /tmp/quickstart.trace "
              "(view it with trace_analyze --records)\n");
  return 0;
}
