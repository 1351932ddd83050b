// Cross-module integration: live capture vs pcap-replay equivalence,
// anonymization invariance of analyses, and reorder-window + run analysis
// on captured (not synthetic) traffic.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "analysis/blocklife.hpp"
#include "analysis/reorder.hpp"
#include "analysis/runs.hpp"
#include "analysis/summary.hpp"
#include "anon/anon.hpp"
#include "fault/fault.hpp"
#include "trace/tracefile.hpp"
#include "workload/campus.hpp"
#include "workload/eecs.hpp"
#include "workload/sim.hpp"

namespace nfstrace {
namespace {

TEST(Integration, PcapReplayMatchesLiveCapture) {
  const std::string path = "/tmp/integration_replay.pcap";
  std::vector<TraceRecord> live;
  {
    // One environment with both a live sniffer and a pcap writer on the
    // same tap.
    InMemoryFs fs{InMemoryFs::Config{}};
    fs.mkfile("/home/u/file", 200 * 1024, 1, 1, 0);
    NfsServer server(fs);
    Sniffer sniffer({}, [&](const TraceRecord& r) { live.push_back(r); });
    struct PcapSink : FrameSink {
      explicit PcapSink(const std::string& p) : writer(p) {}
      PcapWriter writer;
      void onFrame(const CapturedPacket& pkt) override { writer.write(pkt); }
    };
    PcapSink pcapSink(path);
    FrameTee tee;
    tee.addSink(&sniffer);
    tee.addSink(&pcapSink);

    NfsTransport transport({}, server, &tee, 7);
    NfsClient client({}, transport, 8);
    client.setRootHandle(fs.rootHandle());
    MicroTime now = seconds(3);
    auto fh = *client.lookupPath(now, "/home/u/file");
    client.readFile(now, fh);
    client.writeRange(now, fh, 0, 64 * 1024);
    sniffer.flush();
  }

  auto replayed = sniffPcap(path);
  ASSERT_EQ(replayed.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(replayed[i].op, live[i].op);
    EXPECT_EQ(replayed[i].ts, live[i].ts);
    EXPECT_EQ(replayed[i].xid, live[i].xid);
    EXPECT_EQ(replayed[i].offset, live[i].offset);
    EXPECT_TRUE(replayed[i].fh == live[i].fh);
  }
  std::remove(path.c_str());
}

class CampusIntegration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SimEnvironment::Config simCfg;
    simCfg.fsConfig.fsid = 2;
    simCfg.clientHosts = 3;
    env_ = new SimEnvironment(simCfg);
    CampusConfig cfg;
    cfg.users = 25;
    CampusWorkload wl(cfg, *env_);
    MicroTime start = days(1) + hours(9);
    wl.setup(start);
    wl.run(start, start + hours(3));
    env_->finishCapture();
  }
  static void TearDownTestSuite() {
    delete env_;
    env_ = nullptr;
  }
  static SimEnvironment* env_;
};

SimEnvironment* CampusIntegration::env_ = nullptr;

TEST_F(CampusIntegration, AnonymizationPreservesAnalyses) {
  auto& records = env_->records();
  Anonymizer anon{Anonymizer::Config{}};
  std::vector<TraceRecord> anonymized;
  anonymized.reserve(records.size());
  for (const auto& r : records) anonymized.push_back(anon.anonymize(r));

  // Summary statistics are identical: anonymization never touches
  // operations, sizes, offsets, or timing.
  auto s1 = summarize(records);
  auto s2 = summarize(anonymized);
  EXPECT_EQ(s1.totalOps, s2.totalOps);
  EXPECT_EQ(s1.bytesRead, s2.bytesRead);
  EXPECT_EQ(s1.bytesWritten, s2.bytesWritten);

  // Run analysis is identical because handles are remapped consistently.
  auto runs1 = detectRuns(sortWithReorderWindow(records, 10000).records);
  auto runs2 = detectRuns(sortWithReorderWindow(anonymized, 10000).records);
  ASSERT_EQ(runs1.size(), runs2.size());
  auto sum1 = summarizeRunPatterns(runs1);
  auto sum2 = summarizeRunPatterns(runs2);
  EXPECT_DOUBLE_EQ(sum1.readEntire, sum2.readEntire);
  EXPECT_DOUBLE_EQ(sum1.writeSeq, sum2.writeSeq);

  // Block lifetimes are identical too.
  BlockLifeConfig blCfg;
  blCfg.phase1Start = days(1);
  auto bl1 = analyzeBlockLife(records, blCfg);
  auto bl2 = analyzeBlockLife(anonymized, blCfg);
  EXPECT_EQ(bl1.births, bl2.births);
  EXPECT_EQ(bl1.deathsOverwrite, bl2.deathsOverwrite);
  EXPECT_EQ(bl1.deathsDelete, bl2.deathsDelete);
}

TEST_F(CampusIntegration, TraceFileRoundTripPreservesAnalyses) {
  const std::string path = "/tmp/integration_trace.trace";
  auto& records = env_->records();
  {
    TraceWriter w(path);
    for (const auto& r : records) w.write(r);
  }
  auto back = TraceReader::readAll(path);
  ASSERT_EQ(back.size(), records.size());
  auto s1 = summarize(records);
  auto s2 = summarize(back);
  EXPECT_EQ(s1.bytesRead, s2.bytesRead);
  EXPECT_EQ(s1.opCounts, s2.opCounts);
  std::remove(path.c_str());
}

TEST_F(CampusIntegration, BlockDeathsAreOverwhelminglyOverwrites) {
  BlockLifeConfig cfg;
  cfg.phase1Start = days(1) + hours(9);  // the traced window's start
  cfg.phase1Length = minutes(90);
  cfg.phase2Length = minutes(90);
  auto stats = analyzeBlockLife(env_->records(), cfg);
  ASSERT_GT(stats.deaths, 0u);
  // Paper: >99% of CAMPUS block deaths are overwrites (mailbox rewrites).
  EXPECT_GT(static_cast<double>(stats.deathsOverwrite) /
                static_cast<double>(stats.deaths),
            0.9);
}

TEST_F(CampusIntegration, RunsAreLargelySequentialOrEntire) {
  auto sorted = sortWithReorderWindow(env_->records(), 10'000);
  auto runs = detectRuns(sorted.records);
  ASSERT_GT(runs.size(), 10u);
  auto summary = summarizeRunPatterns(runs);
  // Mailbox scans are sequential whole-file reads.
  EXPECT_GT(summary.readEntire + summary.readSeq, 0.6);
}

TEST_F(CampusIntegration, ReorderWindowReducesApparentRandomness) {
  // With reordering client iods, the raw stream shows more random runs
  // than the reorder-window-sorted stream.
  RunDetectorConfig rawCfg;
  rawCfg.jumpTolerance = 0;
  auto rawRuns = detectRuns(sortWithReorderWindow(env_->records(), 0).records,
                            rawCfg);
  auto sortedRuns = detectRuns(
      sortWithReorderWindow(env_->records(), 10'000).records, rawCfg);
  auto rawSummary = summarizeRunPatterns(rawRuns);
  auto sortedSummary = summarizeRunPatterns(sortedRuns);
  EXPECT_LE(sortedSummary.readRandom, rawSummary.readRandom);
}

TEST(ShippedConfigs, EachLoadsThroughItsReader) {
  // Readers reject keys they do not know, so a stale key in a shipped
  // config fails here rather than being ignored at run time.
  for (const auto& e :
       std::filesystem::directory_iterator(NFSTRACE_CONFIGS_DIR)) {
    std::string name = e.path().filename().string();
    std::string path = e.path().string();
    SCOPED_TRACE(name);
    if (name == "campus.cfg") {
      EXPECT_NO_THROW(CampusConfig::fromFile(path));
    } else if (name == "eecs.cfg") {
      EXPECT_NO_THROW(EecsConfig::fromFile(path));
    } else if (name == "chaos.cfg") {
      EXPECT_NO_THROW(FaultPlan::load(path));
    } else if (name == "anon-policy.cfg") {
      EXPECT_NO_THROW(Anonymizer::Config::fromFile(path));
    } else if (name == "daemon.cfg") {
      // nfstraced's reader: the nfstraced_rejects_bad_settings ctest runs
      // nfstraced --config on it.
    } else {
      ADD_FAILURE() << "no reader loads configs/" << name;
    }
  }
}

}  // namespace
}  // namespace nfstrace
