#include <gtest/gtest.h>

#include "analysis/names.hpp"
#include "analysis/namespace.hpp"
#include "analysis/summary.hpp"
#include "workload/campus.hpp"
#include "workload/eecs.hpp"
#include "workload/schedule.hpp"

namespace nfstrace {
namespace {

// ------------------------------------------------------------- schedule

TEST(Schedule, CampusPeakVsNight) {
  auto s = WeeklySchedule::campus();
  double peak = s.weight(days(2) + hours(11));   // Tuesday 11am
  double night = s.weight(days(2) + hours(3));   // Tuesday 3am
  double weekend = s.weight(days(6) + hours(11));  // Saturday 11am
  EXPECT_GT(peak, 5 * night);
  EXPECT_GT(peak, weekend);
}

TEST(Schedule, EecsEveningShoulder) {
  auto s = WeeklySchedule::eecs();
  EXPECT_GT(s.weight(days(3) + hours(22)), 0.3);  // grad students at night
}

TEST(Schedule, NextEventRespectsWeights) {
  auto s = WeeklySchedule::campus();
  Rng rng(1);
  // Count events landing in peak vs night across a simulated week.
  int peakEvents = 0, nightEvents = 0;
  MicroTime t = 0;
  while (t < kMicrosPerWeek) {
    t = s.nextEvent(rng, t, 10.0);
    int h = hourOfDay(t);
    int d = dayOfWeek(t);
    if (d >= 1 && d <= 5 && h >= 9 && h < 18) ++peakEvents;
    if (h >= 0 && h < 6) ++nightEvents;
  }
  EXPECT_GT(peakEvents, 3 * nightEvents);
}

TEST(Schedule, EventTimesStrictlyAdvance) {
  auto s = WeeklySchedule::eecs();
  Rng rng(2);
  MicroTime t = 0;
  for (int i = 0; i < 100; ++i) {
    MicroTime next = s.nextEvent(rng, t, 50.0);
    EXPECT_GT(next, t);
    t = next;
  }
}

// ------------------------------------------------- campus trace shape

/// The name census of `records`, fed one at a time through one namespace.
FileLifeCensus censusOf(const std::vector<TraceRecord>& records) {
  HandleIds ids;
  Namespace ns;
  FileLifeCensus census;
  for (const TraceRecord& r : records) {
    const RecordIds id = ids.of(r);
    census.observe(r, id, ns.apply(r, id));
  }
  census.finish();
  return census;
}

class CampusShape : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SimEnvironment::Config simCfg;
    simCfg.fsConfig.fsid = 2;
    simCfg.fsConfig.defaultQuotaBytes = 50ULL << 20;
    simCfg.clientHosts = 3;
    env_ = new SimEnvironment(simCfg);
    CampusConfig cfg;
    cfg.users = 40;
    CampusWorkload wl(cfg, *env_);
    MicroTime start = days(1) + hours(10);  // Monday 10am
    wl.setup(start);
    wl.run(start, start + hours(2));
    env_->finishCapture();
  }
  static void TearDownTestSuite() {
    delete env_;
    env_ = nullptr;
  }
  static SimEnvironment* env_;
};

SimEnvironment* CampusShape::env_ = nullptr;

TEST_F(CampusShape, ReadsDominateData) {
  auto s = summarize(env_->records());
  EXPECT_GT(s.readWriteByteRatio(), 1.5);
  EXPECT_LT(s.readWriteByteRatio(), 6.0);  // paper: ~3
  EXPECT_GT(s.readWriteOpRatio(), 1.5);
}

TEST_F(CampusShape, MostCallsAreData) {
  auto s = summarize(env_->records());
  EXPECT_GT(s.dataOpFraction(), 0.5);
}

TEST_F(CampusShape, LockFilesDominateCreateDelete) {
  FileLifeCensus census = censusOf(env_->records());
  // Paper: ~96% of created-and-deleted CAMPUS files are lock files.
  EXPECT_GT(census.lockFractionOfDeleted(), 0.5);
  const auto& locks = census.byCategory().at(NameCategory::LockFile);
  EXPECT_GT(locks.deleted, 50u);
  // Locks are zero length and die fast.
  EXPECT_EQ(locks.zeroLength, locks.deleted);
  auto& lifetimes = const_cast<CategoryStats&>(locks).lifetimesSec;
  EXPECT_LT(lifetimes.quantile(0.99), 0.5);
}

TEST_F(CampusShape, MailboxBytesDominate) {
  // >95% of data bytes should involve user inboxes (mailbox category).
  HandleIds ids;
  Namespace paths;
  std::uint64_t mailboxBytes = 0, totalBytes = 0;
  for (const auto& r : env_->records()) {
    const RecordIds id = ids.of(r);
    paths.apply(r, id);
    if (r.op == NfsOp::Read || r.op == NfsOp::Write) {
      std::uint64_t n = r.retCount;
      totalBytes += n;
      std::uint32_t name = paths.nameOf(id.fh);
      if (name && classifyName(ids.name(name)) == NameCategory::Mailbox) {
        mailboxBytes += n;
      }
    }
  }
  ASSERT_GT(totalBytes, 0u);
  EXPECT_GT(static_cast<double>(mailboxBytes) /
                static_cast<double>(totalBytes),
            0.85);
}

TEST_F(CampusShape, AllCallsCaptured) {
  EXPECT_EQ(env_->records().size(), env_->server().totalCalls());
}

// --------------------------------------------------- eecs trace shape

class EecsShape : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SimEnvironment::Config simCfg;
    simCfg.fsConfig.fsid = 1;
    simCfg.clientHosts = 8;
    simCfg.useTcp = false;  // EECS clients use UDP
    simCfg.mtu = kStandardMtu;
    env_ = new SimEnvironment(simCfg);
    EecsConfig cfg;
    cfg.users = 24;
    EecsWorkload wl(cfg, *env_);
    MicroTime start = days(1) + hours(10);
    wl.setup(start);
    wl.run(start, start + hours(2));
    env_->finishCapture();
  }
  static void TearDownTestSuite() {
    delete env_;
    env_ = nullptr;
  }
  static SimEnvironment* env_;
};

SimEnvironment* EecsShape::env_ = nullptr;

TEST_F(EecsShape, MetadataDominates) {
  auto s = summarize(env_->records());
  // Paper: most EECS calls are metadata (getattr/lookup/access).
  EXPECT_GT(s.metadataOps, s.dataOps);
}

TEST_F(EecsShape, WritesOutnumberReads) {
  auto s = summarize(env_->records());
  EXPECT_LT(s.readWriteOpRatio(), 1.0);   // paper: 0.69
  EXPECT_LT(s.readWriteByteRatio(), 1.5);  // paper: 0.56
}

TEST_F(EecsShape, AppletFilesChurn) {
  FileLifeCensus census = censusOf(env_->records());
  auto it = census.byCategory().find(NameCategory::AppletFile);
  ASSERT_NE(it, census.byCategory().end());
  EXPECT_GT(it->second.deleted, 10u);
  // Unlike CAMPUS, locks are a small share of deletions here.
  EXPECT_LT(census.lockFractionOfDeleted(), 0.3);
}

TEST_F(EecsShape, CacheRevalidationTraffic) {
  auto s = summarize(env_->records());
  auto getattrs = s.opCounts[static_cast<std::size_t>(NfsOp::Getattr)];
  auto lookups = s.opCounts[static_cast<std::size_t>(NfsOp::Lookup)];
  auto accesses = s.opCounts[static_cast<std::size_t>(NfsOp::Access)];
  EXPECT_GT(getattrs + lookups + accesses, s.totalOps / 2);
}

// ------------------------------------------------------ config loading

TEST(WorkloadConfig, CampusFromFile) {
  std::string path = "/tmp/campus_test.cfg";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "users = 77\n"
        "deliveries_per_user_hour = 9.5\n"
        "mailbox_median_kb = 512\n"
        "session_mean_minutes = 10\n"
        "seed = 31337\n",
        f);
    std::fclose(f);
  }
  auto cfg = CampusConfig::fromFile(path);
  EXPECT_EQ(cfg.users, 77);
  EXPECT_DOUBLE_EQ(cfg.deliveriesPerUserPeakHourly, 9.5);
  EXPECT_DOUBLE_EQ(cfg.mailboxMedianBytes, 512.0 * 1024);
  EXPECT_EQ(cfg.sessionMeanLength, minutes(10));
  EXPECT_EQ(cfg.seed, 31337u);
  // Unset keys keep the defaults.
  CampusConfig defaults;
  EXPECT_DOUBLE_EQ(cfg.popChecksPerUserPeakHourly,
                   defaults.popChecksPerUserPeakHourly);
  std::remove(path.c_str());
}

TEST(WorkloadConfig, EecsFromFile) {
  std::string path = "/tmp/eecs_test.cfg";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("users = 5\nbuilds_per_user_hour = 1.25\n", f);
    std::fclose(f);
  }
  auto cfg = EecsConfig::fromFile(path);
  EXPECT_EQ(cfg.users, 5);
  EXPECT_DOUBLE_EQ(cfg.buildsPeakHourly, 1.25);
  EecsConfig defaults;
  EXPECT_EQ(cfg.filesPerProject, defaults.filesPerProject);
  std::remove(path.c_str());
}

TEST(WorkloadConfig, RejectsUnknownKeysNamingThem) {
  std::string path = "/tmp/workload_unknown_key_test.cfg";
  auto expectRejected = [&](const char* text, const char* key, auto load) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text, f);
    std::fclose(f);
    try {
      load(path);
      ADD_FAILURE() << key << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  };
  expectRejected("users = 5\nuser = 9\n", "user",
                 [](const std::string& p) { CampusConfig::fromFile(p); });
  expectRejected("builds_per_user_hr = 1\n", "builds_per_user_hr",
                 [](const std::string& p) { EecsConfig::fromFile(p); });
  std::remove(path.c_str());
}

TEST(WorkloadConfig, RejectsNegativeOrNonNumericCountsNamingTheKey) {
  // A negative count once reached setup() as a huge vector size, and a
  // negative seed wrapped to 2^64 - 1.
  std::string path = "/tmp/workload_bad_count_test.cfg";
  auto expectRejected = [&](const char* text, const char* key, auto load) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text, f);
    std::fclose(f);
    try {
      load(path);
      ADD_FAILURE() << text << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  };
  auto campus = [](const std::string& p) { CampusConfig::fromFile(p); };
  auto eecs = [](const std::string& p) { EecsConfig::fromFile(p); };
  expectRejected("users = -5\n", "users", campus);
  expectRejected("users = many\n", "users", campus);
  expectRejected("users = 2147483648\n", "users", campus);
  expectRejected("seed = -1\n", "seed", campus);
  expectRejected("users = -1\n", "users", eecs);
  expectRejected("files_per_project = -3\n", "files_per_project", eecs);
  expectRejected("files_per_project = 1e3\n", "files_per_project", eecs);
  expectRejected("seed = -1\n", "seed", eecs);
  expectRejected("seed = abc\n", "seed", eecs);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nfstrace
