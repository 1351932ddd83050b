// Tests of the benchmark's own instruments: the span tracer and the
// forwarding pass wrapper.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/engine/engine.hpp"
#include "analysis/engine/passes.hpp"
#include "analysis/engine/report.hpp"
#include "inputs.hpp"
#include "sniffer/sniffer.hpp"
#include "timed_pass.hpp"
#include "trace/tracefile.hpp"
#include "tracer.hpp"

namespace nfsbench {
namespace {

using namespace nfstrace;

void spin(std::int64_t ns) {
  const std::int64_t end = nowNs() + ns;
  while (nowNs() < end) {
  }
}

TEST(Tracer, SelfTimesOfNestedScopesAddUpToTheRoot) {
  Tracer t;
  const auto root = t.layer("root", true);
  const auto child = t.layer("child", true);
  const auto leaf = t.layer("leaf");
  {
    Tracer::Scope r(&t, root);
    spin(200'000);
    for (int i = 0; i < 3; ++i) {
      Tracer::Scope c(&t, child);
      spin(100'000);
      Tracer::Scope l(&t, leaf);
      spin(50'000);
    }
  }
  const auto rt = t.totals("root");
  const auto ct = t.totals("child");
  const auto lt = t.totals("leaf");
  EXPECT_EQ(rt.calls, 1u);
  EXPECT_EQ(ct.calls, 3u);
  EXPECT_EQ(lt.calls, 3u);
  EXPECT_EQ(rt.selfNs + ct.selfNs + lt.selfNs, rt.totalNs);
  EXPECT_EQ(ct.selfNs + lt.selfNs, ct.totalNs);
  EXPECT_GE(lt.selfNs, 150'000);

  // Only keepSpans layers store spans; the leaf's parent chain stops at
  // its nearest recorded ancestor.
  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].layer, root);
  EXPECT_EQ(spans[0].parent, -1);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].layer, child);
    EXPECT_EQ(spans[i].parent, 0);
    EXPECT_LE(spans[0].startNs, spans[i].startNs);
    EXPECT_LE(spans[i].endNs, spans[0].endNs);
  }
}

TEST(Tracer, NullTracerScopesAreNoOps) {
  Tracer t;
  const auto id = t.layer("x");
  { Tracer::Scope s(nullptr, id); }
  EXPECT_EQ(t.totals("x").calls, 0u);
}

TEST(Tracer, ConcurrentScopesLoseNothing) {
  Tracer t;
  const auto outer = t.layer("outer", true);
  const auto inner = t.layer("inner");
  constexpr int kThreads = 4, kIters = 5000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < kIters; ++j) {
        Tracer::Scope o(&t, outer);
        Tracer::Scope n(&t, inner);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.totals("outer").calls, std::uint64_t{kThreads} * kIters);
  EXPECT_EQ(t.totals("inner").calls, std::uint64_t{kThreads} * kIters);
  EXPECT_EQ(t.spans().size(), std::size_t{kThreads} * kIters);
}

/// A pass with a distinctive contract, to catch a wrapper that answers
/// with defaults instead of forwarding.
class OddPass final : public AnalysisPass {
 public:
  std::string_view name() const override { return "odd"; }
  bool mergeable() const override { return true; }
  std::uint32_t opMask() const override { return 0x5a5a; }
  void prepare(std::size_t) override {}
  void observe(const TraceBatch&, std::size_t) override {}
  void finalize() override {}
};

TEST(TimedPass, ForwardsThePlanningContractExactly) {
  Tracer t;
  StandardAnalyses a;
  OddPass odd;
  std::vector<AnalysisPass*> passes = a.all();
  passes.push_back(&odd);
  for (AnalysisPass* p : passes) {
    TimedPass w(*p, t);
    EXPECT_EQ(w.name(), p->name());
    EXPECT_EQ(w.mergeable(), p->mergeable());
    EXPECT_EQ(w.opMask(), p->opMask());
  }
}

/// A small many-extent v2 trace: half a day of the EECS workload.
class WrappedEngine : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    path_ = new std::string(
        (std::filesystem::temp_directory_path() /
         ("nfsbench_test_" + std::to_string(::getpid()) + ".v2"))
            .string());
    WorkloadSpec spec = workloadSpec("eecs");
    spec.days = 0.5;
    Inputs in = makeInputs(spec, 0, nullptr);
    TraceWriter::Options o;
    o.format = TraceWriter::Format::V2;
    o.v2ExtentRecords = 64;
    TraceWriter w(*path_, o);
    Sniffer s(Sniffer::Config{}, [&](const TraceRecord& r) { w.write(r); });
    for (const auto& f : in.frames) s.onFrame(f);
    s.flush();
    w.finalize();
  }
  static void TearDownTestSuite() {
    std::filesystem::remove(*path_);
    delete path_;
  }

  static std::string report(const AnalysisEngine::Config& cfg, Tracer* t,
                            AnalysisEngine::Stats* stats = nullptr) {
    StandardAnalyses a;
    std::vector<AnalysisPass*> passes = a.all();
    std::vector<std::unique_ptr<TimedPass>> wrapped;
    if (t) {
      for (auto*& p : passes) {
        wrapped.push_back(std::make_unique<TimedPass>(*p, *t));
        p = wrapped.back().get();
      }
    }
    AnalysisEngine engine(cfg);
    engine.addPasses(passes);
    const auto& st = engine.runFile(*path_);
    if (stats) *stats = st;
    return renderReportText("trace", a);
  }

  static std::string* path_;
};
std::string* WrappedEngine::path_ = nullptr;

TEST_F(WrappedEngine, FourDecodeThreadsObserveRaceFree) {
  AnalysisEngine::Config cfg;
  cfg.decodeThreads = 4;
  const std::string plain = report(cfg, nullptr);
  ASSERT_FALSE(plain.empty());
  for (int rep = 0; rep < 5; ++rep) {
    Tracer t;
    AnalysisEngine::Stats st;
    EXPECT_EQ(report(cfg, &t, &st), plain);
    ASSERT_GT(st.batches, 16u);
    // Every batch reaches every mergeable pass exactly once, whichever
    // decode thread observed it; a lost update would show here.
    for (const char* p : {"summary", "hourly", "users"}) {
      EXPECT_EQ(t.totals(std::string("pass.") + p + ".observe").calls,
                st.batches)
          << p;
      EXPECT_EQ(t.totals(std::string("pass.") + p + ".finalize").calls, 1u);
    }
  }
}

TEST_F(WrappedEngine, PruningIsUnchangedByTheWrapper) {
  AnalysisEngine::Config cfg;
  cfg.predicate.ops = opMaskBit(NfsOp::Read) | opMaskBit(NfsOp::Write);
  AnalysisEngine::Stats plainStats, wrappedStats;
  const std::string plain = report(cfg, nullptr, &plainStats);
  Tracer t;
  EXPECT_EQ(report(cfg, &t, &wrappedStats), plain);
  EXPECT_EQ(wrappedStats.extentsTotal, plainStats.extentsTotal);
  EXPECT_EQ(wrappedStats.extentsPruned, plainStats.extentsPruned);
  EXPECT_EQ(wrappedStats.records, plainStats.records);
}

}  // namespace
}  // namespace nfsbench
