// Flight recorder tests: ring wraparound with exact drop accounting,
// span nesting and retroactive-span tallies, concurrent emitters racing
// a live drainer (run these under the `tsan` preset; they carry its
// ctest label), and an end-to-end chaos-style run — faulty wire in front
// of the sharded pipeline, trace writer, then the analysis engine — that
// must cover at least five distinct stages, render a valid Chrome-trace
// document, and reconcile its books exactly:
//
//     eventsEmitted == eventsWritten + eventsDropped
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/engine/engine.hpp"
#include "analysis/engine/passes.hpp"
#include "fault/fault.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "pipeline/pipeline.hpp"
#include "trace/tracefile.hpp"
#include "workload/sim.hpp"

namespace nfstrace {
namespace {

std::size_t idx(obs::Stage s) { return static_cast<std::size_t>(s); }

/// Collects raw frames off the simulation tap for later replay.
struct FrameCollector : FrameSink {
  std::vector<CapturedPacket> frames;
  void onFrame(const CapturedPacket& pkt) override { frames.push_back(pkt); }
};

std::vector<CapturedPacket> simulatedCapture() {
  SimEnvironment::Config cfg;
  cfg.clientHosts = 4;
  cfg.useTcp = true;
  cfg.mtu = kJumboMtu;
  SimEnvironment env(cfg);
  FrameCollector collector;
  env.addTapSink(&collector);
  for (int host = 0; host < 4; ++host) {
    env.fs().mkfile("/home/u" + std::to_string(host) + "/inbox",
                    40 * 1024 + host * 7777, 100 + host, 100, 0);
  }
  MicroTime now = seconds(1);
  for (int host = 0; host < 4; ++host) {
    NfsClient& c = env.client(host);
    c.setIdentity(100 + static_cast<std::uint32_t>(host), 100);
    std::string dir = "/home/u" + std::to_string(host);
    auto dirFh = *c.lookupPath(now, dir);
    auto fh = *c.lookupPath(now, dir + "/inbox");
    c.readFile(now, fh);
    c.append(now, fh, 4096, true);
    c.readdir(now, dirFh);
    auto lock = c.create(now, dirFh, ".lock", true);
    if (lock) c.remove(now, dirFh, ".lock");
    now += seconds(1);
  }
  env.finishCapture();
  return collector.frames;
}

TEST(FlightRing, WraparoundDropsAndReconcilesExactly) {
  obs::FlightRecorder rec(obs::FlightRecorder::Config{8});
  obs::ThreadLog* log = rec.attachThread("t0");
  for (std::uint64_t i = 0; i < 100; ++i) {
    log->instant(obs::Stage::FaultDrop, i);
  }
  // The ring holds 8 events; the other 92 are dropped, never blocking.
  EXPECT_EQ(log->eventsEmitted(), 100u);
  EXPECT_EQ(log->eventsWritten(), 8u);
  EXPECT_EQ(log->eventsDropped(), 92u);
  obs::FlightRecorder::Totals t = rec.totals();
  EXPECT_EQ(t.emitted, t.written + t.dropped);

  // Draining frees the ring: new events fit again and the books still
  // balance (drops are permanent, not retroactively recovered).
  rec.drain();
  for (std::uint64_t i = 0; i < 4; ++i) {
    log->instant(obs::Stage::FaultDrop, i);
  }
  EXPECT_EQ(log->eventsWritten(), 12u);
  EXPECT_EQ(log->eventsDropped(), 92u);
  t = rec.totals();
  EXPECT_EQ(t.emitted, 104u);
  EXPECT_EQ(t.emitted, t.written + t.dropped);
}

TEST(FlightRing, RingCapacityRoundsUpToPowerOfTwo) {
  obs::FlightRecorder rec(obs::FlightRecorder::Config{5});  // rounds to 8
  obs::ThreadLog* log = rec.attachThread("t0");
  for (std::uint64_t i = 0; i < 9; ++i) log->instant(obs::Stage::FrameShed);
  EXPECT_EQ(log->eventsWritten(), 8u);
  EXPECT_EQ(log->eventsDropped(), 1u);
}

TEST(FlightSpans, NestingAndRetroactiveTallies) {
  obs::FlightRecorder rec;
  obs::ThreadLog* log = rec.attachThread("worker");
  {
    obs::FlightSpan outer(log, obs::Stage::Sniff, 64);
    obs::FlightSpan inner(log, obs::Stage::WriterFlush, 4096);
  }
  // Retroactive span: one event covering a loop episode that already
  // happened (the stall-loop idiom used by the pipeline).
  std::uint64_t start = log->nowNs();
  log->complete(obs::Stage::MergeWait, start, 7);
  log->instant(obs::Stage::CallEvicted, 42);

  std::vector<obs::StageTally> tallies = rec.stageTallies();
  ASSERT_EQ(tallies.size(), obs::kStageCount);
  EXPECT_EQ(tallies[idx(obs::Stage::Sniff)].spans, 1u);
  EXPECT_EQ(tallies[idx(obs::Stage::WriterFlush)].spans, 1u);
  EXPECT_EQ(tallies[idx(obs::Stage::MergeWait)].spans, 1u);
  EXPECT_EQ(tallies[idx(obs::Stage::CallEvicted)].spans, 1u);
  // The outer span strictly contains the inner one.
  EXPECT_GE(tallies[idx(obs::Stage::Sniff)].totalNs,
            tallies[idx(obs::Stage::WriterFlush)].totalNs);

  // The same structure renders as a valid Chrome-trace document with
  // B/E pairs for the nested spans and an X event for the episode.
  std::string json = rec.chromeTraceJson();
  EXPECT_TRUE(obs::isValidJson(json));
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("pipeline.sniff"), std::string::npos);
}

TEST(FlightSpans, StallReportAttributesWaitToBlocker) {
  obs::FlightRecorder rec;
  obs::ThreadLog* log = rec.attachThread("shard0");
  {
    obs::FlightSpan work(log, obs::Stage::Sniff);
  }
  std::uint64_t start = log->nowNs();
  log->complete(obs::Stage::RecordRingWait, start);
  std::string report = rec.stallReport();
  // The wait stage names its waiter and blocker work stages.
  EXPECT_NE(report.find("pipeline.record_ring_wait"), std::string::npos);
  EXPECT_NE(report.find("pipeline.sniff"), std::string::npos);
  EXPECT_NE(report.find("pipeline.merge"), std::string::npos);
  EXPECT_NE(report.find("emitted"), std::string::npos);
}

TEST(FlightCounters, CounterTrackRendersNamedSeries) {
  obs::FlightRecorder rec;
  obs::ThreadLog* log = rec.attachThread("exporter");
  std::uint16_t track = rec.counterTrack("pipeline.ring.depth");
  EXPECT_EQ(rec.counterTrack("pipeline.ring.depth"), track);  // idempotent
  log->counterSample(track, 3.5);
  log->counterSample(track, 7.0);
  std::string json = rec.chromeTraceJson();
  EXPECT_TRUE(obs::isValidJson(json));
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("pipeline.ring.depth"), std::string::npos);
  EXPECT_NE(json.find("3.5"), std::string::npos);
}

TEST(FlightConcurrency, EmittersAndDrainerReconcile) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kIters = 20'000;
  obs::FlightRecorder rec(obs::FlightRecorder::Config{1 << 10});
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      obs::ThreadLog* log =
          rec.attachThread("w" + std::to_string(t));
      for (std::uint64_t i = 0; i < kIters; ++i) {
        obs::FlightSpan span(log, obs::Stage::Sniff,
                             static_cast<std::uint32_t>(i));
        log->instant(obs::Stage::FrameShed, i);
      }
    });
  }
  // Drain concurrently with the emitters: the consumer side must never
  // tear an event or double-count (this is the race ThreadSanitizer
  // watches when the suite runs under the tsan preset).
  for (int i = 0; i < 100; ++i) rec.drain();
  for (auto& t : threads) t.join();

  obs::FlightRecorder::Totals totals = rec.totals();
  EXPECT_EQ(totals.emitted, kThreads * kIters * 3);  // begin + instant + end
  EXPECT_EQ(totals.emitted, totals.written + totals.dropped);

  std::uint64_t rendered = 0;
  std::string json = rec.chromeTraceJson(&rendered);
  EXPECT_TRUE(obs::isValidJson(json));
  // Producers have quiesced, so everything written is rendered.
  EXPECT_EQ(rendered, totals.written);
}

TEST(FlightChaos, EndToEndCoversStagesAndRendersValidChromeTrace) {
  auto frames = simulatedCapture();
  ASSERT_FALSE(frames.empty());

  obs::FlightRecorder flight;
  FaultPlan plan;
  plan.seed = 7;
  plan.dropRate = 0.05;
  plan.bitflipRate = 0.01;
  const std::string path = "/tmp/flight_test_chaos.trace";
  {
    TraceWriter writer(path);
    writer.attachFlight(flight);
    ParallelPipeline::Config pc;
    pc.shards = 2;
    pc.flight = &flight;
    ParallelPipeline pipe(pc,
                          [&](const TraceRecord& r) { writer.write(r); });
    FaultySink faulty(plan, pipe);
    faulty.attachFlight(flight);
    for (const auto& f : frames) faulty.onFrame(f);
    faulty.flush();
    pipe.finish();
    writer.flush();
  }

  // Same recorder through the analysis side, as trace_analyze --flight
  // wires it: reader decode, per-pass observe, finalize.
  StandardAnalyses analyses;
  AnalysisEngine::Config ecfg;
  ecfg.decodeThreads = 2;
  AnalysisEngine engine(ecfg);
  engine.addPasses(analyses.all());
  engine.attachFlight(flight);
  TraceReader reader(path);
  const AnalysisEngine::Stats& st = engine.run(reader);
  EXPECT_GT(st.records, 0u);

  // Distinct stages covered: the acceptance bar is five; this run must
  // hit capture, write, and analysis stages at minimum.
  std::vector<obs::StageTally> tallies = flight.stageTallies();
  std::set<std::string> active;
  for (std::size_t s = 0; s < tallies.size(); ++s) {
    if (tallies[s].spans > 0) {
      active.insert(obs::stageName(static_cast<obs::Stage>(s)));
    }
  }
  EXPECT_GE(active.size(), 5u) << [&] {
    std::string got;
    for (const auto& n : active) got += n + " ";
    return got;
  }();
  EXPECT_TRUE(active.count("pipeline.partition"));
  EXPECT_TRUE(active.count("pipeline.sniff"));
  EXPECT_TRUE(active.count("pipeline.merge"));
  EXPECT_TRUE(active.count("trace.flush"));
  EXPECT_TRUE(active.count("engine.reader_decode"));
  EXPECT_TRUE(active.count("engine.pass_observe"));
  EXPECT_TRUE(active.count("engine.finalize"));

  // The Chrome-trace document validates and the books balance exactly.
  std::uint64_t rendered = 0;
  std::string json = flight.chromeTraceJson(&rendered);
  EXPECT_TRUE(obs::isValidJson(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  obs::FlightRecorder::Totals totals = flight.totals();
  EXPECT_GT(totals.emitted, 0u);
  EXPECT_EQ(totals.emitted, totals.written + totals.dropped);
  EXPECT_EQ(rendered, totals.written);

  // writeChromeTrace produces the same document on disk.
  std::uint64_t renderedFile = 0;
  EXPECT_TRUE(flight.writeChromeTrace(path + ".json", &renderedFile));
  EXPECT_EQ(renderedFile, rendered);
  std::remove((path + ".json").c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nfstrace
