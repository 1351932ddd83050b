// The nfsdump-equivalent tool: read raw frames from a pcap file, decode
// NFS traffic, and write a v2 trace file.  Demonstrates the offline path
// of the pipeline (capture once, analyze forever).
//
//   capture_to_trace [--chaos plan.cfg] [--flight trace.json]
//                    [input.pcap [output.trace]]
//
// With no arguments it first generates a demo capture to convert.
// --chaos runs the conversion under a deterministic fault plan (see
// configs/chaos.cfg): frames are dropped/corrupted/reordered in front of
// the sniffer and the trace writer suffers injected transient IO errors,
// demonstrating the capture path's graceful degradation end to end.
// --flight records a per-thread span timeline of the whole run (sniffer
// evictions, fault decisions, writer flushes/retries) to a Chrome
// trace-event file — open it in Perfetto — and prints the stall report.
// An unknown flag prints the usage line and exits 2; an unreadable input
// exits 1.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "obs/flight.hpp"
#include "pcap/pcap.hpp"
#include "sniffer/sniffer.hpp"
#include "trace/tracefile.hpp"
#include "workload/campus.hpp"
#include "workload/sim.hpp"

using namespace nfstrace;

namespace {

/// Record every tapped frame into a pcap file (the capture box).
class PcapSink : public FrameSink {
 public:
  explicit PcapSink(const std::string& path) : writer_(path) {}
  void onFrame(const CapturedPacket& pkt) override { writer_.write(pkt); }
  std::uint64_t frames() const { return writer_.packetsWritten(); }

 private:
  PcapWriter writer_;
};

std::string makeDemoCapture() {
  std::string path = "/tmp/capture_to_trace_demo.pcap";
  std::printf("no input given; generating a demo capture at %s\n",
              path.c_str());

  InMemoryFs fs{InMemoryFs::Config{.fsid = 2,
                                   .capacityBytes = 53ULL << 30,
                                   .defaultQuotaBytes = 50ULL << 20}};
  NfsServer server(fs);
  PcapSink sink(path);
  NfsTransport::Config tc;
  tc.useTcp = true;
  tc.mtu = kJumboMtu;
  NfsTransport transport(tc, server, &sink, 11);
  NfsClient client({}, transport, 12);
  client.setRootHandle(fs.rootHandle());

  fs.mkfile("/home02/u0001/.inbox", 600 * 1024, 2001, 2001, 0);
  MicroTime now = seconds(2);
  auto dir = *client.lookupPath(now, "/home02/u0001");
  auto inbox = *client.lookupPath(now, "/home02/u0001/.inbox");
  auto lock = client.create(now, dir, ".inbox.lock", true);
  client.readFile(now, inbox);
  client.append(now, inbox, 4096, true);
  if (lock) client.remove(now, dir, ".inbox.lock");

  std::printf("  wrote %llu frames\n",
              static_cast<unsigned long long>(sink.frames()));
  return path;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--chaos plan.cfg] [--flight trace.json] "
               "[input.pcap [output.trace]]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  std::string chaosPath;
  std::string flightPath;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--chaos" && i + 1 < argc) {
      chaosPath = argv[++i];
    } else if (arg == "--flight" && i + 1 < argc) {
      flightPath = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      positional.push_back(arg);
    }
  }
  std::string input = !positional.empty() ? positional[0] : makeDemoCapture();
  std::string output =
      positional.size() > 1 ? positional[1] : "/tmp/capture_to_trace.trace";

  FaultPlan plan;
  if (!chaosPath.empty()) {
    plan = FaultPlan::load(chaosPath);
    std::printf("chaos plan %s (seed %llu)\n", chaosPath.c_str(),
                static_cast<unsigned long long>(plan.seed));
  }

  obs::FlightRecorder flight;

  // Each record is written as the sniffer emits it; only the first few
  // are kept, for the printout.
  PcapReader reader(input);
  IoFaultInjector ioFaults(plan);
  TraceWriter::Options wopts;
  if (!chaosPath.empty()) wopts.faults = &ioFaults;
  TraceWriter writer(output, wopts);
  if (!flightPath.empty()) writer.attachFlight(flight);
  std::vector<TraceRecord> firstRecords;
  Sniffer::Config scfg;
  if (!flightPath.empty()) scfg.flight = &flight;
  Sniffer sniffer(scfg, [&](const TraceRecord& rec) {
    writer.write(rec);
    if (firstRecords.size() < 5) firstRecords.push_back(rec);
  });
  FaultySink faulty(plan, sniffer);  // quiet plan = pass-through
  if (!flightPath.empty()) faulty.attachFlight(flight);
  while (auto pkt = reader.next()) faulty.onFrame(*pkt);
  faulty.flush();
  sniffer.flush();
  writer.flush();
  const Sniffer::Stats& stats = sniffer.stats();
  const TraceWriter::IoStats ioStats = writer.ioStats();  // before the seal
  const std::uint64_t records = writer.recordsWritten();
  writer.finalize();

  // The paper's §4.1.4 capture-loss estimate: a reply whose call was
  // never captured means the call frame was dropped at the tap, so
  // orphans / (calls + orphans) estimates the fraction of calls lost.
  double totalCalls = static_cast<double>(stats.rpcCalls) +
                      static_cast<double>(stats.orphanReplies);
  double lossEstimate =
      totalCalls > 0 ? static_cast<double>(stats.orphanReplies) / totalCalls
                     : 0.0;

  std::printf(
      "\n%s -> %s\n"
      "frames seen:        %llu\n"
      "NFS calls decoded:  %llu\n"
      "NFS replies:        %llu\n"
      "orphan replies:     %llu   (their calls were lost -- the paper's\n"
      "                            capture-loss estimator)\n"
      "reply-less calls:   %llu   (timed out + drained at end of capture)\n"
      "est. capture loss:  %.2f%%  (orphans / (calls + orphans), sec 4.1.4)\n"
      "trace records:      %llu\n",
      input.c_str(), output.c_str(),
      static_cast<unsigned long long>(stats.framesSeen),
      static_cast<unsigned long long>(stats.rpcCalls),
      static_cast<unsigned long long>(stats.rpcReplies),
      static_cast<unsigned long long>(stats.orphanReplies),
      static_cast<unsigned long long>(stats.expiredCalls + stats.flushedCalls),
      100.0 * lossEstimate,
      static_cast<unsigned long long>(records));

  if (!chaosPath.empty()) {
    const FaultySink::Stats& fs = faulty.stats();
    std::printf(
        "\nchaos summary:\n"
        "wire: %llu frames, %llu dropped (%llu in %llu bursts), "
        "%llu dup, %llu reordered, %llu truncated, %llu bitflipped\n"
        "disk: %llu write retries, %llu short writes, %llu extents\n",
        static_cast<unsigned long long>(fs.frames),
        static_cast<unsigned long long>(fs.dropped),
        static_cast<unsigned long long>(fs.burstDropped),
        static_cast<unsigned long long>(fs.bursts),
        static_cast<unsigned long long>(fs.duplicated),
        static_cast<unsigned long long>(fs.reordered),
        static_cast<unsigned long long>(fs.truncated),
        static_cast<unsigned long long>(fs.bitflipped),
        static_cast<unsigned long long>(ioStats.retries),
        static_cast<unsigned long long>(ioStats.shortWrites),
        static_cast<unsigned long long>(ioStats.checkpoints));
  }

  if (!firstRecords.empty()) {
    std::printf("\nfirst records:\n");
    for (const TraceRecord& rec : firstRecords) {
      std::printf("  %s\n", formatRecord(rec).c_str());
    }
  }

  if (!flightPath.empty()) {
    std::printf("\n%s", flight.stallReport().c_str());
    std::uint64_t rendered = 0;
    if (!flight.writeChromeTrace(flightPath, &rendered)) {
      std::fprintf(stderr, "failed to write flight trace %s\n",
                   flightPath.c_str());
      return 1;
    }
    std::printf(
        "flight timeline: %s (%llu events; load in https://ui.perfetto.dev)\n",
        flightPath.c_str(), static_cast<unsigned long long>(rendered));
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "capture_to_trace: %s\n", e.what());
  return 1;
}
