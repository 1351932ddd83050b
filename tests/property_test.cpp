// Property-based tests: randomized inputs, invariant checks, seed-swept
// with INSTANTIATE_TEST_SUITE_P.  These complement the example-based unit
// tests by exploring input spaces the examples do not.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <numeric>

#include "analysis/blocklife.hpp"
#include "analysis/reorder.hpp"
#include "analysis/runs.hpp"
#include "analysis/summary.hpp"
#include "anon/anon.hpp"
#include "fs/fs.hpp"
#include "net/packet.hpp"
#include "nfs/messages.hpp"
#include "rpc/rpc.hpp"
#include "trace/tracefile.hpp"
#include "util/rng.hpp"

namespace nfstrace {
namespace {

class Seeded : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Rng rng_{GetParam()};
};

// ------------------------------------------------------------------ XDR

using XdrProperty = Seeded;

TEST_P(XdrProperty, RandomSequenceRoundTrips) {
  // Encode a random sequence of typed values, decode it back identically.
  enum Kind { U32, U64, Str, Opaque, Boolean };
  std::vector<std::pair<Kind, std::uint64_t>> script;
  std::vector<std::string> strings;
  std::vector<std::vector<std::uint8_t>> opaques;

  XdrEncoder enc;
  for (int i = 0; i < 200; ++i) {
    switch (rng_.below(5)) {
      case 0: {
        auto v = rng_.next() & 0xffffffff;
        enc.putUint32(static_cast<std::uint32_t>(v));
        script.push_back({U32, v});
        break;
      }
      case 1: {
        auto v = rng_.next();
        enc.putUint64(v);
        script.push_back({U64, v});
        break;
      }
      case 2: {
        std::string s;
        auto len = rng_.below(40);
        for (std::uint64_t j = 0; j < len; ++j) {
          s.push_back(static_cast<char>('a' + rng_.below(26)));
        }
        enc.putString(s);
        script.push_back({Str, strings.size()});
        strings.push_back(s);
        break;
      }
      case 3: {
        std::vector<std::uint8_t> o(rng_.below(64));
        for (auto& b : o) b = static_cast<std::uint8_t>(rng_.below(256));
        enc.putOpaque(o);
        script.push_back({Opaque, opaques.size()});
        opaques.push_back(o);
        break;
      }
      case 4: {
        bool b = rng_.chance(0.5);
        enc.putBool(b);
        script.push_back({Boolean, b ? 1u : 0u});
        break;
      }
    }
  }
  // Alignment invariant: the buffer is always a multiple of 4.
  EXPECT_EQ(enc.size() % 4, 0u);

  XdrDecoder dec(enc.bytes());
  for (const auto& [kind, v] : script) {
    switch (kind) {
      case U32: EXPECT_EQ(dec.getUint32(), static_cast<std::uint32_t>(v)); break;
      case U64: EXPECT_EQ(dec.getUint64(), v); break;
      case Str: EXPECT_EQ(dec.getString(), strings[v]); break;
      case Opaque: EXPECT_EQ(dec.getOpaque(), opaques[v]); break;
      case Boolean: EXPECT_EQ(dec.getBool(), v == 1); break;
    }
  }
  EXPECT_TRUE(dec.atEnd());
}

TEST_P(XdrProperty, TruncatedBuffersNeverCrash) {
  // Any truncation of a valid buffer must throw XdrError, never read OOB.
  XdrEncoder enc;
  encodeCall3(enc, WriteArgs{FileHandle::make(1, rng_.next(), 2), rng_.next(),
                             static_cast<std::uint32_t>(rng_.below(4096)),
                             StableHow::Unstable});
  auto full = enc.bytes();
  for (std::size_t cut = 0; cut < full.size(); cut += 1 + rng_.below(7)) {
    XdrDecoder dec(std::span<const std::uint8_t>(full.data(), cut));
    try {
      (void)decodeCall3(Proc3::Write, dec);
    } catch (const XdrError&) {
      // expected for most cuts
    }
  }
  SUCCEED();
}

// ------------------------------------------------------- record marking

using RpcProperty = Seeded;

TEST_P(RpcProperty, RecordMarkSurvivesArbitraryChunking) {
  // N random bodies, concatenated, fed in random-sized chunks: the reader
  // must reproduce the exact body sequence.
  std::vector<std::vector<std::uint8_t>> bodies;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 20; ++i) {
    std::vector<std::uint8_t> body(4 + rng_.below(600));
    for (auto& b : body) b = static_cast<std::uint8_t>(rng_.below(256));
    auto marked = recordMark(body);
    stream.insert(stream.end(), marked.begin(), marked.end());
    bodies.push_back(std::move(body));
  }

  RecordMarkReader reader;
  std::vector<std::vector<std::uint8_t>> got;
  auto collect = [&](std::span<const std::uint8_t> body) {
    got.emplace_back(body.begin(), body.end());
  };
  std::size_t pos = 0;
  while (pos < stream.size()) {
    std::size_t n = std::min<std::size_t>(1 + rng_.below(97),
                                          stream.size() - pos);
    EXPECT_TRUE(reader.feed(
        std::span<const std::uint8_t>(stream.data() + pos, n), collect));
    pos += n;
  }
  EXPECT_EQ(got, bodies);
}

TEST_P(RpcProperty, SegmentedRecordsWithLossYieldTheReferenceBodies) {
  // Bursts of records go out as a client sends them: record-marked (some
  // in several fragments), back to back, and cut into segments at a random
  // MSS, so records coalesce within segments and straddle them.  Each
  // burst then keeps all, none or a prefix of its segments, and a kept
  // segment is sometimes retransmitted.  Driven as the sniffer drives the
  // reassembler and the reader (resync and reset at every gap), exactly
  // the records that lie wholly in kept segments come out, in order.
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t mss =
        trial == 0 ? 1 + rng_.below(12) : 12 + rng_.below(2000);
    const std::size_t maxBody = trial == 0 ? 200 : 3000;
    std::uint32_t seq = static_cast<std::uint32_t>(rng_.next());
    std::vector<std::vector<std::uint8_t>> frames;
    std::vector<std::vector<std::uint8_t>> expected;
    for (int burst = 0; burst < 20; ++burst) {
      std::vector<std::uint8_t> stream;
      std::vector<std::size_t> ends;  // stream offset just past each record
      std::vector<std::vector<std::uint8_t>> bodies;
      const std::size_t records = 1 + rng_.below(4);
      for (std::size_t r = 0; r < records; ++r) {
        std::vector<std::uint8_t> body(rng_.below(maxBody));
        for (auto& b : body) b = static_cast<std::uint8_t>(rng_.below(256));
        const std::size_t fragments = 1 + rng_.below(3);
        std::size_t off = 0;
        for (std::size_t f = 0; f < fragments; ++f) {
          const bool last = f + 1 == fragments;
          const std::size_t len =
              last ? body.size() - off : rng_.below(body.size() - off + 1);
          const auto mark = static_cast<std::uint32_t>(len) |
                            (last ? 0x80000000u : 0u);
          for (int shift = 24; shift >= 0; shift -= 8) {
            stream.push_back(static_cast<std::uint8_t>(mark >> shift));
          }
          stream.insert(stream.end(), body.begin() + off,
                        body.begin() + off + len);
          off += len;
        }
        ends.push_back(stream.size());
        bodies.push_back(std::move(body));
      }
      auto segments = segmentTcpStream(makeIp(10, 1, 0, 2), 1023,
                                       makeIp(10, 0, 0, 1), 2049, seq,
                                       stream, mss);
      std::size_t keep = segments.size();
      switch (rng_.below(4)) {
        case 0: keep = 0; break;
        case 1: keep = rng_.below(segments.size()); break;
        default: break;
      }
      const std::size_t keptBytes = std::min(keep * mss, stream.size());
      for (std::size_t r = 0; r < records; ++r) {
        if (ends[r] <= keptBytes) expected.push_back(bodies[r]);
      }
      for (std::size_t i = 0; i < keep; ++i) {
        frames.push_back(segments[i]);
        if (rng_.chance(0.05)) frames.push_back(segments[i]);
      }
    }

    TcpReassembler reasm;
    RecordMarkReader reader;
    std::vector<std::vector<std::uint8_t>> got;
    auto collect = [&](std::span<const std::uint8_t> body) {
      got.emplace_back(body.begin(), body.end());
    };
    for (const auto& f : frames) {
      auto parsed = parseFrame(f);
      ASSERT_TRUE(parsed.has_value());
      auto bytes = reasm.feed(parsed->tcpSeq, parsed->payload, false);
      if (bytes.empty() && reasm.hasGap()) {
        reasm.resyncTo(parsed->tcpSeq);
        reader.reset();
        bytes = reasm.feed(parsed->tcpSeq, parsed->payload, false);
      }
      EXPECT_TRUE(reader.feed(bytes, collect));
    }
    EXPECT_EQ(got, expected) << "trial " << trial << " mss " << mss;
  }
}

// ------------------------------------------------------- IP/TCP layers

using NetProperty = Seeded;

TEST_P(NetProperty, FragmentationRoundTripsAnySizeAndMtu) {
  for (int trial = 0; trial < 10; ++trial) {
    std::size_t size = 1 + rng_.below(40000);
    std::size_t mtu = 576 + rng_.below(9000 - 576);
    std::vector<std::uint8_t> payload(size);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng_.below(256));
    auto frames = buildUdpFrames(makeIp(1, 2, 3, 4), 111, makeIp(5, 6, 7, 8),
                                 222, static_cast<std::uint16_t>(trial),
                                 payload, mtu);
    IpReassembler reasm;
    std::optional<std::vector<std::uint8_t>> result;
    // Feed fragments in a random order.
    std::vector<std::size_t> order(frames.size());
    std::iota(order.begin(), order.end(), 0);
    rng_.shuffle(order);
    for (auto idx : order) {
      auto parsed = parseFrame(frames[idx]);
      ASSERT_TRUE(parsed.has_value());
      if (auto out = reasm.feed(*parsed, 0)) result.emplace(out->begin(), out->end());
    }
    ASSERT_TRUE(result.has_value()) << "size=" << size << " mtu=" << mtu;
    EXPECT_EQ(*result, payload);
  }
}

TEST_P(NetProperty, TcpReassemblyFromShuffledSegments) {
  std::vector<std::uint8_t> stream(2000 + rng_.below(20000));
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = static_cast<std::uint8_t>(i & 0xff);
  }
  std::uint32_t seq = static_cast<std::uint32_t>(rng_.next());
  std::uint32_t isn = seq;
  auto frames = segmentTcpStream(1, 2, 3, 4, seq, stream,
                                 536 + rng_.below(1400));

  // Shuffle with bounded displacement so reassembly stays plausible.
  for (std::size_t i = 0; i + 1 < frames.size(); ++i) {
    if (rng_.chance(0.4)) std::swap(frames[i], frames[i + 1]);
  }

  TcpReassembler reasm;
  reasm.feed(isn - 1, {}, /*syn=*/true);
  std::vector<std::uint8_t> got;
  for (const auto& f : frames) {
    auto parsed = parseFrame(f);
    ASSERT_TRUE(parsed.has_value());
    auto out = reasm.feed(parsed->tcpSeq, parsed->payload, false);
    got.insert(got.end(), out.begin(), out.end());
  }
  EXPECT_EQ(got, stream);
}

// ---------------------------------------------- fs vs reference model

using FsProperty = Seeded;

TEST_P(FsProperty, RandomOpsAgreeWithReferenceModel) {
  // Drive the fs with random creates/writes/truncates/removes in one
  // directory and mirror the expectation in a plain map.
  InMemoryFs fs{InMemoryFs::Config{}};
  std::map<std::string, std::uint64_t> model;  // name -> size
  MicroTime t = 0;

  for (int step = 0; step < 500; ++step) {
    t += 1000;
    std::string name = "f" + std::to_string(rng_.below(20));
    switch (rng_.below(4)) {
      case 0: {  // create / truncate-to-zero
        Sattr attrs;
        attrs.setSize = true;
        attrs.size = 0;
        FsNode node;
        NfsStat st = fs.create(fs.rootHandle(), name, attrs, false, 1, 1, t,
                               node);
        ASSERT_EQ(st, NfsStat::Ok);
        model[name] = 0;
        break;
      }
      case 1: {  // extend via write
        FsNode node;
        if (fs.lookup(fs.rootHandle(), name, node) != NfsStat::Ok) break;
        auto len = 1 + rng_.below(50000);
        auto off = model[name];
        Fattr pre, post;
        ASSERT_EQ(fs.write(node.fh, off, static_cast<std::uint32_t>(len), t,
                           pre, post),
                  NfsStat::Ok);
        model[name] = off + len;
        break;
      }
      case 2: {  // truncate to random size
        FsNode node;
        if (fs.lookup(fs.rootHandle(), name, node) != NfsStat::Ok) break;
        Sattr attrs;
        attrs.setSize = true;
        attrs.size = rng_.below(model[name] + 1);
        Fattr out;
        ASSERT_EQ(fs.setattr(node.fh, attrs, t, out), NfsStat::Ok);
        model[name] = attrs.size;
        break;
      }
      case 3: {  // remove
        NfsStat st = fs.remove(fs.rootHandle(), name, t);
        if (model.count(name)) {
          EXPECT_EQ(st, NfsStat::Ok);
          model.erase(name);
        } else {
          EXPECT_EQ(st, NfsStat::ErrNoEnt);
        }
        break;
      }
    }

    // Invariants after every step: model and fs agree on existence/sizes.
    for (const auto& [n, size] : model) {
      FsNode node;
      ASSERT_EQ(fs.lookup(fs.rootHandle(), n, node), NfsStat::Ok) << n;
      EXPECT_EQ(node.attrs.size, size) << n;
    }
    std::vector<DirEntry> entries;
    bool eof;
    ASSERT_EQ(fs.readdir(fs.rootHandle(), 0, 1000, entries, eof),
              NfsStat::Ok);
    EXPECT_EQ(entries.size(), model.size() + 2);  // . and ..
  }

  // Byte accounting matches the model (8 KB charge units).
  std::uint64_t expected = 0;
  for (const auto& [n, size] : model) {
    expected += (size + kNfsBlockSize - 1) / kNfsBlockSize * kNfsBlockSize;
  }
  EXPECT_EQ(fs.bytesUsed(), expected);
}

// ----------------------------------------------------------- anonymizer

using AnonProperty = Seeded;

TEST_P(AnonProperty, MappingIsInjective) {
  Anonymizer::Config cfg;
  cfg.seed = GetParam();
  cfg.keepNames.clear();
  cfg.keepSuffixes.clear();
  Anonymizer anon{cfg};
  std::map<std::string, std::string> forward;
  std::map<std::string, std::string> reverse;
  for (int i = 0; i < 500; ++i) {
    std::string name;
    auto len = 1 + rng_.below(20);
    for (std::uint64_t j = 0; j < len; ++j) {
      name.push_back(static_cast<char>('a' + rng_.below(26)));
    }
    if (rng_.chance(0.4)) name += "." + std::string(1, static_cast<char>('a' + rng_.below(26)));
    std::string mapped = anon.anonymizeComponent(name);
    if (forward.count(name)) {
      EXPECT_EQ(forward[name], mapped);  // consistent
    } else {
      forward[name] = mapped;
    }
    auto [it, inserted] = reverse.emplace(mapped, name);
    EXPECT_TRUE(inserted || it->second == name)
        << "collision: " << name << " and " << it->second << " -> " << mapped;
  }
}

TEST_P(AnonProperty, TraceRoundTripThroughV2) {
  // anonymize -> write -> read must preserve every anonymized field.
  Anonymizer anon{Anonymizer::Config{}};
  std::vector<TraceRecord> written;
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("property_test_anon_" +
                             std::to_string(::getpid()) + ".trace"))
                               .string();
  {
    TraceWriter w(path);
    for (int i = 0; i < 100; ++i) {
      TraceRecord r;
      r.ts = static_cast<MicroTime>(rng_.below(1'000'000'000));
      r.client = makeIp(128, 1, static_cast<int>(rng_.below(255)),
                        static_cast<int>(rng_.below(254)) + 1);
      r.server = makeIp(10, 0, 0, 1);
      r.xid = static_cast<std::uint32_t>(rng_.next());
      r.op = rng_.chance(0.5) ? NfsOp::Lookup : NfsOp::Create;
      r.uid = 1000 + static_cast<std::uint32_t>(rng_.below(100));
      r.gid = r.uid;
      r.fh = FileHandle::make(1, rng_.below(10000), 1);
      r.name = "file" + std::to_string(rng_.below(100)) + ".dat";
      r.hasReply = true;
      r.status = NfsStat::Ok;
      written.push_back(anon.anonymize(r));
      w.write(written.back());
    }
    w.finalize();
  }
  auto back = TraceReader::readAll(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), written.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].name, written[i].name);
    EXPECT_EQ(back[i].uid, written[i].uid);
    EXPECT_EQ(back[i].client, written[i].client);
    EXPECT_TRUE(back[i].fh == written[i].fh);
    EXPECT_EQ(formatRecord(back[i]), formatRecord(written[i]));
  }
}

// ------------------------------------------------------------- analyses

using AnalysisProperty = Seeded;

std::vector<TraceRecord> randomDataTrace(Rng& rng, std::size_t n) {
  std::vector<TraceRecord> recs;
  MicroTime ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord r;
    ts += 200 + static_cast<MicroTime>(rng.below(3000));
    r.ts = ts;
    r.op = rng.chance(0.6) ? NfsOp::Read : NfsOp::Write;
    r.fh = FileHandle::make(1, 1 + rng.below(30), 1);
    r.offset = rng.below(200) * 8192;
    r.count = 8192;
    r.hasReply = true;
    r.retCount = 8192;
    r.hasAttrs = true;
    r.fileSize = 200 * 8192;
    recs.push_back(r);
  }
  return recs;
}

TEST_P(AnalysisProperty, RunsPartitionAllAccesses) {
  auto recs = randomDataTrace(rng_, 800);
  auto runs = detectRuns(recs);
  std::uint64_t accesses = 0, bytes = 0;
  for (const auto& r : runs) {
    accesses += r.accesses;
    bytes += r.bytesAccessed;
    EXPECT_LE(r.start, r.end);
    EXPECT_GE(r.seqMetricLoose, r.seqMetricStrict);
    EXPECT_GE(r.seqMetricLoose, 0.0);
    EXPECT_LE(r.seqMetricLoose, 1.0);
  }
  EXPECT_EQ(accesses, recs.size());
  EXPECT_EQ(bytes, recs.size() * 8192);
}

TEST_P(AnalysisProperty, ReorderSortPreservesMultiset) {
  auto recs = randomDataTrace(rng_, 500);
  auto sorted = sortWithReorderWindow(recs, 5000);
  ASSERT_EQ(sorted.records.size(), recs.size());
  // Same multiset of (fh, offset, ts) triples.
  auto key = [](const TraceRecord& r) {
    return r.fh.toHex() + ":" + std::to_string(r.offset) + ":" +
           std::to_string(r.ts);
  };
  std::multiset<std::string> a, b;
  for (const auto& r : recs) a.insert(key(r));
  for (const auto& r : sorted.records) b.insert(key(r));
  EXPECT_EQ(a, b);
}

TEST_P(AnalysisProperty, BlockLifeConservation) {
  // deaths + end surplus never exceeds births; lifetimes non-negative.
  auto recs = randomDataTrace(rng_, 600);
  BlockLifeConfig cfg;
  cfg.phase1Length = kMicrosPerDay;
  cfg.phase2Length = kMicrosPerDay;
  EmpiricalCdf lifetimes;
  auto stats = analyzeBlockLife(recs, cfg, &lifetimes);
  EXPECT_LE(stats.deaths + stats.endSurplus, stats.births);
  EXPECT_EQ(stats.births, stats.birthsWrite + stats.birthsExtension);
  EXPECT_EQ(stats.deaths,
            stats.deathsOverwrite + stats.deathsTruncate + stats.deathsDelete);
  if (!lifetimes.empty()) {
    EXPECT_GE(lifetimes.quantile(0.0), 0.0);
  }
}

TEST_P(AnalysisProperty, SummaryTotalsAreConsistent) {
  auto recs = randomDataTrace(rng_, 400);
  auto s = summarize(recs);
  EXPECT_EQ(s.totalOps, recs.size());
  EXPECT_EQ(s.dataOps + s.metadataOps, s.totalOps);
  std::uint64_t opSum = 0;
  for (auto c : s.opCounts) opSum += c;
  EXPECT_EQ(opSum, s.totalOps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XdrProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));
INSTANTIATE_TEST_SUITE_P(Seeds, RpcProperty,
                         ::testing::Values(11, 12, 13, 14, 15));
INSTANTIATE_TEST_SUITE_P(Seeds, NetProperty,
                         ::testing::Values(21, 22, 23, 24, 25));
INSTANTIATE_TEST_SUITE_P(Seeds, FsProperty, ::testing::Values(31, 32, 33));
INSTANTIATE_TEST_SUITE_P(Seeds, AnonProperty, ::testing::Values(41, 42, 43));
INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisProperty,
                         ::testing::Values(51, 52, 53, 54, 55));

}  // namespace
}  // namespace nfstrace
