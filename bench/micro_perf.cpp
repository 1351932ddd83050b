// Throughput microbenchmarks (google-benchmark) for the tracing pipeline
// components: XDR codecs, frame building/parsing, RPC record marking, the
// sniffer's full decode path, the anonymizer, the analyses, and the
// per-stage decode breakdown (frame parse, XDR cursor, RPC decode, table
// lookup, record format, interner, extent decode).  These bound how
// fast a capture can be processed — the tracer had to keep up with a
// gigabit mirror port.
//
// JSON output: pass the standard google-benchmark flags, e.g.
//   micro_perf --benchmark_filter='BM_Stage'
//              --benchmark_format=json --benchmark_out=BENCH_micro.json
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <unordered_map>

#include "analysis/reorder.hpp"
#include "analysis/runs.hpp"
#include "anon/anon.hpp"
#include "net/packet.hpp"
#include "nfs/messages.hpp"
#include "rpc/rpc.hpp"
#include "sniffer/sniffer.hpp"
#include "trace/tracefile.hpp"
#include "trace/v2.hpp"
#include "util/flatmap.hpp"
#include "util/interner.hpp"
#include "util/rng.hpp"

namespace nfstrace {
namespace {

void BM_XdrEncodeRead(benchmark::State& state) {
  auto fh = FileHandle::make(1, 42, 7);
  for (auto _ : state) {
    XdrEncoder enc;
    encodeCall3(enc, ReadArgs{fh, 8192, 8192});
    benchmark::DoNotOptimize(enc.bytes().data());
  }
}
BENCHMARK(BM_XdrEncodeRead);

void BM_XdrDecodeRead(benchmark::State& state) {
  XdrEncoder enc;
  encodeCall3(enc, ReadArgs{FileHandle::make(1, 42, 7), 8192, 8192});
  for (auto _ : state) {
    XdrDecoder dec(enc.bytes());
    auto args = decodeCall3(Proc3::Read, dec);
    benchmark::DoNotOptimize(&args);
  }
}
BENCHMARK(BM_XdrDecodeRead);

void BM_Fattr3RoundTrip(benchmark::State& state) {
  Fattr a;
  a.size = 123456;
  for (auto _ : state) {
    XdrEncoder enc;
    a.encode3(enc);
    XdrDecoder dec(enc.bytes());
    auto back = Fattr::decode3(dec);
    benchmark::DoNotOptimize(&back);
  }
}
BENCHMARK(BM_Fattr3RoundTrip);

void BM_BuildUdpFrame(benchmark::State& state) {
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto f = buildUdpFrame(makeIp(10, 0, 0, 1), 1023, makeIp(10, 0, 0, 2),
                           2049, payload);
    benchmark::DoNotOptimize(f.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildUdpFrame)->Arg(128)->Arg(8192);

void BM_ParseFrame(benchmark::State& state) {
  std::vector<std::uint8_t> payload(8192, 0xab);
  auto frame = buildUdpFrame(makeIp(10, 0, 0, 1), 1023, makeIp(10, 0, 0, 2),
                             2049, payload);
  for (auto _ : state) {
    auto parsed = parseFrame(frame);
    benchmark::DoNotOptimize(&parsed);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_ParseFrame);

/// One 1 KB record per iteration, in one segment (Arg 0: handed out in
/// place) or straddling two (Arg 1: assembled in the reader's buffer).
void BM_RecordMarkReader(benchmark::State& state) {
  std::vector<std::uint8_t> body(1024, 0x55);
  auto marked = recordMark(body);
  const std::size_t cut = state.range(0) ? marked.size() / 2 : marked.size();
  const std::span<const std::uint8_t> all(marked);
  RecordMarkReader reader;
  std::size_t seen = 0;
  auto onRecord = [&](std::span<const std::uint8_t> b) { seen += b.size(); };
  for (auto _ : state) {
    reader.feed(all.first(cut), onRecord);
    reader.feed(all.subspan(cut), onRecord);
    benchmark::DoNotOptimize(seen);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(marked.size()));
}
BENCHMARK(BM_RecordMarkReader)->Arg(0)->Arg(1);

/// Full sniffer decode: one READ call frame + one reply frame.
void BM_SnifferDecodePair(benchmark::State& state) {
  auto fh = FileHandle::make(1, 42, 7);
  AuthUnix cred;
  cred.uid = 100;
  cred.gid = 100;

  XdrEncoder callEnc;
  encodeRpcCall(callEnc, 1, kNfsProgram, 3,
                static_cast<std::uint32_t>(Proc3::Read), cred);
  encodeCall3(callEnc, ReadArgs{fh, 0, 8192});
  auto callFrame = buildUdpFrame(makeIp(10, 1, 0, 2), 1023,
                                 makeIp(10, 0, 0, 1), 2049, callEnc.bytes());

  ReadRes res;
  res.status = NfsStat::Ok;
  res.count = 8192;
  res.eof = false;
  XdrEncoder replyEnc;
  encodeRpcReplySuccess(replyEnc, 1);
  encodeReply3(replyEnc, Proc3::Read, res);
  auto replyFrames =
      buildUdpFrames(makeIp(10, 0, 0, 1), 2049, makeIp(10, 1, 0, 2), 1023, 1,
                     replyEnc.bytes(), kJumboMtu);

  std::uint64_t emitted = 0;
  Sniffer sniffer({}, [&](const TraceRecord&) { ++emitted; });
  CapturedPacket callPkt{0, 0, callFrame};
  std::int64_t bytes = 0;
  for (auto _ : state) {
    sniffer.onFrame(callPkt);
    bytes += static_cast<std::int64_t>(callFrame.size());
    for (const auto& f : replyFrames) {
      CapturedPacket pkt{1, 0, f};
      sniffer.onFrame(pkt);
      bytes += static_cast<std::int64_t>(f.size());
    }
  }
  benchmark::DoNotOptimize(emitted);
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_SnifferDecodePair);

void BM_AnonymizeRecord(benchmark::State& state) {
  Anonymizer anon{Anonymizer::Config{}};
  Rng rng(1);
  std::vector<TraceRecord> recs;
  for (int i = 0; i < 256; ++i) {
    TraceRecord r;
    r.ts = i;
    r.op = NfsOp::Lookup;
    r.uid = 100 + static_cast<std::uint32_t>(rng.below(50));
    r.client = makeIp(10, 1, 0, static_cast<int>(rng.below(20)) + 2);
    r.fh = FileHandle::make(1, rng.below(500), 1);
    r.name = "file" + std::to_string(rng.below(200)) + ".c";
    recs.push_back(r);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    auto out = anon.anonymize(recs[i++ % recs.size()]);
    benchmark::DoNotOptimize(&out);
  }
}
BENCHMARK(BM_AnonymizeRecord);

std::vector<TraceRecord> syntheticDataRecords(std::size_t n) {
  Rng rng(7);
  std::vector<TraceRecord> recs;
  recs.reserve(n);
  MicroTime ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord r;
    ts += 500 + static_cast<MicroTime>(rng.below(1500));
    r.ts = ts;
    r.op = rng.chance(0.7) ? NfsOp::Read : NfsOp::Write;
    r.fh = FileHandle::make(1, rng.below(64), 1);
    r.offset = rng.below(256) * 8192;
    r.count = 8192;
    r.hasReply = true;
    r.retCount = 8192;
    r.hasAttrs = true;
    r.fileSize = 2 << 20;
    recs.push_back(r);
  }
  return recs;
}

TraceRecord sampleTraceRecord() {
  TraceRecord r;
  r.ts = 123456789;
  r.replyTs = 123457000;
  r.hasReply = true;
  r.client = makeIp(10, 1, 0, 5);
  r.server = makeIp(10, 0, 0, 1);
  r.xid = 0xabcd1234;
  r.op = NfsOp::Read;
  r.uid = 2042;
  r.gid = 2042;
  r.fh = FileHandle::make(2, 998877, 3);
  r.offset = 1 << 20;
  r.count = 8192;
  r.retCount = 8192;
  r.hasAttrs = true;
  r.fileSize = 2 << 20;
  r.fileMtime = 123000000;
  r.fileId = 998877;
  return r;
}

void BM_TraceTextFormat(benchmark::State& state) {
  auto rec = sampleTraceRecord();
  for (auto _ : state) {
    auto line = formatRecord(rec);
    benchmark::DoNotOptimize(line.data());
  }
}
BENCHMARK(BM_TraceTextFormat);

// ---------------------------------------------------------------------
// Per-stage decode breakdown (BM_Stage*): one benchmark per hot-path
// stage of the frame -> record pipeline, so a regression can be pinned to
// a stage without re-profiling the whole sniffer.

/// Stage 1: ethernet/IP/UDP frame parse (headers only, zero copy).
void BM_StageFrameParse(benchmark::State& state) {
  std::vector<std::uint8_t> payload(256, 0xab);
  auto frame = buildUdpFrame(makeIp(10, 1, 0, 2), 1023, makeIp(10, 0, 0, 1),
                             2049, payload);
  for (auto _ : state) {
    auto parsed = parseFrame(frame);
    benchmark::DoNotOptimize(&parsed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StageFrameParse);

/// Stage 2: raw XDR cursor throughput (the loads every decoder sits on).
void BM_StageXdrCursor(benchmark::State& state) {
  XdrEncoder enc;
  for (int i = 0; i < 64; ++i) enc.putUint32(static_cast<std::uint32_t>(i));
  auto bytes = enc.bytes();
  for (auto _ : state) {
    XdrDecoder dec(bytes);
    std::uint32_t acc = 0;
    for (int i = 0; i < 64; ++i) acc += dec.getUint32();
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_StageXdrCursor);

/// Stage 3: RPC call header decode, trimmed (RpcMessageLite) vs full.
void BM_StageRpcDecodeLite(benchmark::State& state) {
  AuthUnix cred;
  cred.uid = 100;
  cred.gid = 100;
  XdrEncoder enc;
  encodeRpcCall(enc, 7, kNfsProgram, 3,
                static_cast<std::uint32_t>(Proc3::Lookup), cred);
  auto bytes = enc.bytes();
  for (auto _ : state) {
    auto msg = decodeRpcMessageLite(bytes);
    benchmark::DoNotOptimize(&msg);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StageRpcDecodeLite);

void BM_StageRpcDecodeFull(benchmark::State& state) {
  AuthUnix cred;
  cred.uid = 100;
  cred.gid = 100;
  XdrEncoder enc;
  encodeRpcCall(enc, 7, kNfsProgram, 3,
                static_cast<std::uint32_t>(Proc3::Lookup), cred);
  auto bytes = enc.bytes();
  for (auto _ : state) {
    auto msg = decodeRpcMessage(bytes);
    benchmark::DoNotOptimize(&msg);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StageRpcDecodeFull);

/// Stage 4: XID table lookup — FlatMap vs the std::unordered_map it
/// replaced, on the sniffer's hit-heavy mix.
template <class Map>
void tableLookupMix(benchmark::State& state) {
  Rng rng(3);
  Map m;
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 4096; ++i) {
    std::uint64_t k = rng.below(1u << 30);
    m[k] = k;
    keys.push_back(k);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    auto it = m.find(keys[i++ & 4095]);
    benchmark::DoNotOptimize(&*it);
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_StageTableLookupFlat(benchmark::State& state) {
  tableLookupMix<FlatMap<std::uint64_t, std::uint64_t>>(state);
}
BENCHMARK(BM_StageTableLookupFlat);
void BM_StageTableLookupStd(benchmark::State& state) {
  tableLookupMix<std::unordered_map<std::uint64_t, std::uint64_t>>(state);
}
BENCHMARK(BM_StageTableLookupStd);

/// Stage 5: record formatting into a reused buffer (the digest and
/// `trace_analyze --records` hot path).
void BM_StageRecordFormat(benchmark::State& state) {
  auto rec = sampleTraceRecord();
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    appendRecord(buf, rec);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StageRecordFormat);

/// Stage 6: interner hit path (the reader interns each extent's
/// dictionary entries at load time).
void BM_StageInternerHit(benchmark::State& state) {
  StringInterner interner;
  Rng rng(11);
  std::vector<std::string> names;
  for (int i = 0; i < 512; ++i) {
    names.push_back("dir/file" + std::to_string(rng.below(400)) + ".c");
    interner.intern(names.back());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(interner.intern(names[i++ & 511]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StageInternerHit);

/// Stage 7: one extent's full decode — header parse, dictionary load
/// into fresh interners, bulk take into batch arrays: the reader's work
/// per extent, minus the file I/O and CRC.
void BM_ExtentDecode(benchmark::State& state) {
  const std::string path = "bench_micro_extent.trace";
  const std::size_t n = 8192;
  {
    TraceWriter::Options opts;
    opts.v2ExtentRecords = 4096;
    TraceWriter writer(path, opts);
    Rng rng(7);
    auto rec = sampleTraceRecord();
    for (std::size_t i = 0; i < n; ++i) {
      rec.ts += 100;
      rec.xid = static_cast<std::uint32_t>(rng.below(1u << 20));
      rec.fh = FileHandle::make(1, rng.below(300), 1);
      writer.write(rec);
    }
  }
  auto index = tracev2::loadChainedIndex(path);
  tracev2::ExtentHeader hdr;
  std::vector<std::uint8_t> payload;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    std::fseek(f, static_cast<long>((*index)[0].offset), SEEK_SET);
    unsigned char hdrBytes[tracev2::kExtentHeaderBytes];
    if (std::fread(hdrBytes, 1, sizeof hdrBytes, f) != sizeof hdrBytes ||
        !tracev2::parseExtentHeader(hdrBytes, hdr)) {
      std::fclose(f);
      state.SkipWithError("bad extent header");
      return;
    }
    payload.resize(hdr.payloadBytes);
    if (std::fread(payload.data(), 1, payload.size(), f) != payload.size()) {
      std::fclose(f);
      state.SkipWithError("short extent payload");
      return;
    }
    std::fclose(f);
  }
  std::vector<TraceRecord> recs(hdr.records);
  std::vector<std::uint32_t> fh(hdr.records), fh2(hdr.records),
      resFh(hdr.records), name(hdr.records), name2(hdr.records);
  std::uint64_t records = 0;
  for (auto _ : state) {
    tracev2::ExtentDecoder dec;
    dec.buffer() = payload;
    StringInterner names, handles;
    dec.load(hdr, names, handles);
    tracev2::ExtentDecoder::BatchOut out{recs.data(),  fh.data(),
                                         fh2.data(),   resFh.data(),
                                         name.data(),  name2.data()};
    records += dec.take(out, hdr.records);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  std::remove(path.c_str());
}
BENCHMARK(BM_ExtentDecode);

void BM_ReorderWindowSort(benchmark::State& state) {
  auto recs = syntheticDataRecords(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto result = sortWithReorderWindow(recs, 10'000);
    benchmark::DoNotOptimize(&result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReorderWindowSort)->Arg(1000)->Arg(10000);

void BM_DetectRuns(benchmark::State& state) {
  auto recs = syntheticDataRecords(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto runs = detectRuns(recs);
    benchmark::DoNotOptimize(&runs);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DetectRuns)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace nfstrace

BENCHMARK_MAIN();
