#include "tracer.hpp"

#include <atomic>
#include <cstdio>
#include <stdexcept>

namespace nfsbench {
namespace {

std::atomic<std::uint64_t> gNextTracerId{1};

/// The calling thread's buffer for the tracer it used last.  Keyed by the
/// tracer's unique id, never its address, so a buffer of a destroyed
/// tracer is never reused.
struct ThreadCache {
  std::uint64_t tracerId = 0;
  void* buffer = nullptr;
};
thread_local ThreadCache tCache;

}  // namespace

Tracer::Tracer() : id_(gNextTracerId.fetch_add(1)) {}

Tracer::LayerId Tracer::layer(std::string_view name, bool keepSpans) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      keep_[i] = keep_[i] || keepSpans;
      return static_cast<LayerId>(i);
    }
  }
  if (names_.size() >= kMaxLayers) {
    throw std::length_error("tracer: too many layers");
  }
  keep_[names_.size()] = keepSpans;
  names_.emplace_back(name);
  return static_cast<LayerId>(names_.size() - 1);
}

Tracer::ThreadBuffer& Tracer::buffer() {
  if (tCache.tracerId != id_) {
    auto buf = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = buf.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      raw->thread = static_cast<std::uint32_t>(buffers_.size());
      buffers_.push_back(std::move(buf));
    }
    tCache = {id_, raw};
  }
  return *static_cast<ThreadBuffer*>(tCache.buffer);
}

void Tracer::open(LayerId layer) {
  ThreadBuffer& b = buffer();
  std::int64_t parentSpan = -1;
  if (!b.stack.empty()) {
    const Frame& top = b.stack.back();
    parentSpan = top.spanIndex >= 0 ? top.spanIndex : top.parentSpan;
  }
  std::int64_t spanIndex = -1;
  if (keep_[layer]) {
    spanIndex = static_cast<std::int64_t>(b.spans.size());
    b.spans.push_back({layer, b.thread, parentSpan, 0, 0});
  }
  // Read the clock last, so the bookkeeping above is charged to the
  // parent rather than to this layer.
  b.stack.push_back({layer, nowNs(), 0, spanIndex, parentSpan});
}

void Tracer::close() {
  const std::int64_t end = nowNs();
  ThreadBuffer& b = buffer();
  Frame f = b.stack.back();
  b.stack.pop_back();
  const std::int64_t dur = end - f.startNs;
  if (b.totals.size() <= f.layer) b.totals.resize(f.layer + 1);
  Totals& t = b.totals[f.layer];
  t.totalNs += dur;
  t.selfNs += dur - f.childNs;
  ++t.calls;
  if (f.spanIndex >= 0) {
    Span& s = b.spans[static_cast<std::size_t>(f.spanIndex)];
    s.startNs = f.startNs;
    s.endNs = end;
  }
  if (!b.stack.empty()) b.stack.back().childNs += dur;
}

Tracer::Totals Tracer::totals(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  Totals sum;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] != name) continue;
    for (const auto& b : buffers_) {
      if (i >= b->totals.size()) continue;
      sum.totalNs += b->totals[i].totalNs;
      sum.selfNs += b->totals[i].selfNs;
      sum.calls += b->totals[i].calls;
    }
  }
  return sum;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    const auto base = static_cast<std::int64_t>(out.size());
    for (Span s : b->spans) {
      if (s.parent >= 0) s.parent += base;
      out.push_back(s);
    }
  }
  return out;
}

bool Tracer::writeSpans(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"layers\":[");
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < names_.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i ? "," : "", names_[i].c_str());
    }
  }
  std::fprintf(f, "],\n\"spans\":[\n");
  const std::int64_t t0 = all.empty() ? 0 : all.front().startNs;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f, "%s[%u,%u,%lld,%lld,%lld]", i ? ",\n" : "", s.layer,
                 s.thread, static_cast<long long>(s.parent),
                 static_cast<long long>(s.startNs - t0),
                 static_cast<long long>(s.endNs - t0));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace nfsbench
