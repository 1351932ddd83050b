// Span tracer for the benchmark's traced runs.
//
// Every call the benchmark makes into a layer of the program can be
// wrapped in a Tracer::Scope.  A scope measures its wall time with
// std::chrono::steady_clock and charges it to a named layer; the time its
// nested scopes (on the same thread) cover is subtracted, so each layer
// gets a *self* time and the self times of all scopes under a root add up
// to the root's wall time exactly.  That is what lets the traced run
// reconcile its per-layer breakdown with the wall clock.
//
// Layers registered with `keepSpans` also record every span (name, start,
// end, parent, thread) in memory, for the span dump written at exit; hot
// per-frame and per-record layers only aggregate, so a run over millions
// of frames does not store millions of spans.
//
// Threads: each thread appends to its own buffer (registered with the
// tracer once, under a mutex), so scopes never contend.  Totals and spans
// may be read only after the threads that recorded them have finished.
// A null Tracer* makes every Scope a no-op: the untraced run passes null.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace nfsbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  using LayerId = std::uint32_t;
  static constexpr std::size_t kMaxLayers = 256;

  struct Totals {
    std::int64_t totalNs = 0;  // wall time inside the layer's scopes
    std::int64_t selfNs = 0;   // minus the time covered by nested scopes
    std::uint64_t calls = 0;
  };

  struct Span {
    LayerId layer = 0;
    std::uint32_t thread = 0;
    std::int64_t parent = -1;  // index into spans() or -1
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Register (or look up) a layer by name.  Not for hot paths: look ids
  /// up once and keep them.  Throws past kMaxLayers.
  LayerId layer(std::string_view name, bool keepSpans = false);

  class Scope {
   public:
    Scope(Tracer* tracer, LayerId layer) : tracer_(tracer) {
      if (tracer_) tracer_->open(layer);
    }
    ~Scope() {
      if (tracer_) tracer_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  /// Per-layer totals summed over every thread.
  Totals totals(std::string_view name) const;
  /// Every recorded span, thread buffers concatenated in registration
  /// order (parent indices are rebased to this vector).
  std::vector<Span> spans() const;
  const std::vector<std::string>& layerNames() const { return names_; }

  /// Write the spans as JSON (one object: layers, spans).
  bool writeSpans(const std::string& path) const;

 private:
  struct Frame {
    LayerId layer;
    std::int64_t startNs;
    std::int64_t childNs;
    std::int64_t spanIndex;  // own span in the thread buffer, or -1
    std::int64_t parentSpan; // nearest recorded ancestor, or -1
  };
  struct ThreadBuffer {
    std::uint32_t thread = 0;
    std::vector<Frame> stack;
    std::vector<Totals> totals;  // indexed by LayerId
    std::vector<Span> spans;
  };

  void open(LayerId layer);
  void close();
  ThreadBuffer& buffer();

  const std::uint64_t id_;
  mutable std::mutex mu_;  // guards names_ and buffers_
  std::vector<std::string> names_;
  /// Written once per layer under mu_, before its id is handed out.
  std::array<bool, kMaxLayers> keep_{};
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

}  // namespace nfsbench
