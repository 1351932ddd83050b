// Forwarding AnalysisPass wrapper that times the wrapped pass.
//
// The traced run registers TimedPass objects with the real engine in
// place of the passes themselves.  Everything the engine uses to plan the
// scan — name(), mergeable(), opMask() — is forwarded unchanged, so shard
// layout and zone-map pruning are the same as for the bare pass; prepare,
// observe and finalize are forwarded inside Tracer scopes named
// `pass.<name>.prepare|observe|finalize`.  Mergeable passes may observe
// from several decode threads at once: each scope records into its own
// thread's tracer buffer, so the wrapper adds no shared mutable state.
#pragma once

#include <functional>
#include <string>

#include "analysis/engine/pass.hpp"
#include "tracer.hpp"

namespace nfsbench {

class TimedPass final : public nfstrace::AnalysisPass {
 public:
  TimedPass(nfstrace::AnalysisPass& inner, Tracer& tracer)
      : inner_(inner),
        tracer_(tracer),
        prepare_(tracer.layer(prefix() + ".prepare")),
        observe_(tracer.layer(prefix() + ".observe")),
        finalize_(tracer.layer(prefix() + ".finalize", true)) {}

  std::string_view name() const override { return inner_.name(); }
  bool mergeable() const override { return inner_.mergeable(); }
  std::uint32_t opMask() const override { return inner_.opMask(); }

  void prepare(std::size_t shards) override {
    Tracer::Scope s(&tracer_, prepare_);
    inner_.prepare(shards);
  }
  void observe(const nfstrace::TraceBatch& batch, std::size_t shard) override {
    Tracer::Scope s(&tracer_, observe_);
    inner_.observe(batch, shard);
  }
  void finalize() override {
    if (beforeFinalize) beforeFinalize();
    Tracer::Scope s(&tracer_, finalize_);
    inner_.finalize();
  }

  /// Runs (untimed) just before the wrapped finalize: a probe for state
  /// the pass releases there, such as blocklife's deferred records.
  std::function<void()> beforeFinalize;

 private:
  std::string prefix() const { return "pass." + std::string(inner_.name()); }

  nfstrace::AnalysisPass& inner_;
  Tracer& tracer_;
  const Tracer::LayerId prepare_;
  const Tracer::LayerId observe_;
  const Tracer::LayerId finalize_;
};

}  // namespace nfsbench
