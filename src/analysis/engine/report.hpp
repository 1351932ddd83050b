// Rendering for the standard analysis bundle: one human-readable text
// report (operation mix, data volumes, runs, block lifetimes and name
// census, plus hourly load, reorder sweep, and hierarchy coverage) and
// one machine-readable JSON
// object.  Both are pure functions of the finalized passes, so rendered
// output doubles as the byte-identity oracle for the engine's
// determinism guarantees (serial vs N workers).
#pragma once

#include <string>

#include "analysis/engine/engine.hpp"
#include "analysis/engine/passes.hpp"

namespace nfstrace {

/// The full text report.  (Non-const: quantile queries sort lazily.)
std::string renderReportText(const std::string& input, StandardAnalyses& a);

/// The full JSON report (one object, trailing newline).
std::string renderReportJson(const std::string& input, StandardAnalyses& a);

}  // namespace nfstrace
