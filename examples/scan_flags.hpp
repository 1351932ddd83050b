// Shared CLI plumbing for the scan-predicate and thread-count flags
// that trace_analyze and trace_stats both take:
//
//   --decode-threads N    scan threads (AnalysisEngine::Config::
//                         decodeThreads): 1 scans inline, N > 1 fans
//                         every batch out to N observer threads and
//                         finalizes on up to N; output is byte-identical
//   --from SEC / --to SEC keep records with SEC <= timestamp <= SEC
//                         (decimal seconds, same unit the reports print)
//   --ops a,b,c           keep only the named NFS ops (read,write,...)
//   --uid N               keep only records issued by uid N
//
// The time/op/uid flags build an AnalysisEngine::Config::predicate;
// non-trivial predicates additionally prune whole extents through the
// v2 footer zone maps when the input is indexed.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/engine/engine.hpp"
#include "nfs/proc.hpp"
#include "trace/predicate.hpp"

namespace nfstrace {

struct ScanFlags {
  std::size_t decodeThreads = 1;
  ScanPredicate predicate;

  /// Parse one "a,b,c" op list into a mask; false (with a message on
  /// stderr) on an unknown name or an empty list.
  static bool parseOpsList(const std::string& list, std::uint32_t* mask) {
    std::uint32_t m = 0;
    std::size_t pos = 0;
    for (;;) {
      std::size_t comma = list.find(',', pos);
      std::string name = comma == std::string::npos
                             ? list.substr(pos)
                             : list.substr(pos, comma - pos);
      if (!name.empty()) {
        NfsOp op = nfsOpFromName(name);
        if (op == NfsOp::Unknown && name != "unknown") {
          std::fprintf(stderr, "--ops: unknown NFS op \"%s\"\n", name.c_str());
          return false;
        }
        m |= opMaskBit(op);
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (m == 0) {
      std::fprintf(stderr, "--ops: empty op list\n");
      return false;
    }
    *mask = m;
    return true;
  }

  /// Try to consume the flag at argv[*i] (advancing *i past its value).
  /// Returns 1 if consumed, 0 if the flag is not ours, -1 on a bad
  /// value (message already printed).
  int tryParse(int argc, char** argv, int* i) {
    std::string arg = argv[*i];
    auto value = [&](const char* flag) -> const char* {
      if (*i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        return nullptr;
      }
      return argv[++*i];
    };
    if (arg == "--decode-threads") {
      const char* v = value("--decode-threads");
      if (!v) return -1;
      decodeThreads = static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
      if (decodeThreads == 0) decodeThreads = 1;
      return 1;
    }
    if (arg == "--from" || arg == "--to") {
      const char* v = value(arg.c_str());
      if (!v) return -1;
      char* end = nullptr;
      double sec = std::strtod(v, &end);
      if (end == v || *end != '\0') {
        std::fprintf(stderr, "%s: bad seconds value \"%s\"\n", arg.c_str(), v);
        return -1;
      }
      MicroTime t = static_cast<MicroTime>(std::llround(sec * 1e6));
      if (arg == "--from") {
        predicate.from = t;
      } else {
        predicate.to = t;
      }
      return 1;
    }
    if (arg == "--ops") {
      const char* v = value("--ops");
      if (!v) return -1;
      return parseOpsList(v, &predicate.ops) ? 1 : -1;
    }
    if (arg == "--uid") {
      const char* v = value("--uid");
      if (!v) return -1;
      predicate.uid = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
      return 1;
    }
    return 0;
  }

  /// One stderr line about what the pushdown actually did.  Quiet when
  /// no predicate was given.
  void reportPruning(const AnalysisEngine::Stats& st) const {
    if (predicate.trivial()) return;
    std::fprintf(stderr,
                 "predicate: pruned %llu of %llu extents via zone maps, "
                 "filtered %llu decoded records, kept %llu\n",
                 static_cast<unsigned long long>(st.extentsPruned),
                 static_cast<unsigned long long>(st.extentsTotal),
                 static_cast<unsigned long long>(st.recordsFiltered),
                 static_cast<unsigned long long>(st.records));
  }
};

}  // namespace nfstrace
