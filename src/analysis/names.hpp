// Filename-based classification and the name -> attribute prediction
// analysis (§6.3).
//
// The paper's observation: on CAMPUS nearly every file falls into one of
// four name-recognizable categories (mailboxes, lock files, mail-composer
// temporaries, dot files), and the category predicts size, lifespan, and
// access pattern almost perfectly; on EECS names are also strong
// predictors (browser caches, Applet_*_Extern window-manager files,
// object files, logs).  Renames are rare, so the prediction available at
// create time stays valid.
#pragma once

#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "trace/batch.hpp"
#include "trace/record.hpp"
#include "util/histogram.hpp"

namespace nfstrace {

enum class NameCategory : std::uint8_t {
  Mailbox,       // .inbox, mbox, folders/*
  LockFile,      // *.lock, lock components
  MailComposer,  // pico.NNNN and similar composition temporaries
  DotFile,       // .pinerc, .cshrc, ... (config files)
  AppletFile,    // Applet_*_Extern window-manager droppings
  BrowserCache,  // cache* under browser cache dirs
  LogFile,       // *.log
  IndexFile,     // *.idx, *.db
  ObjectFile,    // *.o, *.a
  SourceFile,    // *.c, *.h, *.cc, *.java, *.tex ...
  TempFile,      // *.tmp, #...#, *~
  CoreOrCvs,     // CVS plumbing
  Other,
};
inline constexpr std::size_t kNameCategoryCount =
    static_cast<std::size_t>(NameCategory::Other) + 1;

std::string_view nameCategoryLabel(NameCategory c);
NameCategory classifyName(std::string_view name);

/// What the file system could predict at create time, per category.
struct NamePrediction {
  bool zeroLength = false;       // predicted to stay empty
  double maxLifetimeSec = 0.0;   // 0 = no lifetime prediction
  std::uint64_t maxSizeBytes = 0;  // 0 = no size prediction
  bool neverDeleted = false;
};
NamePrediction predictionFor(NameCategory c);

/// Per-category outcome statistics for files created during the trace.
struct CategoryStats {
  std::uint64_t created = 0;
  std::uint64_t deleted = 0;       // created AND deleted in the trace
  std::uint64_t zeroLength = 0;    // deleted while still empty
  EmpiricalCdf lifetimesSec;       // create -> remove
  EmpiricalCdf sizesAtDeath;
  EmpiricalCdf maxSizes;           // max size ever observed
  // Prediction scoring:
  std::uint64_t predictionsChecked = 0;
  std::uint64_t predictionsCorrect = 0;
};

/// Tracks file creations and deletions, sizes, and per-category
/// statistics.  A file dies when a REMOVE unlinks it, or a RENAME onto
/// its name replaces it.
class FileLifeCensus {
 public:
  /// Feed records in time order, each with its interned ids and the
  /// handle id it unlinks (Namespace::apply).
  void observe(const TraceRecord& rec, const RecordIds& ids,
               std::uint32_t unlinked);
  void finish();

  const std::map<NameCategory, CategoryStats>& byCategory() const {
    return stats_;
  }
  std::uint64_t totalCreated() const { return totalCreated_; }
  std::uint64_t totalDeleted() const { return totalDeleted_; }
  /// Fraction of created-and-deleted files that are lock files — the
  /// paper's 96% (CAMPUS) vs 8% (EECS) headline.
  double lockFractionOfDeleted() const;

 private:
  struct LiveFile {
    bool live = false;
    NameCategory category = NameCategory::Other;
    MicroTime created = 0;
    std::uint64_t lastSize = 0;
    std::uint64_t maxSize = 0;
  };
  /// The live file with handle id `id`, or null.
  LiveFile* liveFile(std::uint32_t id) {
    return id < files_.size() && files_[id].live ? &files_[id] : nullptr;
  }

  std::map<NameCategory, CategoryStats> stats_;
  /// Per handle id.
  std::vector<LiveFile> files_;
  std::uint64_t totalCreated_ = 0;
  std::uint64_t totalDeleted_ = 0;
  bool finished_ = false;
};

}  // namespace nfstrace
