#include "analysis/names.hpp"

#include "util/strings.hpp"

namespace nfstrace {

std::string_view nameCategoryLabel(NameCategory c) {
  switch (c) {
    case NameCategory::Mailbox: return "mailbox";
    case NameCategory::LockFile: return "lock";
    case NameCategory::MailComposer: return "mail-composer";
    case NameCategory::DotFile: return "dot-file";
    case NameCategory::AppletFile: return "applet";
    case NameCategory::BrowserCache: return "browser-cache";
    case NameCategory::LogFile: return "log";
    case NameCategory::IndexFile: return "index";
    case NameCategory::ObjectFile: return "object";
    case NameCategory::SourceFile: return "source";
    case NameCategory::TempFile: return "temp";
    case NameCategory::CoreOrCvs: return "cvs";
    case NameCategory::Other: return "other";
  }
  return "other";
}

NameCategory classifyName(std::string_view name) {
  if (name.empty()) return NameCategory::Other;

  // Lock files first: they dominate CAMPUS creations.
  if (endsWith(name, ".lock") || name == "lock" ||
      startsWith(name, ".lk") || endsWith(name, ".lck")) {
    return NameCategory::LockFile;
  }
  if (name == ".inbox" || name == "mbox" || name == "inbox" ||
      endsWith(name, ".mbox") || startsWith(name, "mbox-")) {
    return NameCategory::Mailbox;
  }
  if (startsWith(name, "pico.") || startsWith(name, ".article") ||
      startsWith(name, ".letter") || startsWith(name, "compose-")) {
    return NameCategory::MailComposer;
  }
  if (startsWith(name, "Applet_") && endsWith(name, "_Extern")) {
    return NameCategory::AppletFile;
  }
  if (startsWith(name, "cache") && name.size() > 5) {
    return NameCategory::BrowserCache;
  }
  if (name == "CVS" || name == "Entries" || name == "Repository" ||
      endsWith(name, ",v")) {
    return NameCategory::CoreOrCvs;
  }
  if (name.front() == '#' || name.back() == '~' || endsWith(name, ".tmp") ||
      startsWith(name, "tmp")) {
    return NameCategory::TempFile;
  }
  auto suffix = filenameSuffix(name);
  if (name.front() == '.' && suffix.empty()) return NameCategory::DotFile;
  if (name.front() == '.' &&
      (endsWith(name, "rc") || name == ".login" || name == ".profile" ||
       name == ".newsrc" || name == ".signature" || name == ".addressbook")) {
    return NameCategory::DotFile;
  }
  if (suffix == ".log") return NameCategory::LogFile;
  if (suffix == ".idx" || suffix == ".db" || suffix == ".pag" ||
      suffix == ".dir") {
    return NameCategory::IndexFile;
  }
  if (suffix == ".o" || suffix == ".a" || suffix == ".so") {
    return NameCategory::ObjectFile;
  }
  if (suffix == ".c" || suffix == ".h" || suffix == ".cc" || suffix == ".cpp" ||
      suffix == ".hpp" || suffix == ".java" || suffix == ".py" ||
      suffix == ".tex" || suffix == ".bib" || suffix == ".ps" ||
      suffix == ".html") {
    return NameCategory::SourceFile;
  }
  if (name.front() == '.') return NameCategory::DotFile;
  return NameCategory::Other;
}

NamePrediction predictionFor(NameCategory c) {
  switch (c) {
    case NameCategory::LockFile:
      return {.zeroLength = true, .maxLifetimeSec = 1.0, .maxSizeBytes = 0,
              .neverDeleted = false};
    case NameCategory::MailComposer:
      return {.zeroLength = false, .maxLifetimeSec = 3600.0,
              .maxSizeBytes = 40 * 1024, .neverDeleted = false};
    case NameCategory::DotFile:
      return {.zeroLength = false, .maxLifetimeSec = 0.0,
              .maxSizeBytes = 32 * 1024, .neverDeleted = true};
    case NameCategory::Mailbox:
      return {.zeroLength = false, .maxLifetimeSec = 0.0, .maxSizeBytes = 0,
              .neverDeleted = true};
    case NameCategory::AppletFile:
      return {.zeroLength = false, .maxLifetimeSec = 24.0 * 3600.0,
              .maxSizeBytes = 8 * 1024, .neverDeleted = false};
    case NameCategory::TempFile:
      return {.zeroLength = false, .maxLifetimeSec = 24.0 * 3600.0,
              .maxSizeBytes = 0, .neverDeleted = false};
    case NameCategory::ObjectFile:
      return {.zeroLength = false, .maxLifetimeSec = 0.0, .maxSizeBytes = 0,
              .neverDeleted = false};
    default:
      return {};
  }
}

double FileLifeCensus::lockFractionOfDeleted() const {
  std::uint64_t lockDeleted = 0;
  auto it = stats_.find(NameCategory::LockFile);
  if (it != stats_.end()) lockDeleted = it->second.deleted;
  return totalDeleted_ ? static_cast<double>(lockDeleted) /
                             static_cast<double>(totalDeleted_)
                       : 0.0;
}

void FileLifeCensus::observe(const TraceRecord& rec, const RecordIds& ids,
                             std::uint32_t unlinked) {
  if (!rec.hasReply || rec.status != NfsStat::Ok) return;
  switch (rec.op) {
    case NfsOp::Create:
    case NfsOp::Mknod: {
      if (!rec.hasResFh) break;
      NameCategory cat = classifyName(rec.name);
      if (ids.resFh >= files_.size()) files_.resize(std::size_t{ids.resFh} + 1);
      LiveFile& lf = files_[ids.resFh];
      lf.live = true;
      lf.category = cat;
      lf.created = rec.ts;
      lf.lastSize = rec.hasAttrs ? rec.fileSize : 0;
      lf.maxSize = lf.lastSize;
      ++stats_[cat].created;
      ++totalCreated_;
      break;
    }
    case NfsOp::Write:
    case NfsOp::Setattr:
    case NfsOp::Getattr:
    case NfsOp::Read: {
      LiveFile* lf = liveFile(ids.fh);
      if (lf && rec.hasAttrs) {
        lf->lastSize = rec.fileSize;
        lf->maxSize = std::max(lf->maxSize, rec.fileSize);
      }
      break;
    }
    case NfsOp::Remove:
    case NfsOp::Rename: {
      // A removed file, or the file a RENAME replaced.
      LiveFile* lf = liveFile(unlinked);
      if (!lf) break;
      auto& cs = stats_[lf->category];
      ++cs.deleted;
      ++totalDeleted_;
      double lifeSec = toSeconds(rec.ts - lf->created);
      cs.lifetimesSec.add(lifeSec);
      cs.sizesAtDeath.add(static_cast<double>(lf->lastSize));
      cs.maxSizes.add(static_cast<double>(lf->maxSize));
      if (lf->maxSize == 0) ++cs.zeroLength;

      // Score the create-time prediction against the outcome.
      NamePrediction pred = predictionFor(lf->category);
      bool correct = true;
      ++cs.predictionsChecked;
      if (pred.zeroLength && lf->maxSize > 0) correct = false;
      if (pred.maxLifetimeSec > 0 && lifeSec > pred.maxLifetimeSec) {
        correct = false;
      }
      if (pred.maxSizeBytes > 0 && lf->maxSize > pred.maxSizeBytes) {
        correct = false;
      }
      if (pred.neverDeleted) correct = false;  // it *was* deleted
      if (correct) ++cs.predictionsCorrect;

      lf->live = false;
      break;
    }
    default:
      break;
  }
}

void FileLifeCensus::finish() {
  if (finished_) return;
  finished_ = true;
  // Files still alive at the end validate the "never deleted" prediction.
  for (const LiveFile& lf : files_) {
    if (!lf.live) continue;
    NamePrediction pred = predictionFor(lf.category);
    auto& cs = stats_[lf.category];
    if (pred.neverDeleted) {
      ++cs.predictionsChecked;
      ++cs.predictionsCorrect;
    }
    cs.maxSizes.add(static_cast<double>(lf.maxSize));
  }
}

}  // namespace nfstrace
