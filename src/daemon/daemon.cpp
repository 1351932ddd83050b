#include "daemon/daemon.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <stdexcept>

#include "util/atomicfile.hpp"

namespace nfstrace::daemon {

namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kUnknown = ~0ull;

std::string segmentBasename(const std::string& prefix, std::uint64_t seq,
                            const char* ext) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "-%06llu%s",
                static_cast<unsigned long long>(seq), ext);
  return prefix + buf;
}

/// Parse "<prefix>-NNNNNN<ext>" -> seq; false when `name` is not ours.
bool parseSegmentName(const std::string& name, const std::string& prefix,
                      const char* ext, std::uint64_t& seqOut) {
  std::string_view n = name;
  if (n.size() <= prefix.size() + 1 || n.substr(0, prefix.size()) != prefix ||
      n[prefix.size()] != '-') {
    return false;
  }
  n.remove_prefix(prefix.size() + 1);
  std::string_view extv = ext;
  if (n.size() <= extv.size() || n.substr(n.size() - extv.size()) != extv) {
    return false;
  }
  n.remove_suffix(extv.size());
  if (n.empty()) return false;
  std::uint64_t seq = 0;
  for (char c : n) {
    if (c < '0' || c > '9') return false;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  seqOut = seq;
  return true;
}

void removeQuiet(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

std::uint64_t fileBytes(const std::string& path) {
  std::error_code ec;
  auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

/// Throw, naming `path`, when a segment or torn part is not v2: text an
/// older nfstraced wrote, or a schema this build does not read.  A v2
/// file cut short or damaged passes: it starts with the v2 magic or a
/// prefix of it, or a recover-mode scan finds a valid extent header in
/// it.
void requireV2(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return;  // the reader that opens it next names the failure
  std::string error;
  const tracev2::Preamble found = tracev2::readPreamble(f, &error);
  char head[sizeof(tracev2::kFileMagic)];
  std::rewind(f);
  const std::size_t got = std::fread(head, 1, sizeof(head), f);
  std::fclose(f);
  if (found == tracev2::Preamble::Unsupported) {
    throw std::runtime_error("daemon: " + error + ": " + path);
  }
  if (std::memcmp(head, tracev2::kFileMagic, got) == 0) return;
  TraceReader probe(path, /*recover=*/true);
  TraceRecord rec;
  probe.nextInto(rec);  // stops at the first decodable extent
  if (probe.recoverStats().checkpoints == 0) {
    throw std::runtime_error("daemon: not a v2 trace: " + path);
  }
}

}  // namespace

TraceDaemon::TraceDaemon(Config config) : cfg_(std::move(config)) {
  if (cfg_.dir.empty()) {
    throw std::runtime_error("daemon: empty directory");
  }
  fs::create_directories(cfg_.dir);
  manifestPath_ = manifestPathFor(cfg_.dir, cfg_.prefix);
  if (cfg_.metrics) {
    rotationsC_ = cfg_.metrics->counterHandle("daemon.rotations", 0);
    shedC_ = cfg_.metrics->counterHandle("daemon.records_shed", 0);
    recoveredSegC_ = cfg_.metrics->counterHandle("daemon.segments_recovered", 0);
    retiredSegC_ = cfg_.metrics->counterHandle("daemon.segments_retired", 0);
  }
  if (cfg_.flight) flog_ = cfg_.flight->attachThread("daemon");
  recoverDirectory();
  // A dead trace disk at startup (header write fails) is not fatal: come
  // up degraded and shed with exact accounting until a probe succeeds.
  try {
    openActive();
  } catch (...) {
    enterDegraded();
  }
}

TraceDaemon::~TraceDaemon() {
  try {
    stop();
  } catch (...) {
  }
}

std::string TraceDaemon::manifestPathFor(const std::string& dir,
                                         const std::string& prefix) {
  return dir + "/" + prefix + ".manifest";
}

std::string TraceDaemon::manifestPath() const { return manifestPath_; }

std::string TraceDaemon::sealedPath(std::uint64_t seq) const {
  return cfg_.dir + "/" + segmentBasename(cfg_.prefix, seq, ".trace");
}

std::string TraceDaemon::partPath(std::uint64_t seq) const {
  return cfg_.dir + "/" + segmentBasename(cfg_.prefix, seq, ".part");
}

std::int64_t TraceDaemon::now() const {
  if (cfg_.wallClock) return cfg_.wallClock();
  return static_cast<std::int64_t>(std::time(nullptr));
}

std::vector<std::string> TraceDaemon::segmentPaths() const {
  std::vector<std::string> out;
  out.reserve(manifest_.segments.size());
  for (const SegmentInfo& s : manifest_.segments) {
    out.push_back(cfg_.dir + "/" + s.file);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Startup recovery.

void TraceDaemon::recoverDirectory() {
  obs::FlightSpan span(flog_, obs::Stage::DaemonRecover);

  recovery_.manifestStatus = Manifest::load(manifestPath_, manifest_);
  if (recovery_.manifestStatus == Manifest::LoadStatus::Damaged) {
    // The atomic-save idiom means a torn manifest never comes from a
    // crash — only real corruption.  Rebuild from the directory: the
    // loss history is gone, but the state is always resumable.
    manifest_ = Manifest{};
    recovery_.rebuiltFromScan = true;
  }

  // Inventory the directory: sealed segments, torn parts, stale temps.
  std::vector<std::pair<std::uint64_t, std::string>> sealed;
  std::vector<std::uint64_t> parts;
  for (const auto& entry : fs::directory_iterator(cfg_.dir)) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    std::uint64_t seq = 0;
    if (parseSegmentName(name, cfg_.prefix, ".trace", seq)) {
      sealed.emplace_back(seq, name);
    } else if (parseSegmentName(name, cfg_.prefix, ".part", seq)) {
      parts.push_back(seq);
    } else if (parseSegmentName(name, cfg_.prefix, ".recov", seq) ||
               name == cfg_.prefix + ".manifest.tmp") {
      // Interrupted salvage/save: the protocol re-creates these from
      // scratch, so leftovers are just noise.
      removeQuiet(entry.path().string());
      ++recovery_.staleFilesRemoved;
    }
  }
  std::sort(sealed.begin(), sealed.end());
  std::sort(parts.begin(), parts.end());
  auto hasSealed = [&sealed](std::uint64_t seq) {
    return std::any_of(sealed.begin(), sealed.end(),
                       [seq](const auto& p) { return p.first == seq; });
  };

  // A segment or torn part that is not v2 stops startup before anything
  // is adopted, salvaged or removed, and stays on disk: the books never
  // keep, and salvage never deletes, records no reader can read.
  for (const auto& [seq, name] : sealed) requireV2(cfg_.dir + "/" + name);
  for (std::uint64_t seq : parts) {
    if (!hasSealed(seq)) requireV2(partPath(seq));
  }

  // Drop manifest entries whose segment file vanished (a crash between
  // retention's unlink and the manifest save, or external deletion).
  // The books are untouched: those records had a durable disposition.
  std::erase_if(manifest_.segments, [&](const SegmentInfo& s) {
    return !std::binary_search(
        sealed.begin(), sealed.end(), std::pair{s.seq, s.file},
        [](const auto& a, const auto& b) { return a.first < b.first; });
  });

  // Adopt sealed segments the manifest does not know about (crash after
  // the seal rename but before the journal append).
  for (const auto& [seq, name] : sealed) {
    bool listed = std::any_of(
        manifest_.segments.begin(), manifest_.segments.end(),
        [seq = seq](const SegmentInfo& s) { return s.seq == seq; });
    if (listed) continue;
    SegmentInfo seg;
    seg.seq = seq;
    seg.file = name;
    std::string path = cfg_.dir + "/" + name;
    seg.records = countSegmentRecords(path);
    seg.bytes = fileBytes(path);
    seg.first = manifest_.streamPos();
    seg.sealedUnix = now();
    manifest_.segments.push_back(seg);
    std::sort(manifest_.segments.begin(), manifest_.segments.end(),
              [](const SegmentInfo& a, const SegmentInfo& b) {
                return a.seq < b.seq;
              });
    manifest_.books.captured += seg.records;
    manifest_.books.sealed += seg.records;
    manifest_.nextSeq = std::max(manifest_.nextSeq, seq + 1);
    ++recovery_.adoptedSegments;
  }

  // Recover torn active segments.  A part whose seq already has a sealed
  // file is stale (crash between the seal rename and the part unlink
  // during a previous salvage): its records are already in the sealed
  // segment, so it is removed, not recovered.
  for (std::uint64_t seq : parts) {
    if (hasSealed(seq)) {
      removeQuiet(partPath(seq));
      ++recovery_.staleFilesRemoved;
      continue;
    }
    ++recovery_.tornSegments;
    recoverPart(seq, kUnknown, /*useFaults=*/false);
  }

  manifest_.save(manifestPath_);
}

std::uint64_t TraceDaemon::countSegmentRecords(const std::string& path) {
  TraceReader reader(path, /*recover=*/true);
  TraceRecord rec;
  std::uint64_t n = 0;
  while (reader.nextInto(rec)) ++n;
  return n;
}

void TraceDaemon::recoverPart(std::uint64_t seq, std::uint64_t submittedToPart,
                              bool useFaults) {
  std::string part = partPath(seq);
  std::string recov = part;
  recov.replace(recov.size() - 5, 5, ".recov");

  // Phase 1 — pure I/O, no book mutation: a throw here leaves the part
  // untouched and the books exactly as they were, so salvage can be
  // retried (probe path) or inherited by the next incarnation.
  std::vector<TraceRecord> records;
  TraceReader::RecoverStats rstats;
  try {
    TraceReader reader(part, /*recover=*/true);
    TraceRecord rec;
    while (reader.nextInto(rec)) records.push_back(rec);
    rstats = reader.recoverStats();
  } catch (...) {
    // Unreadable beyond salvage (e.g. truncated before any framing):
    // nothing recoverable, no checkpoint evidence.
    records.clear();
    rstats = {};
  }
  std::uint64_t recovered = records.size();

  std::uint64_t bytes = 0;
  if (recovered > 0) {
    TraceWriter writer(recov,
                       writerOptions(useFaults ? cfg_.faults : nullptr));
    for (const TraceRecord& rec : records) writer.write(rec);
    writer.finalize(cfg_.fsyncOnSeal);
    bytes = fileBytes(recov);
    renameDurable(recov, sealedPath(seq));
  }

  // Phase 2 — mutation.  The sequence number is consumed only when a
  // segment was actually sealed under it; an empty/unsalvageable part is
  // discarded and its seq reused, keeping the sealed sequence gap-free.
  if (recovered > 0) manifest_.nextSeq = std::max(manifest_.nextSeq, seq + 1);
  removeQuiet(part);

  // Evidence of loss: on the probe path the daemon knows exactly how
  // many records it submitted to this part; at startup the torn file's
  // own checkpoint/extent evidence (skipped) is the best bound —
  // records that died in the in-process buffer left no trace and are
  // simply re-fed by a resuming source.  `recovered` can exceed
  // `submittedToPart`: the record whose write threw never made it into
  // activeRecords_, but its bytes may still have reached disk (the
  // throw can come from the post-write fflush/fsync), so clamp rather
  // than underflow the books.
  std::uint64_t lost = (submittedToPart == kUnknown)
                           ? rstats.skipped
                           : (recovered >= submittedToPart
                                  ? 0
                                  : submittedToPart - recovered);
  if (recovered > 0) {
    SegmentInfo seg;
    seg.seq = seq;
    seg.file = segmentBasename(cfg_.prefix, seq, ".trace");
    seg.records = recovered;
    seg.bytes = bytes;
    seg.first = manifest_.streamPos();
    seg.sealedUnix = now();
    manifest_.segments.push_back(seg);
    std::sort(manifest_.segments.begin(), manifest_.segments.end(),
              [](const SegmentInfo& a, const SegmentInfo& b) {
                return a.seq < b.seq;
              });
    recoveredSegC_.inc();
  }
  manifest_.books.captured += recovered + lost;
  manifest_.books.recovered += recovered;
  manifest_.books.lost += lost;
  recovery_.recoveredRecords += recovered;
  recovery_.lostRecords += lost;
}

// ---------------------------------------------------------------------------
// Capture loop: submit / rotate / degrade.

TraceWriter::Options TraceDaemon::writerOptions(
    IoFaultInjector* faults) const {
  TraceWriter::Options wopts;
  wopts.v2ExtentRecords = cfg_.v2ExtentRecords;
  wopts.maxRetries = cfg_.maxRetries;
  wopts.backoffInitialUs = cfg_.backoffInitialUs;
  wopts.backoffMaxUs = cfg_.backoffMaxUs;
  wopts.faults = faults;
  return wopts;
}

void TraceDaemon::openActive() {
  activeSeq_ = manifest_.nextSeq;
  writer_ = std::make_unique<TraceWriter>(partPath(activeSeq_),
                                          writerOptions(cfg_.faults));
  if (cfg_.metrics) writer_->attachMetrics(*cfg_.metrics);
  activeRecords_ = 0;
  activeOpened_ = std::chrono::steady_clock::now();
}

void TraceDaemon::submit(const TraceRecord& rec) {
  ++submitted_;
  if (degraded_) {
    shedOne();
    if (shedSinceProbe_ >= cfg_.reopenAfterSheds) probeDisk();
    return;
  }
  try {
    writer_->write(rec);
  } catch (...) {
    enterDegraded();
    shedOne();
    return;
  }
  ++activeRecords_;

  bool due = (cfg_.rotateRecords > 0 && activeRecords_ >= cfg_.rotateRecords) ||
             (cfg_.rotateBytes > 0 &&
              writer_->bytesWritten() >= cfg_.rotateBytes);
  if (!due && cfg_.rotateIntervalUs > 0) {
    auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - activeOpened_)
                       .count();
    due = elapsed >= cfg_.rotateIntervalUs;
  }
  if (due) rotate();
}

void TraceDaemon::rotate() {
  try {
    sealActive();
    // The next segment's header write can fail too (the seal may have
    // consumed the last free blocks); that degrades rather than throws
    // out of submit() — the sealed segment is already journaled.
    openActive();
  } catch (...) {
    enterDegraded();
    return;
  }
  if (cfg_.autoMaintain) maintain();
}

void TraceDaemon::rotateNow() {
  if (degraded_ || !writer_ || activeRecords_ == 0) return;
  rotate();
}

void TraceDaemon::sealActive() {
  obs::FlightSpan span(flog_, obs::Stage::DaemonRotate);
  if (activeRecords_ == 0) {
    // Nothing captured: discard the empty part instead of sealing an
    // empty segment.
    writer_.reset();
    removeQuiet(partPath(activeSeq_));
    return;
  }
  // Extent-aligned seal: tail extent + footer index, flush, fsync —
  // finalize() throws if any step fails, which is the signal to degrade
  // rather than journal an unsealed segment.
  writer_->finalize(cfg_.fsyncOnSeal);
  std::uint64_t records = writer_->recordsWritten();
  std::uint64_t bytes = writer_->bytesWritten();
  writer_.reset();
  renameDurable(partPath(activeSeq_), sealedPath(activeSeq_));

  SegmentInfo seg;
  seg.seq = activeSeq_;
  seg.file = segmentBasename(cfg_.prefix, activeSeq_, ".trace");
  seg.records = records;
  seg.bytes = bytes;
  seg.first = manifest_.streamPos();
  seg.sealedUnix = now();
  manifest_.segments.push_back(seg);
  manifest_.books.captured += records;
  manifest_.books.sealed += records;
  manifest_.nextSeq = activeSeq_ + 1;
  manifest_.save(manifestPath_);
  rotationsC_.inc();
  activeRecords_ = 0;
}

void TraceDaemon::enterDegraded() {
  degraded_ = true;
  shedSinceProbe_ = 0;
  // Abandon the active writer; the part file keeps whatever was flushed
  // and is salvaged by the next successful probe (or the next
  // incarnation's startup recovery).  The destructor swallows errors —
  // the disk is already known bad.
  writer_.reset();
}

void TraceDaemon::shedOne() {
  ++shedTotal_;
  ++shedSinceProbe_;
  shedC_.inc();
  if (flog_) flog_->instant(obs::Stage::DaemonShed, shedTotal_);
  // A shed record's disposition is immediate and exact: captured, lost.
  manifest_.books.captured += 1;
  manifest_.books.lost += 1;
}

void TraceDaemon::probeDisk() {
  shedSinceProbe_ = 0;
  try {
    if (fs::exists(partPath(activeSeq_))) {
      recoverPart(activeSeq_, activeRecords_, /*useFaults=*/true);
    } else {
      // The part vanished (or a previous probe sealed it and died before
      // clearing degraded): the sequence number is still consumed.
      manifest_.nextSeq = std::max(manifest_.nextSeq, activeSeq_ + 1);
      manifest_.books.captured += activeRecords_;
      manifest_.books.lost += activeRecords_;
    }
    activeRecords_ = 0;
    openActive();
    // Leave degraded mode only once the whole probe — salvage, reopen,
    // manifest save — has succeeded; a save failure must not hand
    // submit() a half-initialized (or reset) writer.
    manifest_.save(manifestPath_);
    degraded_ = false;
  } catch (...) {
    // Disk still bad: stay degraded, keep shedding with exact counts.
    degraded_ = true;
    writer_.reset();
  }
}

void TraceDaemon::stop() {
  if (stopped_) return;
  if (!degraded_ && writer_) {
    try {
      sealActive();
    } catch (...) {
      enterDegraded();
    }
  }
  if (degraded_) {
    // Final salvage attempt, so even a drain that ends on a bad disk
    // leaves every submitted record with a durable disposition.
    try {
      if (fs::exists(partPath(activeSeq_))) {
        recoverPart(activeSeq_, activeRecords_, /*useFaults=*/true);
        activeRecords_ = 0;
      } else if (activeRecords_ > 0) {
        manifest_.books.captured += activeRecords_;
        manifest_.books.lost += activeRecords_;
        activeRecords_ = 0;
      }
    } catch (...) {
      // Leave the part for the next incarnation's startup recovery.
    }
  }
  try {
    maintain();
  } catch (...) {
  }
  try {
    manifest_.save(manifestPath_);
  } catch (...) {
  }
  stopped_ = true;
}

// ---------------------------------------------------------------------------
// Retention.

void TraceDaemon::maintain() {
  const Retention& r = cfg_.retention;
  bool changed = false;
  auto overBudget = [&]() -> bool {
    if (manifest_.segments.empty()) return false;
    if (r.maxSegments > 0 && manifest_.segments.size() > r.maxSegments) {
      return true;
    }
    if (r.maxTotalBytes > 0) {
      std::uint64_t total = 0;
      for (const SegmentInfo& s : manifest_.segments) total += s.bytes;
      if (total > r.maxTotalBytes) return true;
    }
    if (r.maxAgeSec > 0 &&
        now() - manifest_.segments.front().sealedUnix > r.maxAgeSec) {
      return true;
    }
    return false;
  };
  while (overBudget()) {
    // Oldest first.  Unlink before journaling: a crash in between is
    // healed at startup (missing-file entries are dropped, books kept).
    const SegmentInfo& victim = manifest_.segments.front();
    removeQuiet(cfg_.dir + "/" + victim.file);
    manifest_.segments.erase(manifest_.segments.begin());
    retiredSegC_.inc();
    changed = true;
  }
  if (changed) manifest_.save(manifestPath_);
}

}  // namespace nfstrace::daemon
