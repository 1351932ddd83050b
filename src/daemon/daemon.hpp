// nfstraced core: a crash-recoverable continuous-capture trace daemon.
//
// The paper's tracer ran unattended for months, rotating trace files on
// the hour and surviving full disks and machine reboots.  TraceDaemon is
// that run loop's durable heart: it owns the active trace segment and
// the manifest (daemon/manifest.hpp), and guarantees that at *every*
// instant — including mid-rotation SIGKILL — the on-disk state is
// resumable with exact accounting:
//
//   captured == sealed + recovered + lost          (Books::balanced)
//
// Segments are columnar v2.  Rotation is extent-aligned: the active
// `<prefix>-NNNNNN.part` segment is finalized (tail extent + footer
// index), flushed, fsync'd, renamed to `<prefix>-NNNNNN.trace` (rename
// is atomic), and only then journaled in the manifest, which is itself
// replaced atomically.  The crash matrix (see DESIGN.md):
//
//   crash before rename      -> torn .part; startup recovery salvages
//                               whole extents, seals them as the
//                               segment, folds the evidenced remainder
//                               into `lost`
//   after rename, pre-journal-> sealed segment not in manifest; startup
//                               adopts it (scan + count) into the books
//   mid-manifest             -> impossible to observe: saves are
//                               tmp+fsync+rename, a reader sees old or
//                               new, never torn (Damaged only from real
//                               disk corruption, answered by a directory
//                               rescan)
//
// A restarted source resumes feeding at streamPos() = sealed + recovered
// — the records physically present in segments — so the concatenation of
// sealed segments across any number of crashes is byte-identical to an
// uninterrupted run, with zero duplicates and zero gaps (enforced by
// bench/chaos_soak phase G).
//
// Disk-fault degradation: when the writer exhausts its retry budget
// (injected or real ENOSPC/EIO), the daemon does not die — it abandons
// the active segment, sheds records with exact loss accounting
// (daemon.records_shed, a DEGRADED alert), and periodically probes the
// disk by recovering the abandoned segment and reopening a fresh one.
//
// Retention runs after each rotation: oldest segments are retired when
// count/bytes/age budgets are exceeded (the books are NOT rewound —
// retirement is policy, not loss).
//
// Startup refuses a directory holding a sealed segment or torn part that
// is not v2 (text an older nfstraced wrote): the constructor throws
// naming the file, which stays on disk, and nfstraced exits 1.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "daemon/manifest.hpp"
#include "fault/fault.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "trace/tracefile.hpp"
#include "util/time.hpp"

namespace nfstrace::daemon {

/// Size/age-tiered retention policy (0 disables each bound).
struct Retention {
  std::size_t maxSegments = 0;      ///< keep at most this many segments
  std::uint64_t maxTotalBytes = 0;  ///< total sealed bytes budget
  std::int64_t maxAgeSec = 0;       ///< retire segments sealed longer ago
};

class TraceDaemon {
 public:
  struct Config {
    std::string dir;              ///< segment + manifest directory
    std::string prefix = "trace"; ///< segment file prefix

    // Rotation thresholds (0 disables each; rotateNow() always works).
    std::uint64_t rotateRecords = 0;  ///< seal after N records
    std::uint64_t rotateBytes = 0;    ///< seal after N bytes (incl. buffer)
    MicroTime rotateIntervalUs = 0;   ///< seal after elapsed wall time

    // Writer durability knobs, passed through to TraceWriter::Options.
    std::uint64_t v2ExtentRecords = 8192;
    int maxRetries = 8;
    MicroTime backoffInitialUs = 50;
    MicroTime backoffMaxUs = 10'000;
    /// Deterministic disk-fault hook shared by every writer the daemon
    /// opens (active segments, degraded-mode salvage); not owned.
    IoFaultInjector* faults = nullptr;

    /// fsync each segment before renaming it sealed.  On by default —
    /// that is the whole point — but tests that crash on purpose at
    /// every byte offset can turn it off for speed.
    bool fsyncOnSeal = true;

    Retention retention;
    /// Apply retention automatically after each rotation (maintain()
    /// can always be called explicitly).
    bool autoMaintain = true;

    /// Degraded mode: after this many consecutive shed records, probe
    /// the disk (recover the abandoned segment, reopen a fresh one).
    std::uint64_t reopenAfterSheds = 256;

    /// Wall clock (unix seconds) for seal stamps and age retention;
    /// injectable so tests can age segments deterministically.  Null
    /// uses the real clock.
    std::function<std::int64_t()> wallClock;

    obs::Registry* metrics = nullptr;
    obs::FlightRecorder* flight = nullptr;
  };

  /// What startup recovery found and did (for logs, tests, and the
  /// chaos soak's cross-restart assertions).
  struct RecoveryReport {
    Manifest::LoadStatus manifestStatus = Manifest::LoadStatus::Missing;
    bool rebuiltFromScan = false;     ///< manifest Missing/Damaged path
    std::uint64_t adoptedSegments = 0; ///< sealed but unjournaled segments
    std::uint64_t tornSegments = 0;    ///< .part files recovered
    std::uint64_t recoveredRecords = 0;
    std::uint64_t lostRecords = 0;     ///< evidenced torn-tail records
    std::uint64_t staleFilesRemoved = 0;  ///< stale .part/.recov/.tmp
  };

  /// Opens (and if necessary recovers) the daemon state in `config.dir`
  /// and opens a fresh active segment.  Throws std::runtime_error when
  /// the directory is unusable.
  explicit TraceDaemon(Config config);
  ~TraceDaemon();
  TraceDaemon(const TraceDaemon&) = delete;
  TraceDaemon& operator=(const TraceDaemon&) = delete;

  /// Append one record to the active segment (rotating when a threshold
  /// trips).  Never throws on disk faults: exhausted retries flip the
  /// daemon into degraded shedding instead.
  void submit(const TraceRecord& rec);

  /// Seal the active segment now (SIGHUP).  No-op when the active
  /// segment is empty or the daemon is degraded.
  void rotateNow();

  /// Graceful drain (SIGTERM): seal the active segment, run a final
  /// maintenance pass, save the manifest.  Idempotent; the destructor
  /// calls it too (swallowing errors).
  void stop();

  /// Apply the retention budgets: retire the oldest sealed segments
  /// until the count/bytes/age budgets hold.
  void maintain();

  const Manifest& manifest() const { return manifest_; }
  const Books& books() const { return manifest_.books; }
  const RecoveryReport& recovery() const { return recovery_; }

  /// Stream position a restarted source should resume from: records
  /// durable in (or retired from) sealed segments.
  std::uint64_t streamPos() const { return manifest_.streamPos(); }
  /// Records in the active segment (submitted, not yet sealed).
  std::uint64_t activeRecords() const { return activeRecords_; }
  /// Records accepted over this daemon's lifetime (sealed + active +
  /// shed; excludes recovery folds from previous incarnations).
  std::uint64_t recordsSubmitted() const { return submitted_; }

  bool degraded() const { return degraded_; }
  std::uint64_t recordsShed() const { return shedTotal_; }

  std::string manifestPath() const;
  /// Absolute paths of the sealed segments, ascending seq.
  std::vector<std::string> segmentPaths() const;

  static std::string manifestPathFor(const std::string& dir,
                                     const std::string& prefix);

 private:
  std::string sealedPath(std::uint64_t seq) const;
  std::string partPath(std::uint64_t seq) const;
  std::int64_t now() const;

  /// Startup: load or rebuild the manifest, adopt unjournaled sealed
  /// segments, recover torn parts, remove stale temporaries.
  void recoverDirectory();
  /// Salvage one torn `.part` (startup or degraded probe): recover its
  /// records into `.recov`, seal what survived, fold the books.
  /// `submittedToPart` is the exact record count this process wrote to
  /// the part (degraded probe), or ~0ull when unknown (startup, where
  /// the torn file's own checkpoint evidence is the best bound).
  /// `useFaults` routes the salvage writes through the injector (probe
  /// path) or bypasses it (startup, where a fresh process deserves a
  /// clean salvage and real disk errors propagate to the supervisor).
  void recoverPart(std::uint64_t seq, std::uint64_t submittedToPart,
                   bool useFaults);
  /// Count the records of an already-sealed segment (manifest adoption).
  static std::uint64_t countSegmentRecords(const std::string& path);

  /// Options for every segment writer: v2 with the configured knobs;
  /// `faults` routes writes through the injector.
  TraceWriter::Options writerOptions(IoFaultInjector* faults) const;
  void openActive();
  /// Seal the active part as a segment and journal it; throws on disk
  /// failure (caller degrades).
  void sealActive();
  void rotate();
  void enterDegraded();
  void shedOne();
  /// Degraded-mode probe: try to salvage the abandoned part and reopen.
  void probeDisk();

  Config cfg_;
  std::string manifestPath_;
  Manifest manifest_;
  RecoveryReport recovery_;

  std::unique_ptr<TraceWriter> writer_;
  std::uint64_t activeSeq_ = 0;
  std::uint64_t activeRecords_ = 0;
  std::uint64_t submitted_ = 0;
  std::chrono::steady_clock::time_point activeOpened_{};

  bool degraded_ = false;
  bool stopped_ = false;
  std::uint64_t shedTotal_ = 0;
  std::uint64_t shedSinceProbe_ = 0;

  obs::CounterHandle rotationsC_;
  obs::CounterHandle shedC_;
  obs::CounterHandle recoveredSegC_;
  obs::CounterHandle retiredSegC_;
  obs::ThreadLog* flog_ = nullptr;
};

}  // namespace nfstrace::daemon
