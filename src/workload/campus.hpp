// The CAMPUS workload: the central email system (§3.2, §6.1.2).
//
// ~All traffic is email.  Three NFS client hosts stand in for the SMTP,
// POP, and general-login servers.  Per user and day (modulated by the
// weekly schedule): message deliveries (lock, sync append, unlock), POP
// polls (lock, fresh getattr, whole-inbox re-read if the mtime moved,
// unlock), and interactive mail sessions (read dot files, scan the inbox,
// periodic rescans, composer temp files, periodic expunges that rewrite
// the mailbox in place, exit rewrite).
//
// The numbers are scaled-down per-array equivalents; the *shape* targets
// are the paper's: R/W byte ratio ~3, >95% of data bytes in mailboxes,
// ~50% of accessed files being locks, 96% of created+deleted files being
// zero-length locks living <0.4s, block half-life 10-15 minutes with >99%
// of deaths by overwrite.
#pragma once

#include <queue>
#include <string>
#include <vector>

#include "workload/schedule.hpp"
#include "workload/sim.hpp"

namespace nfstrace {

struct CampusConfig {
  int users = 120;
  /// Lognormal inbox size: median ~2 MB as the paper reports.
  double mailboxMedianBytes = 2.0 * 1024 * 1024;
  double mailboxSigma = 0.9;
  /// Peak-hour Poisson rates per user (thinned by the weekly schedule).
  double deliveriesPerUserPeakHourly = 1.9;
  double popChecksPerUserPeakHourly = 3.8;
  double sessionsPerUserPeakHourly = 0.45;
  /// Message size: lognormal, median ~4 KB, heavy tail.
  double messageMedianBytes = 4096;
  double messageSigma = 1.2;
  MicroTime sessionMeanLength = minutes(25);
  MicroTime rescanInterval = minutes(3);
  MicroTime expungeInterval = minutes(15);
  double composePerSession = 0.8;
  std::uint64_t seed = 2001;

  /// Load rates from a key=value file (users, deliveries_per_user_hour,
  /// pop_checks_per_user_hour, sessions_per_user_hour, mailbox_median_kb,
  /// message_median_bytes, session_mean_minutes, expunge_minutes, seed);
  /// unset keys keep the defaults above, and an unknown key throws.
  static CampusConfig fromFile(const std::string& path);
};

class CampusWorkload {
 public:
  CampusWorkload(CampusConfig config, SimEnvironment& env);

  /// Populate home directories, inboxes, and dot files (pre-trace state).
  void setup(MicroTime t0);
  /// Generate events from `start` to `end`.
  void run(MicroTime start, MicroTime end);

  std::uint64_t deliveries() const { return deliveries_; }
  std::uint64_t popChecks() const { return popChecks_; }
  std::uint64_t sessions() const { return sessions_; }

 private:
  enum class EventType : std::uint8_t {
    Delivery,
    PopCheck,
    SessionStart,
    SessionStep,
  };
  struct Event {
    MicroTime t;
    EventType type;
    int user;
    bool operator>(const Event& o) const { return t > o.t; }
  };
  struct Session {
    bool active = false;
    MicroTime endTime = 0;
    MicroTime nextRescan = 0;
    MicroTime nextExpunge = 0;
    MicroTime lastSeenMtime = -1;
    int composePending = 0;
  };
  struct User {
    std::string home;       // absolute path of the home directory
    FileHandle homeFh;      // resolved lazily via the login client
    FileHandle inboxFh;
    FileHandle folderFh;    // mail/saved.mbox
    std::uint64_t folderSize = 0;
    MicroTime popLastMtime = -1;
    Session session;
  };

  // Client hosts.
  NfsClient& smtp() { return env_.client(0); }
  NfsClient& pop() { return env_.client(1); }
  NfsClient& login() { return env_.client(2 + 0); }

  bool ensureHandles(NfsClient& client, MicroTime& now, User& u);
  bool withLock(NfsClient& client, MicroTime& now, User& u,
                const std::function<void(MicroTime&)>& body);
  void doDelivery(MicroTime t, int user);
  void doPopCheck(MicroTime t, int user);
  void doSessionStart(MicroTime t, int user);
  void doSessionStep(MicroTime t, int user);
  void rescanInbox(NfsClient& client, MicroTime& now, User& u,
                   MicroTime* mtimeSlot);
  void expungeInbox(NfsClient& client, MicroTime& now, User& u);
  void composeMessage(NfsClient& client, MicroTime& now, User& u);
  /// Browse a message inside a saved-mail folder: a partial sequential
  /// read somewhere in a large file (the paper's sequential sub-runs).
  void readFolderMessage(NfsClient& client, MicroTime& now, User& u);
  /// Rewrite small config files at logout (.pinerc, .addressbook).
  void saveDotFiles(NfsClient& client, MicroTime& now, User& u);
  void scheduleNext(EventType type, int user, MicroTime after, double rate);

  CampusConfig config_;
  SimEnvironment& env_;
  WeeklySchedule schedule_;
  Rng rng_;
  std::vector<User> users_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  MicroTime endTime_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t popChecks_ = 0;
  std::uint64_t sessions_ = 0;
  std::uint64_t lockContention_ = 0;
  int composeCounter_ = 0;
  int lockCounter_ = 0;
};

}  // namespace nfstrace
