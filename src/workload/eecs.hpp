// The EECS workload: the CS-department home-directory filer (§3.1, §6.1.1).
//
// A mix of research, software development, and coursework from many
// single-user workstations.  The signature behaviours:
//   * metadata dominance — clients continually revalidate their caches
//     (getattr/lookup/access) and rarely need to transfer data;
//   * writes outnumber reads — browser caches written into home
//     directories, window-manager Applet_*_Extern files, editor/build
//     output, and unbuffered log/index appends whose tail blocks die in
//     under a second;
//   * unpredictable interactive load with predictable background activity
//     (night cron jobs: builds, experiments, data processing).
#pragma once

#include <queue>
#include <string>
#include <vector>

#include "workload/schedule.hpp"
#include "workload/sim.hpp"

namespace nfstrace {

struct EecsConfig {
  int users = 60;
  /// Peak-hour Poisson rates per user.
  double revalidationBurstsPeakHourly = 14.0;  // cache-check sweeps
  double editSavesPeakHourly = 2.4;
  double buildsPeakHourly = 0.35;
  double browsePeakHourly = 1.8;   // web pages cached to the home dir
  double appletChurnPeakHourly = 4.0;
  double logBurstsPeakHourly = 0.8;
  /// Night cron jobs for a subset of users (experiments, data crunching).
  double cronJobsPerNightPerUser = 0.25;
  int filesPerProject = 24;
  std::uint64_t seed = 4004;

  /// Load rates from a key=value file (users, revalidations_per_user_hour,
  /// edits_per_user_hour, builds_per_user_hour, browse_per_user_hour,
  /// applet_per_user_hour, log_bursts_per_user_hour, cron_per_user_night,
  /// files_per_project, seed); unset keys keep the defaults above, and an
  /// unknown key throws.
  static EecsConfig fromFile(const std::string& path);
};

class EecsWorkload {
 public:
  EecsWorkload(EecsConfig config, SimEnvironment& env);

  void setup(MicroTime t0);
  void run(MicroTime start, MicroTime end);

 private:
  enum class EventType : std::uint8_t {
    Revalidate,
    EditSave,
    Build,
    Browse,
    AppletChurn,
    LogBurst,
    CronJob,
  };
  struct Event {
    MicroTime t;
    EventType type;
    int user;
    bool operator>(const Event& o) const { return t > o.t; }
  };
  struct User {
    std::string home;
    FileHandle homeFh;
    FileHandle srcDirFh;
    FileHandle cacheDirFh;
    std::vector<std::string> sourceFiles;
    std::vector<std::string> cacheFiles;  // browser cache LRU
    FileHandle logFh;
    std::uint64_t logSize = 0;
    int appletCounter = 0;
    int cacheCounter = 0;
  };

  NfsClient& clientFor(int user) {
    return env_.client(user % env_.clientHostCount());
  }
  bool ensureHandles(NfsClient& client, MicroTime& now, User& u);
  void doRevalidate(MicroTime t, int user);
  void doEditSave(MicroTime t, int user);
  void doBuild(MicroTime t, int user);
  void doBrowse(MicroTime t, int user);
  void doAppletChurn(MicroTime t, int user);
  void doLogBurst(MicroTime t, int user);
  void doCronJob(MicroTime t, int user);
  void scheduleNext(EventType type, int user, MicroTime after, double rate);
  void scheduleCron(int user, MicroTime after);

  EecsConfig config_;
  SimEnvironment& env_;
  WeeklySchedule schedule_;
  Rng rng_;
  std::vector<User> users_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  MicroTime endTime_ = 0;
};

}  // namespace nfstrace
