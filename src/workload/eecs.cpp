#include "workload/eecs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/config.hpp"

namespace nfstrace {

EecsConfig EecsConfig::fromFile(const std::string& path) {
  ConfigFile file = ConfigFile::load(path);
  EecsConfig cfg;
  constexpr auto kIntMax =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max());
  cfg.users = static_cast<int>(
      file.getUnsigned("users", static_cast<std::uint64_t>(cfg.users),
                       kIntMax));
  cfg.revalidationBurstsPeakHourly = file.getDouble(
      "revalidations_per_user_hour", cfg.revalidationBurstsPeakHourly);
  cfg.editSavesPeakHourly =
      file.getDouble("edits_per_user_hour", cfg.editSavesPeakHourly);
  cfg.buildsPeakHourly =
      file.getDouble("builds_per_user_hour", cfg.buildsPeakHourly);
  cfg.browsePeakHourly =
      file.getDouble("browse_per_user_hour", cfg.browsePeakHourly);
  cfg.appletChurnPeakHourly =
      file.getDouble("applet_per_user_hour", cfg.appletChurnPeakHourly);
  cfg.logBurstsPeakHourly =
      file.getDouble("log_bursts_per_user_hour", cfg.logBurstsPeakHourly);
  cfg.cronJobsPerNightPerUser =
      file.getDouble("cron_per_user_night", cfg.cronJobsPerNightPerUser);
  cfg.filesPerProject = static_cast<int>(file.getUnsigned(
      "files_per_project", static_cast<std::uint64_t>(cfg.filesPerProject),
      kIntMax));
  cfg.seed = file.getUnsigned("seed", cfg.seed);
  file.rejectUnknownKeys();
  return cfg;
}

EecsWorkload::EecsWorkload(EecsConfig config, SimEnvironment& env)
    : config_(config),
      env_(env),
      schedule_(WeeklySchedule::eecs()),
      rng_(config_.seed) {}

void EecsWorkload::setup(MicroTime t0) {
  users_.resize(static_cast<std::size_t>(config_.users));
  InMemoryFs& fs = env_.fs();
  static const char* kSrcSuffixes[] = {".c", ".h", ".cc", ".tex", ".py"};
  for (int i = 0; i < config_.users; ++i) {
    User& u = users_[static_cast<std::size_t>(i)];
    std::uint32_t uid = 3000 + static_cast<std::uint32_t>(i);
    char name[32];
    std::snprintf(name, sizeof(name), "grad%03d", i);
    u.home = std::string("/eecs/") + name;
    fs.mkdirs(u.home, uid, uid, t0 - days(400));
    fs.mkfile(u.home + "/.cshrc", 1200, uid, uid, t0 - days(300));
    fs.mkfile(u.home + "/.emacs", 8 * 1024, uid, uid, t0 - days(100));

    fs.mkdirs(u.home + "/project", uid, uid, t0 - days(120));
    for (int f = 0; f < config_.filesPerProject; ++f) {
      char fname[48];
      std::snprintf(fname, sizeof(fname), "mod%02d%s", f,
                    kSrcSuffixes[f % 5]);
      u.sourceFiles.emplace_back(fname);
      fs.mkfile(u.home + "/project/" + fname,
                500 + rng_.below(40 * 1024), uid, uid,
                t0 - days(1) - static_cast<MicroTime>(rng_.below(100)) *
                                   kMicrosPerDay / 10);
    }
    fs.mkdirs(u.home + "/.netscape/cache", uid, uid, t0 - days(60));
    fs.mkfile(u.home + "/project/run.log", 20 * 1024, uid, uid, t0 - days(2));
    u.logSize = 20 * 1024;
    // Shared research data read by cron experiments.
    fs.mkfile(u.home + "/project/dataset.db",
              (4 + rng_.below(60)) * 1024 * 1024, uid, uid, t0 - days(15));
  }
}

void EecsWorkload::scheduleNext(EventType type, int user, MicroTime after,
                                double rate) {
  MicroTime t = schedule_.nextEvent(rng_, after, rate);
  if (t < endTime_) queue_.push({t, type, user});
}

void EecsWorkload::scheduleCron(int user, MicroTime after) {
  // Cron jobs fire in the small hours (2am-5am) with per-user probability.
  MicroTime nextNight = (after / kMicrosPerDay) * kMicrosPerDay +
                        kMicrosPerDay + hours(2);
  nextNight += static_cast<MicroTime>(rng_.uniform(0.0, 3.0) *
                                      static_cast<double>(kMicrosPerHour));
  if (nextNight < endTime_ && rng_.chance(config_.cronJobsPerNightPerUser)) {
    queue_.push({nextNight, EventType::CronJob, user});
  } else if (nextNight < endTime_) {
    queue_.push({nextNight, EventType::CronJob, -user - 1});  // skip marker
  }
}

void EecsWorkload::run(MicroTime start, MicroTime end) {
  endTime_ = end;
  for (int i = 0; i < config_.users; ++i) {
    scheduleNext(EventType::Revalidate, i, start,
                 config_.revalidationBurstsPeakHourly);
    scheduleNext(EventType::EditSave, i, start, config_.editSavesPeakHourly);
    scheduleNext(EventType::Build, i, start, config_.buildsPeakHourly);
    scheduleNext(EventType::Browse, i, start, config_.browsePeakHourly);
    scheduleNext(EventType::AppletChurn, i, start,
                 config_.appletChurnPeakHourly);
    scheduleNext(EventType::LogBurst, i, start, config_.logBurstsPeakHourly);
    scheduleCron(i, start);
  }
  while (!queue_.empty()) {
    Event ev = queue_.top();
    queue_.pop();
    switch (ev.type) {
      case EventType::Revalidate:
        doRevalidate(ev.t, ev.user);
        scheduleNext(EventType::Revalidate, ev.user, ev.t,
                     config_.revalidationBurstsPeakHourly);
        break;
      case EventType::EditSave:
        doEditSave(ev.t, ev.user);
        scheduleNext(EventType::EditSave, ev.user, ev.t,
                     config_.editSavesPeakHourly);
        break;
      case EventType::Build:
        doBuild(ev.t, ev.user);
        scheduleNext(EventType::Build, ev.user, ev.t,
                     config_.buildsPeakHourly);
        break;
      case EventType::Browse:
        doBrowse(ev.t, ev.user);
        scheduleNext(EventType::Browse, ev.user, ev.t,
                     config_.browsePeakHourly);
        break;
      case EventType::AppletChurn:
        doAppletChurn(ev.t, ev.user);
        scheduleNext(EventType::AppletChurn, ev.user, ev.t,
                     config_.appletChurnPeakHourly);
        break;
      case EventType::LogBurst:
        doLogBurst(ev.t, ev.user);
        scheduleNext(EventType::LogBurst, ev.user, ev.t,
                     config_.logBurstsPeakHourly);
        break;
      case EventType::CronJob: {
        int user = ev.user < 0 ? -ev.user - 1 : ev.user;
        if (ev.user >= 0) doCronJob(ev.t, ev.user);
        scheduleCron(user, ev.t);
        break;
      }
    }
  }
}

bool EecsWorkload::ensureHandles(NfsClient& client, MicroTime& now, User& u) {
  if (u.homeFh.len == 0) {
    auto fh = client.lookupPath(now, u.home);
    if (!fh) return false;
    u.homeFh = *fh;
  }
  if (u.srcDirFh.len == 0) {
    auto fh = client.lookupPath(now, u.home + "/project");
    if (!fh) return false;
    u.srcDirFh = *fh;
  }
  if (u.cacheDirFh.len == 0) {
    auto fh = client.lookupPath(now, u.home + "/.netscape/cache");
    if (!fh) return false;
    u.cacheDirFh = *fh;
  }
  if (u.logFh.len == 0) {
    auto fh = client.lookupPath(now, u.home + "/project/run.log");
    if (!fh) return false;
    u.logFh = *fh;
  }
  return true;
}

void EecsWorkload::doRevalidate(MicroTime t, int user) {
  // The desktop sweeps its working set checking whether cached copies are
  // still valid: lookup + getattr + access, almost never any data.
  User& u = users_[static_cast<std::size_t>(user)];
  MicroTime now = t;
  NfsClient& client = clientFor(user);
  client.setIdentity(3000 + static_cast<std::uint32_t>(user),
                     3000 + static_cast<std::uint32_t>(user));
  if (!ensureHandles(client, now, u)) return;

  // An `ls -l` of the project directory now and then (READDIRPLUS on
  // v3 clients, READDIR on v2).
  if (rng_.chance(0.2)) {
    client.readdir(now, u.srcDirFh, /*plus=*/true);
  }
  std::size_t sweep = 6 + rng_.below(16);
  for (std::size_t i = 0; i < sweep; ++i) {
    const auto& name = u.sourceFiles[rng_.below(u.sourceFiles.size())];
    auto fh = client.lookupPath(now, u.home + "/project/" + name);
    if (!fh) continue;
    auto attrs = client.getattr(now, *fh, rng_.chance(0.7));
    if (attrs) client.access(now, *fh);
    // Cache almost always valid: data read only occasionally.
    if (attrs && rng_.chance(0.03)) {
      client.readFile(now, *fh);
    }
  }
  // Research code over the shared dataset, two access shapes:
  //  * scans: a slice read sequentially with small record-skips;
  //  * queries: index-driven point lookups scattered across the file —
  //    the genuinely random accesses that put EECS near Roselli's NT
  //    workload (~60% of bytes accessed randomly, paper §5.1/Fig. 2).
  if (rng_.chance(0.16)) {
    if (auto dfh = client.lookupPath(now, u.home + "/project/dataset.db")) {
      auto dattrs = client.getattr(now, *dfh);
      if (dattrs && dattrs->size > (1 << 20)) {
        std::vector<NfsClient::Extent> extents;
        std::uint64_t fileBlocks = dattrs->size / kNfsBlockSize;
        if (rng_.chance(0.72)) {
          // Query pattern: scattered point reads.
          int lookups = 6 + static_cast<int>(rng_.below(14));
          for (int q = 0; q < lookups; ++q) {
            std::uint64_t block = rng_.below(fileBlocks);
            std::uint64_t len =
                (1 + rng_.below(3)) * static_cast<std::uint64_t>(
                                          kNfsBlockSize);
            extents.push_back({block * kNfsBlockSize, len});
          }
        } else {
          // Scan pattern: one slice with small skips.
          auto len = static_cast<std::uint64_t>(
              (64 + rng_.below(448)) * 1024);
          std::uint64_t maxStart =
              dattrs->size - std::min(dattrs->size, len);
          std::uint64_t pos =
              rng_.below(maxStart / kNfsBlockSize + 1) * kNfsBlockSize;
          std::uint64_t remaining = len;
          while (remaining > 0) {
            std::uint64_t chunk = std::min<std::uint64_t>(
                (1 + rng_.below(6)) * kNfsBlockSize, remaining);
            extents.push_back({pos, chunk});
            pos += chunk;
            remaining -= chunk;
            if (rng_.chance(0.3)) {
              pos += (1 + rng_.below(4)) * static_cast<std::uint64_t>(
                                               kNfsBlockSize);
            }
          }
        }
        client.readSegments(now, *dfh, extents);
      }
    }
  }
}

void EecsWorkload::doEditSave(MicroTime t, int user) {
  User& u = users_[static_cast<std::size_t>(user)];
  MicroTime now = t;
  NfsClient& client = clientFor(user);
  client.setIdentity(3000 + static_cast<std::uint32_t>(user),
                     3000 + static_cast<std::uint32_t>(user));
  if (!ensureHandles(client, now, u)) return;

  const auto& name = u.sourceFiles[rng_.below(u.sourceFiles.size())];
  auto fh = client.lookupPath(now, u.home + "/project/" + name);
  if (!fh) return;
  auto attrs = client.getattr(now, *fh, true);
  if (!attrs) return;
  client.readFile(now, *fh);

  // Editor autosave (#name#), then save-in-place and remove the autosave.
  std::string autosave = "#" + name + "#";
  if (auto afh = client.create(now, u.srcDirFh, autosave, false)) {
    client.writeRange(now, *afh, 0, std::max<std::uint64_t>(attrs->size, 512));
  }
  now += seconds(rng_.uniform(10.0, 120.0));
  auto newSize = static_cast<std::uint64_t>(
      std::max(300.0, static_cast<double>(attrs->size) *
                          rng_.uniform(0.95, 1.12)));
  client.writeRange(now, *fh, 0, newSize);
  if (newSize < attrs->size) client.truncate(now, *fh, newSize);
  client.remove(now, u.srcDirFh, autosave);
}

void EecsWorkload::doBuild(MicroTime t, int user) {
  User& u = users_[static_cast<std::size_t>(user)];
  MicroTime now = t;
  NfsClient& client = clientFor(user);
  client.setIdentity(3000 + static_cast<std::uint32_t>(user),
                     3000 + static_cast<std::uint32_t>(user));
  if (!ensureHandles(client, now, u)) return;

  // make: stat everything, recompile a subset, relink.
  std::uint64_t binSize = 0;
  for (const auto& name : u.sourceFiles) {
    auto fh = client.lookupPath(now, u.home + "/project/" + name);
    if (!fh) continue;
    auto attrs = client.getattr(now, *fh, true);
    if (!attrs) continue;
    if (!rng_.chance(0.35)) continue;  // up to date
    client.readFile(now, *fh);
    // Object file is created fresh each time (unlink + create), so its
    // blocks die by deletion on the next build.
    std::string obj = name.substr(0, name.rfind('.')) + ".o";
    client.remove(now, u.srcDirFh, obj);  // may fail: first build
    if (auto ofh = client.create(now, u.srcDirFh, obj, false)) {
      std::uint64_t osize = attrs->size * 2 + 2048;
      client.writeRange(now, *ofh, 0, osize);
      binSize += osize;
    }
    now += seconds(rng_.uniform(0.3, 3.0));
  }
  if (binSize > 0) {
    client.remove(now, u.srcDirFh, "prog");
    if (auto bfh = client.create(now, u.srcDirFh, "prog", false)) {
      client.writeRange(now, *bfh, 0, binSize);
    }
  }
}

void EecsWorkload::doBrowse(MicroTime t, int user) {
  User& u = users_[static_cast<std::size_t>(user)];
  MicroTime now = t;
  NfsClient& client = clientFor(user);
  client.setIdentity(3000 + static_cast<std::uint32_t>(user),
                     3000 + static_cast<std::uint32_t>(user));
  if (!ensureHandles(client, now, u)) return;

  // A browsing burst writes a handful of pages + assets into the cache
  // directory in the user's home (the paper's "somewhat perverse" default).
  std::size_t objects = 2 + rng_.below(8);
  for (std::size_t i = 0; i < objects; ++i) {
    char cname[32];
    std::snprintf(cname, sizeof(cname), "cache%08x",
                  0x10000 * user + ++u.cacheCounter);
    if (auto cfh = client.create(now, u.cacheDirFh, cname, false)) {
      auto size = static_cast<std::uint64_t>(std::clamp(
          rng_.lognormal(std::log(12.0 * 1024), 1.1), 400.0,
          512.0 * 1024));
      client.writeRange(now, *cfh, 0, size);
      u.cacheFiles.emplace_back(cname);
    }
    now += seconds(rng_.uniform(0.5, 6.0));
    // Revisits hit the cache: read an old object occasionally.
    if (!u.cacheFiles.empty() && rng_.chance(0.15)) {
      const auto& old = u.cacheFiles[rng_.below(u.cacheFiles.size())];
      if (auto ofh = client.lookupPath(now, u.home + "/.netscape/cache/" + old)) {
        client.readFile(now, *ofh);
      }
    }
  }
  // LRU eviction keeps the cache bounded.
  while (u.cacheFiles.size() > 80) {
    client.remove(now, u.cacheDirFh, u.cacheFiles.front());
    u.cacheFiles.erase(u.cacheFiles.begin());
  }
}

void EecsWorkload::doAppletChurn(MicroTime t, int user) {
  // Window managers/desktops create and delete small Applet_*_Extern
  // files constantly (~10,000/day across EECS in the paper).
  User& u = users_[static_cast<std::size_t>(user)];
  MicroTime now = t;
  NfsClient& client = clientFor(user);
  client.setIdentity(3000 + static_cast<std::uint32_t>(user),
                     3000 + static_cast<std::uint32_t>(user));
  if (!ensureHandles(client, now, u)) return;

  int churn = 1 + static_cast<int>(rng_.below(3));
  for (int i = 0; i < churn; ++i) {
    char aname[48];
    std::snprintf(aname, sizeof(aname), "Applet_%d_Extern",
                  1000 * user + ++u.appletCounter);
    if (auto afh = client.create(now, u.homeFh, aname, false)) {
      client.writeRange(now, *afh, 0, 200 + rng_.below(2000));
      now += seconds(rng_.uniform(1.0, 30.0));
      client.remove(now, u.homeFh, aname);
    }
  }
}

void EecsWorkload::doLogBurst(MicroTime t, int user) {
  // Unbuffered log/index appends: the tail block is rewritten by every
  // small append, so most of these blocks die in well under a second —
  // the source of EECS's sub-second block-lifetime mode.
  User& u = users_[static_cast<std::size_t>(user)];
  MicroTime now = t;
  NfsClient& client = clientFor(user);
  client.setIdentity(3000 + static_cast<std::uint32_t>(user),
                     3000 + static_cast<std::uint32_t>(user));
  if (!ensureHandles(client, now, u)) return;

  std::size_t appends = 15 + rng_.below(60);
  for (std::size_t i = 0; i < appends; ++i) {
    auto rec = 80 + rng_.below(700);
    client.writeRange(now, u.logFh, u.logSize, rec, /*stable=*/true);
    u.logSize += rec;
    now += static_cast<MicroTime>(rng_.exponential(120'000.0));  // ~0.12 s
  }
  // Monitoring tools tail the log: a short read at the end of the file.
  if (rng_.chance(0.25) && u.logSize > 16 * 1024) {
    client.readRange(now, u.logFh, u.logSize - 16 * 1024, 16 * 1024);
  }
  if (u.logSize > 6 * 1024 * 1024) {
    client.truncate(now, u.logFh, 0);
    u.logSize = 0;
  }
}

void EecsWorkload::doCronJob(MicroTime t, int user) {
  // Night batch work: scan the dataset sequentially, write a processed
  // copy, delete the previous output.
  User& u = users_[static_cast<std::size_t>(user)];
  MicroTime now = t;
  NfsClient& client = clientFor(user);
  client.setIdentity(3000 + static_cast<std::uint32_t>(user),
                     3000 + static_cast<std::uint32_t>(user));
  if (!ensureHandles(client, now, u)) return;

  auto dfh = client.lookupPath(now, u.home + "/project/dataset.db");
  if (!dfh) return;
  auto attrs = client.getattr(now, *dfh, true);
  if (!attrs) return;
  client.readFile(now, *dfh);

  client.remove(now, u.srcDirFh, "results.out");
  if (auto rfh = client.create(now, u.srcDirFh, "results.out", false)) {
    // Data processing emits records bucket-by-bucket: bursts of
    // sequential output separated by seeks across the output file — the
    // most seek-prone writes in the trace (paper Fig. 5, EECS writes).
    std::uint64_t total = attrs->size / 2 + 4096;
    std::vector<NfsClient::Extent> extents;
    std::uint64_t written = 0;
    std::uint64_t pos = 0;
    while (written < total) {
      std::uint64_t stretch = std::min<std::uint64_t>(
          (1 + rng_.below(4)) * kNfsBlockSize, total - written);
      extents.push_back({pos, stretch});
      written += stretch;
      if (rng_.chance(0.8)) {
        pos = rng_.below(total / kNfsBlockSize + 1) * kNfsBlockSize;
      } else {
        pos += stretch;
      }
    }
    client.writeSegments(now, *rfh, extents);
  }
}

}  // namespace nfstrace
