#include "workload/campus.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/config.hpp"

namespace nfstrace {

CampusConfig CampusConfig::fromFile(const std::string& path) {
  ConfigFile file = ConfigFile::load(path);
  CampusConfig cfg;
  constexpr auto kIntMax =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max());
  cfg.users = static_cast<int>(
      file.getUnsigned("users", static_cast<std::uint64_t>(cfg.users),
                       kIntMax));
  cfg.deliveriesPerUserPeakHourly = file.getDouble(
      "deliveries_per_user_hour", cfg.deliveriesPerUserPeakHourly);
  cfg.popChecksPerUserPeakHourly = file.getDouble(
      "pop_checks_per_user_hour", cfg.popChecksPerUserPeakHourly);
  cfg.sessionsPerUserPeakHourly = file.getDouble(
      "sessions_per_user_hour", cfg.sessionsPerUserPeakHourly);
  cfg.mailboxMedianBytes =
      file.getDouble("mailbox_median_kb",
                     cfg.mailboxMedianBytes / 1024.0) * 1024.0;
  cfg.messageMedianBytes =
      file.getDouble("message_median_bytes", cfg.messageMedianBytes);
  cfg.sessionMeanLength = minutes(file.getDouble(
      "session_mean_minutes",
      toSeconds(cfg.sessionMeanLength) / 60.0));
  cfg.expungeInterval = minutes(file.getDouble(
      "expunge_minutes", toSeconds(cfg.expungeInterval) / 60.0));
  cfg.seed = file.getUnsigned("seed", cfg.seed);
  file.rejectUnknownKeys();
  return cfg;
}

CampusWorkload::CampusWorkload(CampusConfig config, SimEnvironment& env)
    : config_(config),
      env_(env),
      schedule_(WeeklySchedule::campus()),
      rng_(config_.seed) {}

void CampusWorkload::setup(MicroTime t0) {
  users_.resize(static_cast<std::size_t>(config_.users));
  InMemoryFs& fs = env_.fs();
  for (int i = 0; i < config_.users; ++i) {
    User& u = users_[static_cast<std::size_t>(i)];
    std::uint32_t uid = 2000 + static_cast<std::uint32_t>(i);
    char name[32];
    std::snprintf(name, sizeof(name), "u%04d", i);
    u.home = std::string("/home02/") + name;

    // Setup state is written directly to the file system (it predates the
    // capture); only subsequent activity appears in the trace.
    fs.mkdirs(u.home, uid, uid, t0 - days(30));
    auto inboxSize = static_cast<std::uint64_t>(std::min(
        rng_.lognormal(std::log(config_.mailboxMedianBytes),
                       config_.mailboxSigma),
        30.0 * 1024 * 1024));
    fs.mkfile(u.home + "/.inbox", inboxSize, uid, uid, t0 - days(1));
    fs.mkfile(u.home + "/.cshrc", 900, uid, uid, t0 - days(200));
    fs.mkfile(u.home + "/.login", 700, uid, uid, t0 - days(200));
    fs.mkfile(u.home + "/.pinerc",
              11 * 1024 + rng_.below(15 * 1024), uid, uid, t0 - days(40));
    fs.mkfile(u.home + "/.addressbook", 2048, uid, uid, t0 - days(60));
    fs.mkfile(u.home + "/.signature", 256, uid, uid, t0 - days(300));
    // A couple of saved-mail folders.
    fs.mkdirs(u.home + "/mail", uid, uid, t0 - days(90));
    u.folderSize = static_cast<std::uint64_t>(
        rng_.lognormal(std::log(500.0 * 1024), 1.0));
    fs.mkfile(u.home + "/mail/saved.mbox", u.folderSize, uid, uid,
              t0 - days(10));
  }
}

void CampusWorkload::scheduleNext(EventType type, int user, MicroTime after,
                                  double rate) {
  MicroTime t = schedule_.nextEvent(rng_, after, rate);
  if (t < endTime_) queue_.push({t, type, user});
}

void CampusWorkload::run(MicroTime start, MicroTime end) {
  endTime_ = end;
  for (int i = 0; i < config_.users; ++i) {
    scheduleNext(EventType::Delivery, i, start,
                 config_.deliveriesPerUserPeakHourly);
    scheduleNext(EventType::PopCheck, i, start,
                 config_.popChecksPerUserPeakHourly);
    scheduleNext(EventType::SessionStart, i, start,
                 config_.sessionsPerUserPeakHourly);
  }
  while (!queue_.empty()) {
    Event ev = queue_.top();
    queue_.pop();
    switch (ev.type) {
      case EventType::Delivery:
        doDelivery(ev.t, ev.user);
        scheduleNext(EventType::Delivery, ev.user, ev.t,
                     config_.deliveriesPerUserPeakHourly);
        break;
      case EventType::PopCheck:
        doPopCheck(ev.t, ev.user);
        scheduleNext(EventType::PopCheck, ev.user, ev.t,
                     config_.popChecksPerUserPeakHourly);
        break;
      case EventType::SessionStart:
        doSessionStart(ev.t, ev.user);
        scheduleNext(EventType::SessionStart, ev.user, ev.t,
                     config_.sessionsPerUserPeakHourly);
        break;
      case EventType::SessionStep:
        doSessionStep(ev.t, ev.user);
        break;
    }
  }
}

bool CampusWorkload::ensureHandles(NfsClient& client, MicroTime& now,
                                   User& u) {
  // Handles are server-global; any client may resolve them.  The LOOKUP
  // traffic this generates is part of the workload.
  if (u.homeFh.len == 0) {
    auto fh = client.lookupPath(now, u.home);
    if (!fh) return false;
    u.homeFh = *fh;
  }
  if (u.inboxFh.len == 0) {
    auto fh = client.lookupPath(now, u.home + "/.inbox");
    if (!fh) return false;
    u.inboxFh = *fh;
  }
  if (u.folderFh.len == 0) {
    auto fh = client.lookupPath(now, u.home + "/mail/saved.mbox");
    if (!fh) return false;
    u.folderFh = *fh;
  }
  return true;
}

bool CampusWorkload::withLock(NfsClient& client, MicroTime& now, User& u,
                              const std::function<void(MicroTime&)>& body) {
  auto lock = client.create(now, u.homeFh, ".inbox.lock", /*exclusive=*/true);
  if (!lock) return false;  // somebody else holds it; skip this round
  body(now);
  client.remove(now, u.homeFh, ".inbox.lock");
  return true;
}

void CampusWorkload::doDelivery(MicroTime t, int user) {
  User& u = users_[static_cast<std::size_t>(user)];
  MicroTime now = t;
  NfsClient& client = smtp();
  client.setIdentity(2000 + static_cast<std::uint32_t>(user),
                     2000 + static_cast<std::uint32_t>(user));
  if (!ensureHandles(client, now, u)) return;
  auto msgSize = static_cast<std::uint64_t>(std::clamp(
      rng_.lognormal(std::log(config_.messageMedianBytes),
                     config_.messageSigma),
      300.0, 2.0 * 1024 * 1024));

  // Sendmail's NFS-safe hitching-post lock: create a uniquely-named
  // zero-length file, hard-link it to the dotlock name, and delete the
  // hitching post.  The unique names are why lock files make up half the
  // files referenced on CAMPUS.
  // The MTA cycles through a small set of per-user hitching names (its
  // queue-runner pids), so each user accumulates a handful of distinct
  // lock names -- about half of all files referenced on CAMPUS.
  char hitch[40];
  std::snprintf(hitch, sizeof(hitch), "lk%04d.%d.lock", user,
                ++lockCounter_ % 4);
  auto hfh = client.create(now, u.homeFh, hitch, /*exclusive=*/true);
  if (!hfh) return;
  bool locked = client.link(now, *hfh, u.homeFh, ".inbox.lock");
  client.remove(now, u.homeFh, hitch);
  if (!locked) {
    ++lockContention_;
    return;  // retried by the MTA queue on a later event
  }
  // Sendmail appends synchronously so the message is durable.
  client.append(now, u.inboxFh, msgSize, /*stable=*/true);
  client.remove(now, u.homeFh, ".inbox.lock");
  ++deliveries_;
}

void CampusWorkload::doPopCheck(MicroTime t, int user) {
  User& u = users_[static_cast<std::size_t>(user)];
  MicroTime now = t;
  NfsClient& client = pop();
  client.setIdentity(2000 + static_cast<std::uint32_t>(user),
                     2000 + static_cast<std::uint32_t>(user));
  if (!ensureHandles(client, now, u)) return;
  withLock(client, now, u, [&](MicroTime& inner) {
    rescanInbox(client, inner, u, &u.popLastMtime);
  });
  ++popChecks_;
}

void CampusWorkload::rescanInbox(NfsClient& client, MicroTime& now, User& u,
                                 MicroTime* mtimeSlot) {
  auto attrs = client.getattr(now, u.inboxFh, /*forceFresh=*/true);
  if (!attrs) return;
  MicroTime mtime = attrs->mtime.toMicro();
  if (*mtimeSlot == mtime) return;  // nothing new
  // The flat-file inbox was modified: NFS's file-granularity caching
  // invalidates the whole cached copy, and the mail client re-scans the
  // file front to back.  The scan is mostly sequential but hops over the
  // occasional already-parsed message body: short forward skips of a few
  // blocks — the paper's "sequential sub-runs separated by small seeks",
  // invisible to the loose (k=10) metric but not the strict one.
  std::vector<NfsClient::Extent> extents;
  std::uint64_t off = 0;
  while (off < attrs->size) {
    std::uint64_t chunk =
        (2 + rng_.below(9)) * static_cast<std::uint64_t>(kNfsBlockSize);
    chunk = std::min(chunk, attrs->size - off);
    extents.push_back({off, chunk});
    off += chunk;
    if (rng_.chance(0.35)) {
      off += (1 + rng_.below(3)) * static_cast<std::uint64_t>(kNfsBlockSize);
    }
  }
  client.readSegments(now, u.inboxFh, extents);
  *mtimeSlot = mtime;
}

void CampusWorkload::expungeInbox(NfsClient& client, MicroTime& now,
                                  User& u) {
  auto attrs = client.getattr(now, u.inboxFh, /*forceFresh=*/true);
  if (!attrs || attrs->size == 0) return;
  // Batch message removal: the client rewrites the surviving mailbox
  // contents in place and truncates the thin tail (>99% of CAMPUS block
  // deaths are overwrites).  The rewrite is not one smooth stream: the
  // client copies a stretch of surviving messages, then seeks — forward
  // or backward — to the next region it is compacting, so long write
  // runs average a sequentiality metric around 0.6 (paper Fig. 5).
  auto newSize = static_cast<std::uint64_t>(
      static_cast<double>(attrs->size) * rng_.uniform(0.96, 1.0));
  // Partition the surviving bytes into short stretches and write each
  // exactly once, but in a locally-shuffled order: the client copies a
  // few sequential blocks, then seeks forward or backward to the next
  // region it is compacting.  Every block is written once per expunge
  // (no intra-burst overwrites), which keeps block lifetimes tied to the
  // *inter*-expunge interval, as the paper observes.
  std::vector<NfsClient::Extent> extents;
  std::uint64_t pos = 0;
  while (pos < newSize) {
    std::uint64_t stretch =
        (2 + rng_.below(4)) * static_cast<std::uint64_t>(kNfsBlockSize);
    stretch = std::min(stretch, newSize - pos);
    extents.push_back({pos, stretch});
    pos += stretch;
  }
  // Bounded shuffle: displace stretches, creating seeks of tens of
  // blocks in both directions without double-writing any block.
  for (std::size_t i = 0; i + 1 < extents.size(); ++i) {
    std::size_t j = i + rng_.below(std::min<std::uint64_t>(
                            12, extents.size() - i));
    std::swap(extents[i], extents[j]);
  }
  // The rewrite is paced by the mail client parsing and the disk, not by
  // the wire: it dribbles out in bursts over hundreds of milliseconds,
  // so its seeks span any reasonable reorder window.
  for (std::size_t g = 0; g < extents.size(); g += 8) {
    std::vector<NfsClient::Extent> group(
        extents.begin() + static_cast<std::ptrdiff_t>(g),
        extents.begin() + static_cast<std::ptrdiff_t>(
                              std::min(g + 8, extents.size())));
    client.writeSegments(now, u.inboxFh, group);
    now += 6'000 + static_cast<MicroTime>(rng_.below(8'000));
  }
  if (newSize < attrs->size) client.truncate(now, u.inboxFh, newSize);
  u.session.lastSeenMtime = -1;  // our own write moved the mtime
}

void CampusWorkload::readFolderMessage(NfsClient& client, MicroTime& now,
                                        User& u) {
  if (u.folderSize < 64 * 1024) return;
  // Browse a few saved messages in one sitting: each message is read
  // sequentially, but the messages sit at scattered offsets, so the
  // bursts form runs the entire/sequential/random taxonomy calls random —
  // while actually being "long, completely sequential sub-runs separated
  // by seeks" (§5.1, §6.4).
  std::vector<NfsClient::Extent> extents;
  int messages = 1 + static_cast<int>(rng_.below(5));
  for (int m = 0; m < messages; ++m) {
    auto msgLen = static_cast<std::uint64_t>(std::clamp(
        rng_.lognormal(std::log(12.0 * 1024), 0.8), 2048.0, 128.0 * 1024));
    std::uint64_t maxStart = u.folderSize - std::min(u.folderSize, msgLen);
    std::uint64_t start = rng_.below(maxStart / kNfsBlockSize + 1) *
                          kNfsBlockSize;
    extents.push_back({start, msgLen});
  }
  client.readSegments(now, u.folderFh, extents);
}

void CampusWorkload::saveDotFiles(NfsClient& client, MicroTime& now,
                                  User& u) {
  // Pine rewrites its config and addressbook at exit: small whole-file
  // writes (the paper's 'entire' write runs).
  if (rng_.chance(0.45)) {
    if (auto fh = client.lookupPath(now, u.home + "/.pinerc")) {
      auto attrs = client.getattr(now, *fh);
      std::uint64_t size = attrs ? attrs->size : 12 * 1024;
      client.writeRange(now, *fh, 0, size);
    }
  }
  if (rng_.chance(0.25)) {
    if (auto fh = client.lookupPath(now, u.home + "/.addressbook")) {
      client.writeRange(now, *fh, 0, 2048);
    }
  }
}

void CampusWorkload::composeMessage(NfsClient& client, MicroTime& now,
                                    User& u) {
  char name[32];
  std::snprintf(name, sizeof(name), "pico.%06d", ++composeCounter_);
  auto fh = client.create(now, u.homeFh, name, /*exclusive=*/false);
  if (!fh) return;
  auto size = static_cast<std::uint64_t>(std::clamp(
      rng_.lognormal(std::log(2000.0), 0.9), 100.0, 64.0 * 1024));
  // The composer saves the draft a few times as the user types.
  int saves = 1 + static_cast<int>(rng_.below(3));
  for (int i = 0; i < saves; ++i) {
    auto part = size * static_cast<std::uint64_t>(i + 1) /
                static_cast<std::uint64_t>(saves);
    client.writeRange(now, *fh, 0, std::max<std::uint64_t>(part, 100));
    now += seconds(rng_.uniform(5.0, 40.0));
  }
  client.readFile(now, *fh);  // the mailer reads the draft to send it
  client.remove(now, u.homeFh, name);
}

void CampusWorkload::doSessionStart(MicroTime t, int user) {
  User& u = users_[static_cast<std::size_t>(user)];
  if (u.session.active) return;  // already logged in
  MicroTime now = t;
  NfsClient& client = login();
  client.setIdentity(2000 + static_cast<std::uint32_t>(user),
                     2000 + static_cast<std::uint32_t>(user));
  if (!ensureHandles(client, now, u)) return;

  // Login: shell dot files.
  for (const char* dot : {".cshrc", ".login"}) {
    if (auto fh = client.lookupPath(now, u.home + "/" + dot)) {
      client.readFile(now, *fh);
    }
  }
  // Pine startup: config, then a locked scan of the inbox.
  if (auto fh = client.lookupPath(now, u.home + "/.pinerc")) {
    client.readFile(now, *fh);
  }
  u.session.lastSeenMtime = -1;
  withLock(client, now, u, [&](MicroTime& inner) {
    rescanInbox(client, inner, u, &u.session.lastSeenMtime);
  });

  MicroTime length = static_cast<MicroTime>(
      rng_.exponential(static_cast<double>(config_.sessionMeanLength)));
  length = std::clamp<MicroTime>(length, minutes(5), hours(2));
  u.session.active = true;
  u.session.endTime = now + length;
  u.session.nextRescan = now + config_.rescanInterval;
  u.session.nextExpunge =
      now + static_cast<MicroTime>(rng_.exponential(
                static_cast<double>(config_.expungeInterval)));
  u.session.composePending =
      static_cast<int>(rng_.poisson(config_.composePerSession));
  ++sessions_;
  queue_.push({std::min({u.session.nextRescan, u.session.nextExpunge,
                         u.session.endTime}),
               EventType::SessionStep, user});
}

void CampusWorkload::doSessionStep(MicroTime t, int user) {
  User& u = users_[static_cast<std::size_t>(user)];
  if (!u.session.active) return;
  MicroTime now = t;
  NfsClient& client = login();
  client.setIdentity(2000 + static_cast<std::uint32_t>(user),
                     2000 + static_cast<std::uint32_t>(user));

  if (t >= u.session.endTime) {
    // Exit: final expunge (mailbox rewrite) under the lock, config saves,
    // then logout.
    withLock(client, now, u, [&](MicroTime& inner) {
      expungeInbox(client, inner, u);
    });
    saveDotFiles(client, now, u);
    u.session.active = false;
    return;
  }

  if (t >= u.session.nextExpunge) {
    withLock(client, now, u, [&](MicroTime& inner) {
      expungeInbox(client, inner, u);
    });
    u.session.nextExpunge =
        now + static_cast<MicroTime>(rng_.exponential(
                  static_cast<double>(config_.expungeInterval)));
  } else if (t >= u.session.nextRescan) {
    withLock(client, now, u, [&](MicroTime& inner) {
      rescanInbox(client, inner, u, &u.session.lastSeenMtime);
    });
    if (u.session.composePending > 0 && rng_.chance(0.35)) {
      composeMessage(client, now, u);
      --u.session.composePending;
    }
    // Users browse saved mail between inbox checks.
    if (rng_.chance(0.5)) readFolderMessage(client, now, u);
    // Viewing or extracting an attachment writes a whole new file into
    // the home directory (§6.1.2: "viewing or extracting attachments may
    // also create files") — an 'entire' write run.
    if (rng_.chance(0.12)) {
      char aname[40];
      std::snprintf(aname, sizeof(aname), "attach%05d.dat",
                    ++composeCounter_);
      if (auto afh = client.create(now, u.homeFh, aname, false)) {
        auto size = static_cast<std::uint64_t>(std::clamp(
            rng_.lognormal(std::log(14.0 * 1024), 1.0), 2048.0,
            1.5 * 1024 * 1024));
        client.writeRange(now, *afh, 0, size);
      }
    }
    u.session.nextRescan = now + config_.rescanInterval;
  }

  queue_.push({std::min({u.session.nextRescan, u.session.nextExpunge,
                         u.session.endTime}),
               EventType::SessionStep, user});
}

}  // namespace nfstrace
