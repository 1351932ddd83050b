// The Namespace against the handle-keyed hierarchy it replaced.
//
// ReferencePathReconstructor below is the original PathReconstructor,
// keyed on whole FileHandles and "dirhex/name" strings, with one rule
// added: a RENAME onto another live name unlinks the displaced file (and
// drops the target edge even when the source edge is unknown), as
// rename(2) replaces the target.  On randomized streams of LOOKUP,
// CREATE, MKDIR, SYMLINK, MKNOD, REMOVE, RMDIR and RENAME (failed and
// missing replies, "." and "..", empty handles and names, renames onto
// themselves and onto live names) and data ops, the Namespace must agree
// with it after every record: the handle each record unlinks, every
// handle's parent-known bit and last name, and knownFiles.  Both entry
// points are checked: HandleIds record by record, and the reader's
// batches through Namespace::apply(TraceBatch&).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/namespace.hpp"
#include "trace/tracefile.hpp"
#include "util/rng.hpp"

namespace nfstrace {
namespace {

// -------------------------------------------------------- the reference

class ReferencePathReconstructor {
 public:
  /// Learn from one record; returns the handle it unlinks (the empty
  /// handle when none).
  FileHandle observe(const TraceRecord& rec) {
    FileHandle unlinked;
    switch (rec.op) {
      case NfsOp::Lookup:
      case NfsOp::Create:
      case NfsOp::Mkdir:
      case NfsOp::Symlink:
      case NfsOp::Mknod:
        if (rec.hasReply && rec.hasResFh && rec.status == NfsStat::Ok) {
          learn(rec.fh, rec.name, rec.resFh);
        }
        break;
      case NfsOp::Rename:
        if (rec.hasReply && rec.status == NfsStat::Ok) {
          // The displacement rule: another file at (fh2, name2) loses
          // its edges.
          auto displaced = childOf(rec.fh2, rec.name2);
          if (displaced && displaced != childOf(rec.fh, rec.name)) {
            unlinked = *displaced;
            up_.erase(*displaced);
            down_.erase(edgeKey(rec.fh2, rec.name2));
          }
          // Move the edge: the object formerly at (fh, name) is now at
          // (fh2, name2).
          auto it = down_.find(edgeKey(rec.fh, rec.name));
          if (it != down_.end()) {
            FileHandle child = it->second;
            down_.erase(it);
            learn(rec.fh2, rec.name2, child);
          }
        }
        break;
      case NfsOp::Remove:
      case NfsOp::Rmdir:
        if (rec.hasReply && rec.status == NfsStat::Ok) {
          auto it = down_.find(edgeKey(rec.fh, rec.name));
          if (it != down_.end()) {
            unlinked = it->second;
            up_.erase(it->second);
            down_.erase(it);
          }
        }
        break;
      default:
        break;
    }
    return unlinked;
  }

  std::optional<std::string> nameOf(const FileHandle& fh) const {
    auto it = up_.find(fh);
    if (it == up_.end()) return std::nullopt;
    return it->second.name;
  }
  std::optional<FileHandle> childOf(const FileHandle& dir,
                                    const std::string& name) const {
    auto it = down_.find(edgeKey(dir, name));
    if (it == down_.end()) return std::nullopt;
    return it->second;
  }
  bool parentKnown(const FileHandle& fh) const { return up_.count(fh) > 0; }
  std::size_t knownFiles() const { return up_.size(); }

  /// Every (dir, name) edge, for the generator to aim at.
  std::vector<std::pair<FileHandle, std::string>> edges() const {
    std::vector<std::pair<FileHandle, std::string>> out;
    for (const auto& [key, child] : down_) {
      auto slash = key.find('/');
      out.emplace_back(FileHandle::fromHex(key.substr(0, slash)),
                       key.substr(slash + 1));
    }
    return out;
  }

 private:
  struct Edge {
    FileHandle parent;
    std::string name;
  };
  static std::string edgeKey(const FileHandle& dir, const std::string& name) {
    return dir.toHex() + "/" + name;
  }
  void learn(const FileHandle& parent, const std::string& name,
             const FileHandle& child) {
    if (child.len == 0 || parent.len == 0 || name.empty()) return;
    if (name == "." || name == "..") return;
    up_[child] = {parent, name};
    down_[edgeKey(parent, name)] = child;
  }

  // Ordered maps keep edges() deterministic.
  std::map<FileHandle, Edge> up_;
  std::map<std::string, FileHandle> down_;  // dirhex/name -> child
};

// --------------------------------------------------------- the streams

constexpr int kStreams = 40;
constexpr std::size_t kRecords = 600;

/// A small pool of handles (one of them empty) and names ("", ".",
/// ".." among them), so edges collide, move and die often.
const std::vector<FileHandle>& handlePool() {
  static const std::vector<FileHandle> pool = [] {
    std::vector<FileHandle> p{FileHandle{}};
    for (std::uint64_t i = 1; i <= 12; ++i) {
      p.push_back(FileHandle::make(3, i, 1));
    }
    return p;
  }();
  return pool;
}
const std::vector<std::string> kNames = {"",  ".", "..", "a", "b",
                                         "c", "d", "e",  "f"};

FileHandle pickHandle(Rng& rng) {
  const auto& pool = handlePool();
  if (rng.chance(0.05)) return pool[0];
  return pool[1 + rng.below(pool.size() - 1)];
}
std::string pickName(Rng& rng) {
  if (rng.chance(0.08)) return kNames[rng.below(3)];
  return kNames[3 + rng.below(kNames.size() - 3)];
}

TraceRecord randomRecord(Rng& rng, MicroTime ts,
                         const ReferencePathReconstructor& ref) {
  static const NfsOp kOps[] = {
      NfsOp::Lookup, NfsOp::Lookup, NfsOp::Create, NfsOp::Create,
      NfsOp::Mkdir,  NfsOp::Symlink, NfsOp::Mknod, NfsOp::Remove,
      NfsOp::Remove, NfsOp::Rmdir,  NfsOp::Rename, NfsOp::Rename,
      NfsOp::Rename, NfsOp::Read,   NfsOp::Write,  NfsOp::Getattr,
  };
  TraceRecord r;
  r.ts = ts;
  r.xid = static_cast<std::uint32_t>(rng.next());
  r.op = kOps[rng.below(std::size(kOps))];
  r.fh = pickHandle(rng);
  if (r.hasName()) r.name = pickName(rng);
  const auto edges = ref.edges();
  if ((r.op == NfsOp::Remove || r.op == NfsOp::Rmdir ||
       r.op == NfsOp::Rename) &&
      !edges.empty() && rng.chance(0.6)) {
    // Aim at a live edge.
    const auto& [dir, name] = edges[rng.below(edges.size())];
    r.fh = dir;
    r.name = name;
  }
  if (r.op == NfsOp::Rename) {
    double kind = rng.uniform();
    if (kind < 0.15) {  // onto itself
      r.fh2 = r.fh;
      r.name2 = r.name;
    } else if (kind < 0.55 && !edges.empty()) {  // onto a live name
      const auto& [dir, name] = edges[rng.below(edges.size())];
      r.fh2 = dir;
      r.name2 = name;
    } else {
      r.fh2 = pickHandle(rng);
      r.name2 = pickName(rng);
    }
  }
  if (r.op == NfsOp::Read || r.op == NfsOp::Write) {
    r.offset = rng.below(64) * 8192;
    r.count = 8192;
  }
  if (rng.chance(0.92)) {
    r.hasReply = true;
    r.replyTs = ts + 100;
    r.status = rng.chance(0.85) ? NfsStat::Ok : NfsStat::ErrNoEnt;
    if (r.op == NfsOp::Read || r.op == NfsOp::Write) r.retCount = r.count;
    bool makes = r.op == NfsOp::Lookup || r.op == NfsOp::Create ||
                 r.op == NfsOp::Mkdir || r.op == NfsOp::Symlink ||
                 r.op == NfsOp::Mknod;
    if (makes && r.status == NfsStat::Ok && rng.chance(0.9)) {
      r.hasResFh = true;
      r.resFh = pickHandle(rng);
    }
  }
  return r;
}

// ------------------------------------------------------ the comparison

/// Handle -> id for the ids a HandleIds has handed out so far.
std::map<FileHandle, std::uint32_t> idsByHandle(const HandleIds& ids) {
  std::map<FileHandle, std::uint32_t> out;
  const auto& handles = ids.handles();
  for (std::uint32_t id = 0; id < handles.size(); ++id) {
    out.emplace(handles[id], id);
  }
  return out;
}

TEST(Namespace, MatchesReferenceRecordByRecord) {
  Rng rng(7);
  std::uint64_t unlinks = 0, displaced = 0;
  for (int s = 0; s < kStreams; ++s) {
    ReferencePathReconstructor ref;
    HandleIds ids;
    Namespace ns;
    MicroTime ts = 0;
    for (std::size_t i = 0; i < kRecords; ++i) {
      ts += static_cast<MicroTime>(rng.below(1000));
      const TraceRecord r = randomRecord(rng, ts, ref);
      SCOPED_TRACE("stream " + std::to_string(s) + " record " +
                   std::to_string(i) + ": " + formatRecord(r));
      const bool displacing = r.op == NfsOp::Rename && r.hasReply &&
                              r.status == NfsStat::Ok &&
                              ref.childOf(r.fh2, r.name2) &&
                              ref.childOf(r.fh2, r.name2) !=
                                  ref.childOf(r.fh, r.name);
      const FileHandle want = ref.observe(r);
      const RecordIds id = ids.of(r);
      const std::uint32_t got = ns.apply(r, id);
      ASSERT_EQ(ids.handles()[got], want);
      if (got != 0) ++unlinks;
      if (displacing) ++displaced;
      ASSERT_EQ(ns.knownFiles(), ref.knownFiles());
      const auto known = idsByHandle(ids);
      for (const FileHandle& fh : handlePool()) {
        auto it = known.find(fh);
        const std::uint32_t hid = it == known.end() ? 0 : it->second;
        if (it == known.end()) {
          ASSERT_FALSE(ref.parentKnown(fh)) << fh.toHex();
        }
        ASSERT_EQ(ns.parentKnown(hid), ref.parentKnown(fh)) << fh.toHex();
        const std::uint32_t name = ns.nameOf(hid);
        const auto refName = ref.nameOf(fh);
        ASSERT_EQ(name != 0, refName.has_value()) << fh.toHex();
        if (refName) {
          ASSERT_EQ(ids.name(name), *refName) << fh.toHex();
        }
      }
    }
  }
  // The streams are not vacuous: files die, and renames displace some.
  EXPECT_GT(unlinks, 100u);
  EXPECT_GT(displaced, 20u);
}

TEST(Namespace, MatchesReferenceThroughReaderBatches) {
  // The engine's path: the reader's ids and odd-sized batches, the
  // namespace columns checked against the reference record by record.
  const std::string path =
      "/tmp/namespace_test_" + std::to_string(::getpid()) + ".trace";
  Rng rng(8);
  for (int s = 0; s < kStreams / 4; ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    {
      ReferencePathReconstructor gen;  // aims the generator only
      TraceWriter w(path);
      MicroTime ts = 0;
      for (std::size_t i = 0; i < kRecords; ++i) {
        ts += static_cast<MicroTime>(rng.below(1000));
        TraceRecord r = randomRecord(rng, ts, gen);
        gen.observe(r);
        w.write(r);
      }
    }
    ReferencePathReconstructor ref;
    Namespace ns;
    TraceReader reader(path);
    TraceBatch batch;
    std::size_t seen = 0;
    while (reader.nextBatch(batch, 57)) {
      ns.apply(batch);
      ASSERT_EQ(batch.unlinkedId.size(), batch.n);
      ASSERT_EQ(batch.parentKnown.size(), batch.n);
      for (std::size_t i = 0; i < batch.n; ++i) {
        const TraceRecord& r = batch.records[i];
        const FileHandle want = ref.observe(r);
        const std::string_view got =
            batch.handleInterner->view(batch.unlinkedId[i]);
        ASSERT_EQ(got, std::string_view(
                           reinterpret_cast<const char*>(want.data.data()),
                           want.len))
            << formatRecord(r);
        const bool data = r.op == NfsOp::Read || r.op == NfsOp::Write;
        ASSERT_EQ(batch.parentKnown[i] != 0, data && ref.parentKnown(r.fh))
            << formatRecord(r);
      }
      ASSERT_EQ(batch.knownFiles, ref.knownFiles());
      seen += batch.n;
    }
    EXPECT_EQ(seen, kRecords);
    EXPECT_EQ(ns.knownFiles(), ref.knownFiles());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nfstrace
