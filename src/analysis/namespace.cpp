#include "analysis/namespace.hpp"

namespace nfstrace {

HandleIds::HandleIds() : handles_(1) {}

std::uint32_t HandleIds::handle(const FileHandle& fh) {
  std::uint32_t id = handleIds_.intern(
      {reinterpret_cast<const char*>(fh.data.data()), fh.len});
  if (id == handles_.size()) handles_.push_back(fh);
  return id;
}

RecordIds HandleIds::of(const TraceRecord& rec) {
  RecordIds ids;
  ids.fh = handle(rec.fh);
  ids.fh2 = handle(rec.fh2);
  if (rec.hasReply && rec.hasResFh) ids.resFh = handle(rec.resFh);
  ids.name = names_.intern(rec.name);
  ids.name2 = names_.intern(rec.name2);
  return ids;
}

void Namespace::learn(std::uint32_t dir, std::uint32_t name,
                      std::string_view text, std::uint32_t child) {
  if (child == 0 || dir == 0 || name == 0) return;
  if (text == "." || text == "..") return;
  if (child >= up_.size()) up_.resize(std::size_t{child} + 1);
  if (up_[child].parent == 0) ++knownFiles_;
  up_[child] = {dir, name};
  down_[edge(dir, name)] = child;
}

std::uint32_t Namespace::take(std::uint64_t key) {
  auto it = down_.find(key);
  if (it == down_.end()) return 0;
  const std::uint32_t child = it->second;
  down_.erase(it);
  return child;
}

void Namespace::forget(std::uint32_t handle) {
  if (!parentKnown(handle)) return;
  up_[handle] = {};
  --knownFiles_;
}

std::uint32_t Namespace::apply(const TraceRecord& rec, const RecordIds& ids) {
  if (!rec.hasReply || rec.status != NfsStat::Ok) return 0;
  std::uint32_t unlinked = 0;
  switch (rec.op) {
    case NfsOp::Lookup:
    case NfsOp::Create:
    case NfsOp::Mkdir:
    case NfsOp::Symlink:
    case NfsOp::Mknod:
      if (rec.hasResFh) learn(ids.fh, ids.name, rec.name, ids.resFh);
      break;
    case NfsOp::Rename: {
      const std::uint32_t moved = take(edge(ids.fh, ids.name));
      unlinked = take(edge(ids.fh2, ids.name2));
      // Onto its own name, or onto another link to the same file: the
      // learn below restores the target edge, and nothing dies.
      if (unlinked == moved) unlinked = 0;
      forget(unlinked);
      if (moved != 0) learn(ids.fh2, ids.name2, rec.name2, moved);
      break;
    }
    case NfsOp::Remove:
    case NfsOp::Rmdir:
      unlinked = take(edge(ids.fh, ids.name));
      forget(unlinked);
      break;
    default:
      break;
  }
  return unlinked;
}

void Namespace::apply(TraceBatch& batch) {
  batch.unlinkedId.resize(batch.n);
  batch.parentKnown.resize(batch.n);
  for (std::size_t i = 0; i < batch.n; ++i) {
    const TraceRecord& r = batch.records[i];
    batch.unlinkedId[i] = apply(r, batch.ids(i));
    batch.parentKnown[i] = (r.op == NfsOp::Read || r.op == NfsOp::Write) &&
                           parentKnown(batch.fhId[i]);
  }
  batch.knownFiles = knownFiles_;
}

}  // namespace nfstrace
