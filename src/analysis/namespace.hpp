// File-system hierarchy reconstruction from passive traces (§4.1.1), once
// per scan, on the trace reader's interned ids.
//
// The tracer never sees the server's namespace, but LOOKUP, CREATE,
// MKDIR, SYMLINK, MKNOD and RENAME replies reveal (dir, name) -> child
// edges.  An edge is learned only from an OK reply with a non-empty
// parent handle, child handle and name, and never for "." or "..".
// REMOVE and RMDIR drop the edge and unlink its child.  RENAME moves the
// edge; a different file already at the target is replaced, as
// rename(2) replaces it, and is unlinked, also when the source edge is
// unknown.  The engine applies one Namespace to every admitted batch and
// publishes what passes need as batch columns (TraceBatch::unlinkedId,
// parentKnown, knownFiles).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "trace/batch.hpp"
#include "util/flatmap.hpp"
#include "util/hash.hpp"

namespace nfstrace {

/// Interned ids for callers that feed records one at a time.  Per record
/// it interns fh, fh2 and resFh (when the reply carries one), then name
/// and name2: fed every record of a trace, it numbers them as the trace
/// reader does.  0 is the empty handle or name.
class HandleIds {
 public:
  HandleIds();
  RecordIds of(const TraceRecord& rec);
  /// The handle behind each handle id.
  const std::vector<FileHandle>& handles() const { return handles_; }
  std::string_view name(std::uint32_t id) const { return names_.view(id); }

 private:
  std::uint32_t handle(const FileHandle& fh);

  StringInterner handleIds_, names_;
  std::vector<FileHandle> handles_;
};

class Namespace {
 public:
  /// Learn from one record; returns the handle id it unlinks (0: none).
  std::uint32_t apply(const TraceRecord& rec, const RecordIds& ids);
  /// apply() each record of the batch, filling its namespace columns.
  void apply(TraceBatch& batch);

  bool parentKnown(std::uint32_t handle) const {
    return handle < up_.size() && up_[handle].parent != 0;
  }
  /// The handle's last-known name id; 0 while its parent is unknown.
  std::uint32_t nameOf(std::uint32_t handle) const {
    return handle < up_.size() ? up_[handle].name : 0;
  }
  /// Handles with a known parent.
  std::size_t knownFiles() const { return knownFiles_; }

 private:
  struct Up {
    std::uint32_t parent = 0, name = 0;  // parent 0: unknown
  };
  static std::uint64_t edge(std::uint32_t dir, std::uint32_t name) {
    return std::uint64_t{dir} << 32 | name;
  }
  void learn(std::uint32_t dir, std::uint32_t name, std::string_view text,
             std::uint32_t child);
  /// Drop the edge at `key`; returns its child, 0 when there is none.
  std::uint32_t take(std::uint64_t key);
  void forget(std::uint32_t handle);

  std::vector<Up> up_;  // per handle id
  FlatMap<std::uint64_t, std::uint32_t, U64Hash> down_;  // edge -> child
  std::size_t knownFiles_ = 0;
};

}  // namespace nfstrace
