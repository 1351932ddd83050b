// String interning for the analysis engine's batched trace decode.
//
// A trace touches the same paths and file handles millions of times; the
// batch reader interns each distinct byte string once and hands analyses a
// dense 32-bit id instead of a freshly heap-allocated std::string per
// record.  Ids are assigned in first-appearance order, so for the same
// input they are identical regardless of batch size or worker count — the
// determinism the engine's byte-identical guarantee leans on.
//
// Layout (reworked for the decode hot path): string bytes live in an
// append-only chunk arena, per-id (ptr, len) entries live in fixed blocks
// of stable storage, and lookup goes through an open-addressing table of
// (tag, id) slots — one hash, a couple of probes, and at most one byte
// compare per intern() hit, with zero allocation.  Each reader owns its
// own interner: in a fan-out scan the one decoding thread interns for
// every observer thread, which only reads published ids.
//
// Concurrency contract (single-writer / many-reader): only one thread may
// call intern(); view()/size() may be called from other threads for ids
// that were published to them through a synchronizing handoff (the
// engine's batch queues).  Arena chunks and entry blocks never move once
// allocated and already-written entries are never touched again, so
// readers need no locks — the happens-before edge of the queue push/pop
// is enough.  The probe table is writer-private.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace nfstrace {

class StringInterner {
 public:
  /// Id 0 is always the empty string.
  static constexpr std::uint32_t kEmptyId = 0;

  StringInterner();

  /// Create-or-get the id for `s`.  Single writer thread only.
  std::uint32_t intern(std::string_view s);

  /// The bytes behind an id previously returned by intern().
  std::string_view view(std::uint32_t id) const {
    const Entry& e =
        (*entryBlocks_[id >> kBlockShift])[id & (kBlockEntries - 1)];
    return {e.ptr, e.len};
  }

  /// Distinct strings interned (including the reserved empty string).
  std::size_t size() const { return next_; }
  /// Total payload bytes held.
  std::size_t bytes() const { return bytes_; }

 private:
  static constexpr std::uint32_t kBlockShift = 12;
  static constexpr std::uint32_t kBlockEntries = 1u << kBlockShift;
  static constexpr std::uint32_t kMaxBlocks = 1u << 12;  // 16.7M strings
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  struct Entry {
    const char* ptr = nullptr;
    std::uint32_t len = 0;
  };
  using EntryBlock = std::array<Entry, kBlockEntries>;

  /// Open-addressing slot: `idPlus1 == 0` marks vacancy; `tag` is a
  /// nonzero hash fragment that rejects most collisions without touching
  /// the arena.
  struct Slot {
    std::uint32_t idPlus1 = 0;
    std::uint32_t tag = 0;
  };

  static std::uint64_t hashBytes(std::string_view s);
  const char* store(std::string_view s);
  void grow();

  // Fixed table of stable block pointers: view() never walks a container
  // that intern() might be reorganizing.
  std::array<std::unique_ptr<EntryBlock>, kMaxBlocks> entryBlocks_;
  std::vector<std::unique_ptr<char[]>> chunks_;
  std::size_t chunkUsed_ = 0;
  std::size_t chunkCap_ = 0;
  std::vector<Slot> slots_;  // power-of-2 size, writer-private
  std::size_t mask_ = 0;
  std::uint32_t next_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace nfstrace
