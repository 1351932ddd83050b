// The trace record: one NFS call/reply pair as observed by the passive
// tracer.  This is the unit all analyses operate on, and the unit the
// anonymizer transforms.  Field presence mirrors what is actually
// decodable from the wire (e.g. a lost reply leaves the reply fields
// unset, exactly as in the paper's CAMPUS captures).
#pragma once

#include <cstdint>
#include <string>

#include "net/packet.hpp"
#include "nfs/proc.hpp"
#include "nfs/types.hpp"
#include "util/time.hpp"

namespace nfstrace {

struct TraceRecord {
  // --- call side
  MicroTime ts = 0;        // when the call crossed the tap
  IpAddr client = 0;
  IpAddr server = 0;
  std::uint32_t xid = 0;
  std::uint8_t vers = 3;   // NFS protocol version (2 or 3)
  bool overTcp = false;
  NfsOp op = NfsOp::Unknown;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  FileHandle fh;           // primary handle (target file, or directory)
  std::string name;        // directory-op filename (lookup/create/remove/...)
  std::string name2;       // rename destination name / symlink target
  FileHandle fh2;          // secondary handle (rename to-dir, link dir)
  std::uint64_t offset = 0;
  std::uint32_t count = 0; // requested bytes (read/write)

  // --- reply side (valid iff hasReply)
  bool hasReply = false;
  MicroTime replyTs = 0;
  NfsStat status = NfsStat::Ok;
  std::uint32_t retCount = 0;  // bytes actually read/written
  bool eof = false;            // READ reply EOF flag
  FileHandle resFh;            // handle returned by lookup/create/mkdir
  bool hasResFh = false;
  bool hasAttrs = false;       // post-op attributes seen in the reply
  FileType ftype = FileType::Regular;
  std::uint64_t fileSize = 0;  // post-op size
  MicroTime fileMtime = 0;     // post-op mtime
  std::uint64_t fileId = 0;    // post-op fileid
  bool hasPre = false;         // WCC pre-op attributes (v3 writes etc.)
  std::uint64_t preSize = 0;
  MicroTime preMtime = 0;

  /// True for operations whose `offset`/`count` fields are meaningful
  /// (the set the v2 format stores them for and formatRecord prints).
  bool hasOffset() const {
    return op == NfsOp::Read || op == NfsOp::Write || op == NfsOp::Commit;
  }

  /// True for operations whose `name` field is meaningful.
  bool hasName() const {
    return op == NfsOp::Lookup || op == NfsOp::Create || op == NfsOp::Mkdir ||
           op == NfsOp::Symlink || op == NfsOp::Mknod || op == NfsOp::Remove ||
           op == NfsOp::Rmdir || op == NfsOp::Rename || op == NfsOp::Link ||
           op == NfsOp::Readdir || op == NfsOp::Readdirplus;
  }
};

}  // namespace nfstrace
