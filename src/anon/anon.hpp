// Trace anonymizer (paper §2).
//
// Replaces UIDs, GIDs, IP addresses, file handles, and filename components
// with *arbitrary but consistent* values.  Deliberately not a deterministic
// hash: the mapping is drawn from a seeded RNG and kept in a table, so an
// outsider cannot run a known-text/dictionary attack against the published
// trace, and values cannot be compared across traces from different sites.
//
// Filename rules:
//  * components are anonymized individually, so shared path prefixes stay
//    shared after anonymization;
//  * the suffix (".c", ".mbox", ...) is anonymized separately from the
//    stem, so all files sharing a suffix share its anonymized form;
//  * configured names (CVS, .inbox, .pinerc, "lock" components...) and
//    suffixes pass through unchanged;
//  * special prefixes/suffixes — "#…#" (editor autosave), "…~" (backup),
//    "…,v" (RCS) — are detached, the core is anonymized, and they are
//    re-attached, preserving the relationship between "foo" and "foo~".
//
// Omission mode drops names and identities entirely instead of mapping.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "trace/record.hpp"
#include "util/config.hpp"
#include "util/flatmap.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace nfstrace {

class Anonymizer {
 public:
  struct Config {
    /// Drop all filename / UID / GID / IP information instead of mapping.
    bool omitIdentities = false;
    /// Component names passed through unchanged.
    std::vector<std::string> keepNames = {"CVS",     ".inbox", ".pinerc",
                                          ".cshrc",  ".login", "lock",
                                          "Makefile"};
    /// Suffixes passed through unchanged.
    std::vector<std::string> keepSuffixes = {".lock"};
    /// UIDs/GIDs passed through unchanged (root, daemon, ...).
    std::vector<std::uint32_t> keepUids = {0, 1};
    std::vector<std::uint32_t> keepGids = {0, 1};
    bool anonymizeHandles = true;
    std::uint64_t seed = 0x414e4f4e;

    /// Load a policy from a key=value file — the overridable mapping the
    /// paper describes (§2).  Recognized keys: keep_name (repeatable),
    /// keep_suffix (repeatable), keep_uid / keep_gid (repeatable),
    /// omit_identities, anonymize_handles, seed.  Unset keys keep the
    /// defaults above; an unknown key throws.
    static Config fromFile(const std::string& path);
    static Config fromConfig(const class ConfigFile& file);
  };

  explicit Anonymizer(Config config);

  /// Anonymize one record (pure with respect to the trace; mutates only
  /// the internal mapping tables).
  TraceRecord anonymize(const TraceRecord& rec);

  /// Individual mapping entry points (exposed for tests and tools).
  std::string anonymizeComponent(const std::string& name);
  std::uint32_t anonymizeUid(std::uint32_t uid);
  std::uint32_t anonymizeGid(std::uint32_t gid);
  IpAddr anonymizeIp(IpAddr ip);
  FileHandle anonymizeHandle(const FileHandle& fh);

  /// Persist / restore the mapping tables so that a continued capture
  /// anonymizes consistently with an earlier one.  One "kind key value"
  /// line per entry; names are percent-encoded (appendPercentEncoded) and
  /// handles written as hex, so every entry round-trips.
  void saveMap(const std::string& path) const;
  void loadMap(const std::string& path);

  std::size_t mappedNames() const {
    return stemMap_.size() + suffixMap_.size();
  }

 private:
  /// String hash and equality that also take a string_view, so a lookup
  /// by a record's name builds no string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  using NameMap =
      std::unordered_map<std::string, std::string, NameHash, std::equal_to<>>;
  using NameSet = std::unordered_set<std::string, NameHash, std::equal_to<>>;
  /// Handle-map hash: 8 bytes per step instead of FNV-1a's one.
  struct HandleWordHash {
    std::size_t operator()(const FileHandle& fh) const noexcept;
  };

  /// A handle's anonymized form, with the fileid token derived from it
  /// (FileHandleHash of the anonymized handle, low 32 bits).
  struct MappedHandle {
    FileHandle fh;
    std::uint32_t fileId = 0;
  };
  /// Map a non-empty handle, drawing a fresh one on first sight.  The
  /// reference is valid until the next mapping.
  const MappedHandle& mapHandle(const FileHandle& fh);

  const std::string& mapToken(NameMap& table, std::string_view original,
                              char tag);
  /// The anonymized form of one component, memoized whole: a hit is one
  /// lookup and no allocation, and it draws nothing from the RNG, just as
  /// recomputing it from the (already filled) stem and suffix maps would.
  const std::string& component(std::string_view name);
  std::string mapComponent(std::string_view name);

  Config config_;
  Rng rng_;
  NameSet keepNames_;
  NameSet keepSuffixes_;
  FlatSet<std::uint32_t, U64Hash> keepUids_;
  FlatSet<std::uint32_t, U64Hash> keepGids_;
  NameMap stemMap_;
  NameMap suffixMap_;
  NameMap components_;
  std::unordered_set<std::string> usedTokens_;
  FlatMap<std::uint32_t, std::uint32_t, U64Hash> uidMap_;
  FlatMap<std::uint32_t, std::uint32_t, U64Hash> gidMap_;
  FlatSet<std::uint32_t, U64Hash> usedUids_, usedGids_;
  FlatMap<IpAddr, IpAddr, U64Hash> ipMap_;
  FlatSet<IpAddr, U64Hash> usedIps_;
  FlatMap<FileHandle, MappedHandle, HandleWordHash> fhMap_;
  FlatSet<FileHandle, HandleWordHash> usedFhs_;
};

}  // namespace nfstrace
