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
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "trace/record.hpp"
#include "util/config.hpp"
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
  /// anonymizes consistently with an earlier one.
  void saveMap(const std::string& path) const;
  void loadMap(const std::string& path);

  std::size_t mappedNames() const {
    return stemMap_.size() + suffixMap_.size();
  }

 private:
  std::string mapToken(std::unordered_map<std::string, std::string>& table,
                       const std::string& original, char tag);

  Config config_;
  Rng rng_;
  std::unordered_set<std::string> keepNames_;
  std::unordered_set<std::string> keepSuffixes_;
  std::unordered_set<std::uint32_t> keepUids_;
  std::unordered_set<std::uint32_t> keepGids_;
  std::unordered_map<std::string, std::string> stemMap_;
  std::unordered_map<std::string, std::string> suffixMap_;
  std::unordered_set<std::string> usedTokens_;
  std::unordered_map<std::uint32_t, std::uint32_t> uidMap_;
  std::unordered_map<std::uint32_t, std::uint32_t> gidMap_;
  std::unordered_set<std::uint32_t> usedUids_, usedGids_;
  std::unordered_map<IpAddr, IpAddr> ipMap_;
  std::unordered_set<IpAddr> usedIps_;
  std::unordered_map<std::string, std::string> fhMap_;  // hex -> hex
  std::unordered_set<std::string> usedFhs_;
};

}  // namespace nfstrace
