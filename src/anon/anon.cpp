#include "anon/anon.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "util/strings.hpp"

namespace nfstrace {
namespace {

constexpr char kTokenAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";

}  // namespace

Anonymizer::Config Anonymizer::Config::fromFile(const std::string& path) {
  return fromConfig(ConfigFile::load(path));
}

Anonymizer::Config Anonymizer::Config::fromConfig(const ConfigFile& file) {
  Config cfg;
  if (file.has("keep_name")) cfg.keepNames = file.getAll("keep_name");
  if (file.has("keep_suffix")) cfg.keepSuffixes = file.getAll("keep_suffix");
  constexpr auto kU32Max = std::numeric_limits<std::uint32_t>::max();
  if (file.has("keep_uid")) {
    cfg.keepUids.clear();
    for (std::uint64_t v : file.getAllUnsigned("keep_uid", kU32Max)) {
      cfg.keepUids.push_back(static_cast<std::uint32_t>(v));
    }
  }
  if (file.has("keep_gid")) {
    cfg.keepGids.clear();
    for (std::uint64_t v : file.getAllUnsigned("keep_gid", kU32Max)) {
      cfg.keepGids.push_back(static_cast<std::uint32_t>(v));
    }
  }
  cfg.omitIdentities = file.getBool("omit_identities", cfg.omitIdentities);
  cfg.anonymizeHandles =
      file.getBool("anonymize_handles", cfg.anonymizeHandles);
  cfg.seed = file.getUnsigned("seed", cfg.seed);
  file.rejectUnknownKeys();
  return cfg;
}

Anonymizer::Anonymizer(Config config)
    : config_(std::move(config)), rng_(config_.seed) {
  keepNames_.insert(config_.keepNames.begin(), config_.keepNames.end());
  keepSuffixes_.insert(config_.keepSuffixes.begin(),
                       config_.keepSuffixes.end());
  keepUids_.insert(config_.keepUids.begin(), config_.keepUids.end());
  keepGids_.insert(config_.keepGids.begin(), config_.keepGids.end());
}

std::string Anonymizer::mapToken(
    std::unordered_map<std::string, std::string>& table,
    const std::string& original, char tag) {
  auto it = table.find(original);
  if (it != table.end()) return it->second;

  // Arbitrary token of similar length (min 4), drawn from the RNG; retry
  // on the (unlikely) collision so distinct names stay distinct.
  std::size_t len = std::max<std::size_t>(4, std::min<std::size_t>(
                                                 original.size(), 12));
  std::string token;
  do {
    token.clear();
    token.push_back(tag);
    for (std::size_t i = 0; i < len; ++i) {
      token.push_back(kTokenAlphabet[rng_.below(sizeof(kTokenAlphabet) - 1)]);
    }
  } while (!usedTokens_.insert(token).second);
  table.emplace(original, token);
  return token;
}

std::string Anonymizer::anonymizeComponent(const std::string& name) {
  if (name.empty() || name == "." || name == "..") return name;
  if (keepNames_.count(name)) return name;

  // Detach special prefixes/suffixes so the relationship between a file
  // and its derived names ("foo" vs "foo~", "#foo#", "foo,v") survives.
  std::string core = name;
  std::string prefix, special;
  if (core.size() >= 2 && core.front() == '#' && core.back() == '#') {
    prefix = "#";
    special = "#";
    core = core.substr(1, core.size() - 2);
  } else if (endsWith(core, "~")) {
    special = "~";
    core.pop_back();
  } else if (endsWith(core, ",v")) {
    special = ",v";
    core.resize(core.size() - 2);
  }
  if (core.empty()) return name;
  if (keepNames_.count(core)) return prefix + core + special;

  // Leading-dot files keep the dot so "dot file" remains recognizable as a
  // category (the paper's name-based analyses rely on it).
  std::string dot;
  if (core.size() > 1 && core.front() == '.') {
    dot = ".";
    core = core.substr(1);
  }

  std::string suffix(filenameSuffix(core));
  std::string stem = core.substr(0, core.size() - suffix.size());

  std::string anonSuffix;
  if (!suffix.empty()) {
    if (keepSuffixes_.count(suffix)) {
      anonSuffix = suffix;
    } else {
      anonSuffix = "." + mapToken(suffixMap_, suffix, 's');
    }
  }
  std::string anonStem = stem.empty() ? "" : mapToken(stemMap_, stem, 'f');
  return prefix + dot + anonStem + anonSuffix + special;
}

std::uint32_t Anonymizer::anonymizeUid(std::uint32_t uid) {
  if (keepUids_.count(uid)) return uid;
  auto it = uidMap_.find(uid);
  if (it != uidMap_.end()) return it->second;
  std::uint32_t mapped;
  do {
    mapped = 10000 + static_cast<std::uint32_t>(rng_.below(1u << 20));
  } while (!usedUids_.insert(mapped).second || keepUids_.count(mapped));
  uidMap_.emplace(uid, mapped);
  return mapped;
}

std::uint32_t Anonymizer::anonymizeGid(std::uint32_t gid) {
  if (keepGids_.count(gid)) return gid;
  auto it = gidMap_.find(gid);
  if (it != gidMap_.end()) return it->second;
  std::uint32_t mapped;
  do {
    mapped = 10000 + static_cast<std::uint32_t>(rng_.below(1u << 20));
  } while (!usedGids_.insert(mapped).second || keepGids_.count(mapped));
  gidMap_.emplace(gid, mapped);
  return mapped;
}

IpAddr Anonymizer::anonymizeIp(IpAddr ip) {
  auto it = ipMap_.find(ip);
  if (it != ipMap_.end()) return it->second;
  IpAddr mapped;
  do {
    // Keep anonymized addresses inside 10/8 so they are recognizably
    // private and cannot collide with a real public host.
    mapped = makeIp(10, static_cast<int>(rng_.below(256)),
                    static_cast<int>(rng_.below(256)),
                    static_cast<int>(rng_.below(254)) + 1);
  } while (!usedIps_.insert(mapped).second);
  ipMap_.emplace(ip, mapped);
  return mapped;
}

FileHandle Anonymizer::anonymizeHandle(const FileHandle& fh) {
  if (fh.len == 0) return fh;
  std::string hex = fh.toHex();
  auto it = fhMap_.find(hex);
  if (it != fhMap_.end()) return FileHandle::fromHex(it->second);
  FileHandle mapped;
  std::string mappedHex;
  do {
    mapped.len = fh.len;
    for (std::uint8_t i = 0; i < fh.len; ++i) {
      mapped.data[i] = static_cast<std::uint8_t>(rng_.below(256));
    }
    mappedHex = mapped.toHex();
  } while (!usedFhs_.insert(mappedHex).second);
  fhMap_.emplace(hex, mappedHex);
  return mapped;
}

TraceRecord Anonymizer::anonymize(const TraceRecord& rec) {
  TraceRecord out = rec;
  if (config_.omitIdentities) {
    out.uid = 0;
    out.gid = 0;
    out.client = 0;
    out.server = 0;
    out.name.clear();
    out.name2.clear();
    return out;
  }
  out.uid = anonymizeUid(rec.uid);
  out.gid = anonymizeGid(rec.gid);
  out.client = anonymizeIp(rec.client);
  out.server = anonymizeIp(rec.server);
  if (!rec.name.empty()) out.name = anonymizeComponent(rec.name);
  if (!rec.name2.empty()) {
    if (rec.op == NfsOp::Symlink) {
      // Symlink targets are paths: anonymize per component.
      auto parts = split(rec.name2, '/');
      for (auto& p : parts) p = anonymizeComponent(p);
      out.name2 = join(parts, '/');
    } else {
      out.name2 = anonymizeComponent(rec.name2);
    }
  }
  if (config_.anonymizeHandles) {
    out.fh = anonymizeHandle(rec.fh);
    out.fh2 = anonymizeHandle(rec.fh2);
    if (rec.hasResFh) out.resFh = anonymizeHandle(rec.resFh);
    // fileids are handle-derived; remap them consistently with a narrow
    // token so they stay useful as identities without leaking inumbers.
    if (out.fileId) {
      out.fileId = FileHandleHash{}(out.fh) & 0xffffffff;
    }
  }
  return out;
}

void Anonymizer::saveMap(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("anon: cannot write map: " + path);
  for (const auto& [k, v] : stemMap_) out << "stem " << k << ' ' << v << '\n';
  for (const auto& [k, v] : suffixMap_) out << "sufx " << k << ' ' << v << '\n';
  for (const auto& [k, v] : uidMap_) out << "uid " << k << ' ' << v << '\n';
  for (const auto& [k, v] : gidMap_) out << "gid " << k << ' ' << v << '\n';
  for (const auto& [k, v] : ipMap_) out << "ip " << k << ' ' << v << '\n';
  for (const auto& [k, v] : fhMap_) out << "fh " << k << ' ' << v << '\n';
}

void Anonymizer::loadMap(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("anon: cannot read map: " + path);
  std::string kind, k, v;
  while (in >> kind >> k >> v) {
    if (kind == "stem") {
      stemMap_[k] = v;
      usedTokens_.insert(v);
    } else if (kind == "sufx") {
      suffixMap_[k] = v;
      usedTokens_.insert(v);
    } else if (kind == "uid") {
      auto uid = static_cast<std::uint32_t>(std::stoul(k));
      auto mapped = static_cast<std::uint32_t>(std::stoul(v));
      uidMap_[uid] = mapped;
      usedUids_.insert(mapped);
    } else if (kind == "gid") {
      auto gid = static_cast<std::uint32_t>(std::stoul(k));
      auto mapped = static_cast<std::uint32_t>(std::stoul(v));
      gidMap_[gid] = mapped;
      usedGids_.insert(mapped);
    } else if (kind == "ip") {
      ipMap_[static_cast<IpAddr>(std::stoul(k))] =
          static_cast<IpAddr>(std::stoul(v));
      usedIps_.insert(static_cast<IpAddr>(std::stoul(v)));
    } else if (kind == "fh") {
      fhMap_[k] = v;
      usedFhs_.insert(v);
    }
  }
}

}  // namespace nfstrace
