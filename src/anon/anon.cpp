#include "anon/anon.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>
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
  for (std::uint32_t uid : config_.keepUids) keepUids_.insert(uid);
  for (std::uint32_t gid : config_.keepGids) keepGids_.insert(gid);
}

const std::string& Anonymizer::mapToken(NameMap& table,
                                        std::string_view original, char tag) {
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
  return table.emplace(std::string(original), std::move(token)).first->second;
}

std::string Anonymizer::anonymizeComponent(const std::string& name) {
  return component(name);
}

const std::string& Anonymizer::component(std::string_view name) {
  auto it = components_.find(name);
  if (it != components_.end()) return it->second;
  std::string mapped = mapComponent(name);
  return components_.emplace(std::string(name), std::move(mapped))
      .first->second;
}

std::string Anonymizer::mapComponent(std::string_view name) {
  if (name.empty() || name == "." || name == "..") return std::string(name);
  if (keepNames_.count(name)) return std::string(name);

  // Detach special prefixes/suffixes so the relationship between a file
  // and its derived names ("foo" vs "foo~", "#foo#", "foo,v") survives.
  std::string_view core = name;
  std::string_view prefix, special;
  if (core.size() >= 2 && core.front() == '#' && core.back() == '#') {
    prefix = "#";
    special = "#";
    core = core.substr(1, core.size() - 2);
  } else if (endsWith(core, "~")) {
    special = "~";
    core.remove_suffix(1);
  } else if (endsWith(core, ",v")) {
    special = ",v";
    core.remove_suffix(2);
  }
  if (core.empty()) return std::string(name);
  std::string out(prefix);
  if (keepNames_.count(core)) return out.append(core).append(special);

  // Leading-dot files keep the dot so "dot file" remains recognizable as a
  // category (the paper's name-based analyses rely on it).
  if (core.size() > 1 && core.front() == '.') {
    out += '.';
    core.remove_prefix(1);
  }

  std::string_view suffix = filenameSuffix(core);
  std::string_view stem = core.substr(0, core.size() - suffix.size());

  // The suffix token is drawn before the stem's: the RNG draw order is
  // part of the trace bytes.
  const std::string* anonSuffix = nullptr;
  if (!suffix.empty() && !keepSuffixes_.count(suffix)) {
    anonSuffix = &mapToken(suffixMap_, suffix, 's');
  }
  if (!stem.empty()) out += mapToken(stemMap_, stem, 'f');
  if (anonSuffix) {
    out += '.';
    out += *anonSuffix;
  } else {
    out += suffix;
  }
  return out.append(special);
}

std::uint32_t Anonymizer::anonymizeUid(std::uint32_t uid) {
  if (keepUids_.count(uid)) return uid;
  auto it = uidMap_.find(uid);
  if (it != uidMap_.end()) return it->second;
  std::uint32_t mapped;
  do {
    mapped = 10000 + static_cast<std::uint32_t>(rng_.below(1u << 20));
  } while (!usedUids_.insert(mapped) || keepUids_.count(mapped));
  uidMap_.try_emplace(uid, mapped);
  return mapped;
}

std::uint32_t Anonymizer::anonymizeGid(std::uint32_t gid) {
  if (keepGids_.count(gid)) return gid;
  auto it = gidMap_.find(gid);
  if (it != gidMap_.end()) return it->second;
  std::uint32_t mapped;
  do {
    mapped = 10000 + static_cast<std::uint32_t>(rng_.below(1u << 20));
  } while (!usedGids_.insert(mapped) || keepGids_.count(mapped));
  gidMap_.try_emplace(gid, mapped);
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
  } while (!usedIps_.insert(mapped));
  ipMap_.try_emplace(ip, mapped);
  return mapped;
}

std::size_t Anonymizer::HandleWordHash::operator()(
    const FileHandle& fh) const noexcept {
  const std::uint8_t* p = fh.data.data();
  const std::size_t n = fh.len;
  std::uint64_t h = n;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = hashCombine(h, w);
  }
  if (i < n) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, n - i);
    h = hashCombine(h, w);
  }
  return static_cast<std::size_t>(h);
}

const Anonymizer::MappedHandle& Anonymizer::mapHandle(const FileHandle& fh) {
  auto it = fhMap_.find(fh);
  if (it != fhMap_.end()) return it->second;
  MappedHandle mapped;
  do {
    mapped.fh.len = fh.len;
    for (std::uint8_t i = 0; i < fh.len; ++i) {
      mapped.fh.data[i] = static_cast<std::uint8_t>(rng_.below(256));
    }
  } while (!usedFhs_.insert(mapped.fh));
  mapped.fileId = static_cast<std::uint32_t>(FileHandleHash{}(mapped.fh));
  return fhMap_.try_emplace(fh, mapped).first->second;
}

FileHandle Anonymizer::anonymizeHandle(const FileHandle& fh) {
  if (fh.len == 0) return fh;
  return mapHandle(fh).fh;
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
  if (!rec.name.empty()) out.name = component(rec.name);
  if (!rec.name2.empty()) {
    if (rec.op == NfsOp::Symlink) {
      // Symlink targets are paths: anonymize per component.
      out.name2.clear();
      std::string_view rest = rec.name2;
      for (;;) {
        const std::size_t slash = rest.find('/');
        out.name2 += component(rest.substr(0, slash));
        if (slash == std::string_view::npos) break;
        out.name2 += '/';
        rest.remove_prefix(slash + 1);
      }
    } else {
      out.name2 = component(rec.name2);
    }
  }
  if (config_.anonymizeHandles) {
    // fileids are handle-derived; remap them consistently with a narrow
    // token so they stay useful as identities without leaking inumbers.
    std::uint32_t fileId;
    if (rec.fh.len != 0) {
      const MappedHandle& m = mapHandle(rec.fh);
      out.fh = m.fh;
      fileId = m.fileId;
    } else {
      fileId = static_cast<std::uint32_t>(FileHandleHash{}(rec.fh));
    }
    if (out.fileId) out.fileId = fileId;
    out.fh2 = anonymizeHandle(rec.fh2);
    if (rec.hasResFh) out.resFh = anonymizeHandle(rec.resFh);
  }
  return out;
}

namespace {

/// A map-file name field back from its percent-encoded form.
std::string decodeField(std::string_view s, const std::string& path) {
  auto decoded = percentDecode(s);
  if (!decoded) throw std::runtime_error("anon: bad escape in map: " + path);
  return std::move(*decoded);
}

std::uint32_t mapNumber(const std::string& field, const std::string& path) {
  std::uint32_t v = 0;
  const char* end = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    throw std::runtime_error("anon: bad number in map: " + path);
  }
  return v;
}

}  // namespace

void Anonymizer::saveMap(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("anon: cannot write map: " + path);
  std::string line;
  auto names = [&](const char* kind, const NameMap& map) {
    for (const auto& [k, v] : map) {
      line.assign(kind);
      appendPercentEncoded(line, k);
      line += ' ';
      appendPercentEncoded(line, v);
      line += '\n';
      out << line;
    }
  };
  names("stem ", stemMap_);
  names("sufx ", suffixMap_);
  for (const auto& [k, v] : uidMap_) out << "uid " << k << ' ' << v << '\n';
  for (const auto& [k, v] : gidMap_) out << "gid " << k << ' ' << v << '\n';
  for (const auto& [k, v] : ipMap_) out << "ip " << k << ' ' << v << '\n';
  for (const auto& [k, v] : fhMap_) {
    out << "fh " << k.toHex() << ' ' << v.fh.toHex() << '\n';
  }
}

void Anonymizer::loadMap(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("anon: cannot read map: " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t a = line.find(' ');
    const std::size_t b = a == std::string::npos ? a : line.find(' ', a + 1);
    if (b == std::string::npos || line.find(' ', b + 1) != std::string::npos) {
      throw std::runtime_error("anon: bad map line: " + path);
    }
    const std::string kind = line.substr(0, a);
    const std::string k = decodeField(line.substr(a + 1, b - a - 1), path);
    const std::string v = decodeField(line.substr(b + 1), path);
    if (kind == "stem") {
      stemMap_[k] = v;
      usedTokens_.insert(v);
    } else if (kind == "sufx") {
      suffixMap_[k] = v;
      usedTokens_.insert(v);
    } else if (kind == "uid") {
      const std::uint32_t mapped = mapNumber(v, path);
      uidMap_[mapNumber(k, path)] = mapped;
      usedUids_.insert(mapped);
    } else if (kind == "gid") {
      const std::uint32_t mapped = mapNumber(v, path);
      gidMap_[mapNumber(k, path)] = mapped;
      usedGids_.insert(mapped);
    } else if (kind == "ip") {
      const IpAddr mapped = mapNumber(v, path);
      ipMap_[mapNumber(k, path)] = mapped;
      usedIps_.insert(mapped);
    } else if (kind == "fh") {
      MappedHandle mapped;
      mapped.fh = FileHandle::fromHex(v);
      mapped.fileId = static_cast<std::uint32_t>(FileHandleHash{}(mapped.fh));
      fhMap_[FileHandle::fromHex(k)] = mapped;
      usedFhs_.insert(mapped.fh);
    }
  }
  // Loaded entries may replace stem or suffix tokens that memoized
  // components were built from.
  components_.clear();
}

}  // namespace nfstrace
