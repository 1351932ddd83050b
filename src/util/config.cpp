#include "util/config.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace nfstrace {
namespace {

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

ConfigFile ConfigFile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("config: cannot open " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

ConfigFile ConfigFile::parse(const std::string& text) {
  ConfigFile cfg;
  int lineNo = 0;
  for (const auto& rawLine : split(text, '\n')) {
    ++lineNo;
    std::string line = rawLine;
    // Strip comments ('#' anywhere outside a value is fine; we keep it
    // simple and strip from the first '#').
    auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;
    auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("config: malformed line " +
                               std::to_string(lineNo) + ": " + rawLine);
    }
    std::string key = trim(line.substr(0, eq));
    std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      throw std::runtime_error("config: empty key on line " +
                               std::to_string(lineNo));
    }
    cfg.add(key, value);
  }
  return cfg;
}

void ConfigFile::add(const std::string& key, const std::string& value) {
  values_[key].push_back(value);
}

bool ConfigFile::has(const std::string& key) const {
  asked_.insert(key);
  return values_.count(key) > 0;
}

std::optional<std::string> ConfigFile::get(const std::string& key) const {
  asked_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) return std::nullopt;
  return it->second.back();
}

std::string ConfigFile::get(const std::string& key,
                            const std::string& fallback) const {
  auto v = get(key);
  return v ? *v : fallback;
}

std::vector<std::string> ConfigFile::getAll(const std::string& key) const {
  asked_.insert(key);
  auto it = values_.find(key);
  return it == values_.end() ? std::vector<std::string>{} : it->second;
}

std::int64_t ConfigFile::getInt(const std::string& key,
                                std::int64_t fallback) const {
  auto v = get(key);
  if (!v) return fallback;
  try {
    std::size_t used = 0;
    auto out = std::stoll(*v, &used);
    if (used != v->size()) throw std::invalid_argument(*v);
    return out;
  } catch (const std::exception&) {
    throw std::runtime_error("config: bad integer for " + key + ": " + *v);
  }
}

std::uint64_t ConfigFile::getUnsigned(const std::string& key,
                                      std::uint64_t fallback,
                                      std::uint64_t max) const {
  auto v = get(key);
  return v ? parseUnsigned(key, *v, max) : fallback;
}

std::vector<std::uint64_t> ConfigFile::getAllUnsigned(
    const std::string& key, std::uint64_t max) const {
  std::vector<std::uint64_t> out;
  for (const std::string& v : getAll(key)) {
    out.push_back(parseUnsigned(key, v, max));
  }
  return out;
}

std::uint64_t ConfigFile::parseUnsigned(const std::string& key,
                                        const std::string& v,
                                        std::uint64_t max) {
  // from_chars takes no '+', no whitespace and, for an unsigned type, no
  // '-'; it reports overflow instead of wrapping.
  std::uint64_t out = 0;
  const char* end = v.data() + v.size();
  auto [ptr, ec] = std::from_chars(v.data(), end, out);
  if (v.empty() || ec != std::errc{} || ptr != end || out > max) {
    throw std::runtime_error("config: bad whole number for " + key + ": " +
                             v + " (0.." + std::to_string(max) + ")");
  }
  return out;
}

double ConfigFile::getDouble(const std::string& key, double fallback,
                             double lo, double hi) const {
  auto v = get(key);
  if (!v) return fallback;
  double out = 0;
  try {
    std::size_t used = 0;
    out = std::stod(*v, &used);
    if (used != v->size()) throw std::invalid_argument(*v);
  } catch (const std::exception&) {
    throw std::runtime_error("config: bad number for " + key + ": " + *v);
  }
  if (!std::isfinite(out) || out < lo || out > hi) {
    throw std::runtime_error("config: " + key + " out of range: " + *v);
  }
  return out;
}

bool ConfigFile::getBool(const std::string& key, bool fallback) const {
  auto v = get(key);
  if (!v) return fallback;
  std::string lower = toLower(*v);
  if (lower == "true" || lower == "yes" || lower == "1" || lower == "on") {
    return true;
  }
  if (lower == "false" || lower == "no" || lower == "0" || lower == "off") {
    return false;
  }
  throw std::runtime_error("config: bad boolean for " + key + ": " + *v);
}

void ConfigFile::rejectUnknownKeys() const {
  for (const auto& [key, values] : values_) {
    if (!asked_.count(key)) {
      throw std::runtime_error("config: unknown key \"" + key + "\"");
    }
  }
}

std::vector<std::string> ConfigFile::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

}  // namespace nfstrace
