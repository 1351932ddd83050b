// Minimal key = value configuration files for the tools.
//
// The paper stresses that its tracer is "easy to configure [and] runs
// unattended"; this is the configuration substrate: '#' comments, blank
// lines ignored, repeated keys collect into lists, whitespace trimmed.
//
//   # anonymizer policy
//   keep_name = CVS
//   keep_name = .inbox
//   keep_suffix = .lock
//   seed = 12345
//
// A reader asks for the keys it knows and then calls rejectUnknownKeys(),
// so a misspelt or retired key is an error that names it rather than a
// line that is silently ignored.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace nfstrace {

class ConfigFile {
 public:
  /// Parse from a file.  Throws std::runtime_error on I/O failure or a
  /// malformed line (anything non-blank without '=').
  static ConfigFile load(const std::string& path);
  /// Parse from a string (for tests and embedded defaults).
  static ConfigFile parse(const std::string& text);

  /// Append a value for `key`, as if it were the file's last line (a
  /// command-line flag overriding the file).
  void add(const std::string& key, const std::string& value);

  bool has(const std::string& key) const;
  /// Last value wins for scalars; nullopt if absent.
  std::optional<std::string> get(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  /// All values for a repeated key, in file order.
  std::vector<std::string> getAll(const std::string& key) const;

  /// Typed accessors; throw std::runtime_error naming the key on an
  /// unparseable or out-of-range value.
  std::int64_t getInt(const std::string& key, std::int64_t fallback) const;
  /// A whole unsigned decimal (digits only: no sign, no fraction) that
  /// is at most `max`.
  std::uint64_t getUnsigned(
      const std::string& key, std::uint64_t fallback,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  /// Every value of a repeated key, each checked as getUnsigned does.
  std::vector<std::uint64_t> getAllUnsigned(
      const std::string& key,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  /// A finite number in [lo, hi].
  double getDouble(const std::string& key, double fallback,
                   double lo = -std::numeric_limits<double>::max(),
                   double hi = std::numeric_limits<double>::max()) const;
  bool getBool(const std::string& key, bool fallback) const;

  /// Throws std::runtime_error naming the first key (in sorted order)
  /// that no accessor above has asked for.
  void rejectUnknownKeys() const;

  /// Keys present in the file (sorted, unique).
  std::vector<std::string> keys() const;

 private:
  static std::uint64_t parseUnsigned(const std::string& key,
                                     const std::string& value,
                                     std::uint64_t max);

  std::map<std::string, std::vector<std::string>> values_;
  /// Keys a reader has asked for, present or not (rejectUnknownKeys).
  mutable std::set<std::string> asked_;
};

}  // namespace nfstrace
