// Minimal streaming JSON writer: comma placement and string escaping
// handled by a container stack, output appended to one growable string.
// Used by the snapshot exporter's JSON-lines stream and by tools that
// emit machine-readable summaries (trace_analyze --json).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nfstrace::obs {

class JsonWriter {
 public:
  JsonWriter& beginObject();
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& endArray();

  /// Member key inside an object; follow with a value or begin*().
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& valueNull();

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& field(std::string_view k, T v) {
    key(k);
    return value(v);
  }

  const std::string& str() const { return out_; }
  void clear();

  /// Escape a string for inclusion in a JSON document.  The output is
  /// always valid JSON *and* valid UTF-8 for arbitrary input bytes:
  /// control characters use the standard short escapes or \u00XX,
  /// well-formed UTF-8 sequences pass through untouched, and bytes that
  /// are not valid UTF-8 (overlong forms, surrogates, stray continuation
  /// bytes, raw binary) become \u00XX escapes of the byte value.
  static std::string escape(std::string_view s);

 private:
  /// Emit the separator a new element needs at the current position.
  void elem();

  std::string out_;
  std::vector<bool> first_;    // per open container: no element written yet
  bool afterKey_ = false;      // next value completes a key
};

/// Decode the body of a JSON string literal (the part between the
/// quotes): standard short escapes, \uXXXX (with UTF-16 surrogate
/// pairs), everything else verbatim.  Inverse of JsonWriter::escape for
/// valid-UTF-8 input, which the obs tests round-trip-fuzz.
std::string jsonUnescape(std::string_view s);

/// Strict RFC 8259 check of a whole document: balanced structure, legal
/// escapes, no raw control characters, well-formed UTF-8 in strings,
/// nothing but whitespace after the top-level value.  Used by tests and
/// benches to gate every emitted JSON-lines / Chrome-trace document.
bool isValidJson(std::string_view doc);

}  // namespace nfstrace::obs
