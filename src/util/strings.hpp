// Small string helpers shared by the anonymizer, trace codec, and name
// classifier.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nfstrace {

/// Split on a delimiter; empty fields are preserved ("a//b" -> {"a","","b"}).
std::vector<std::string> split(std::string_view s, char delim);

/// Join with a delimiter.
std::string join(const std::vector<std::string>& parts, char delim);

bool startsWith(std::string_view s, std::string_view prefix);
bool endsWith(std::string_view s, std::string_view suffix);

/// The extension-like suffix of a filename: everything from the last '.'
/// (inclusive) if one exists past position 0; otherwise empty.  Matches the
/// anonymizer's rule that "all files that share the same suffix will have
/// anonymized names that end in the anonymized form of that suffix".
std::string_view filenameSuffix(std::string_view name);

/// Lowercase ASCII copy.
std::string toLower(std::string_view s);

/// Append `s` with every byte up to ' ', '%', '=' and DEL written as %XX
/// (lowercase hex), so any byte string makes one token of a
/// space-separated key=value line.  Other bytes, UTF-8 included, pass.
void appendPercentEncoded(std::string& out, std::string_view s);

/// Inverse of appendPercentEncoded (any %XX decodes, in either case);
/// nullopt if a '%' is not followed by two hex digits.
std::optional<std::string> percentDecode(std::string_view s);

}  // namespace nfstrace
