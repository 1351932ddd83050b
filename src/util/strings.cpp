#include "util/strings.hpp"

#include <cctype>

namespace nfstrace {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, char delim) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out.push_back(delim);
    out += parts[i];
  }
  return out;
}

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool endsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string_view filenameSuffix(std::string_view name) {
  std::size_t pos = name.rfind('.');
  if (pos == std::string_view::npos || pos == 0) return {};
  return name.substr(pos);
}

void appendPercentEncoded(std::string& out, std::string_view s) {
  static constexpr char kHexDigits[] = "0123456789abcdef";
  for (char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c <= ' ' || c == '%' || c == '=' || c == 0x7f) {
      out.push_back('%');
      out.push_back(kHexDigits[c >> 4]);
      out.push_back(kHexDigits[c & 0xf]);
    } else {
      out.push_back(ch);
    }
  }
}

std::optional<std::string> percentDecode(std::string_view s) {
  auto digit = [](char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out.push_back(s[i]);
      continue;
    }
    const int hi = i + 2 < s.size() ? digit(s[i + 1]) : -1;
    const int lo = i + 2 < s.size() ? digit(s[i + 2]) : -1;
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return out;
}

std::string toLower(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace nfstrace
