#include "daemon/manifest.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "util/atomicfile.hpp"
#include "util/crc32.hpp"

namespace nfstrace::daemon {

namespace {

void appendKv(std::string& out, const char* key, std::uint64_t v) {
  out += key;
  out += " = ";
  out += std::to_string(v);
  out += '\n';
}

/// Parse "key=value" out of one space-separated token; false on mismatch.
bool tokenValue(std::string_view token, std::string_view key,
                std::string_view& value) {
  if (token.size() <= key.size() + 1) return false;
  if (token.substr(0, key.size()) != key || token[key.size()] != '=') {
    return false;
  }
  value = token.substr(key.size() + 1);
  return true;
}

bool parseU64(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

bool parseI64(std::string_view s, std::int64_t& out) {
  bool neg = !s.empty() && s[0] == '-';
  std::uint64_t mag = 0;
  if (!parseU64(neg ? s.substr(1) : s, mag)) return false;
  out = neg ? -static_cast<std::int64_t>(mag) : static_cast<std::int64_t>(mag);
  return true;
}

/// One "segment = ..." line body (the part after "segment = ").
bool parseSegment(std::string_view body, SegmentInfo& seg) {
  bool haveSeq = false, haveFile = false;
  std::size_t pos = 0;
  while (pos < body.size()) {
    while (pos < body.size() && body[pos] == ' ') ++pos;
    std::size_t end = body.find(' ', pos);
    if (end == std::string_view::npos) end = body.size();
    std::string_view tok = body.substr(pos, end - pos);
    pos = end;
    if (tok.empty()) continue;
    std::string_view v;
    if (tokenValue(tok, "seq", v)) {
      if (!parseU64(v, seg.seq)) return false;
      haveSeq = true;
    } else if (tokenValue(tok, "file", v)) {
      seg.file = std::string(v);
      haveFile = true;
    } else if (tokenValue(tok, "records", v)) {
      if (!parseU64(v, seg.records)) return false;
    } else if (tokenValue(tok, "bytes", v)) {
      if (!parseU64(v, seg.bytes)) return false;
    } else if (tokenValue(tok, "first", v)) {
      if (!parseU64(v, seg.first)) return false;
    } else if (tokenValue(tok, "sealed_unix", v)) {
      if (!parseI64(v, seg.sealedUnix)) return false;
    }
    // Unknown tokens (an older manifest's format=) are skipped so the
    // format can grow.
  }
  return haveSeq && haveFile;
}

}  // namespace

std::string Manifest::render() const {
  std::string out = "# nfstraced manifest v1\n";
  appendKv(out, "next_seq", nextSeq);
  appendKv(out, "captured", books.captured);
  appendKv(out, "sealed", books.sealed);
  appendKv(out, "recovered", books.recovered);
  appendKv(out, "lost", books.lost);
  for (const SegmentInfo& s : segments) {
    char line[512];
    std::snprintf(line, sizeof(line),
                  "segment = seq=%llu file=%s records=%llu "
                  "bytes=%llu first=%llu sealed_unix=%lld\n",
                  static_cast<unsigned long long>(s.seq), s.file.c_str(),
                  static_cast<unsigned long long>(s.records),
                  static_cast<unsigned long long>(s.bytes),
                  static_cast<unsigned long long>(s.first),
                  static_cast<long long>(s.sealedUnix));
    out += line;
  }
  char trailer[32];
  std::snprintf(trailer, sizeof(trailer), "crc = 0x%08x\n",
                crc32(out.data(), out.size()));
  out += trailer;
  return out;
}

Manifest::LoadStatus Manifest::load(const std::string& path, Manifest& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return LoadStatus::Missing;
  std::string text;
  char chunk[1 << 14];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    text.append(chunk, n);
  }
  bool readErr = std::ferror(f) != 0;
  std::fclose(f);
  if (readErr) return LoadStatus::Damaged;

  // Locate the trailer: the last line must be "crc = 0x%08x\n" and the
  // CRC covers every byte before it.
  if (text.empty() || text.back() != '\n') return LoadStatus::Damaged;
  std::size_t lineStart = text.rfind('\n', text.size() - 2);
  lineStart = (lineStart == std::string::npos) ? 0 : lineStart + 1;
  std::string_view last(text.data() + lineStart, text.size() - lineStart);
  if (last.size() != 17 || last.substr(0, 8) != "crc = 0x") {
    return LoadStatus::Damaged;
  }
  std::uint32_t stored = 0;
  for (char c : last.substr(8, 8)) {
    std::uint32_t d;
    if (c >= '0' && c <= '9') d = static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') d = static_cast<std::uint32_t>(c - 'a') + 10;
    else return LoadStatus::Damaged;
    stored = stored << 4 | d;
  }
  if (crc32(text.data(), lineStart) != stored) return LoadStatus::Damaged;

  Manifest m;
  bool haveNextSeq = false;
  std::string_view body(text.data(), lineStart);
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t end = body.find('\n', pos);
    if (end == std::string_view::npos) end = body.size();
    std::string_view line = body.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    std::size_t eq = line.find(" = ");
    if (eq == std::string_view::npos) return LoadStatus::Damaged;
    std::string_view key = line.substr(0, eq);
    std::string_view value = line.substr(eq + 3);
    if (key == "next_seq") {
      if (!parseU64(value, m.nextSeq)) return LoadStatus::Damaged;
      haveNextSeq = true;
    } else if (key == "captured") {
      if (!parseU64(value, m.books.captured)) return LoadStatus::Damaged;
    } else if (key == "sealed") {
      if (!parseU64(value, m.books.sealed)) return LoadStatus::Damaged;
    } else if (key == "recovered") {
      if (!parseU64(value, m.books.recovered)) return LoadStatus::Damaged;
    } else if (key == "lost") {
      if (!parseU64(value, m.books.lost)) return LoadStatus::Damaged;
    } else if (key == "segment") {
      SegmentInfo seg;
      if (!parseSegment(value, seg)) return LoadStatus::Damaged;
      m.segments.push_back(std::move(seg));
    }
    // Unknown keys are skipped (format growth).
  }
  if (!haveNextSeq || !m.books.balanced()) return LoadStatus::Damaged;
  std::sort(m.segments.begin(), m.segments.end(),
            [](const SegmentInfo& a, const SegmentInfo& b) {
              return a.seq < b.seq;
            });
  for (const SegmentInfo& s : m.segments) {
    if (s.seq >= m.nextSeq) return LoadStatus::Damaged;
  }
  out = std::move(m);
  return LoadStatus::Ok;
}

void Manifest::save(const std::string& path) const {
  writeFileAtomic(path, render());
}

}  // namespace nfstrace::daemon
