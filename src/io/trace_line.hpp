// Internal "src dst" line parsing shared by the trace reader
// (TraceTailReader) and read_edge_list.  Not installed.
//
// Both readers try scan_packet_line first: one pass over the raw line that
// accepts only the common well-formed shape and produces its packet with no
// Result, no string and no second pass.  Every other line (blank, comment,
// signed or overlong tokens, '\r' inside the line, a third token, junk)
// goes through trim + parse_packet_line, which alone decides what is
// malformed and says why, so a line's outcome, packet and diagnostic are
// the same whichever path reads it.
#pragma once

#include <cstddef>
#include <string_view>

#include "palu/common/result.hpp"
#include "palu/common/types.hpp"
#include "palu/io/parse.hpp"
#include "palu/traffic/packet.hpp"

namespace palu::io::detail {

inline std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Accepts `[ \t]* digits [ \t]+ digits [ \t\r]*` with 1–19 digits per
/// token, which cannot overflow uint64 (20-digit tokens fall through to
/// parse_u64's overflow check), and writes the two ids to `out`.  Returns
/// false, leaving `out` unspecified, for any other line.
inline bool scan_packet_line(std::string_view line,
                             traffic::Packet& out) noexcept {
  constexpr std::ptrdiff_t kMaxDigits = 19;  // 10^19 - 1 < 2^64
  const char* p = line.data();
  const char* const end = p + line.size();
  const auto blank = [](char c) { return c == ' ' || c == '\t'; };
  const auto digits = [&](NodeId& v) {
    const char* const first = p;
    v = 0;
    while (p != end && *p >= '0' && *p <= '9') {
      if (p - first == kMaxDigits) return false;
      v = v * 10 + static_cast<NodeId>(*p - '0');
      ++p;
    }
    return p != first;
  };
  while (p != end && blank(*p)) ++p;
  if (!digits(out.src) || p == end || !blank(*p)) return false;
  while (p != end && blank(*p)) ++p;
  if (!digits(out.dst)) return false;
  while (p != end && (blank(*p) || *p == '\r')) ++p;
  return p == end;
}

/// Splits "src dst" and parses both ids; on failure returns the
/// diagnostic for the first offending token.
inline Result<traffic::Packet> parse_packet_line(std::string_view body) {
  const std::size_t split = body.find_first_of(" \t");
  if (split == std::string_view::npos) {
    return Result<traffic::Packet>::failure("expected two tokens");
  }
  const std::string_view src_tok = trim(body.substr(0, split));
  const std::string_view dst_tok = trim(body.substr(split));
  if (src_tok.empty() || dst_tok.empty()) {
    return Result<traffic::Packet>::failure("expected two tokens");
  }
  const auto src = parse_u64(src_tok);
  if (!src.ok()) return Result<traffic::Packet>::failure(src.error());
  const auto dst = parse_u64(dst_tok);
  if (!dst.ok()) return Result<traffic::Packet>::failure(dst.error());
  return traffic::Packet{src.value(), dst.value()};
}

}  // namespace palu::io::detail
