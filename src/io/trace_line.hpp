// Internal "src dst" line parsing shared by the trace reader
// (TraceTailReader) and read_edge_list.  Not installed.
#pragma once

#include <string_view>

#include "palu/common/result.hpp"
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
