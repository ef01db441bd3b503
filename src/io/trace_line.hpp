// Internal "src dst" line parsing shared by the trace reader
// (TraceTailReader) and read_edge_list.  Not installed.
//
// Both readers try scan_packet_line first: one word-at-a-time pass over
// the raw bytes that accepts only the common well-formed shape, finds the
// line's end itself, and produces its packet with no Result, no string and
// no second pass.  Every other line (blank, comment, signed or overlong
// tokens, '\r' inside the line, a third token, junk) goes through trim +
// parse_packet_line, which alone decides what is malformed and says why,
// so a line's outcome, packet and diagnostic are the same whichever path
// reads it.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

// ---------------------------------------------------- word-at-a-time scan
//
// A word holds eight bytes of the text, the first byte in its lowest byte
// (the scan runs only on little-endian hosts).

/// The eight bytes at `p`, with every byte at or past `end` read as 0:
/// one load while eight bytes remain, a byte loop for the last few.
inline std::uint64_t load_word(const char* p, const char* end) noexcept {
  std::uint64_t w = 0;
  if (end - p >= 8) {
    std::memcpy(&w, p, 8);
    return w;
  }
  for (unsigned i = 0; p + i != end; ++i) {
    w |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
  }
  return w;
}

/// The word's bytes less '0' each: digits become their values 0–9.
/// Each byte below '0' borrows from the one above it, so only bytes up
/// to the first non-digit are exact; the functions below read no more.
inline std::uint64_t less_zeros(std::uint64_t w) noexcept {
  return w - 0x3030303030303030u;
}

/// How many of the word's bytes, from its first, are ASCII digits (0–8),
/// given less_zeros(word).  A digit's byte t is 0–9, so neither t nor
/// t + 0x76 reaches 0x80; every other byte sets bit 7 in one of them (a
/// byte below '0' borrowed, so t >= 0xD0).  A carry or borrow crosses
/// only upward from a non-digit, so the lowest flagged byte is exact.
inline unsigned digit_run(std::uint64_t t) noexcept {
  const std::uint64_t not_digit =
      (t | (t + 0x7676767676767676u)) & 0x8080808080808080u;
  return static_cast<unsigned>(std::countr_zero(not_digit)) / 8;
}

/// The value of the first `n` (1–8) digits, given less_zeros(word).
/// Shifting them to the top leaves zeros below, which read as leading
/// zeros.  Three multiplies then fold digit pairs, pairs of pairs, and
/// the two halves.
inline std::uint64_t digits_value(std::uint64_t t, unsigned n) noexcept {
  std::uint64_t v = t << (64 - 8 * n);
  v = v * 10 + (v >> 8);
  return ((v & 0x000000FF000000FFu) * (100 + (1000000ull << 32)) +
          ((v >> 16) & 0x000000FF000000FFu) * (1 + (10000ull << 32))) >>
         32;
}

/// Reads 1–19 ASCII digits at `p` into `v` and returns one past them;
/// nullptr for no digit or for 20 and more (which parse_u64 checks for
/// overflow).  Reads no byte at or past `end`.
[[gnu::always_inline]] inline const char* scan_id(const char* p,
                                                  const char* end,
                                                  NodeId& v) noexcept {
  static constexpr std::uint64_t kPow10[] = {
      1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000};
  const char* const first = p;
  std::uint64_t t = less_zeros(load_word(p, end));
  unsigned n = digit_run(t);
  if (n == 0) return nullptr;
  v = digits_value(t, n);
  while (n == 8) {  // a full word of digits: the run goes on
    p += 8;
    t = less_zeros(load_word(p, end));
    n = digit_run(t);
    if (n == 0) return p;
    if (static_cast<unsigned>(p - first) + n > 19) return nullptr;
    v = v * kPow10[n] + digits_value(t, n);
  }
  return p + n;
}

/// Scans one line starting at `p` against
/// `[ \t]* digits [ \t]+ digits [ \t\r]*` with 1–19 digits per token,
/// which cannot overflow uint64 (20-digit tokens fall through to
/// parse_u64's overflow check).  On a match writes the two ids to `out`
/// and returns where the line ends: its '\n', or `end` when the range
/// runs out first.  Returns nullptr, leaving `out` unspecified, for any
/// other line and for every line on a big-endian host.  Reads no byte at
/// or past `end`.  Both scans are forced inline: as calls they pass the
/// ids through memory, which cost more than the scan itself.
[[gnu::always_inline]] inline const char* scan_packet_line(
    const char* p, const char* end, traffic::Packet& out) noexcept {
  if constexpr (std::endian::native != std::endian::little) {
    return nullptr;
  } else {
    const auto blank = [](char c) { return c == ' ' || c == '\t'; };
    while (p != end && blank(*p)) ++p;
    p = scan_id(p, end, out.src);
    if (p == nullptr || p == end || !blank(*p)) return nullptr;
    do {
      ++p;
    } while (p != end && blank(*p));
    p = scan_id(p, end, out.dst);
    if (p == nullptr) return nullptr;
    while (p != end && (blank(*p) || *p == '\r')) ++p;
    return p == end || *p == '\n' ? p : nullptr;
  }
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
