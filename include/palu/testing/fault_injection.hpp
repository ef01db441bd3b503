// Deterministic fault injection for ingest and estimation testing.
//
// Two layers:
//
//  * A trace corruptor that damages a clean "src dst" text capture the way
//    real trunk logs get damaged — flipped bits, truncated lines,
//    duplicated / dropped records, interleaved garbage, negative ids,
//    uint64-overflowing ids — with every decision drawn from a seeded RNG,
//    so a corruption run is exactly reproducible.
//
//  * Seeded failpoints (palu/common/failpoint.hpp) that force
//    ConvergenceError inside fits ("fit.palu_mle", "fit.nelder_mead")
//    and sweep workers ("traffic.sweep_window").  The streaming
//    estimator fits its two lanes concurrently, so a count-limited fit
//    arming (fires > 0) hits the tumbling and sliding lanes of a window
//    in unspecified order; arm without a limit to fail both.
//
// Header-only and test-oriented: nothing here is linked into the library
// proper, and the umbrella header deliberately does not include it.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "palu/common/failpoint.hpp"
#include "palu/rng/xoshiro.hpp"

namespace palu::testing {

/// Which damage kinds the corruptor may apply (all on by default).
struct CorruptionOptions {
  /// Per-line probability of being selected for corruption.
  double rate = 0.05;
  bool bit_flips = true;    ///< flip one bit of one byte in the line
  bool truncation = true;   ///< cut the line at a random byte
  bool duplication = true;  ///< emit the (valid) line twice
  bool drops = true;        ///< omit the line entirely
  bool garbage = true;      ///< replace with a line of printable junk
  bool negatives = true;    ///< prefix the line with '-'
  bool overflow = true;     ///< left-pad the first token past uint64 range
};

/// What the corruptor did, for asserting against IngestReports.
struct CorruptionSummary {
  std::size_t lines_seen = 0;       ///< substantive input lines
  std::size_t lines_corrupted = 0;  ///< damaged in place (still emitted)
  std::size_t lines_duplicated = 0;
  std::size_t lines_dropped = 0;    ///< omitted from the output
  std::size_t garbage_lines = 0;    ///< junk lines emitted
};

namespace detail {

inline std::string make_garbage_line(Rng& rng) {
  // No '#' (would read as a comment) and no digits (could parse as ids):
  // every garbage line must be substantive and unparseable.
  static constexpr std::string_view kJunk = "!@$%^&*()_+abcdefXYZ<>?;:~";
  const std::size_t len = 3 + rng.uniform_index(20);
  std::string line;
  line.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    line.push_back(kJunk[rng.uniform_index(kJunk.size())]);
  }
  return line;
}

}  // namespace detail

/// Corrupts a clean trace (or edge-list) text deterministically: the same
/// (input, options, seed) triple always yields the same output.  Blank and
/// '#'-comment lines pass through untouched so the damage lands on
/// records, like it does in practice.
inline std::string corrupt_trace(const std::string& clean,
                                 const CorruptionOptions& opts,
                                 std::uint64_t seed,
                                 CorruptionSummary* summary = nullptr) {
  Rng rng(seed);
  CorruptionSummary local;
  std::ostringstream out;
  std::istringstream in(clean);

  // Collect the enabled damage kinds once so the per-line draw is uniform
  // over what is actually allowed.
  enum Kind { kFlip, kTruncate, kDuplicate, kDrop, kGarbage, kNegative,
              kOverflow };
  std::vector<Kind> kinds;
  if (opts.bit_flips) kinds.push_back(kFlip);
  if (opts.truncation) kinds.push_back(kTruncate);
  if (opts.duplication) kinds.push_back(kDuplicate);
  if (opts.drops) kinds.push_back(kDrop);
  if (opts.garbage) kinds.push_back(kGarbage);
  if (opts.negatives) kinds.push_back(kNegative);
  if (opts.overflow) kinds.push_back(kOverflow);

  std::string line;
  while (std::getline(in, line)) {
    const bool substantive =
        !line.empty() && line.find_first_not_of(" \t\r") !=
                             std::string::npos &&
        line[line.find_first_not_of(" \t\r")] != '#';
    if (!substantive || kinds.empty() || !rng.bernoulli(opts.rate)) {
      out << line << '\n';
      continue;
    }
    ++local.lines_seen;
    switch (kinds[rng.uniform_index(kinds.size())]) {
      case kFlip: {
        std::string damaged = line;
        const std::size_t pos = rng.uniform_index(damaged.size());
        damaged[pos] = static_cast<char>(
            damaged[pos] ^ static_cast<char>(1 << rng.uniform_index(7)));
        out << damaged << '\n';
        ++local.lines_corrupted;
        break;
      }
      case kTruncate: {
        const std::size_t keep = rng.uniform_index(line.size());
        out << line.substr(0, keep) << '\n';
        ++local.lines_corrupted;
        break;
      }
      case kDuplicate:
        out << line << '\n' << line << '\n';
        ++local.lines_duplicated;
        break;
      case kDrop:
        ++local.lines_dropped;
        break;
      case kGarbage:
        out << detail::make_garbage_line(rng) << '\n';
        ++local.garbage_lines;
        break;
      case kNegative:
        out << '-' << line << '\n';
        ++local.lines_corrupted;
        break;
      case kOverflow:
        // 25 leading digits overflow uint64 no matter what follows.
        out << "9999999999999999999999999" << line << '\n';
        ++local.lines_corrupted;
        break;
    }
  }
  if (summary != nullptr) *summary = local;
  return out.str();
}

/// Arms the failpoint that makes the profile-likelihood PALU fit fail.
inline void force_palu_mle_failure(int fires = -1, int skip = 0) {
  failpoints::arm("fit.palu_mle", fires, skip);
}

/// Arms the failpoint that makes Nelder–Mead diverge.
inline void force_nelder_mead_divergence(int fires = -1, int skip = 0) {
  failpoints::arm("fit.nelder_mead", fires, skip);
}

/// Arms the failpoint inside sweep_windows workers.  With a single-thread
/// pool, `skip = k` fails exactly window k.
inline void force_sweep_window_failure(int fires = 1, int skip = 0) {
  failpoints::arm("traffic.sweep_window", fires, skip);
}

/// RAII teardown: disarms every failpoint on scope exit.
class FailpointGuard {
 public:
  FailpointGuard() = default;
  ~FailpointGuard() { failpoints::disarm_all(); }
  FailpointGuard(const FailpointGuard&) = delete;
  FailpointGuard& operator=(const FailpointGuard&) = delete;
};

}  // namespace palu::testing
