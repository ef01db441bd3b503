// Internal per-line bookkeeping shared by the policy-aware io readers.
// Not installed: the public surface is IngestOptions/IngestReport.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "palu/common/result.hpp"
#include "palu/io/parse.hpp"
#include "palu/obs/metrics.hpp"
#include "palu/obs/names.hpp"

namespace palu::io::detail {

/// Salvage helper for kRepair: extracts the values of up to `want` digit
/// runs in `body` that parse cleanly as uint64 (overlong runs that would
/// overflow are passed over).
inline std::vector<std::uint64_t> salvage_u64(std::string_view body,
                                              std::size_t want) {
  std::vector<std::uint64_t> out;
  std::size_t i = 0;
  while (i < body.size() && out.size() < want) {
    if (body[i] < '0' || body[i] > '9') {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < body.size() && body[j] >= '0' && body[j] <= '9') ++j;
    const auto parsed = parse_u64(body.substr(i, j - i));
    if (parsed.ok()) out.push_back(parsed.value());
    i = j;
  }
  return out;
}

/// Applies one ErrorPolicy to a stream of per-line verdicts: throws under
/// kStrict, otherwise counts drops/repairs, pins the first error, and
/// enforces the error budget.  Also the readers' metrics chokepoint: the
/// palu_ingest_* counter handles are resolved once here (against whatever
/// registry the options selected), labelled by the reader's context, so
/// the per-line loops never touch the registry mutex.  Counters are
/// monotone across a process; the IngestReport is the per-call record —
/// in particular read_edge_list's late declared-range check unwinds
/// report fields for edges reclassified as drops, while the counters keep
/// both the original disposition and the drop (an event log, not a
/// snapshot).
class IngestGate {
 public:
  IngestGate(const char* context, const IngestOptions& opts,
             IngestReport& report)
      : context_(context),
        opts_(opts),
        report_(report),
        registry_(opts.metrics != nullptr ? *opts.metrics
                                          : obs::default_registry()),
        kept_counter_(registry_.counter(
            obs::names::kIngestLines,
            {{"reader", context}, {"outcome", "kept"}})),
        repaired_counter_(registry_.counter(
            obs::names::kIngestLines,
            {{"reader", context}, {"outcome", "repaired"}})),
        dropped_counter_(registry_.counter(
            obs::names::kIngestLines,
            {{"reader", context}, {"outcome", "dropped"}})),
        budget_counter_(registry_.counter(obs::names::kIngestBudgetExhausted,
                                          {{"reader", context}})) {
    registry_.counter(obs::names::kIngestReads, {{"reader", context}}).inc();
  }

  /// A well-formed line accepted as-is.
  void kept() {
    ++report_.records_kept;
    kept_counter_.inc();
  }

  /// A malformed line with nothing salvageable.  Counted as dropped even
  /// under kStrict, where it also aborts the read.
  void drop(std::size_t line_number, const std::string& message,
            const std::string& line) {
    dropped_counter_.inc();
    if (opts_.policy == ErrorPolicy::kStrict) {
      throw DataError(std::string(context_) + ": malformed line " +
                      std::to_string(line_number) + ": " + message +
                      " (line: '" + line + "')");
    }
    ++report_.lines_dropped;
    note_error(line_number, message, line);
    check_budget();
  }

  /// A malformed line salvaged under kRepair.
  void repaired(std::size_t line_number, const std::string& message,
                const std::string& line) {
    repaired_counter_.inc();
    ++report_.lines_repaired;
    note_error(line_number, message, line);
    check_budget();
  }

  /// One record line through the policy: the `parsed` value; under kRepair
  /// the value of the first two unsigned integers salvaged from a line
  /// that did not parse; otherwise nullopt — a drop, which throws under
  /// kStrict and once the budget is spent.
  template <typename T>
  std::optional<T> accept(std::size_t line_number, const Result<T>& parsed,
                          std::string_view body, std::string_view line) {
    if (parsed.ok()) {
      kept();
      return parsed.value();
    }
    if (opts_.policy == ErrorPolicy::kRepair) {
      const auto salvaged = salvage_u64(body, 2);
      if (salvaged.size() == 2) {
        repaired(line_number, parsed.error(), std::string(line));
        return T{salvaged[0], salvaged[1]};
      }
    }
    drop(line_number, parsed.error(), std::string(line));
    return std::nullopt;
  }

 private:
  void note_error(std::size_t line_number, const std::string& message,
                  const std::string& line) {
    if (!report_.first_error) {
      report_.first_error = IngestError{line_number, message, line};
    }
  }

  void check_budget() {
    const std::size_t bad = report_.lines_dropped + report_.lines_repaired;
    if (bad > opts_.max_bad_lines) {
      std::string what = std::string(context_) +
                         ": error budget exhausted (" + std::to_string(bad) +
                         " bad lines > max_bad_lines=" +
                         std::to_string(opts_.max_bad_lines) + ")";
      if (report_.first_error) {
        what += "; first error at line " +
                std::to_string(report_.first_error->line_number) + ": " +
                report_.first_error->message;
      }
      budget_counter_.inc();
      throw DataError(what);
    }
  }

  const char* context_;
  const IngestOptions& opts_;
  IngestReport& report_;
  obs::Registry& registry_;
  obs::Counter& kept_counter_;
  obs::Counter& repaired_counter_;
  obs::Counter& dropped_counter_;
  obs::Counter& budget_counter_;
};

}  // namespace palu::io::detail
