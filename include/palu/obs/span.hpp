// RAII trace spans: measure a scope once, deliver the duration to a sink.
//
// A TraceSpan reads std::chrono::steady_clock at construction and again
// at stop()/destruction, then hands the elapsed nanoseconds to either a
// Histogram (registry-backed latency series: a whole sweep, one store
// block decode) or a plain uint64_t accumulator (a sweep window's stage
// totals, which add up over its packet batches and reach the registry
// once per completed window, so the hot loop never pays an atomic per
// batch).  Every duration the library records goes through it.  Both
// clock reads live in src/obs/span.cpp; under src/ only it and
// src/serve/daemon.cpp (supervision pacing) are on the lint's timing
// allowlist, so the determinism rule stays enforceable tree-wide
// (DESIGN.md §5c).
#pragma once

#include <cstdint>

namespace palu::obs {

class Histogram;

class TraceSpan {
 public:
  /// Span that observes its duration into a latency histogram.
  explicit TraceSpan(Histogram& sink) noexcept;
  /// Span that adds its duration to a caller-owned accumulator, which
  /// must outlive the span.
  explicit TraceSpan(std::uint64_t& accumulator_ns) noexcept;

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Ends the span early; idempotent.  Returns the elapsed nanoseconds
  /// delivered to the sink (0 on repeat calls).
  std::uint64_t stop() noexcept;

  ~TraceSpan() { stop(); }

 private:
  Histogram* histogram_ = nullptr;
  std::uint64_t* accumulator_ = nullptr;
  std::uint64_t start_ns_ = 0;
  bool stopped_ = false;
};

}  // namespace palu::obs
