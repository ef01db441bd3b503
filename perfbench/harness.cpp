// perfbench_harness — the in-process half of the benchmark; run.py calls
// it.  Every subcommand prints one JSON object on stdout, except `render`,
// which writes the traces themselves.
//
//   render    --seed S --packets N --fds F,F,...
//       Text traces over the fixed benchmark network: links and their
//       Pareto rates come from kNetworkSeed, and the packets of the trace
//       written to open descriptor F_i come from stream i of seed S.
//   serve-ref --trace PATH --window N
//       The daemon's stages (feed → queue → accumulate → histogram →
//       refit) driven directly; returns the result lines the daemon
//       must print for the same trace.
//   archive-ref --trace PATH --nvalid N
//       The pooled CSV and merged histogram accumulated straight from
//       the trace, which a replay of its capture must reproduce.
//   sweep-ref --seed S --windows W --nvalid N
//       The counts sweep rebuilt from its layer calls on one thread:
//       `palu_tool sweep --synthesis counts --csv` must print the same
//       CSV.
//   expected  --seed S --seconds T
//       The analytic-window workload, end to end, in process.
//   traced    --serve-traces P,P,... --window N --archive-trace P --nvalid N
//             --store DIR --seed S --sweep-windows W --sweep-nvalid N
//             --workload NAME --spans FILE
//       One traced pass over all four pipelines: spans around each call
//       into a layer, written to FILE, and the per-layer metrics derived
//       from their self times.  Then the tracing overhead of the
//       workload's pipeline, from alternating untraced and traced passes.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "palu/cli/args.hpp"
#include "palu/palu.hpp"
#include "palu/traffic/expected_window.hpp"
#include "palu/traffic/window_accumulator.hpp"

namespace {

using namespace palu;
using Clock = std::chrono::steady_clock;

// The network every workload runs over (bench_sweep's): solve_hubs(6.0,
// 0.35, 0.2, 2.3, 1.0) on 150,000 nodes.
constexpr NodeId kNodes = 150000;
constexpr std::uint64_t kNetworkSeed = 17;
constexpr traffic::Quantity kQuantity = traffic::Quantity::kUndirectedDegree;
constexpr std::array<traffic::Quantity, 6> kQuantities = {
    traffic::Quantity::kSourcePackets,
    traffic::Quantity::kSourceFanOut,
    traffic::Quantity::kLinkPackets,
    traffic::Quantity::kDestinationFanIn,
    traffic::Quantity::kDestinationPackets,
    traffic::Quantity::kUndirectedDegree};
// Window sizes of the analytic ladder (N_V).
constexpr std::array<Count, 5> kLadder = {10000, 100000, 1000000, 10000000,
                                          100000000};
// Ladder passes per `expected` run, at least.
constexpr std::size_t kMinPasses = 4;
// The daemon's read size, so the staged feed sees the same chunks.
constexpr std::size_t kChunk = 65536;

core::PaluParams network_params() {
  return core::PaluParams::solve_hubs(6.0, 0.35, 0.2, 2.3, 1.0);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

// ------------------------------------------------------------------ spans

// One timed call into a layer.  Per-record stages (queue pop, accumulator
// add) would cost more to log one by one than they take, so each window
// folds them into one span: `count` calls, duration = their summed time,
// laid out from the window's start.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index in the same log; -1 for a root
  std::int64_t id;      // window or evaluation id
  std::int64_t count;
};

// Spans of one thread, kept in memory until the run ends.
class SpanLog {
 public:
  std::int32_t open(const char* name, std::int64_t id,
                    std::int32_t parent = -1) {
    spans_.push_back({name, now_ns(), 0, parent, id, 1});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t index) { spans_[index].end_ns = now_ns(); }
  void fold(const char* name, std::int64_t id, std::int32_t parent,
            std::int64_t start_ns, std::int64_t total_ns,
            std::int64_t count) {
    spans_.push_back(
        {name, start_ns, start_ns + total_ns, parent, id, count});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Opens a span when tracing is on (log != nullptr), closes it on scope
// exit; with tracing off it reads no clock.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::int64_t id,
        std::int32_t parent = -1)
      : log_(log), index_(log != nullptr ? log->open(name, id, parent) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int32_t index() const { return index_; }

 private:
  SpanLog* log_;
  std::int32_t index_;
};

// Self time and durations per span name, over any number of logs.
struct SpanStats {
  std::map<std::string, std::int64_t> self_ns;
  std::map<std::string, std::int64_t> total_ns;
  std::map<std::string, std::int64_t> calls;
  std::map<std::string, std::vector<double>> durations_ms;

  void add(const SpanLog& log) {
    const auto& spans = log.spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::int64_t dur = s.end_ns - s.start_ns;
      self_ns[s.name] += dur - child_ns[i];
      total_ns[s.name] += dur;
      calls[s.name] += s.count;
      durations_ms[s.name].push_back(ms(dur));
    }
  }
  std::int64_t self(const std::string& name) const {
    const auto it = self_ns.find(name);
    return it == self_ns.end() ? 0 : it->second;
  }
  std::int64_t total(const std::string& name) const {
    const auto it = total_ns.find(name);
    return it == total_ns.end() ? 0 : it->second;
  }
  std::int64_t count(const std::string& name) const {
    const auto it = calls.find(name);
    return it == calls.end() ? 0 : it->second;
  }
  std::size_t spans(const std::string& name) const {
    const auto it = durations_ms.find(name);
    return it == durations_ms.end() ? 0 : it->second.size();
  }
  double mean_ms(const std::string& name) const {
    const std::size_t n = spans(name);
    return n == 0 ? 0.0 : ms(total(name)) / static_cast<double>(n);
  }
  double quantile_ms(const std::string& name, double q) const {
    const auto it = durations_ms.find(name);
    return it == durations_ms.end() ? 0.0 : quantile(it->second, q);
  }
  double max_ms(const std::string& name) const {
    const auto it = durations_ms.find(name);
    if (it == durations_ms.end() || it->second.empty()) return 0.0;
    return *std::max_element(it->second.begin(), it->second.end());
  }
};

void write_spans(std::ostream& out, const char* pipeline, int thread,
                 const SpanLog& log) {
  for (const Span& s : log.spans()) {
    out << pipeline << '\t' << thread << '\t' << s.name << '\t' << s.id
        << '\t' << s.parent << '\t' << s.start_ns << '\t' << s.end_ns
        << '\t' << s.count << '\n';
  }
}

// ------------------------------------------------------------------- json

// Flat JSON object writer; strings are escaped, numbers keep 17 digits.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  Json& num(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  Json& strings(const std::string& key, const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) s += ',';
      s += quote(v[i]);
    }
    return raw(key, s + "]");
  }
  Json& nums(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i > 0 ? "," : "", v[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  Json& object(const std::string& key, const Json& inner) {
    return raw(key, inner.str());
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  static std::string quote(const std::string& v) {
    std::string s = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        s += '\\';
        s += c;
      } else if (c == '\n') {
        s += "\\n";
      } else if (static_cast<unsigned char>(c) < 0x20) {
        s += ' ';
      } else {
        s += c;
      }
    }
    return s + "\"";
  }
  Json& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ',';
    body_ += quote(key) + ":" + value;
    return *this;
  }
  std::string body_;
};

// ------------------------------------------------------------------ input

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PALU_CHECK(static_cast<bool>(in), "cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

// Fixed network and link rates; the seed only moves the packet draws.
struct Traffic {
  core::UnderlyingNetwork net;
  std::vector<double> rates;
};

Traffic fixed_traffic() {
  Rng rng(kNetworkSeed);
  Traffic t{core::generate_underlying(network_params(), kNodes, rng), {}};
  t.rates = traffic::make_edge_rates(t.net.graph, traffic::RateModel{},
                                     Rng(kNetworkSeed).fork(1));
  return t;
}

int cmd_render(const cli::Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto packets = static_cast<std::size_t>(args.get_int("packets", 0));
  PALU_CHECK(packets > 0, "render: --packets must be positive");
  const Traffic t = fixed_traffic();
  std::vector<traffic::Packet> out(packets);
  std::stringstream fds(args.get_string("fds", ""));
  std::uint64_t stream = 0;
  for (std::string fd; std::getline(fds, fd, ','); ++stream) {
    traffic::SyntheticTrafficGenerator gen(t.net.graph, t.rates,
                                           Rng(seed).fork(stream));
    gen.next_batch(out);
    std::ofstream file("/proc/self/fd/" + fd, std::ios::binary);
    io::write_trace(file, out);
    file.flush();
    if (!file) return 1;
  }
  return stream > 0 ? 0 : 2;
}

// ------------------------------------------------------------------ serve

// The daemon's result line (serve/daemon.cpp publish_line), rebuilt from
// a refit so the benchmark can check the daemon's output.
std::string result_line(const core::StreamingRefit& refit,
                        std::uint64_t offset) {
  std::string line = "window=" + std::to_string(refit.window_index) +
                     " offset=" + std::to_string(offset) + " degraded=" +
                     (refit.fresh ? "-" : "fit");
  char buf[96];
  const auto add_lane = [&](const char* p,
                            const core::StreamingFitSnapshot& lane) {
    line += std::string(" ") + p + "_state=" +
            std::string(core::to_string(lane.freshness)) + " " + p +
            "_stage=" + std::string(fit::to_string(lane.stage));
    const std::array<std::pair<const char*, double>, 7> fields = {{
        {"_alpha", lane.fit.alpha},
        {"_c", lane.fit.c},
        {"_mu", lane.fit.mu},
        {"_u", lane.fit.u},
        {"_l", lane.fit.l},
        {"_zm_alpha", lane.zm.alpha},
        {"_zm_delta", lane.zm.delta},
    }};
    for (const auto& [suffix, v] : fields) {
      std::snprintf(buf, sizeof buf, " %s%s=%.17g", p, suffix, v);
      line += buf;
    }
  };
  add_lane("w", refit.window);
  add_lane("s", refit.sliding);
  return line;
}

// What one window's lanes were fitted from: the histogram and the lane
// states before the refit (the warm starts).
struct LaneInputs {
  stats::DegreeHistogram hist;
  core::StreamingFitSnapshot prev_window;
  core::StreamingFitSnapshot prev_sliding;
  core::StreamingRefit refit;
};

struct ServeRun {
  std::vector<std::string> lines;
  std::vector<LaneInputs> inputs;  // traced runs only
  std::uint64_t lines_in = 0;
  std::uint64_t bad_lines = 0;
  std::int64_t start_ns = 0;
  std::int64_t last_result_ns = 0;
  SpanLog ingest_log;
  SpanLog fit_log;
};

// The ingest thread: 64 KiB chunks through a TraceTailReader, each record
// pushed into the queue (blocking while it is full).
void ingest_stage(const std::string& trace, serve::BoundedRecordQueue& queue,
                  SpanLog* log, ServeRun& run) {
  const bool traced = log != nullptr;
  io::TraceTailReader reader;
  std::vector<io::TailRecord> records;
  std::int64_t push_ns = 0;
  std::int64_t pushes = 0;
  const auto deliver = [&] {
    for (const io::TailRecord& rec : records) {
      const std::int64_t t0 = traced ? now_ns() : 0;
      queue.push(rec);
      if (traced) push_ns += now_ns() - t0;
    }
    pushes += static_cast<std::int64_t>(records.size());
    records.clear();
  };
  std::int64_t chunk_id = 0;
  for (std::size_t at = 0; at < trace.size(); at += kChunk) {
    {
      Scope feed(log, "io.feed", chunk_id++);
      reader.feed(std::string_view(trace).substr(at, kChunk), records);
    }
    deliver();
  }
  reader.finish(records);
  deliver();
  run.lines_in = reader.report().lines_read;
  run.bad_lines =
      reader.report().lines_dropped + reader.report().lines_repaired;
  if (traced) log->fold("serve.push", 0, -1, run.start_ns, push_ns, pushes);
}

// The fit thread: pop, accumulate, and at every window boundary histogram
// and refit, publishing the daemon's result line.
void fit_stage(serve::BoundedRecordQueue& queue, std::uint64_t window,
               SpanLog* fit_log, ServeRun& run) {
  const bool traced = fit_log != nullptr;
  core::WindowedStreamingEstimator estimator;  // `palu_tool serve` defaults
  traffic::WindowAccumulator acc;
  acc.begin_window();
  io::TailRecord rec;
  std::uint64_t fill = 0;
  std::int64_t window_start = run.start_ns;
  std::int64_t pop_ns = 0;
  std::int64_t add_ns = 0;
  std::int32_t window_span = traced ? fit_log->open("serve.window", 0) : -1;
  for (;;) {
    const std::int64_t t0 = traced ? now_ns() : 0;
    if (!queue.pop(rec)) break;
    const std::int64_t t1 = traced ? now_ns() : 0;
    acc.add(rec.packet.src, rec.packet.dst);
    if (traced) {
      const std::int64_t t2 = now_ns();
      pop_ns += t1 - t0;
      add_ns += t2 - t1;
    }
    if (++fill < window) continue;
    const auto id = static_cast<std::int64_t>(run.lines.size());
    if (traced) {
      fit_log->fold("serve.pop", id, window_span, window_start, pop_ns,
                    static_cast<std::int64_t>(fill));
      fit_log->fold("traffic.serve_add", id, window_span, window_start,
                    add_ns, static_cast<std::int64_t>(fill));
      pop_ns = add_ns = 0;
    }
    LaneInputs in;
    {
      Scope s(fit_log, "traffic.histogram", id, window_span);
      in.hist = acc.histogram(kQuantity);
    }
    if (traced) {
      in.prev_window = estimator.window_fit();
      in.prev_sliding = estimator.sliding_fit();
    }
    {
      Scope s(fit_log, "core.refit", id, window_span);
      in.refit = estimator.refit_window(in.hist);
    }
    run.lines.push_back(result_line(in.refit, rec.end_offset));
    acc.begin_window();
    fill = 0;
    if (traced) {
      fit_log->close(window_span);
      run.inputs.push_back(std::move(in));
      window_start = now_ns();
      window_span = fit_log->open("serve.window", id + 1);
    }
    run.last_result_ns = now_ns();
  }
  // The trailing partial window publishes nothing; its span only closes.
  if (traced) fit_log->close(window_span);
}

// The daemon's two stages on an in-memory trace, in the daemon's order:
// the ingest thread feeds 64 KiB chunks through a TraceTailReader and
// pushes each record into the bounded queue (blocking when full); the fit
// thread pops, accumulates, and at every window boundary histograms and
// refits.  With `traced` set every layer call is timed.
void run_serve(const std::string& trace, std::uint64_t window, bool traced,
               ServeRun& run) {
  serve::BoundedRecordQueue queue(65536, serve::BackpressurePolicy::kBlock);
  SpanLog* ingest_log = traced ? &run.ingest_log : nullptr;
  SpanLog* fit_log = traced ? &run.fit_log : nullptr;
  run.start_ns = now_ns();

  std::exception_ptr ingest_error;
  std::thread ingest([&] {
    try {
      ingest_stage(trace, queue, ingest_log, run);
    } catch (...) {
      ingest_error = std::current_exception();
    }
    queue.close();
  });
  try {
    fit_stage(queue, window, fit_log, run);
  } catch (...) {
    queue.abort();  // unblocks a producer waiting on a full queue
    ingest.join();
    throw;
  }
  ingest.join();
  if (ingest_error) std::rethrow_exception(ingest_error);
}

bool same_fit(const core::PaluFit& a, const core::PaluFit& b) {
  return std::memcmp(&a.alpha, &b.alpha, sizeof a.alpha) == 0 &&
         std::memcmp(&a.c, &b.c, sizeof a.c) == 0 &&
         std::memcmp(&a.mu, &b.mu, sizeof a.mu) == 0 &&
         std::memcmp(&a.u, &b.u, sizeof a.u) == 0 &&
         std::memcmp(&a.l, &b.l, sizeof a.l) == 0;
}

// Re-fits one lane the way WindowedStreamingEstimator does, timing the
// PALU ladder (core) and the ZM companion fit (fit) apart.  Returns
// whether the result matches what refit_window served.
bool attribute_lane(const stats::DegreeHistogram& h,
                    const core::StreamingFitSnapshot& previous,
                    const core::StreamingFitSnapshot& served,
                    const core::StreamingOptions& opts, SpanLog& log,
                    std::int64_t id) {
  const bool warm = opts.warm_start && previous.has_fit();
  core::RobustPaluFit robust;
  {
    Scope s(&log, "core.palu_fit", id);
    robust = warm ? core::robust_fit_palu_warm(h, previous.fit, opts.fit,
                                               opts.robust, opts.refine_max)
                  : core::robust_fit_palu(h, opts.fit, opts.robust,
                                          opts.refine_max);
  }
  if (!robust.ok()) return !served.error.empty();
  bool same = same_fit(robust.fit, served.fit) && robust.stage == served.stage;
  if (opts.fit_zm) {
    fit::ZmFitOptions zopts;
    if (warm && previous.zm_valid && std::isfinite(previous.zm.alpha) &&
        previous.zm.alpha > 0.0 && previous.zm.delta > -1.0) {
      zopts.alpha_init = previous.zm.alpha;
      zopts.delta_init = previous.zm.delta;
    }
    Scope s(&log, "fit.zm", id);
    try {
      const fit::ZmFitResult zm = fit::fit_zipf_mandelbrot(
          stats::LogBinned::from_histogram(h), h.max_degree(), zopts);
      same = same &&
             std::memcmp(&zm.alpha, &served.zm.alpha, sizeof zm.alpha) == 0 &&
             std::memcmp(&zm.delta, &served.zm.delta, sizeof zm.delta) == 0;
    } catch (const Error&) {
      // Served the previous ZM parameters; nothing to compare.
    }
  }
  return same;
}

// Splits each refit into its lane fits: the same lane inputs and warm
// starts, fitted again outside the timed chain.
std::size_t attribute_refits(const std::vector<LaneInputs>& inputs,
                             SpanLog& log) {
  const core::StreamingOptions opts;
  std::deque<const stats::DegreeHistogram*> horizon;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const LaneInputs& in = inputs[i];
    const auto id = static_cast<std::int64_t>(i);
    horizon.push_back(&in.hist);
    while (horizon.size() > opts.sliding_horizon) horizon.pop_front();
    bool ok = attribute_lane(in.hist, in.prev_window, in.refit.window, opts,
                             log, id);
    if (horizon.size() > 1) {
      stats::DegreeHistogram merged;
      {
        Scope s(&log, "stats.merge", id);
        for (const auto* h : horizon) merged.merge(*h);
      }
      ok = attribute_lane(merged, in.prev_sliding, in.refit.sliding, opts,
                          log, id) &&
           ok;
    }
    if (!ok) ++mismatches;
  }
  return mismatches;
}

int cmd_serve_ref(const cli::Args& args) {
  const std::string trace = read_file(args.get_string("trace", ""));
  const auto window = static_cast<std::uint64_t>(args.get_int("window", 0));
  PALU_CHECK(window > 0, "serve-ref: --window must be positive");
  ServeRun run;
  run_serve(trace, window, /*traced=*/false, run);
  std::printf("%s\n", Json()
                          .num("bad_lines", run.bad_lines)
                          .strings("lines", run.lines)
                          .str()
                          .c_str());
  return 0;
}

// ---------------------------------------------------------------- archive

struct Pooled {
  stats::BinnedEnsemble ensemble;
  stats::DegreeHistogram merged;
  void add(const stats::DegreeHistogram& h) {
    ensemble.add(stats::LogBinned::from_histogram(h));
    merged.merge(h);
  }
  std::string csv() const {
    std::ostringstream out;
    io::write_pooled_csv(out, stats::LogBinned(ensemble.mean()),
                         ensemble.stddev());
    return std::move(out).str();
  }
  // The merged-histogram line `palu_tool sweep` and `replay` print.
  std::string summary() const {
    return "d_max=" + std::to_string(merged.empty() ? 0 : merged.max_degree()) +
           " merged_total=" + std::to_string(merged.total()) +
           " support=" + std::to_string(merged.support_size());
  }
};

std::vector<traffic::Packet> parse_trace(const std::string& path,
                                         std::uint64_t& bad_lines) {
  std::ifstream in(path);
  PALU_CHECK(static_cast<bool>(in), "cannot open trace " + path);
  io::TraceReadResult r = io::read_trace(in, IngestOptions{});
  bad_lines = r.report.lines_dropped + r.report.lines_repaired;
  return std::move(r.packets);
}

// Each whole window's histogram accumulated straight from the packets:
// what a replay of their capture must reproduce.
Pooled direct_pooled(const std::vector<traffic::Packet>& packets,
                     std::size_t n_valid) {
  traffic::WindowAccumulator acc;
  Pooled pooled;
  for (std::size_t t = 0; t < packets.size() / n_valid; ++t) {
    acc.begin_window();
    acc.add_packets(std::span<const traffic::Packet>(
        packets.data() + t * n_valid, n_valid));
    pooled.add(acc.histogram(kQuantity));
  }
  return pooled;
}

int cmd_archive_ref(const cli::Args& args) {
  std::uint64_t bad = 0;
  const auto packets = parse_trace(args.get_string("trace", ""), bad);
  const auto n_valid = static_cast<std::size_t>(args.get_int("nvalid", 0));
  PALU_CHECK(n_valid > 0 && packets.size() >= n_valid,
             "archive-ref: trace smaller than one window");
  const Pooled pooled = direct_pooled(packets, n_valid);
  std::printf("%s\n", Json()
                          .num("packets", packets.size() / n_valid * n_valid)
                          .num("bad_lines", bad)
                          .str("csv", pooled.csv())
                          .str("merged", pooled.summary())
                          .str()
                          .c_str());
  return 0;
}

// Capture (as `palu_tool capture --trace`) then replay of the same store,
// sequentially, every layer call timed.
struct ArchiveRun {
  SpanLog log;
  std::uint64_t lines = 0;
  std::uint64_t bad_lines = 0;
  std::uint64_t windows = 0;
  store::WindowStoreWriter::Stats stats;
  std::int64_t capture_ns = 0;
  std::int64_t replay_ns = 0;
  bool identical = false;
};

void run_archive(const std::string& path, std::size_t n_valid,
                 const std::string& dir, bool traced, ArchiveRun& run) {
  SpanLog* log = traced ? &run.log : nullptr;
  // Always a new store: rewriting one in place made ext4 flush the
  // truncated file, which stalled captures for over a second.
  std::filesystem::remove_all(dir);
  std::vector<traffic::Packet> packets;
  const std::int64_t capture_start = now_ns();
  {
    Scope capture(log, "archive.capture", 0);
    {
      Scope s(log, "io.parse", 0, capture.index());
      packets = parse_trace(path, run.bad_lines);
    }
    run.lines = packets.size();
    NodeId domain = 1;
    for (const auto& p : packets) {
      domain = std::max(domain, std::max(p.src, p.dst) + 1);
    }
    store::WriterOptions wopts;
    wopts.node_domain = domain;
    store::WindowStoreWriter writer(dir, wopts);
    traffic::WindowAccumulator acc;
    std::vector<traffic::EdgePacketCounts> records;
    run.windows = packets.size() / n_valid;
    for (std::size_t t = 0; t < run.windows; ++t) {
      const auto id = static_cast<std::int64_t>(t);
      {
        Scope s(log, "traffic.accumulate", id, capture.index());
        acc.begin_window();
        acc.add_packets(std::span<const traffic::Packet>(
            packets.data() + t * n_valid, n_valid));
      }
      {
        Scope s(log, "traffic.export", id, capture.index());
        records.clear();
        acc.export_counts(records);
      }
      {
        Scope s(log, "store.append", id, capture.index());
        writer.append(t, n_valid, records);
      }
    }
    {
      Scope s(log, "store.finish", 0, capture.index());
      writer.finish();
    }
    run.stats = writer.stats();
  }
  run.capture_ns = now_ns() - capture_start;
  // The reference for the check, outside the timed capture.
  const Pooled direct = direct_pooled(packets, n_valid);
  packets = {};
  const std::int64_t replay_start = now_ns();
  {
    Scope replay(log, "archive.replay", 0);
    std::optional<store::WindowStoreReader> reader;
    {
      Scope s(log, "store.open", 0, replay.index());
      reader.emplace(dir);
    }
    traffic::WindowAccumulator acc;
    std::vector<std::byte> buf;
    std::vector<traffic::EdgePacketCounts> records;
    Pooled replayed;
    for (std::size_t t = 0; t < reader->num_windows(); ++t) {
      const auto id = static_cast<std::int64_t>(t);
      {
        Scope s(log, "store.read", id, replay.index());
        reader->read_window(t, buf, records);
      }
      {
        Scope s(log, "traffic.replay_ingest_counts", id, replay.index());
        acc.begin_window();
        acc.ingest_counts(records);
      }
      stats::DegreeHistogram h;
      {
        Scope s(log, "traffic.replay_histogram", id, replay.index());
        h = acc.histogram(kQuantity);
      }
      {
        Scope s(log, "stats.replay_reduce", id, replay.index());
        replayed.add(h);
      }
    }
    run.replay_ns = now_ns() - replay_start;
    run.identical = replayed.merged.sorted() == direct.merged.sorted() &&
                    replayed.csv() == direct.csv();
  }
}

// ------------------------------------------------------------------ sweep

// One worker's scratch: a generator over the shared rates, reseeded per
// window, and an accumulator (the sweep's SweepScratch).
struct SweepWorker {
  traffic::SyntheticTrafficGenerator gen;
  traffic::WindowAccumulator acc;
  std::vector<traffic::EdgePacketCounts> pairs;
  SweepWorker(const graph::Graph& g, const std::vector<double>& rates)
      : gen(g, rates, Rng(0)) {}
};

struct SweepRun {
  std::string csv;
  std::string summary;
  stats::DegreeHistogram merged;
  std::int64_t wall_ns = 0;
  std::size_t threads = 0;
  std::vector<SpanLog> logs;  // one per chunk, traced runs only
  SpanLog reduce_log;
};

// `palu_tool sweep --synthesis counts` rebuilt from its layer calls: the
// same network, rates and per-window RNG streams, windows spread over a
// `threads`-thread pool, reduced in window order.
void run_sweep(std::uint64_t seed, std::size_t windows, Count n_valid,
               std::size_t threads, bool traced, SweepRun& run) {
  Rng net_rng(seed);
  const auto net =
      core::generate_underlying(network_params(), kNodes, net_rng);
  const Rng base(seed);
  const std::vector<double> rates =
      traffic::make_edge_rates(net.graph, traffic::RateModel{}, base.fork(0));
  ThreadPool pool(threads);
  run.threads = pool.size();
  std::vector<stats::DegreeHistogram> hists(windows);
  std::mutex logs_mutex;
  std::vector<SpanLog> logs;

  const std::int64_t start = now_ns();
  ScratchPool<SweepWorker> workers([&] {
    return std::make_unique<SweepWorker>(net.graph, rates);
  });
  parallel_for(pool, 0, windows, /*grain=*/1, [&](IndexRange range) {
    auto lease = workers.acquire();
    SweepWorker& w = *lease;
    SpanLog log;
    SpanLog* lp = traced ? &log : nullptr;
    for (std::size_t t = range.begin; t < range.end; ++t) {
      const auto id = static_cast<std::int64_t>(t);
      {
        Scope s(lp, "rng.window_counts", id);
        w.gen.reseed(base.fork(t + 1));
        w.gen.next_window_counts(n_valid, w.pairs);
      }
      {
        Scope s(lp, "traffic.ingest_counts", id);
        w.acc.begin_window();
        w.acc.ingest_counts(w.pairs);
      }
      {
        Scope s(lp, "traffic.sweep_histogram", id);
        hists[t] = w.acc.histogram(kQuantity);
      }
    }
    if (traced) {
      std::lock_guard<std::mutex> lock(logs_mutex);
      logs.push_back(std::move(log));
    }
  });
  Pooled pooled;
  SpanLog* rp = traced ? &run.reduce_log : nullptr;
  for (std::size_t t = 0; t < windows; ++t) {
    const auto id = static_cast<std::int64_t>(t);
    {
      Scope s(rp, "stats.logbin", id);
      pooled.ensemble.add(stats::LogBinned::from_histogram(hists[t]));
    }
    Scope s(rp, "stats.sweep_merge", id);
    pooled.merged.merge(hists[t]);
  }
  run.wall_ns = now_ns() - start;
  run.csv = pooled.csv();
  run.summary = pooled.summary();
  run.merged = std::move(pooled.merged);
  run.logs = std::move(logs);
}

int cmd_sweep_ref(const cli::Args& args) {
  SweepRun run;
  run_sweep(static_cast<std::uint64_t>(args.get_int("seed", 1)),
            static_cast<std::size_t>(args.get_int("windows", 1)),
            static_cast<Count>(args.get_int("nvalid", 1000000)),
            /*threads=*/1, /*traced=*/false, run);
  std::printf("%s\n", Json()
                          .str("csv", run.csv)
                          .str("merged", run.summary)
                          .str()
                          .c_str());
  return 0;
}

// --------------------------------------------------------------- expected

struct ExpectedSetup {
  Traffic traffic;
  std::optional<traffic::SyntheticTrafficGenerator> gen;
  std::optional<traffic::ExpectedWindowEvaluator> eval;
};

// Network, rates, the merged-pair support, and the evaluator over it.
// The seed moves the link rates; the network is fixed.
std::unique_ptr<ExpectedSetup> expected_setup(std::uint64_t seed) {
  auto s = std::make_unique<ExpectedSetup>();
  Rng rng(kNetworkSeed);
  s->traffic.net = core::generate_underlying(network_params(), kNodes, rng);
  s->traffic.rates = traffic::make_edge_rates(
      s->traffic.net.graph, traffic::RateModel{}, Rng(seed).fork(0));
  s->gen.emplace(s->traffic.net.graph, s->traffic.rates, Rng(0));
  s->eval.emplace(s->gen->pair_support());
  return s;
}

// One pass over the ladder: prepare at each size, evaluate all six
// quantities.  Checks each mass sums to 1 and, against `reference` when
// given, repeats bit for bit.
struct LadderPass {
  std::vector<std::vector<double>> masses;
  std::vector<double> eval_ms;
  std::size_t failed = 0;
  std::int64_t wall_ns = 0;
};

LadderPass run_ladder(traffic::ExpectedWindowEvaluator& eval,
                      const LadderPass* reference, SpanLog* log) {
  LadderPass pass;
  const std::int64_t start = now_ns();
  for (const Count n : kLadder) {
    {
      Scope s(log, "traffic.expected_prepare", static_cast<std::int64_t>(n));
      eval.prepare(n);
    }
    for (const traffic::Quantity q : kQuantities) {
      const auto id = static_cast<std::int64_t>(pass.masses.size());
      const std::int64_t t0 = now_ns();
      traffic::ExpectedWindow w;
      {
        Scope s(log, "traffic.expected_evaluate", id);
        w = eval.evaluate(q);
      }
      pass.eval_ms.push_back(ms(now_ns() - t0));
      const bool unit = std::abs(w.mass.total_mass() - 1.0) <= 1e-9;
      const bool repeats = reference == nullptr ||
                           reference->masses[pass.masses.size()] ==
                               w.mass.mass();
      if (!unit || !repeats) ++pass.failed;
      pass.masses.push_back(w.mass.mass());
    }
  }
  pass.wall_ns = now_ns() - start;
  return pass;
}

// Peak resident set since the last reset (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 12, '\n');
  }
  return 0.0;
}

// Writing 5 to clear_refs resets VmHWM to the current resident set.
bool reset_peak_rss() {
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY);
  if (fd < 0) return false;
  const bool ok = ::write(fd, "5", 1) == 1;
  ::close(fd);
  return ok;
}

// Each pass runs on an evaluator set up just before it, as a user who
// builds one per network does.  That also spreads the set-up samples over
// the run: set-up time follows the machine's state from second to second,
// so samples taken back to back at the start move together.
int cmd_expected(const cli::Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 4.0);

  std::vector<double> setup_s;
  std::vector<LadderPass> passes;
  std::int64_t measured_ns = 0;
  std::size_t evals = 0;
  std::size_t failed = 0;
  std::size_t links = 0;
  std::vector<double> eval_ms;
  double rss = 0.0;
  bool rss_reset = true;
  while (passes.size() < kMinPasses ||
         ms(measured_ns) / 1e3 < seconds) {
    const std::int64_t t0 = now_ns();
    const auto setup = expected_setup(seed);
    setup_s.push_back(ms(now_ns() - t0) / 1e3);
    links = setup->eval->num_links();
    rss_reset = reset_peak_rss() && rss_reset;
    LadderPass pass = run_ladder(*setup->eval,
                                 passes.empty() ? nullptr : &passes.front(),
                                 nullptr);
    rss = std::max(rss, peak_rss_mb());
    measured_ns += pass.wall_ns;
    evals += pass.eval_ms.size();
    failed += pass.failed;
    eval_ms.insert(eval_ms.end(), pass.eval_ms.begin(), pass.eval_ms.end());
    // Only the first pass's masses are kept, as the repeat reference.
    if (!passes.empty()) pass.masses.clear();
    passes.push_back(std::move(pass));
  }
  std::printf(
      "%s\n",
      Json()
          .nums("setup_s", setup_s)
          .num("evals", evals)
          .num("failed", failed)
          .num("passes", passes.size())
          .num("measured_s", ms(measured_ns) / 1e3)
          .nums("eval_ms", eval_ms)
          .num("peak_rss_mb", rss)
          .boolean("rss_reset", rss_reset)
          .num("links", links)
          .str()
          .c_str());
  return 0;
}

// ----------------------------------------------------------------- traced

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct FitCounters {
  std::uint64_t attempts = 0, success = 0, iter_sum = 0, iter_count = 0;
};

FitCounters fit_counters(const char* stage) {
  obs::Registry& reg = obs::default_registry();
  const obs::Labels labels = {{"stage", stage}};
  FitCounters c;
  c.attempts = reg.counter(obs::names::kFitStageAttempts, labels).value();
  c.success = reg.counter(obs::names::kFitStageSuccess, labels).value();
  obs::Histogram& h = reg.histogram(obs::names::kFitStageIterations, labels);
  c.iter_sum = h.sum();
  c.iter_count = h.count();
  return c;
}

FitCounters operator-(const FitCounters& a, const FitCounters& b) {
  return {a.attempts - b.attempts, a.success - b.success,
          a.iter_sum - b.iter_sum, a.iter_count - b.iter_count};
}

FitCounters operator+(const FitCounters& a, const FitCounters& b) {
  return {a.attempts + b.attempts, a.success + b.success,
          a.iter_sum + b.iter_sum, a.iter_count + b.iter_count};
}

// Queue handoff cost: `records`, `rounds` times over, pushed by one thread
// and popped by another as fast as both can go.
double queue_ns_per_record(const std::vector<io::TailRecord>& records,
                           int rounds) {
  serve::BoundedRecordQueue queue(65536, serve::BackpressurePolicy::kBlock);
  const std::int64_t t0 = now_ns();
  std::thread producer([&] {
    for (int i = 0; i < rounds; ++i) {
      for (const auto& r : records) queue.push(r);
    }
    queue.close();
  });
  io::TailRecord rec;
  std::size_t popped = 0;
  while (queue.pop(rec)) ++popped;
  producer.join();
  return ratio(static_cast<double>(now_ns() - t0),
               static_cast<double>(std::max<std::size_t>(popped, 1)));
}

// What the traced pass gathers over its four pipelines.
struct Traced {
  std::string workload;
  std::ofstream spans;
  Json metrics;
  Json info;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t bad_lines = 0;  // both trace readers
  std::map<std::string, double> coverage;
  // One pass of the workload's pipeline, tracing on or off: its
  // end-to-end seconds.
  std::function<double(bool traced)> pass;
};

// Backlogs per serve pass of the overhead measurement.
constexpr std::size_t kOverheadBacklogs = 3;
// Untraced and traced passes each, in the overhead measurement.
constexpr int kOverheadPairs = 3;

// Tracing overhead of one pipeline, in percent.  A discarded pass pays
// first-use set-up; then untraced and traced passes alternate, so that
// neither side runs cold and a drift in machine speed hits both, and
// their medians are compared.  Returns {untraced s, traced s, overhead}.
std::array<double, 3> tracing_overhead(
    const std::function<double(bool)>& pass) {
  pass(false);
  std::vector<double> off;
  std::vector<double> on;
  for (int i = 0; i < kOverheadPairs; ++i) {
    const bool traced_first = i % 2 == 1;
    (traced_first ? on : off).push_back(pass(traced_first));
    (traced_first ? off : on).push_back(pass(!traced_first));
  }
  const double untraced = quantile(off, 0.5);
  const double traced = quantile(on, 0.5);
  return {untraced, traced, 100.0 * ratio(traced - untraced, untraced)};
}

// serve-fit: the daemon's stages over each backlog, then the refit
// attribution pass.
void trace_serve(const cli::Args& args, Traced& t) {
  const auto window =
      static_cast<std::uint64_t>(args.get_int("window", 20000));
  std::vector<std::string> paths;
  std::stringstream list(args.get_string("serve-traces", ""));
  for (std::string p; std::getline(list, p, ',');) paths.push_back(p);
  PALU_CHECK(!paths.empty(), "traced: missing --serve-traces");
  if (t.workload == "serve-fit") {
    std::vector<std::string> traces;
    for (std::size_t c = 0; c < std::min(kOverheadBacklogs, paths.size());
         ++c) {
      traces.push_back(read_file(paths[c]));
    }
    t.pass = [traces = std::move(traces), window](bool traced) {
      double s = 0.0;
      for (const std::string& trace : traces) {
        ServeRun run;
        run_serve(trace, window, traced, run);
        s += ms(run.last_result_ns - run.start_ns) / 1e3;
      }
      return s;
    };
  }
  SpanStats st;
  std::vector<LaneInputs> inputs;
  std::vector<std::string> lines;
  std::uint64_t lines_in = 0;
  std::size_t mismatches = 0;
  FitCounters lm;
  FitCounters nm;
  std::vector<io::TailRecord> first_records;
  for (std::size_t c = 0; c < paths.size(); ++c) {
    const std::string trace = read_file(paths[c]);
    const FitCounters lm0 = fit_counters("levmar");
    const FitCounters nm0 = fit_counters("nelder-mead");
    ServeRun run;
    run_serve(trace, window, /*traced=*/true, run);
    lm = lm + (fit_counters("levmar") - lm0);
    nm = nm + (fit_counters("nelder-mead") - nm0);
    SpanLog attribution;
    mismatches += attribute_refits(run.inputs, attribution);
    st.add(run.ingest_log);
    st.add(run.fit_log);
    st.add(attribution);
    const int thread = static_cast<int>(3 * c);
    write_spans(t.spans, "serve-fit", thread, run.ingest_log);
    write_spans(t.spans, "serve-fit", thread + 1, run.fit_log);
    write_spans(t.spans, "serve-fit", thread + 2, attribution);
    lines_in += run.lines_in;
    t.bad_lines += run.bad_lines;
    lines.insert(lines.end(), run.lines.begin(), run.lines.end());
    for (auto& in : run.inputs) inputs.push_back(std::move(in));
    if (c == 0) {
      io::TraceTailReader reader;
      reader.feed(trace, first_records);
      reader.finish(first_records);
    }
  }

  const auto windows = static_cast<double>(inputs.size());
  std::size_t rung[3] = {0, 0, 0};
  std::size_t degraded = 0;
  for (const auto& in : inputs) {
    if (!in.refit.fresh) ++degraded;
    switch (in.refit.window.stage) {
      case fit::RobustStage::kLevMar: ++rung[0]; break;
      case fit::RobustStage::kNelderMead: ++rung[1]; break;
      case fit::RobustStage::kMoments: ++rung[2]; break;
      case fit::RobustStage::kFailed: break;
    }
  }
  // serve.window spans tile the fit thread; their self time is what no
  // layer call explains.
  t.coverage["serve-fit"] =
      1.0 - ratio(static_cast<double>(st.self("serve.window")),
                  static_cast<double>(st.total("serve.window")));
  t.attempted += inputs.size();
  t.failed += degraded + mismatches;
  t.metrics
      .num("io.feed_ns_per_line",
           ratio(static_cast<double>(st.total("io.feed")),
                 static_cast<double>(lines_in)))
      .num("serve.queue_ns_per_record",
           queue_ns_per_record(first_records, /*rounds=*/5))
      .num("serve.pop_wait_ms_per_window",
           ratio(ms(st.total("serve.pop")), windows))
      .num("traffic.serve_add_ns_per_packet",
           ratio(static_cast<double>(st.total("traffic.serve_add")),
                 static_cast<double>(st.count("traffic.serve_add"))))
      .num("traffic.histogram_ms", st.mean_ms("traffic.histogram"))
      .num("stats.merge_ms", ratio(ms(st.total("stats.merge")), windows))
      .num("core.refit_ms_p50", st.quantile_ms("core.refit", 0.5))
      .num("core.refit_ms_p90", st.quantile_ms("core.refit", 0.9))
      .num("core.refit_self_ms",
           ratio(ms(st.total("core.refit") - st.total("core.palu_fit") -
                    st.total("fit.zm") - st.total("stats.merge")),
                 windows))
      .num("core.palu_fit_ms", st.mean_ms("core.palu_fit"))
      .num("core.windows_levmar", rung[0])
      .num("core.windows_nelder_mead", rung[1])
      .num("core.windows_moments", rung[2])
      .num("core.degraded_windows", degraded)
      .num("core.attribution_mismatches", mismatches)
      .num("fit.zm_ms", st.mean_ms("fit.zm"))
      .num("fit.levmar_success_ratio",
           ratio(static_cast<double>(lm.success),
                 static_cast<double>(lm.attempts)))
      .num("fit.nelder_mead_success_ratio",
           ratio(static_cast<double>(nm.success),
                 static_cast<double>(nm.attempts)))
      .num("fit.levmar_iterations",
           ratio(static_cast<double>(lm.iter_sum),
                 static_cast<double>(lm.iter_count)))
      .num("fit.nelder_mead_iterations",
           ratio(static_cast<double>(nm.iter_sum),
                 static_cast<double>(nm.iter_count)));
  t.info.num("serve_windows", inputs.size()).strings("serve_lines", lines);
}

// trace-archive: capture, then replay of the same store.
void trace_archive(const cli::Args& args, Traced& t) {
  const std::string path = args.get_string("archive-trace", "");
  const auto n_valid = static_cast<std::size_t>(args.get_int("nvalid", 0));
  const std::string dir = args.get_string("store", "store");
  obs::Counter& checksum =
      obs::default_registry().counter(obs::names::kStoreChecksumFailures);
  const std::uint64_t checksum0 = checksum.value();
  if (t.workload == "trace-archive") {
    t.pass = [path, n_valid, dir](bool traced) {
      ArchiveRun run;
      run_archive(path, n_valid, dir, traced, run);
      return ms(run.capture_ns + run.replay_ns) / 1e3;
    };
  }
  ArchiveRun run;
  run_archive(path, n_valid, dir, /*traced=*/true, run);
  SpanStats st;
  st.add(run.log);
  write_spans(t.spans, "trace-archive", 0, run.log);
  const auto windows = static_cast<double>(run.windows);
  const double wall_ms = ms(run.capture_ns + run.replay_ns);
  t.coverage["trace-archive"] =
      1.0 - ratio(ms(st.self("archive.capture") + st.self("archive.replay")),
                  wall_ms);
  t.attempted += 2 * run.windows;
  if (!run.identical) t.failed += run.windows;
  t.metrics
      .num("io.parse_ns_per_line",
           ratio(static_cast<double>(st.total("io.parse")),
                 static_cast<double>(run.lines)))
      .num("io.bad_lines", t.bad_lines + run.bad_lines)
      .num("traffic.accumulate_ns_per_packet",
           ratio(static_cast<double>(st.total("traffic.accumulate")),
                 static_cast<double>(run.windows * n_valid)))
      .num("traffic.export_ms", st.mean_ms("traffic.export"))
      .num("traffic.replay_ingest_counts_ms",
           st.mean_ms("traffic.replay_ingest_counts"))
      .num("traffic.replay_histogram_ms",
           st.mean_ms("traffic.replay_histogram"))
      .num("store.append_ms", st.mean_ms("store.append"))
      .num("store.finish_ms", ms(st.total("store.finish")))
      .num("store.read_ms", st.mean_ms("store.read"))
      .num("store.payload_bytes_per_record",
           ratio(static_cast<double>(run.stats.payload_bytes),
                 static_cast<double>(run.stats.records)))
      .num("store.checksum_failures", checksum.value() - checksum0)
      .num("stats.replay_reduce_ms",
           ratio(ms(st.total("stats.replay_reduce")), windows));
}

// sweep: the counts sweep on nproc threads, then on one.
void trace_sweep(const cli::Args& args, Traced& t) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto windows =
      static_cast<std::size_t>(args.get_int("sweep-windows", 256));
  const auto n_valid =
      static_cast<Count>(args.get_int("sweep-nvalid", 1000000));
  if (t.workload == "sweep") {
    t.pass = [seed, windows, n_valid](bool traced) {
      SweepRun run;
      run_sweep(seed, windows, n_valid, 0, traced, run);
      return ms(run.wall_ns) / 1e3;
    };
  }
  SweepRun wide;
  run_sweep(seed, windows, n_valid, 0, /*traced=*/true, wide);
  SweepRun one;
  run_sweep(seed, windows, n_valid, 1, /*traced=*/true, one);
  SpanStats st;
  for (std::size_t i = 0; i < wide.logs.size(); ++i) {
    st.add(wide.logs[i]);
    write_spans(t.spans, "sweep", static_cast<int>(i), wide.logs[i]);
  }
  st.add(wide.reduce_log);
  write_spans(t.spans, "sweep", -1, wide.reduce_log);
  const auto n = static_cast<double>(windows);
  const double worker_ms = ms(st.total("rng.window_counts") +
                              st.total("traffic.ingest_counts") +
                              st.total("traffic.sweep_histogram"));
  const double reduce_ms =
      ms(st.total("stats.logbin") + st.total("stats.sweep_merge"));
  const double wall_ms = ms(wide.wall_ns);
  t.coverage["sweep"] = ratio(
      worker_ms / static_cast<double>(wide.threads) + reduce_ms, wall_ms);
  const bool same =
      wide.merged.sorted() == one.merged.sorted() && wide.csv == one.csv;
  t.attempted += 2 * windows;
  if (!same) t.failed += windows;
  const double speedup = ratio(ms(one.wall_ns), wall_ms);
  t.metrics
      .num("rng.window_counts_ms", ratio(ms(st.total("rng.window_counts")), n))
      .num("traffic.ingest_counts_ms",
           ratio(ms(st.total("traffic.ingest_counts")), n))
      .num("traffic.sweep_histogram_ms",
           ratio(ms(st.total("traffic.sweep_histogram")), n))
      .num("stats.logbin_ms", ratio(ms(st.total("stats.logbin")), n))
      .num("parallel.threads", wide.threads)
      .num("parallel.speedup", speedup)
      .num("parallel.efficiency",
           ratio(speedup, static_cast<double>(wide.threads)));
}

// expected: an untraced, then a traced pass over the ladder.
void trace_expected(const cli::Args& args, Traced& t) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  std::shared_ptr<ExpectedSetup> setup = expected_setup(seed);
  SpanLog log;
  const LadderPass first = run_ladder(*setup->eval, nullptr, nullptr);
  const LadderPass pass = run_ladder(*setup->eval, &first, &log);
  SpanStats st;
  st.add(log);
  write_spans(t.spans, "expected", 0, log);
  t.coverage["expected"] = ratio(ms(st.total("traffic.expected_prepare") +
                                    st.total("traffic.expected_evaluate")),
                                 ms(pass.wall_ns));
  if (t.workload == "expected") {
    t.pass = [setup](bool traced) {
      SpanLog discarded;
      return ms(run_ladder(*setup->eval, nullptr,
                           traced ? &discarded : nullptr)
                    .wall_ns) /
             1e3;
    };
  }
  t.attempted += first.eval_ms.size() + pass.eval_ms.size();
  t.failed += first.failed + pass.failed;
  t.metrics
      .num("traffic.expected_prepare_ms",
           st.mean_ms("traffic.expected_prepare"))
      .num("traffic.expected_evaluate_ms_p50",
           st.quantile_ms("traffic.expected_evaluate", 0.5))
      .num("traffic.expected_evaluate_ms_max",
           st.max_ms("traffic.expected_evaluate"))
      .num("traffic.expected_links", setup->eval->num_links());
}

int cmd_traced(const cli::Args& args) {
  Traced t;
  t.workload = args.get_string("workload", "");
  t.spans.open(args.get_string("spans", "spans.tsv"));
  PALU_CHECK(static_cast<bool>(t.spans), "traced: cannot write --spans");
  t.spans << "pipeline\tthread\tname\tid\tparent\tstart_ns\tend_ns\tcount\n";
  trace_serve(args, t);
  trace_archive(args, t);
  trace_sweep(args, t);
  trace_expected(args, t);

  const auto cov = t.coverage.find(t.workload);
  PALU_CHECK(cov != t.coverage.end() && t.pass,
             "traced: unknown --workload '" + t.workload + "'");
  const auto [untraced_s, traced_s, overhead] = tracing_overhead(t.pass);
  t.metrics.num("bench.coverage", cov->second)
      .num("bench.tracing_overhead_pct", overhead);
  Json cov_all;
  for (const auto& [name, v] : t.coverage) cov_all.num(name, v);
  t.info.object("coverage", cov_all)
      .num("untraced_s", untraced_s)
      .num("traced_s", traced_s);
  t.spans.flush();
  std::printf("%s\n", Json()
                          .num("attempted", t.attempted)
                          .num("failed", t.failed)
                          .object("metrics", t.metrics)
                          .object("info", t.info)
                          .str()
                          .c_str());
  return t.spans ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness <command> [options]\n");
    return 2;
  }
  const std::string command = argv[1];
  try {
    const auto args = cli::Args::parse(argc, argv, 2);
    if (command == "render") return cmd_render(args);
    if (command == "serve-ref") return cmd_serve_ref(args);
    if (command == "archive-ref") return cmd_archive_ref(args);
    if (command == "sweep-ref") return cmd_sweep_ref(args);
    if (command == "expected") return cmd_expected(args);
    if (command == "traced") return cmd_traced(args);
    std::fprintf(stderr, "perfbench_harness: unknown command '%s'\n",
                 command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness %s: %s\n", command.c_str(),
                 e.what());
    return 1;
  }
}
