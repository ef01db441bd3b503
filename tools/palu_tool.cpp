// palu_tool — the command-line front door to the library.
//
// Subcommands:
//   generate  --nodes N --lambda L --core C --leaves F --alpha A
//             --window P --packets K [--seed S]
//       Realizes a PALU network, streams K packets over it, writes a
//       trace to stdout.
//   analyze   --trace FILE --nvalid N [--csv]
//       Windows a trace, fits the modified Zipf–Mandelbrot model and the
//       PALU constants, ranks the model zoo; --csv switches to CSV output.
//   census    --trace FILE --nvalid N
//       Prints the Fig-2 topology census of each window.
//   help
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "palu/cli/args.hpp"
#include "palu/palu.hpp"

namespace {

using namespace palu;

// Count flags parse signed; a negative would wrap to a huge unsigned
// (e.g. --window -1 -> 2^64-1) and sail past every later bound, so each
// command validates them before any cast and before opening any file.
std::uint64_t get_count(const cli::Args& args, const char* name,
                        std::int64_t fallback, std::int64_t min_value) {
  const std::int64_t v = args.get_int(name, fallback);
  if (v < min_value) {
    throw InvalidArgument("--" + std::string(name) + " must be >= " +
                          std::to_string(min_value) + ", got " +
                          std::to_string(v));
  }
  return static_cast<std::uint64_t>(v);
}

// Millisecond flags parse as doubles.  serve hands them to poll()'s int
// timeout and to deadline arithmetic, where NaN, an infinity or a value
// past int's range is undefined behaviour or a wait that never ends, so
// each is range-checked before the daemon starts.
double get_ms(const cli::Args& args, const char* name, double fallback,
              double min_value, double max_value = HUGE_VAL) {
  const double v = args.get_double(name, fallback);
  if (std::isfinite(v) && v >= min_value && v <= max_value) return v;
  char what[160];
  std::snprintf(what, sizeof what,
                "--%s must be finite and in [%.10g, %.10g], got %g", name,
                min_value, max_value, v);
  throw InvalidArgument(what);
}

int cmd_generate(const cli::Args& args) {
  const auto params = core::PaluParams::solve_hubs(
      args.get_double("lambda", 3.0), args.get_double("core", 0.4),
      args.get_double("leaves", 0.25), args.get_double("alpha", 2.1),
      args.get_double("window", 1.0));
  const auto nodes = static_cast<NodeId>(get_count(args, "nodes", 50000, 1));
  const Count packets = get_count(args, "packets", 200000, 0);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  const auto net = core::generate_underlying(params, nodes, rng);
  traffic::RateModel rates;
  rates.kind = traffic::RateModel::Kind::kPareto;
  traffic::SyntheticTrafficGenerator stream(net.graph, rates, rng.fork(1));
  std::vector<traffic::Packet> out;
  out.reserve(packets);
  for (Count i = 0; i < packets; ++i) out.push_back(stream.next());
  io::write_trace(std::cout, out);
  return 0;
}

// Shared ingest knobs: --on-error=strict|skip|repair, --max-bad-lines N.
IngestOptions ingest_options(const cli::Args& args) {
  IngestOptions opts;
  opts.policy = parse_error_policy(args.get_string("on-error", "strict"));
  if (args.has("max-bad-lines")) {
    opts.max_bad_lines =
        static_cast<std::size_t>(get_count(args, "max-bad-lines", 0, 0));
  }
  return opts;
}

// The input a FILE|- flag names: stdin for "-", else `in` opened at
// `path`.
std::istream& open_input(const std::string& path, std::ifstream& in,
                         const std::string& what) {
  if (path == "-") return std::cin;
  in.open(path);
  PALU_CHECK(static_cast<bool>(in), "cannot open " + what + " file: " + path);
  return in;
}

// Ingest accounting goes to stderr so piped CSV output stays clean.
void report_ingest(const char* what, const IngestReport& report) {
  if (!report.clean()) {
    std::fprintf(stderr, "%s ingest: %s\n", what,
                 report.summary().c_str());
  }
}

using TraceWindowFn =
    std::function<void(std::size_t, traffic::WindowAccumulator&)>;

// Reads --trace and hands each window of n_valid consecutive packets to
// `window` as io::cut_windows seals it, with its index; a trailing
// partial window is dropped.  Holds one open window however long the
// trace is; read_trace parses the next chunk on its own thread while
// this one cuts.  `on_read`, when set, runs once the whole trace is
// read, before its ingest summary.  Returns the window count; a trace
// shorter than one window is a usage error.
std::size_t for_each_trace_window(const cli::Args& args, Count n_valid,
                                  const TraceWindowFn& window,
                                  const std::function<void()>& on_read = {}) {
  const std::string path = args.get_string("trace", "");
  PALU_CHECK(!path.empty(), "missing --trace FILE");
  const IngestOptions opts = ingest_options(args);
  std::ifstream file;
  std::istream& in = open_input(path, file, "trace");
  traffic::WindowAccumulator acc;
  std::size_t windows = 0;
  const IngestReport report = io::read_trace(
      in, opts, [&](std::span<const io::TailRecord> records) {
        io::cut_windows(records, n_valid, acc, [&](std::uint64_t) {
          window(windows++, acc);
          return true;
        });
      });
  if (on_read) on_read();
  report_ingest("trace", report);
  PALU_CHECK(windows > 0, "trace smaller than one window");
  return windows;
}

int cmd_analyze(const cli::Args& args) {
  const Count n_valid = get_count(args, "nvalid", 50000, 1);
  const bool csv = args.get_flag("csv");
  stats::BinnedEnsemble ensemble;
  stats::DegreeHistogram merged;
  Degree dmax = 0;
  const std::size_t windows = for_each_trace_window(
      args, n_valid, [&](std::size_t, traffic::WindowAccumulator& window) {
        const auto h = window.histogram(traffic::Quantity::kUndirectedDegree);
        dmax = std::max(dmax, h.max_degree());
        ensemble.add(stats::LogBinned::from_histogram(h));
        merged.merge(h);
      });
  fit::ZmFitOptions opts;
  opts.bin_sigma = ensemble.stddev();
  const auto zm = fit::fit_zipf_mandelbrot(
      stats::LogBinned(ensemble.mean()), dmax, opts);
  const auto robust = core::robust_fit_palu(merged);
  if (!robust.ok()) {
    throw ConvergenceError("analyze: PALU fit failed on every stage: " +
                           robust.error);
  }
  const auto& palu_fit = robust.fit;
  const auto ranking = fit::fit_all_models(merged);
  if (csv) {
    io::write_pooled_csv(std::cout, stats::LogBinned(ensemble.mean()),
                         ensemble.stddev());
    io::write_model_comparison_csv(std::cout, ranking);
    return 0;
  }
  std::printf("windows=%zu n_valid=%llu d_max=%llu\n", windows,
              static_cast<unsigned long long>(n_valid),
              static_cast<unsigned long long>(dmax));
  std::printf("zipf-mandelbrot: alpha=%.4f delta=%+.4f\n", zm.alpha,
              zm.delta);
  std::printf("palu constants:  alpha=%.4f c=%.5f mu=%.4f u=%.6f "
              "l=%.5f  [stage=%s]\n",
              palu_fit.alpha, palu_fit.c, palu_fit.mu, palu_fit.u,
              palu_fit.l,
              std::string(fit::to_string(robust.stage)).c_str());
  std::printf("model ranking:\n");
  for (const auto& entry : ranking) {
    std::printf("  %-18s dAIC=%10.1f\n", entry.family.c_str(),
                entry.delta_aic);
  }
  return 0;
}

traffic::Quantity parse_quantity(const std::string& name) {
  static constexpr std::array<traffic::Quantity, 6> kQuantities = {
      traffic::Quantity::kSourcePackets,
      traffic::Quantity::kSourceFanOut,
      traffic::Quantity::kLinkPackets,
      traffic::Quantity::kDestinationFanIn,
      traffic::Quantity::kDestinationPackets,
      traffic::Quantity::kUndirectedDegree};
  for (const auto q : kQuantities) {
    if (name == traffic::quantity_name(q)) return q;
  }
  throw InvalidArgument("unknown --quantity '" + name +
                        "' (see `palu_tool help`)");
}

// Prints the stage and wall times of every sweep this command ran, read
// from the default registry: per-stage sums of
// palu_sweep_stage_duration_ns (CPU time summed over workers; setup is
// the once-per-call table build, 0 for a replay) and the sum of
// palu_sweep_duration_ns.  `produce` names the sampling stage.
void print_stage_times(const char* produce = "sampling") {
  std::map<std::string, std::uint64_t> stage_ns;
  std::uint64_t wall_ns = 0;
  for (const auto& h : obs::default_registry().snapshot().histograms) {
    if (h.name == obs::names::kSweepDurationNs) wall_ns += h.sum;
    if (h.name != obs::names::kSweepStageDurationNs) continue;
    for (const auto& [key, value] : h.labels) {
      if (key == "stage") stage_ns[value] += h.sum;
    }
  }
  const auto ms = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e6;
  };
  std::printf("stage cpu (summed over workers): setup=%.1fms %s=%.1fms "
              "accumulation=%.1fms binning=%.1fms\n",
              ms(stage_ns["setup"]), produce, ms(stage_ns["sampling"]),
              ms(stage_ns["accumulation"]), ms(stage_ns["binning"]));
  std::printf("sweep wall time: %.1fms\n", ms(wall_ns));
}

// Fits the PALU constants on a sweep's merged histogram, so one
// `sweep --metrics` run exercises — and exports — the whole instrumented
// pipeline.
void print_palu_fit(const stats::DegreeHistogram& merged) {
  if (merged.total() == 0) return;
  const auto robust = core::robust_fit_palu(merged);
  if (robust.ok()) {
    std::printf("palu constants: alpha=%.4f c=%.5f mu=%.4f u=%.6f "
                "l=%.5f  [stage=%s]\n",
                robust.fit.alpha, robust.fit.c, robust.fit.mu,
                robust.fit.u, robust.fit.l,
                std::string(fit::to_string(robust.stage)).c_str());
  } else {
    std::printf("palu constants: (fit failed on every stage: %s)\n",
                robust.error.c_str());
  }
}

// `sweep --synthesis expected`: the analytic window instead of sampled
// ones.  Its pooled CSV is the expected mass as one pseudo-window
// (sigma = 0), or with --replicates R the ensemble of an R-window counts
// sweep, for sampled sigma bands.  One pool runs both.
int sweep_expected(const cli::Args& args, const graph::Graph& graph,
                   const traffic::RateModel& rates, Count n_valid,
                   traffic::Quantity quantity, std::uint64_t seed,
                   std::size_t replicates) {
  ThreadPool pool;
  const traffic::ExpectedWindow win = traffic::evaluate_expected_window(
      graph, rates, n_valid, quantity, seed, pool);
  traffic::WindowSweepResult bands;
  if (replicates > 0) {
    traffic::SweepOptions opts;
    opts.synthesis = traffic::SynthesisMode::kMultinomial;
    bands = traffic::sweep_windows(graph, rates, n_valid, replicates,
                                   quantity, seed, pool, opts);
  } else {
    bands.ensemble.add(win.mass);
  }
  if (args.get_flag("csv")) {
    io::write_pooled_csv(std::cout, stats::LogBinned(bands.ensemble.mean()),
                         bands.ensemble.stddev());
    return 0;
  }
  std::printf("sweep: 1/1 windows, quantity=%s, path=expected\n",
              std::string(traffic::quantity_name(quantity)).c_str());
  std::printf("d_max(median)=%llu visible_entities=%.1f\n",
              static_cast<unsigned long long>(win.max_value),
              win.visible_entities);
  const auto& agg = win.aggregates;
  std::printf("expected aggregates: valid_packets=%.0f unique_links=%.1f "
              "unique_sources=%.1f unique_destinations=%.1f "
              "max_link_packets=%.0f\n",
              agg.valid_packets, agg.unique_links, agg.unique_sources,
              agg.unique_destinations, agg.max_link_packets);
  // The analytic stage times live in its {path="expected"} histograms;
  // the replicate sweep, if any, adds its own.
  print_stage_times();
  return 0;
}

int cmd_sweep(const cli::Args& args) {
  // Monte-Carlo window sweep over a synthetic PALU network: the paper's
  // core experiment, through the library's parallel sweep path.
  const auto params = core::PaluParams::solve_hubs(
      args.get_double("lambda", 3.0), args.get_double("core", 0.4),
      args.get_double("leaves", 0.25), args.get_double("alpha", 2.1),
      args.get_double("window", 1.0));
  const auto nodes = static_cast<NodeId>(get_count(args, "nodes", 50000, 1));
  const Count n_valid = get_count(args, "nvalid", 100000, 1);
  const auto windows =
      static_cast<std::size_t>(get_count(args, "windows", 16, 1));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto quantity =
      parse_quantity(args.get_string("quantity", "undirected_degree"));
  // --synthesis counts switches to count-space window draws (O(edges) per
  // window; same law as the packet path, different RNG consumption);
  // --synthesis expected evaluates the analytic window instead.
  const std::string synthesis = args.get_string("synthesis", "packet");
  if (synthesis != "packet" && synthesis != "counts" &&
      synthesis != "expected") {
    throw InvalidArgument(
        "--synthesis must be 'packet', 'counts' or 'expected', got '" +
        synthesis + "'");
  }
  const auto replicates =
      static_cast<std::size_t>(get_count(args, "replicates", 0, 0));
  if (replicates > 0 && synthesis != "expected") {
    throw InvalidArgument("--replicates needs --synthesis expected");
  }

  Rng rng(seed);
  const auto net = core::generate_underlying(params, nodes, rng);
  traffic::RateModel rates;
  rates.kind = traffic::RateModel::Kind::kPareto;
  if (synthesis == "expected") {
    return sweep_expected(args, net.graph, rates, n_valid, quantity, seed,
                          replicates);
  }
  traffic::SweepOptions opts;
  if (synthesis == "counts") {
    opts.synthesis = traffic::SynthesisMode::kMultinomial;
  }
  ThreadPool pool;
  const auto sweep =
      traffic::sweep_windows(net.graph, rates, n_valid, windows, quantity,
                             seed, pool, opts);
  if (args.get_flag("csv")) {
    io::write_pooled_csv(std::cout, stats::LogBinned(sweep.ensemble.mean()),
                         sweep.ensemble.stddev());
    return 0;
  }
  std::printf("sweep: %zu/%zu windows, quantity=%s, path=%s\n",
              sweep.windows, windows,
              std::string(traffic::quantity_name(quantity)).c_str(),
              synthesis == "counts" ? "counts" : "fast");
  std::printf("d_max=%llu merged_total=%llu support=%zu\n",
              static_cast<unsigned long long>(sweep.max_value),
              static_cast<unsigned long long>(sweep.merged.total()),
              sweep.merged.support_size());
  print_stage_times();
  print_palu_fit(sweep.merged);
  return 0;
}

void print_store_stats(const char* what, const std::string& dir,
                       const store::WindowStoreWriter::Stats& stats) {
  const double per_record =
      stats.records > 0
          ? static_cast<double>(stats.payload_bytes) /
                static_cast<double>(stats.records)
          : 0.0;
  std::printf("%s: %llu windows -> %s\n", what,
              static_cast<unsigned long long>(stats.blocks), dir.c_str());
  std::printf("store: records=%llu payload=%llu B file=%llu B "
              "(%.2f payload bytes/record)\n",
              static_cast<unsigned long long>(stats.records),
              static_cast<unsigned long long>(stats.payload_bytes),
              static_cast<unsigned long long>(stats.file_bytes), per_record);
}

// Trace mode: window a recorded trace as it is read and archive each
// window's pair counts.  The writer opens at the first window with node
// domain 1 and widens it at finish() to the archived windows' ids, as
// `serve --record` does.  Three stages run at once: read_trace's reader
// thread parses the next chunk, this thread cuts, accumulates and exports
// each window, and a one-thread pool appends the window before it.  At
// most one window is in flight: the cutter waits for its task before it
// exports another window into the records the task reads, and whenever
// it stops, so a failed append of window t is reported ahead of a parse
// error met while reading window t + 1, as when the windows ran in turn.
int capture_trace(const cli::Args& args, const std::string& dir,
                  std::unique_ptr<store::WindowStoreWriter>& writer) {
  const Count n_valid = get_count(args, "nvalid", 50000, 1);
  std::vector<traffic::EdgePacketCounts> records;
  std::future<void> task;
  // Declared after everything the task touches, so unwinding joins it
  // before any of that is destroyed.
  ThreadPool pool(1);
  const auto wait = [&task] {
    if (task.valid()) task.get();  // rethrows the task's failure
  };
  try {
    for_each_trace_window(
        args, n_valid,
        [&](std::size_t t, traffic::WindowAccumulator& window) {
          wait();
          if (writer == nullptr) {
            writer = std::make_unique<store::WindowStoreWriter>(
                dir, store::WriterOptions{.node_domain = 1});
          }
          records.clear();
          window.export_counts(records);
          task = pool.submit([&, t, sink = writer.get()] {
            sink->append(t, n_valid, records);
          });
        },
        wait);
  } catch (...) {
    wait();  // the window in flight fails ahead of what stopped the cutter
    throw;
  }
  writer->finish();
  print_store_stats("capture", dir, writer->stats());
  return 0;
}

// Synthesis mode: the sweep's network/window knobs, teed into the store
// while the sweep runs.  Replaying the store later reproduces this exact
// ensemble without a graph, rates, or RNG.
int capture_sweep(const cli::Args& args, const std::string& dir,
                  std::unique_ptr<store::WindowStoreWriter>& writer) {
  const auto params = core::PaluParams::solve_hubs(
      args.get_double("lambda", 3.0), args.get_double("core", 0.4),
      args.get_double("leaves", 0.25), args.get_double("alpha", 2.1),
      args.get_double("window", 1.0));
  const auto nodes = static_cast<NodeId>(get_count(args, "nodes", 50000, 1));
  const Count n_valid = get_count(args, "nvalid", 100000, 1);
  const auto windows =
      static_cast<std::size_t>(get_count(args, "windows", 16, 1));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto quantity =
      parse_quantity(args.get_string("quantity", "undirected_degree"));
  traffic::SweepOptions opts;
  const std::string synthesis = args.get_string("synthesis", "counts");
  if (synthesis == "counts") {
    opts.synthesis = traffic::SynthesisMode::kMultinomial;
  } else if (synthesis != "packet") {
    throw InvalidArgument(
        "capture --synthesis must be 'packet' or 'counts', got '" +
        synthesis + "'");
  }
  Rng rng(seed);
  const auto net = core::generate_underlying(params, nodes, rng);
  store::WriterOptions wopts;
  // The realized network can round up past the requested node count;
  // record what the sweep actually ran over.
  wopts.node_domain = net.graph.num_nodes();
  wopts.seed = seed;
  writer = std::make_unique<store::WindowStoreWriter>(dir, wopts);
  opts.capture = writer.get();
  traffic::RateModel rates;
  rates.kind = traffic::RateModel::Kind::kPareto;
  ThreadPool pool;
  const auto sweep =
      traffic::sweep_windows(net.graph, rates, n_valid, windows, quantity,
                             seed, pool, opts);
  writer->finish();
  print_store_stats("capture", dir, writer->stats());
  std::printf("sweep: %zu windows, quantity=%s, d_max=%llu "
              "merged_total=%llu\n",
              sweep.windows,
              std::string(traffic::quantity_name(quantity)).c_str(),
              static_cast<unsigned long long>(sweep.max_value),
              static_cast<unsigned long long>(sweep.merged.total()));
  return 0;
}

int cmd_capture(const cli::Args& args) {
  const std::string dir = args.get_string("store", "");
  PALU_CHECK(!dir.empty(), "missing --store DIR");
  // A capture that fails after opening its writer removes the store file:
  // the writer's destructor seals whatever was appended, and that partial
  // store would pass `replay --verify`.
  std::unique_ptr<store::WindowStoreWriter> writer;
  try {
    return args.get_string("trace", "").empty()
               ? capture_sweep(args, dir, writer)
               : capture_trace(args, dir, writer);
  } catch (...) {
    if (writer != nullptr) {
      writer.reset();  // closes the file before it is removed
      std::error_code ec;
      std::filesystem::remove(store::WindowStoreWriter::store_file(dir), ec);
    }
    throw;
  }
}

int cmd_replay(const cli::Args& args) {
  const std::string dir = args.get_string("store", "");
  PALU_CHECK(!dir.empty(), "missing --store DIR");
  const auto windows_arg =
      static_cast<std::size_t>(get_count(args, "windows", 0, 0));
  const bool verify = args.get_flag("verify");
  const bool csv = args.get_flag("csv");
  store::WindowStoreReader reader(dir, ingest_options(args));
  report_ingest("store", reader.open_report());
  if (verify) {
    // Decode every stored window (checksums and payload structure are
    // verified on each read) without running the sweep.
    std::vector<std::byte> buf;
    std::vector<traffic::EdgePacketCounts> records;
    std::uint64_t total_records = 0;
    std::uint64_t total_packets = 0;
    std::uint64_t total_bytes = 0;
    for (std::size_t t = 0; t < reader.num_windows(); ++t) {
      total_packets += reader.read_window(t, buf, records);
      total_records += records.size();
    }
    for (const auto& m : reader.manifest()) total_bytes += m.block_bytes;
    std::printf("verify: %s: OK (%zu windows, records=%llu "
                "valid_packets=%llu block_bytes=%llu node_domain=%llu "
                "seed=%llu)\n",
                dir.c_str(), reader.num_windows(),
                static_cast<unsigned long long>(total_records),
                static_cast<unsigned long long>(total_packets),
                static_cast<unsigned long long>(total_bytes),
                static_cast<unsigned long long>(reader.header().node_domain),
                static_cast<unsigned long long>(reader.header().seed));
    return 0;
  }
  const std::size_t windows =
      windows_arg == 0 ? reader.num_windows() : windows_arg;
  PALU_CHECK(windows <= reader.num_windows(),
             "--windows " + std::to_string(windows) +
                 " exceeds the store's " +
                 std::to_string(reader.num_windows()) + " windows");
  const auto quantity =
      parse_quantity(args.get_string("quantity", "undirected_degree"));
  ThreadPool pool;
  const auto sweep = traffic::sweep_windows(reader, windows, quantity, pool,
                                            traffic::SweepOptions{});
  if (csv) {
    io::write_pooled_csv(std::cout, stats::LogBinned(sweep.ensemble.mean()),
                         sweep.ensemble.stddev());
    return 0;
  }
  std::printf("replay: %zu/%zu stored windows, quantity=%s, path=replay\n",
              sweep.windows, reader.num_windows(),
              std::string(traffic::quantity_name(quantity)).c_str());
  std::printf("d_max=%llu merged_total=%llu support=%zu\n",
              static_cast<unsigned long long>(sweep.max_value),
              static_cast<unsigned long long>(sweep.merged.total()),
              sweep.merged.support_size());
  print_stage_times("read");
  print_palu_fit(sweep.merged);
  return 0;
}

int cmd_check_metrics(const cli::Args& args) {
  // Round-trips a Prometheus exposition file through the strict format
  // validator; CI uses this to pin the exporter's output format.
  const std::string path = args.get_string("prom", "");
  PALU_CHECK(!path.empty(), "missing --prom FILE");
  std::ifstream in(path);
  PALU_CHECK(static_cast<bool>(in), "cannot open metrics file: " + path);
  const auto violations = obs::validate_prometheus(in);
  if (violations.empty()) {
    std::printf("check-metrics: %s: OK\n", path.c_str());
    return 0;
  }
  for (const auto& v : violations) {
    std::fprintf(stderr, "check-metrics: %s: %s\n", path.c_str(),
                 v.c_str());
  }
  throw DataError("check-metrics: " + path + ": " +
                  std::to_string(violations.size()) +
                  " format violation(s)");
}

// --metrics FILE: export the default registry after the command ran —
// JSON at FILE, Prometheus text alongside it (obs::prom_path_for).
void export_metrics(const std::string& json_path) {
  const auto snap = obs::default_registry().snapshot();
  {
    std::ofstream out(json_path);
    PALU_CHECK(static_cast<bool>(out),
               "cannot write metrics file: " + json_path);
    obs::write_json(out, snap);
  }
  const std::string prom = obs::prom_path_for(json_path);
  std::ofstream out(prom);
  PALU_CHECK(static_cast<bool>(out), "cannot write metrics file: " + prom);
  obs::write_prometheus(out, snap);
  // stderr: commands like `generate` stream their payload on stdout.
  std::fprintf(stderr, "wrote metrics: %s + %s\n", json_path.c_str(),
               prom.c_str());
}

int cmd_census(const cli::Args& args) {
  const Count n_valid = get_count(args, "nvalid", 50000, 1);
  std::vector<traffic::EdgePacketCounts> pairs;
  for_each_trace_window(
      args, n_valid, [&](std::size_t t, traffic::WindowAccumulator& acc) {
        if (t == 0) {
          std::printf("window  links  un.links  stars  core.comps  largest\n");
        }
        pairs.clear();
        acc.export_counts(pairs);
        traffic::SparseCountMatrix window;
        for (const traffic::EdgePacketCounts& r : pairs) {
          window.add(r.u, r.v, r.forward);
          window.add(r.v, r.u, r.backward);
        }
        const auto census =
            graph::classify_topology(traffic::window_to_graph(window));
        std::printf(
            "%6zu %6zu %9llu %6llu %11llu %8llu\n", t, window.nnz(),
            static_cast<unsigned long long>(census.unattached_links),
            static_cast<unsigned long long>(census.star_components),
            static_cast<unsigned long long>(census.core_components),
            static_cast<unsigned long long>(census.largest_component));
      });
  return 0;
}

int cmd_graph_census(const cli::Args& args) {
  const std::string path = args.get_string("graph", "");
  PALU_CHECK(!path.empty(), "missing --graph FILE");
  const IngestOptions opts = ingest_options(args);
  std::ifstream file;
  const io::EdgeListReadResult result =
      io::read_edge_list(open_input(path, file, "graph"), opts);
  report_ingest("edge-list", result.report);
  const graph::Graph& g = result.graph;
  const auto census = graph::classify_topology(g);
  const auto clustering = graph::clustering_summary(g);
  const auto core = graph::k_core_numbers(g);
  Degree kmax = 0;
  for (const Degree c : core) kmax = std::max(kmax, c);
  std::printf("nodes=%llu edges=%zu\n",
              static_cast<unsigned long long>(g.num_nodes()),
              g.num_edges());
  std::printf("isolated=%llu unattached_links=%llu stars=%llu "
              "core_components=%llu largest=%llu\n",
              static_cast<unsigned long long>(census.isolated_nodes),
              static_cast<unsigned long long>(census.unattached_links),
              static_cast<unsigned long long>(census.star_components),
              static_cast<unsigned long long>(census.core_components),
              static_cast<unsigned long long>(census.largest_component));
  std::printf("clustering: avg_local=%.5f global=%.5f triangles=%llu\n",
              clustering.average_local, clustering.global,
              static_cast<unsigned long long>(clustering.triangles));
  std::printf("assortativity=%+.4f max_core=%llu\n",
              graph::degree_assortativity(g),
              static_cast<unsigned long long>(kmax));
  // Degree-law fit, when the graph is big enough to support one.
  try {
    const auto h = stats::DegreeHistogram::from_degrees(g.degrees());
    const auto palu_fit = core::fit_palu(h);
    std::printf("palu fit: alpha=%.4f c=%.5f mu=%.4f u=%.6f l=%.5f\n",
                palu_fit.alpha, palu_fit.c, palu_fit.mu, palu_fit.u,
                palu_fit.l);
  } catch (const palu::DataError&) {
    std::printf("palu fit: (degree support too thin to fit)\n");
  }
  return 0;
}

int cmd_zoo(const cli::Args& args) {
  // Model ranking over a degree histogram in d,count CSV form — the entry
  // point for public degree datasets.
  const std::string path = args.get_string("histogram", "");
  PALU_CHECK(!path.empty(), "missing --histogram FILE");
  const IngestOptions opts = ingest_options(args);
  std::ifstream file;
  const io::HistogramReadResult result =
      io::read_histogram_csv(open_input(path, file, "histogram"), opts);
  report_ingest("histogram", result.report);
  const stats::DegreeHistogram& h = result.histogram;
  const auto ranking = fit::fit_all_models(h);
  if (args.get_flag("csv")) {
    io::write_model_comparison_csv(std::cout, ranking);
    return 0;
  }
  std::printf("%-18s %14s %10s  params\n", "family", "AIC", "dAIC");
  for (const auto& entry : ranking) {
    std::printf("%-18s %14.1f %10.1f  ", entry.family.c_str(), entry.aic,
                entry.delta_aic);
    for (const auto& [name, value] : entry.parameters) {
      std::printf("%s=%.4g ", name.c_str(), value);
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_serve(const cli::Args& args) {
  serve::ServeOptions opts;
  opts.input_path = args.get_string("trace", "-");
  opts.follow = args.get_flag("follow");
  opts.ingest = ingest_options(args);
  opts.window_packets = get_count(args, "window", 100000, 1);
  opts.quantity =
      parse_quantity(args.get_string("quantity", "undirected_degree"));
  opts.streaming.sliding_horizon =
      static_cast<std::size_t>(get_count(args, "horizon", 4, 1));
  const std::string warm_start = args.get_string("warm-start", "on");
  if (warm_start != "on" && warm_start != "off") {
    throw InvalidArgument("--warm-start must be 'on' or 'off', got '" +
                          warm_start + "'");
  }
  opts.streaming.warm_start = warm_start == "on";
  opts.max_windows = get_count(args, "max-windows", 0, 0);
  opts.fit_deadline_ms = get_ms(args, "fit-deadline-ms", 0.0, 0.0);
  opts.queue_capacity =
      static_cast<std::size_t>(get_count(args, "queue", 65536, 1));
  opts.backpressure =
      serve::parse_backpressure(args.get_string("backpressure", "block"));
  opts.checkpoint_path = args.get_string("checkpoint", "");
  opts.checkpoint_every = get_count(args, "checkpoint-every", 1, 1);
  opts.restore = args.get_flag("restore");
  opts.snapshot_path = args.get_string("snapshot", "");
  opts.snapshot_interval_ms =
      get_ms(args, "snapshot-interval-ms", 1000.0, 0.0);
  opts.max_stage_restarts = get_count(args, "max-restarts", 5, 0);
  opts.drain_deadline_ms = get_ms(args, "drain-deadline-ms", 5000.0, 0.0);
  // poll()'s int timeout, where -1 would mean "wait forever".
  opts.poll_interval_ms =
      get_ms(args, "poll-interval-ms", 50.0, 1.0, 2147483647.0);
  opts.record_path = args.get_string("record", "");
  PALU_CHECK(!(opts.restore && opts.checkpoint_path.empty()),
             "--restore needs --checkpoint FILE");
  // The snapshot families should be complete from the first interval, not
  // fill in as layers get exercised.
  palu::obs::preregister_palu_metrics(palu::obs::default_registry());
  serve::ServeDaemon daemon(std::move(opts));
  return daemon.run();
}

// The flags each command reads.  main rejects any other flag before
// dispatch (--metrics, which main reads, goes with every command), so a
// typo or a flag the command would ignore is a usage error rather than a
// silent default.  Kept beside print_help so the two change together.
constexpr std::array<std::pair<std::string_view, std::string_view>, 11>
    kCommandFlags = {{
        {"generate", "lambda core leaves alpha window nodes packets seed"},
        {"sweep",
         "lambda core leaves alpha window nodes nvalid windows seed quantity "
         "synthesis replicates csv"},
        {"capture",
         "store trace nvalid on-error max-bad-lines lambda core leaves alpha "
         "window nodes windows seed quantity synthesis"},
        {"replay", "store windows quantity csv verify on-error max-bad-lines"},
        {"analyze", "trace nvalid csv on-error max-bad-lines"},
        {"census", "trace nvalid on-error max-bad-lines"},
        {"zoo", "histogram csv on-error max-bad-lines"},
        {"graph-census", "graph on-error max-bad-lines"},
        {"serve",
         "trace follow window quantity horizon warm-start max-windows "
         "fit-deadline-ms queue backpressure checkpoint checkpoint-every "
         "restore snapshot snapshot-interval-ms max-restarts "
         "drain-deadline-ms poll-interval-ms record on-error max-bad-lines"},
        {"check-metrics", "prom"},
        {"help", ""},
    }};

// True when the space-separated `flags` holds `flag`.
bool lists_flag(std::string_view flags, std::string_view flag) {
  while (!flags.empty()) {
    const std::size_t end = std::min(flags.find(' '), flags.size());
    if (flags.substr(0, end) == flag) return true;
    flags.remove_prefix(std::min(end + 1, flags.size()));
  }
  return false;
}

// Throws InvalidArgument (exit 2) naming the first flag `command` does not
// read.  An unknown command is left to dispatch.
void check_flags(const std::string& command, const cli::Args& args) {
  for (const auto& [name, flags] : kCommandFlags) {
    if (name != command) continue;
    for (const std::string& flag : args.names()) {
      if (flag == "metrics" || lists_flag(flags, flag)) continue;
      throw InvalidArgument("unknown flag --" + flag + " for '" + command +
                            "' (see `palu_tool help`)");
    }
  }
}

int print_help() {
  std::printf(
      "palu_tool <command> [options]\n"
      "  generate --nodes N --lambda L --core C --leaves F --alpha A\n"
      "           --window P --packets K [--seed S]   write a trace\n"
      "  sweep    --windows W --nvalid N [--quantity Q] [--seed S]\n"
      "           [--nodes N --lambda L --core C --leaves F --alpha A\n"
      "           --window P]\n"
      "           [--synthesis packet|counts|expected]\n"
      "           [--replicates R] [--csv]             Monte-Carlo window\n"
      "                                               sweep over a PALU\n"
      "                                               network;\n"
      "                                               'expected' evaluates\n"
      "                                               the analytic window\n"
      "                                               (no sampling, one\n"
      "                                               deterministic pass;\n"
      "                                               --replicates R adds\n"
      "                                               sampled sigma bands)\n"
      "  capture  --store DIR [sweep options |\n"
      "           --trace FILE|- --nvalid N]           archive per-window\n"
      "                                               pair counts into a\n"
      "                                               columnar window store:\n"
      "                                               either tee a synthetic\n"
      "                                               sweep (counts synthesis\n"
      "                                               by default) or window a\n"
      "                                               recorded trace\n"
      "  replay   --store DIR [--windows W] [--quantity Q]\n"
      "           [--csv] [--verify]                   re-run the window\n"
      "                                               sweep from a store —\n"
      "                                               no graph, rates, or\n"
      "                                               synthesis; --verify\n"
      "                                               only decodes and\n"
      "                                               checksums every block\n"
      "  analyze  --trace FILE|- --nvalid N [--csv]   fit models\n"
      "  census   --trace FILE|- --nvalid N           topology census\n"
      "  zoo      --histogram FILE|- [--csv]          rank model zoo on\n"
      "                                               d,count CSV data\n"
      "  graph-census --graph FILE|-                  census/clustering/\n"
      "                                               core depth of an\n"
      "                                               'u v' edge list\n"
      "  serve    [--trace FILE|-] [--follow] --window N\n"
      "           [--quantity Q] [--horizon K] [--warm-start on|off]\n"
      "           [--max-windows W] [--fit-deadline-ms D]\n"
      "           [--queue N] [--backpressure block|drop-oldest|drop-newest]\n"
      "           [--checkpoint FILE [--checkpoint-every K] [--restore]]\n"
      "           [--snapshot FILE [--snapshot-interval-ms MS]]\n"
      "           [--max-restarts R] [--drain-deadline-ms MS]\n"
      "           [--poll-interval-ms MS] [--record DIR]\n"
      "                                               long-running streaming\n"
      "                                               estimation daemon: tails\n"
      "                                               the trace (stdin by\n"
      "                                               default), fits PALU+ZM\n"
      "                                               per N-packet window,\n"
      "                                               one result line each;\n"
      "                                               SIGINT/SIGTERM drain;\n"
      "                                               --record DIR archives\n"
      "                                               every fitted window\n"
      "                                               into a window store;\n"
      "                                               --queue N is a packet\n"
      "                                               budget rounded down to\n"
      "                                               whole windows (at\n"
      "                                               least one), and a\n"
      "                                               drop policy sheds a\n"
      "                                               whole window, which\n"
      "                                               publishes no line\n"
      "  check-metrics --prom FILE                    validate a Prometheus\n"
      "                                               exposition file\n"
      "  help\n"
      "observability (any command):\n"
      "  --metrics FILE   export the run's metrics after the command:\n"
      "                   JSON to FILE, Prometheus text to FILE with the\n"
      "                   extension replaced by .prom\n"
      "ingest options (analyze, census, zoo, graph-census, capture,\n"
      "serve, replay — for replay the budget covers torn-tail\n"
      "recovery):\n"
      "  --on-error strict|skip|repair   malformed-line policy; strict\n"
      "                                  (default) aborts on the first bad\n"
      "                                  line, skip drops bad lines, repair\n"
      "                                  salvages what it can\n"
      "  --max-bad-lines N               error budget for skip/repair; the\n"
      "                                  ingest aborts once N bad lines are\n"
      "                                  exceeded (default: unlimited)\n"
      "exit codes: 0 ok, 1 runtime error, 2 usage error, 3 data/ingest\n"
      "error, 4 estimation failed to converge\n");
  return 0;
}

// True when `e` nests a palu::DataError: a sweep window lost to bad data
// (a corrupt store block) is a data error like any other.
bool nests_data_error(const std::exception& e) {
  try {
    std::rethrow_if_nested(e);
  } catch (const DataError&) {
    return true;
  } catch (...) {
  }
  return false;
}

}  // namespace

int dispatch(const std::string& command, const palu::cli::Args& args) {
  if (command == "generate") return cmd_generate(args);
  if (command == "sweep") return cmd_sweep(args);
  if (command == "capture") return cmd_capture(args);
  if (command == "replay") return cmd_replay(args);
  if (command == "analyze") return cmd_analyze(args);
  if (command == "census") return cmd_census(args);
  if (command == "zoo") return cmd_zoo(args);
  if (command == "graph-census") return cmd_graph_census(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "check-metrics") return cmd_check_metrics(args);
  if (command == "help") return print_help();
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  print_help();
  return 2;
}

int main(int argc, char** argv) {
  if (argc < 2) return print_help();
  const std::string command = argv[1];
  try {
    // Out-of-process fault injection: PALU_FAILPOINT="name[:fires[:skip]],…"
    // arms registered failpoints before dispatch, so CI can fault a
    // subprocess it cannot call failpoints::arm() in (the serve soak job
    // relies on this).
    if (const char* spec = std::getenv("PALU_FAILPOINT")) {
      palu::failpoints::arm_from_spec(spec);
    }
    const auto args = palu::cli::Args::parse(argc, argv, 2);
    check_flags(command, args);
    const std::string metrics_path = args.get_string("metrics", "");
    if (!metrics_path.empty()) {
      // Preregister every family so the export is a complete catalogue
      // even for layers this command never reached.
      palu::obs::preregister_palu_metrics(palu::obs::default_registry());
    }
    const int rc = dispatch(command, args);
    if (!metrics_path.empty()) export_metrics(metrics_path);
    return rc;
  } catch (const palu::DataError& e) {
    // Malformed input or an exhausted error budget: documented exit 3 so
    // batch drivers can separate bad captures from tool bugs.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  } catch (const palu::ConvergenceError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 4;
  } catch (const palu::InvalidArgument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const palu::traffic::SweepWindowError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return nests_data_error(e) ? 3 : 1;
  } catch (const palu::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Anything else (std::bad_alloc, std::length_error) is still a
    // runtime error, not an abort.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
