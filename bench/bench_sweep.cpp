// Sweep-throughput benchmark: packet vs. counts synthesis vs. store
// replay, plus the analytic window, with a JSON artifact so the perf
// trajectory is tracked across changes.
//
// Timing TU (tools/timing_files.txt): steady_clock reads time the paths;
// the sweeps themselves are seed-driven and stay reproducible.
//
// Runs the same Monte-Carlo window sweep three ways — packet draws
// through the WindowAccumulator ("fast"), the count-space Multinomial
// path, and store replay (capture the counts ensemble once, then
// re-drive the sweep from decoded blocks) — verifies that a count-space
// window conserves packet mass exactly and that replay reproduces the
// capture, then writes BENCH_sweep.json:
//
//   {
//     "bench": "sweep",
//     "config": {"windows", "nvalid", "nodes", "edges", "quantity",
//                "seed", "pool_threads", "nproc", "compiler",
//                "build_type", "git_sha"},
//     "fast":   {"seconds", "packets_per_sec",
//                "metrics": {... obs registry snapshot for the run ...}},
//     "counts": {... same shape ...},
//     "speedup_counts_vs_fast": counts pps / fast pps,
//     "counts_mass_conserved": true|false,
//     "scaling": {"windows", "repeats",
//                 "points": [{"nvalid", "seconds_per_window",
//                             "sampling_seconds_per_window",
//                             "accumulation_seconds_per_window",
//                             "binning_seconds_per_window"}],
//                 "ratios": [per-decade cost growth of the counts path]},
//                 // (seconds_per_window: sweep wall time less its setup
//                 // stage, per window; the stage figures: that stage's
//                 // registry sum per window, CPU time of one worker, so
//                 // they add up to about pool_threads × the wall figure;
//                 // 8 windows per pool thread, each the median of the
//                 // repeats)
//     "expected": {"repeats", "points": [{"nvalid", "seconds_per_eval"}],
//                  "ratios": [...],   // flat ⇒ analytic cost is N_V-free
//                  "counts_sweep_seconds_over_expected_eval": X},
//                 // (seconds_per_eval: one evaluate_expected_window call
//                 // less its setup stage, the median of the repeats)
//     "capture": {... same shape: the counts run teed into the store ...},
//     "replay": {... same shape as fast/counts ...},
//     "replay_store": {"windows", "records", "payload_bytes", "file_bytes",
//                      "payload_bytes_per_record", "bytes_per_window",
//                      "capture_seconds"},
//     "speedup_synthesis_vs_replay_per_window": X,  // sampling-stage sums
//                                           // (table builds are setup)
//     "speedup_replay_vs_counts": X,   // whole-sweep wall ratio
//     "replay_identical": true|false   // replay vs capture
//   }
//
// Each run records into its own obs::Registry, so the metrics block is
// per-run (not cumulative across paths); its stage-duration histograms
// are the run's stage times (one stage="setup" observation for the
// sweep's table build, then one per window stage), and the capture and
// replay blocks carry
// their store writer's and reader's palu_store_* series.  The counts
// path consumes RNG differently, so it is held to distributional
// equivalence (tested in sweep_counts_test) plus the exact mass check
// here, not byte identity.
//
// Default config is the acceptance workload (64 windows × 1e6 packets);
// `--smoke` shrinks it to seconds so ctest can keep the binary honest,
// `--counts-only` skips the slow packet path (the counts smoke ctest),
// `--expected-only` runs just the analytic expectation axis (the
// expected smoke ctest), and `--replay-only` runs just the capture →
// replay axis (the replay smoke ctest).  Exit code is non-zero on any
// check failure.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "palu/cli/args.hpp"
#include "palu/palu.hpp"

namespace {

using namespace palu;

struct RunResult {
  double seconds = 0.0;
  double packets_per_sec = 0.0;
  std::uint64_t sampling_ns = 0;      // the run's stage="sampling" sum
  std::uint64_t accumulation_ns = 0;  // the run's stage="accumulation" sum
  std::uint64_t binning_ns = 0;       // the run's stage="binning" sum
  std::uint64_t setup_ns = 0;         // the run's stage="setup" sum
  stats::DegreeHistogram merged;
  std::string metrics_json;  // this run's registry, already serialized
};

// Compiler identity for the config block.
#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

// The commit the source tree is checked out at, or "none" when the tree
// is not the top of a git work tree (an exported archive, say).
std::string git_sha() {
  const std::string cmd = std::string("git -C '") + PALU_SOURCE_DIR +
                          "' rev-parse --show-toplevel HEAD 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "none";
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int status = pclose(pipe);
  std::istringstream lines(out);
  std::string top, sha;
  std::error_code ec;
  if (status != 0 || !std::getline(lines, top) || !std::getline(lines, sha) ||
      !std::filesystem::equivalent(top, PALU_SOURCE_DIR, ec)) {
    return "none";
  }
  return sha;
}

// A run's time in one stage: the window stages are summed over its
// windows, setup is the one table build before them.
std::uint64_t stage_ns(obs::Registry& registry, const char* path,
                       const char* stage) {
  return registry
      .histogram(obs::names::kSweepStageDurationNs,
                 {{"path", path}, {"stage", stage}})
      .sum();
}

// A run's registry, serialized for its metrics block.
std::string registry_json(const obs::Registry& registry) {
  std::ostringstream metrics;
  obs::write_json(metrics, registry.snapshot());
  return std::move(metrics).str();
}

// `registry` receives the run's series; the capture run passes the one its
// store writer already records into.  nullptr = a fresh one of its own.
RunResult run_sweep(const graph::Graph& g, Count n_valid,
                    std::size_t windows, traffic::Quantity quantity,
                    std::uint64_t seed, ThreadPool& pool,
                    traffic::SynthesisMode synthesis,
                    traffic::WindowCaptureSink* capture = nullptr,
                    obs::Registry* registry = nullptr) {
  obs::Registry own;
  obs::Registry& reg = registry != nullptr ? *registry : own;
  traffic::SweepOptions opts;
  opts.synthesis = synthesis;
  opts.metrics = &reg;
  opts.capture = capture;
  const auto t0 = std::chrono::steady_clock::now();
  auto sweep = traffic::sweep_windows(g, traffic::RateModel{}, n_valid,
                                      windows, quantity, seed, pool, opts);
  const auto t1 = std::chrono::steady_clock::now();
  RunResult out;
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.packets_per_sec =
      static_cast<double>(n_valid) * static_cast<double>(windows) /
      out.seconds;
  const char* path =
      synthesis == traffic::SynthesisMode::kPacket ? "fast" : "counts";
  out.sampling_ns = stage_ns(reg, path, "sampling");
  out.accumulation_ns = stage_ns(reg, path, "accumulation");
  out.binning_ns = stage_ns(reg, path, "binning");
  out.setup_ns = stage_ns(reg, path, "setup");
  out.merged = std::move(sweep.merged);
  out.metrics_json = registry_json(reg);
  return out;
}

// Replay axis (PR 10): the same stage graph driven from a window store —
// block read + varint decode replaces synthesis, so the per-window cost
// is memory/IO bandwidth, not sampling.  The merged result must be
// byte-identical to the capturing sweep.  `registry` is the one `reader`
// records its palu_store_* read series into.
RunResult run_replay(store::WindowStoreReader& reader,
                     obs::Registry& registry, std::size_t windows,
                     Count n_valid, traffic::Quantity quantity,
                     ThreadPool& pool) {
  traffic::SweepOptions opts;
  opts.metrics = &registry;
  const auto t0 = std::chrono::steady_clock::now();
  auto sweep = traffic::sweep_windows(reader, windows, quantity, pool, opts);
  const auto t1 = std::chrono::steady_clock::now();
  RunResult out;
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.packets_per_sec =
      static_cast<double>(n_valid) * static_cast<double>(windows) /
      out.seconds;
  out.sampling_ns = stage_ns(registry, "replay", "sampling");
  out.merged = std::move(sweep.merged);
  out.metrics_json = registry_json(registry);
  return out;
}

// One count-space window drawn directly: Σ (forward + backward) must equal
// n_valid exactly — the Multinomial split conserves packet mass by
// construction, so any drift is a bug, not noise.
bool counts_mass_conserved(const graph::Graph& g, Count n_valid,
                           std::uint64_t seed) {
  traffic::SyntheticTrafficGenerator gen(
      g, traffic::make_edge_rates(g, traffic::RateModel{}, Rng(seed)),
      Rng(seed + 1));
  std::vector<traffic::EdgePacketCounts> pairs;
  gen.next_window_counts(n_valid, pairs);
  Count total = 0;
  for (const auto& pc : pairs) total += pc.forward + pc.backward;
  return total == n_valid;
}

// Re-indents a serialized JSON document to sit at nesting depth 2.
std::string indent_block(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  for (const char c : json) {
    out += c;
    if (c == '\n') out += "  ";
  }
  while (!out.empty() && (out.back() == ' ' || out.back() == '\n')) {
    out.pop_back();
  }
  return out;
}

void write_run_json(std::ostream& out, const char* name,
                    const RunResult& r) {
  out << "  \"" << name << "\": {\"seconds\": " << r.seconds
      << ", \"packets_per_sec\": " << r.packets_per_sec
      << ",\n    \"metrics\": " << indent_block(r.metrics_json)
      << "},\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = cli::Args::parse(argc, argv, 1);
  const bool smoke = args.get_flag("smoke");
  const bool expected_only = args.get_flag("expected-only");
  const bool replay_only = args.get_flag("replay-only");
  const bool counts_only =
      args.get_flag("counts-only") || expected_only || replay_only;
  const auto windows = static_cast<std::size_t>(
      args.get_int("windows", smoke ? 4 : 64));
  const auto n_valid =
      static_cast<Count>(args.get_int("nvalid", smoke ? 20000 : 1000000));
  const auto nodes = static_cast<NodeId>(
      args.get_int("nodes", smoke ? 20000 : 150000));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 29));
  const std::string out_path =
      args.get_string("out", "BENCH_sweep.json");
  const std::string store_dir =
      args.get_string("store-dir", out_path + ".store");

  const auto params = core::PaluParams::solve_hubs(6.0, 0.35, 0.2, 2.3,
                                                   1.0);
  Rng rng(17);
  const auto net = core::generate_underlying(params, nodes, rng);
  const auto quantity = traffic::Quantity::kUndirectedDegree;
  ThreadPool pool;  // default: one worker per hardware thread

  std::printf("bench_sweep: %zu windows x %llu packets, %llu nodes, "
              "%zu edges, %zu pool threads\n",
              windows, static_cast<unsigned long long>(n_valid),
              static_cast<unsigned long long>(net.graph.num_nodes()),
              net.graph.num_edges(), pool.size());

  const bool mass_ok = expected_only || replay_only ||
                       counts_mass_conserved(net.graph, n_valid, seed);
  if (!expected_only && !replay_only) {
    std::printf("counts mass conservation: %s\n", mass_ok ? "ok" : "FAIL");
  }

  RunResult fast;
  if (!counts_only) {
    fast = run_sweep(net.graph, n_valid, windows, quantity, seed, pool,
                     traffic::SynthesisMode::kPacket);
    std::printf("fast:   %.3fs (%.2fM packets/s)\n", fast.seconds,
                fast.packets_per_sec / 1e6);
  }
  const std::vector<Count> scaling_nvalid =
      smoke ? std::vector<Count>{10000, 100000}
            : std::vector<Count>{100000, 1000000, 10000000};
  // Every point runs whole waves of windows on the pool, repeated: one
  // short wave is too few windows to resolve a per-decade ratio.
  const std::size_t scaling_windows = (smoke ? 1 : 8) * pool.size();
  constexpr std::size_t kScalingRepeats = 3;

  RunResult counts;
  bool counts_sane = true;
  std::vector<double> per_window;
  // Per point: sampling, accumulation and binning seconds per window.
  std::vector<std::array<double, 3>> stage_per_window;
  std::vector<double> ratios;
  if (!expected_only && !replay_only) {
    counts = run_sweep(net.graph, n_valid, windows, quantity, seed, pool,
                       traffic::SynthesisMode::kMultinomial);
    std::printf("counts: %.3fs (%.2fM packets/s)\n", counts.seconds,
                counts.packets_per_sec / 1e6);
    counts_sane = counts.merged.total() > 0;

    // Counts-path scaling axis: per-window cost vs. N_V (the whole point
    // of count-space synthesis is that this curve is nearly flat per
    // decade).  The sweep's one-off table build (its setup stage) is
    // taken out of the wall time first, so it is not charged to windows;
    // a point is the median of kScalingRepeats sweeps.  The stage sums
    // say which per-window stage grows with N_V.
    for (const Count nv : scaling_nvalid) {
      const double windows_d = static_cast<double>(scaling_windows);
      const auto per_window_s = [windows_d](std::uint64_t ns) {
        return 1e-9 * static_cast<double>(ns) / windows_d;
      };
      std::vector<double> repeats;
      std::array<std::vector<double>, 3> stages;
      for (std::size_t rep = 0; rep < kScalingRepeats; ++rep) {
        const RunResult r =
            run_sweep(net.graph, nv, scaling_windows, quantity, seed, pool,
                      traffic::SynthesisMode::kMultinomial);
        const double sampled =
            r.seconds - 1e-9 * static_cast<double>(r.setup_ns);
        repeats.push_back(sampled / windows_d);
        stages[0].push_back(per_window_s(r.sampling_ns));
        stages[1].push_back(per_window_s(r.accumulation_ns));
        stages[2].push_back(per_window_s(r.binning_ns));
      }
      std::sort(repeats.begin(), repeats.end());
      per_window.push_back(repeats[kScalingRepeats / 2]);
      std::array<double, 3> medians{};
      for (std::size_t s = 0; s < stages.size(); ++s) {
        std::sort(stages[s].begin(), stages[s].end());
        medians[s] = stages[s][kScalingRepeats / 2];
      }
      stage_per_window.push_back(medians);
      std::printf("counts scaling: nvalid=%llu %.2fms/window "
                  "(repeats %.2f..%.2f); per-window stage cpu: "
                  "sampling=%.2fms accumulation=%.2fms binning=%.2fms\n",
                  static_cast<unsigned long long>(nv),
                  per_window.back() * 1e3, repeats.front() * 1e3,
                  repeats.back() * 1e3, medians[0] * 1e3, medians[1] * 1e3,
                  medians[2] * 1e3);
    }
    for (std::size_t i = 1; i < per_window.size(); ++i) {
      ratios.push_back(per_window[i] / per_window[i - 1]);
      std::printf("counts scaling ratio (x10 packets): %.3fx\n",
                  ratios.back());
    }
  }

  // Expected (analytic) axis (PR 9): one deterministic evaluation per
  // window size, no RNG.  The same N_V ladder as the counts axis, so the
  // two curves are directly comparable: expected cost should be flat in
  // N_V, and one evaluation replaces the whole sampled ensemble.  As on
  // the counts axis, each call's table build (its setup stage) is taken
  // out of its wall time, and a point is the median of kScalingRepeats
  // calls.
  std::vector<double> expected_per_eval;
  std::vector<double> expected_ratios;
  bool expected_sane = true;
  if (!replay_only) {
    for (const Count nv : scaling_nvalid) {
      std::vector<double> repeats;
      double mass = 0.0;
      for (std::size_t rep = 0; rep < kScalingRepeats; ++rep) {
        obs::Registry registry;
        const auto t0 = std::chrono::steady_clock::now();
        const traffic::ExpectedWindow win =
            traffic::evaluate_expected_window(net.graph, traffic::RateModel{},
                                              nv, quantity, seed, pool,
                                              &registry);
        const double seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
        repeats.push_back(seconds -
                          1e-9 * static_cast<double>(
                                     stage_ns(registry, "expected", "setup")));
        mass = win.mass.total_mass();
        if (std::abs(mass - 1.0) > 1e-9) expected_sane = false;
      }
      std::sort(repeats.begin(), repeats.end());
      expected_per_eval.push_back(repeats[kScalingRepeats / 2]);
      std::printf("expected: nvalid=%llu %.2fms/eval (repeats %.2f..%.2f, "
                  "mass=%.9f)\n",
                  static_cast<unsigned long long>(nv),
                  expected_per_eval.back() * 1e3, repeats.front() * 1e3,
                  repeats.back() * 1e3, mass);
    }
    for (std::size_t i = 1; i < expected_per_eval.size(); ++i) {
      expected_ratios.push_back(expected_per_eval[i] /
                                expected_per_eval[i - 1]);
      std::printf("expected scaling ratio (x10 packets): %.3fx\n",
                  expected_ratios.back());
    }
  }
  // One analytic evaluation vs. the counts sweep it replaces — the
  // configured `windows`-window ensemble (64 by default, the ROADMAP
  // framing) costed at the top of the N_V ladder from the per-window
  // scaling measurements.
  double expected_speedup = 0.0;
  if (!expected_only && !per_window.empty()) {
    expected_speedup = per_window.back() * static_cast<double>(windows) /
                       expected_per_eval.back();
    std::printf("expected vs counts sweep at nvalid=%llu: %.1fx\n",
                static_cast<unsigned long long>(scaling_nvalid.back()),
                expected_speedup);
  }

  // Replay axis (PR 10): capture the counts ensemble once into a window
  // store, then drive the same sweep from the store — block read + varint
  // decode replaces synthesis.  Replay must reproduce the capturing sweep
  // byte-identically, and the store must stay under 8 payload bytes per
  // (pair, count) record.
  RunResult captured, replay;
  store::WindowStoreWriter::Stats wstats;
  bool replay_identical = true;
  double replay_speedup = 0.0;
  double replay_sweep_ratio = 0.0;
  double replay_bytes_per_record = 0.0;
  const bool run_replay_axis = replay_only || !counts_only;
  if (run_replay_axis) {
    // Each run's registry exists before its writer or reader, so the
    // palu_store_* series land in that run's metrics block.
    obs::Registry capture_registry;
    store::WriterOptions wopts;
    wopts.node_domain = net.graph.num_nodes();
    wopts.seed = seed;
    wopts.metrics = &capture_registry;
    {
      store::WindowStoreWriter writer(store_dir, wopts);
      captured = run_sweep(net.graph, n_valid, windows, quantity, seed,
                           pool, traffic::SynthesisMode::kMultinomial,
                           &writer, &capture_registry);
      writer.finish();
      wstats = writer.stats();
    }
    // finish() writes the manifest and trailer: serialize after it.
    captured.metrics_json = registry_json(capture_registry);
    if (wstats.records > 0) {
      replay_bytes_per_record = static_cast<double>(wstats.payload_bytes) /
                                static_cast<double>(wstats.records);
    }
    std::printf("capture: %.3fs, store: %llu windows, %llu records, "
                "%llu B (%.2f payload B/record)\n",
                captured.seconds,
                static_cast<unsigned long long>(wstats.blocks),
                static_cast<unsigned long long>(wstats.records),
                static_cast<unsigned long long>(wstats.file_bytes),
                replay_bytes_per_record);

    obs::Registry replay_registry;
    IngestOptions ropts;
    ropts.metrics = &replay_registry;
    store::WindowStoreReader reader(store_dir, ropts);
    replay = run_replay(reader, replay_registry, windows, n_valid, quantity,
                        pool);
    replay_identical =
        replay.merged.sorted() == captured.merged.sorted() &&
        replay.merged.total() == captured.merged.total();
    // The per-window acceptance ratio: what synthesis costs to produce a
    // window's records (the counts path's sampling stage) vs. what replay
    // pays instead (block read + checksum + decode, accounted in the same
    // stage slot), both read from the runs' registries; the counts run's
    // one-off table build is its setup stage, in neither sum.
    // Accumulation and binning are shared verbatim by both paths, so this
    // isolates the work the store actually replaces; the whole-sweep wall
    // ratio is reported alongside it.  In --replay-only mode the
    // capturing run is the synthesis baseline.
    const auto& synth = replay_only ? captured : counts;
    replay_speedup =
        static_cast<double>(synth.sampling_ns) /
        static_cast<double>(replay.sampling_ns);
    replay_sweep_ratio = synth.seconds / replay.seconds;
    std::printf("replay: %.3fs (%.2fM packets/s, %.2fms/window), "
                "identical: %s\n",
                replay.seconds, replay.packets_per_sec / 1e6,
                replay.seconds / static_cast<double>(windows) * 1e3,
                replay_identical ? "true" : "false");
    std::printf("per-window synthesis %.2fms vs replay read %.2fms: "
                "%.1fx (whole sweep: %.1fx)\n",
                static_cast<double>(synth.sampling_ns) / 1e6 /
                    static_cast<double>(windows),
                static_cast<double>(replay.sampling_ns) / 1e6 /
                    static_cast<double>(windows),
                replay_speedup, replay_sweep_ratio);
  }

  if (!counts_only) {
    const double counts_vs_fast =
        counts.packets_per_sec / fast.packets_per_sec;
    std::printf("speedup counts/fast: %.2fx\n", counts_vs_fast);

    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << "{\n  \"bench\": \"sweep\",\n";
    out << "  \"config\": {\"windows\": " << windows
        << ", \"nvalid\": " << n_valid << ", \"nodes\": " << nodes
        << ", \"edges\": " << net.graph.num_edges() << ", \"quantity\": \""
        << traffic::quantity_name(quantity) << "\", \"seed\": " << seed
        << ", \"pool_threads\": " << pool.size()
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"compiler\": \"" << kCompiler << "\", \"build_type\": \""
        << PALU_BUILD_TYPE << "\", \"git_sha\": \"" << git_sha() << "\"},\n";
    write_run_json(out, "fast", fast);
    write_run_json(out, "counts", counts);
    out << "  \"speedup_counts_vs_fast\": " << counts_vs_fast << ",\n";
    out << "  \"counts_mass_conserved\": " << (mass_ok ? "true" : "false")
        << ",\n";
    out << "  \"scaling\": {\"windows\": " << scaling_windows
        << ", \"repeats\": " << kScalingRepeats << ", \"points\": [";
    for (std::size_t i = 0; i < scaling_nvalid.size(); ++i) {
      out << (i ? ", " : "") << "{\"nvalid\": " << scaling_nvalid[i]
          << ", \"seconds_per_window\": " << per_window[i]
          << ",\n      \"sampling_seconds_per_window\": "
          << stage_per_window[i][0]
          << ", \"accumulation_seconds_per_window\": "
          << stage_per_window[i][1]
          << ", \"binning_seconds_per_window\": " << stage_per_window[i][2]
          << "}";
    }
    out << "],\n    \"ratios\": [";
    for (std::size_t i = 0; i < ratios.size(); ++i) {
      out << (i ? ", " : "") << ratios[i];
    }
    out << "]},\n";
    out << "  \"expected\": {\"repeats\": " << kScalingRepeats
        << ", \"points\": [";
    for (std::size_t i = 0; i < scaling_nvalid.size(); ++i) {
      out << (i ? ", " : "") << "{\"nvalid\": " << scaling_nvalid[i]
          << ", \"seconds_per_eval\": " << expected_per_eval[i] << "}";
    }
    out << "],\n    \"ratios\": [";
    for (std::size_t i = 0; i < expected_ratios.size(); ++i) {
      out << (i ? ", " : "") << expected_ratios[i];
    }
    out << "],\n    \"counts_sweep_seconds_over_expected_eval\": "
        << expected_speedup << "},\n";
    write_run_json(out, "capture", captured);
    write_run_json(out, "replay", replay);
    out << "  \"replay_store\": {\"windows\": " << wstats.blocks
        << ", \"records\": " << wstats.records
        << ", \"payload_bytes\": " << wstats.payload_bytes
        << ", \"file_bytes\": " << wstats.file_bytes
        << ",\n    \"payload_bytes_per_record\": " << replay_bytes_per_record
        << ", \"bytes_per_window\": "
        << (wstats.blocks > 0
                ? static_cast<double>(wstats.file_bytes) /
                      static_cast<double>(wstats.blocks)
                : 0.0)
        << ", \"capture_seconds\": " << captured.seconds << "},\n";
    out << "  \"speedup_synthesis_vs_replay_per_window\": " << replay_speedup
        << ",\n";
    out << "  \"speedup_replay_vs_counts\": " << replay_sweep_ratio << ",\n";
    out << "  \"replay_identical\": "
        << (replay_identical ? "true" : "false") << "\n}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }

  bool ok = true;
  if (!mass_ok) {
    std::fprintf(stderr,
                 "FAIL: counts window lost or invented packets\n");
    ok = false;
  }
  if (!counts_sane) {
    std::fprintf(stderr, "FAIL: counts sweep produced an empty result\n");
    ok = false;
  }
  if (!expected_sane) {
    std::fprintf(stderr,
                 "FAIL: expected mass does not sum to 1\n");
    ok = false;
  }
  if (!replay_identical) {
    std::fprintf(stderr,
                 "FAIL: replay diverged from the capturing sweep\n");
    ok = false;
  }
  if (run_replay_axis && replay_bytes_per_record > 8.0) {
    std::fprintf(stderr,
                 "FAIL: store exceeds 8 payload bytes per record\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
