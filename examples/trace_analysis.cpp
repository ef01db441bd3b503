// Trace analysis: the ingestion path a downstream user runs on real data.
//
// Reads a packet trace ("src dst" per line) from a file or, with no
// argument, synthesizes one in-memory to demonstrate the format.  The
// trace is cut into equal-N_V windows (Section II), each window's degree
// quantity is pooled, the modified Zipf–Mandelbrot model and the full
// model zoo are fit, and everything is exported as CSV next to the
// human-readable report.
//
//   build/examples/trace_analysis [trace_file [n_valid]]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "palu/palu.hpp"

namespace {

std::vector<palu::traffic::Packet> load_or_synthesize(int argc,
                                                      char** argv) {
  using namespace palu;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      std::exit(1);
    }
    return io::read_trace(in, {}).packets;
  }
  // No file: synthesize a PALU-driven stream and round-trip it through
  // the trace format so the example also documents the format itself.
  const auto params =
      core::PaluParams::solve_hubs(3.0, 0.4, 0.25, 2.1, 1.0);
  Rng rng(99);
  const auto net = core::generate_underlying(params, 40000, rng);
  traffic::RateModel rates;
  rates.kind = traffic::RateModel::Kind::kPareto;
  traffic::SyntheticTrafficGenerator stream(net.graph, rates, Rng(101));
  std::vector<traffic::Packet> packets;
  packets.reserve(400000);
  for (int i = 0; i < 400000; ++i) packets.push_back(stream.next());
  std::stringstream round_trip;
  io::write_trace(round_trip, packets);
  return io::read_trace(round_trip, {}).packets;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace palu;
  const auto packets = load_or_synthesize(argc, argv);
  const Count n_valid =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 50000;
  std::printf("trace: %zu packets; windows of N_V=%llu\n", packets.size(),
              static_cast<unsigned long long>(n_valid));
  if (packets.size() < n_valid) {
    std::fprintf(stderr, "trace smaller than one window\n");
    return 1;
  }

  // Cut consecutive windows and pool the undirected degree quantity.
  stats::BinnedEnsemble ensemble;
  stats::DegreeHistogram merged;
  Degree dmax = 0;
  const std::size_t num_windows = packets.size() / n_valid;
  for (std::size_t t = 0; t < num_windows; ++t) {
    const std::span<const traffic::Packet> slice(
        packets.data() + t * n_valid, n_valid);
    const auto window = traffic::SparseCountMatrix::from_packets(slice);
    const auto h = traffic::undirected_degree_histogram(window);
    dmax = std::max(dmax, h.max_degree());
    ensemble.add(stats::LogBinned::from_histogram(h));
    merged.merge(h);
  }
  std::printf("aggregated %zu windows; degree support %zu, d_max %llu\n",
              num_windows, merged.support_size(),
              static_cast<unsigned long long>(dmax));

  // Modified ZM fit on the mean pooled distribution with sigma weights.
  fit::ZmFitOptions zm_opts;
  zm_opts.bin_sigma = ensemble.stddev();
  const auto zm = fit::fit_zipf_mandelbrot(
      stats::LogBinned(ensemble.mean()), dmax, zm_opts);
  std::printf("modified Zipf-Mandelbrot: alpha=%.3f delta=%+.3f%s\n",
              zm.alpha, zm.delta, zm.converged ? "" : " (not converged)");

  // Model zoo on the merged histogram.
  const auto ranking = fit::fit_all_models(merged);
  std::printf("model ranking by AIC:\n");
  for (const auto& entry : ranking) {
    std::printf("  %-18s dAIC=%8.1f\n", entry.family.c_str(),
                entry.delta_aic);
  }

  // PALU constants.
  const auto palu_fit = core::fit_palu(merged);
  std::printf("PALU constants: alpha=%.3f c=%.4f mu=%.3f u=%.5f l=%.4f\n",
              palu_fit.alpha, palu_fit.c, palu_fit.mu, palu_fit.u,
              palu_fit.l);

  // CSV exports for plotting.
  std::printf("\n--- pooled.csv ---\n");
  io::write_pooled_csv(std::cout, stats::LogBinned(ensemble.mean()),
                       ensemble.stddev());
  std::printf("--- models.csv ---\n");
  io::write_model_comparison_csv(std::cout, ranking);
  return 0;
}
