#include "palu/io/csv.hpp"

#include <iomanip>

#include "palu/common/error.hpp"
#include "palu/io/parse.hpp"
#include "ingest_gate.hpp"

namespace palu::io {

void write_distribution_csv(std::ostream& out,
                            const stats::EmpiricalDistribution& dist) {
  out << "d,pmf,cdf\n";
  const auto& support = dist.support();
  const auto& pmf = dist.pmf();
  const auto& cdf = dist.cdf();
  const auto flags = out.flags();
  out << std::setprecision(12);
  for (std::size_t i = 0; i < support.size(); ++i) {
    out << support[i] << ',' << pmf[i] << ',' << cdf[i] << '\n';
  }
  out.flags(flags);
}

void write_pooled_csv(std::ostream& out, const stats::LogBinned& pooled,
                      std::span<const double> sigma) {
  PALU_CHECK(sigma.empty() || sigma.size() == pooled.num_bins(),
             "write_pooled_csv: sigma size mismatch");
  out << (sigma.empty() ? "bin,d_i,mass\n" : "bin,d_i,mass,sigma\n");
  const auto flags = out.flags();
  out << std::setprecision(12);
  for (std::size_t i = 0; i < pooled.num_bins(); ++i) {
    out << i << ','
        << stats::LogBinned::bin_upper(static_cast<std::uint32_t>(i))
        << ',' << pooled[i];
    if (!sigma.empty()) out << ',' << sigma[i];
    out << '\n';
  }
  out.flags(flags);
}

void write_model_comparison_csv(
    std::ostream& out, std::span<const fit::ModelComparison> ranking) {
  out << "family,log_likelihood,aic,delta_aic,bic,delta_bic,parameters\n";
  const auto flags = out.flags();
  out << std::setprecision(10);
  for (const auto& entry : ranking) {
    out << entry.family << ',' << entry.log_likelihood << ',' << entry.aic
        << ',' << entry.delta_aic << ',' << entry.bic << ','
        << entry.delta_bic << ',';
    bool first = true;
    for (const auto& [name, value] : entry.parameters) {
      if (!first) out << ';';
      out << name << '=' << value;
      first = false;
    }
    out << '\n';
  }
  out.flags(flags);
}

void write_panel_csv(std::ostream& out, std::span<const double> measured,
                     std::span<const double> sigma,
                     const stats::LogBinned& model) {
  PALU_CHECK(sigma.size() == measured.size(),
             "write_panel_csv: sigma size mismatch");
  out << "bin,d_i,measured,sigma,model\n";
  const auto flags = out.flags();
  out << std::setprecision(12);
  const std::size_t rows = std::max(measured.size(), model.num_bins());
  for (std::size_t i = 0; i < rows; ++i) {
    out << i << ','
        << stats::LogBinned::bin_upper(static_cast<std::uint32_t>(i))
        << ',' << (i < measured.size() ? measured[i] : 0.0) << ','
        << (i < sigma.size() ? sigma[i] : 0.0) << ','
        << (i < model.num_bins() ? model[i] : 0.0) << '\n';
  }
  out.flags(flags);
}

void write_histogram_csv(std::ostream& out,
                         const stats::DegreeHistogram& h) {
  out << "d,count\n";
  for (const auto& [d, c] : h.sorted()) {
    out << d << ',' << c << '\n';
  }
}

namespace {

/// Parses one "d,count" row; failures name the offending token.
Result<std::pair<Degree, Count>> parse_histogram_row(
    const std::string& body) {
  using Row = std::pair<Degree, Count>;
  const std::size_t comma = body.find(',');
  if (comma == std::string::npos || comma == 0 ||
      comma + 1 >= body.size()) {
    return Result<Row>::failure("expected 'd,count'");
  }
  const auto d = parse_u64(body.substr(0, comma));
  if (!d.ok()) return Result<Row>::failure(d.error());
  const auto c = parse_u64(body.substr(comma + 1));
  if (!c.ok()) return Result<Row>::failure(c.error());
  return Row{d.value(), c.value()};
}

}  // namespace

HistogramReadResult read_histogram_csv(std::istream& in,
                                       const IngestOptions& opts) {
  HistogramReadResult out;
  detail::IngestGate gate("read_histogram_csv", opts, out.report);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Trim CR and surrounding spaces.
    while (!line.empty() &&
           (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    std::size_t start = line.find_first_not_of(' ');
    if (start == std::string::npos) continue;
    const std::string body = line.substr(start);
    if (body.empty() || body.front() == '#') continue;
    if (line_number == 1 && body == "d,count") continue;
    ++out.report.lines_read;
    const auto row =
        gate.accept(line_number, parse_histogram_row(body), body, line);
    if (row) out.histogram.add(row->first, row->second);
  }
  return out;
}

stats::DegreeHistogram read_histogram_csv(std::istream& in) {
  return read_histogram_csv(in, IngestOptions{}).histogram;
}

}  // namespace palu::io
