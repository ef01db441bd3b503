// Exporters for RegistrySnapshot: JSON for the BENCH/tooling pipeline,
// Prometheus exposition text for scrape endpoints, and a validator that
// re-parses the exposition format so CI can round-trip what we emit.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace palu::obs {

struct RegistrySnapshot;

/// Serializes the snapshot as a single JSON object:
/// {"counters": [...], "gauges": [...], "histograms": [...]}, each sample
/// carrying name, labels, and value(s).  Output is deterministic (sorted
/// by name + labels, integers only — no floats to round).
void write_json(std::ostream& os, const RegistrySnapshot& snapshot);

/// Serializes the snapshot in the Prometheus text exposition format
/// (version 0.0.4): # HELP / # TYPE headers, cumulative `_bucket{le=...}`
/// series ending at `+Inf`, `_sum` and `_count` for histograms.
void write_prometheus(std::ostream& os, const RegistrySnapshot& snapshot);

/// Re-parses Prometheus exposition text and returns every format
/// violation found (empty vector = valid).  Checks: metric/label name
/// grammar, TYPE declared before samples, counter/gauge sample shape,
/// histogram bucket cumulativity, mandatory +Inf bucket, and
/// `_count` == `+Inf` bucket value.  Used by the ctest round-trip and
/// `palu_tool check-metrics`.
std::vector<std::string> validate_prometheus(std::istream& is);

/// Where the Prometheus text goes beside a JSON metrics file: `json_path`
/// with its extension replaced by `.prom`, or with `.prom` appended when
/// its last path component has none (`metrics.json` -> `metrics.prom`,
/// `out.d/metrics` -> `out.d/metrics.prom`).
std::string prom_path_for(const std::string& json_path);

}  // namespace palu::obs
