#include "palu/obs/export.hpp"

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

#include "palu/obs/metrics.hpp"

namespace palu::obs {

namespace {

// Escapes for JSON string bodies and Prometheus label values alike — both
// formats escape backslash, double quote, and newline the same way (the
// exposition format additionally leaves other bytes verbatim).
std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void write_json_labels(std::ostream& os, const Labels& labels) {
  os << "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << escape(labels[i].first) << "\":\""
       << escape(labels[i].second) << "\"";
  }
  os << "}";
}

void write_prom_labels(std::ostream& os, const Labels& labels) {
  if (labels.empty()) return;
  os << "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) os << ",";
    os << labels[i].first << "=\"" << escape(labels[i].second) << "\"";
  }
  os << "}";
}

// Labels plus one extra pair appended (the `le` edge on bucket series).
void write_prom_labels_with(std::ostream& os, const Labels& labels,
                            std::string_view key, std::string_view value) {
  os << "{";
  for (const auto& [k, v] : labels) {
    os << k << "=\"" << escape(v) << "\",";
  }
  os << key << "=\"" << value << "\"}";
}

void write_help_and_type(std::ostream& os, const std::string& name,
                         const std::map<std::string, std::string>& help,
                         std::string_view type, std::string& last_name) {
  if (name == last_name) return;
  last_name = name;
  auto it = help.find(name);
  if (it != help.end()) {
    os << "# HELP " << name << " " << it->second << "\n";
  }
  os << "# TYPE " << name << " " << type << "\n";
}

}  // namespace

void write_json(std::ostream& os, const RegistrySnapshot& snapshot) {
  os << "{\n  \"counters\": [";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const auto& c = snapshot.counters[i];
    os << (i > 0 ? ",\n    " : "\n    ");
    os << "{\"name\": \"" << escape(c.name) << "\", \"labels\": ";
    write_json_labels(os, c.labels);
    os << ", \"value\": " << c.value << "}";
  }
  os << (snapshot.counters.empty() ? "],\n" : "\n  ],\n");

  os << "  \"gauges\": [";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const auto& g = snapshot.gauges[i];
    os << (i > 0 ? ",\n    " : "\n    ");
    os << "{\"name\": \"" << escape(g.name) << "\", \"labels\": ";
    write_json_labels(os, g.labels);
    os << ", \"value\": " << g.value << "}";
  }
  os << (snapshot.gauges.empty() ? "],\n" : "\n  ],\n");

  os << "  \"histograms\": [";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& h = snapshot.histograms[i];
    os << (i > 0 ? ",\n    " : "\n    ");
    os << "{\"name\": \"" << escape(h.name) << "\", \"labels\": ";
    write_json_labels(os, h.labels);
    os << ", \"count\": " << h.count << ", \"sum\": " << h.sum
       << ", \"bucket_upper\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) os << ", ";
      os << Histogram::bucket_upper(static_cast<std::uint32_t>(b));
    }
    os << "], \"bucket_count\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) os << ", ";
      os << h.buckets[b];
    }
    os << "]}";
  }
  os << (snapshot.histograms.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
}

void write_prometheus(std::ostream& os, const RegistrySnapshot& snapshot) {
  std::string last_name;
  for (const auto& c : snapshot.counters) {
    write_help_and_type(os, c.name, snapshot.help, "counter", last_name);
    os << c.name;
    write_prom_labels(os, c.labels);
    os << " " << c.value << "\n";
  }
  for (const auto& g : snapshot.gauges) {
    write_help_and_type(os, g.name, snapshot.help, "gauge", last_name);
    os << g.name;
    write_prom_labels(os, g.labels);
    os << " " << g.value << "\n";
  }
  for (const auto& h : snapshot.histograms) {
    write_help_and_type(os, h.name, snapshot.help, "histogram", last_name);
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      cumulative += h.buckets[b];
      os << h.name << "_bucket";
      write_prom_labels_with(
          os, h.labels, "le",
          std::to_string(Histogram::bucket_upper(static_cast<std::uint32_t>(b))));
      os << " " << cumulative << "\n";
    }
    os << h.name << "_bucket";
    write_prom_labels_with(os, h.labels, "le", "+Inf");
    os << " " << h.count << "\n";
    os << h.name << "_sum";
    write_prom_labels(os, h.labels);
    os << " " << h.sum << "\n";
    os << h.name << "_count";
    write_prom_labels(os, h.labels);
    os << " " << h.count << "\n";
  }
}

// ------------------------------------------------------------- validator
//
// A deliberately strict re-parser for the subset of the exposition format
// we emit.  It is not a general Prometheus parser; its job is to catch
// exporter regressions (broken cumulativity, missing +Inf, bad names) in
// CI, so unknown constructs are errors rather than extensions.

namespace {

struct ParsedSample {
  std::string name;        // full series name including _bucket/_sum/_count
  Labels labels;
  double value = 0;
  bool ok = false;
};

// Parses `name{k="v",...} value` into its parts; flags syntax errors.
ParsedSample parse_sample(const std::string& line,
                          std::vector<std::string>& errors, int lineno) {
  ParsedSample out;
  auto fail = [&](const std::string& why) {
    errors.push_back("line " + std::to_string(lineno) + ": " + why);
    return out;
  };
  std::size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  out.name = line.substr(0, i);
  if (!valid_metric_name(out.name)) {
    return fail("invalid metric name '" + out.name + "'");
  }
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      std::size_t eq = line.find('=', i);
      if (eq == std::string::npos || eq + 1 >= line.size() ||
          line[eq + 1] != '"') {
        return fail("malformed label pair");
      }
      std::string key = line.substr(i, eq - i);
      if (!valid_label_name(key)) {
        return fail("invalid label name '" + key + "'");
      }
      std::string value;
      std::size_t j = eq + 2;
      for (; j < line.size() && line[j] != '"'; ++j) {
        if (line[j] == '\\' && j + 1 < line.size()) {
          ++j;
          value += line[j] == 'n' ? '\n' : line[j];
        } else {
          value += line[j];
        }
      }
      if (j >= line.size()) return fail("unterminated label value");
      out.labels.emplace_back(std::move(key), std::move(value));
      i = j + 1;
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size()) return fail("unterminated label set");
    ++i;  // consume '}'
  }
  if (i >= line.size() || line[i] != ' ') {
    return fail("missing value separator");
  }
  const std::string value_str = line.substr(i + 1);
  if (value_str == "+Inf") {
    out.value = 1e308;
  } else {
    try {
      std::size_t pos = 0;
      out.value = std::stod(value_str, &pos);
      if (pos != value_str.size()) return fail("trailing bytes after value");
    } catch (const std::exception&) {
      return fail("unparseable value '" + value_str + "'");
    }
  }
  out.ok = true;
  return out;
}

std::string base_family(const std::string& series_name, bool is_histogram) {
  if (!is_histogram) return series_name;
  for (std::string_view suffix : {"_bucket", "_sum", "_count"}) {
    if (series_name.size() > suffix.size() &&
        series_name.ends_with(suffix)) {
      return series_name.substr(0, series_name.size() - suffix.size());
    }
  }
  return series_name;
}

// Labels with `le` removed, rendered to a stable key for grouping one
// histogram child's bucket series together.
std::string child_key(const Labels& labels) {
  std::string key;
  for (const auto& [k, v] : labels) {
    if (k == "le") continue;
    key += k;
    key += '=';
    key += v;
    key += ';';
  }
  return key;
}

struct HistogramChild {
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative count)
  bool has_inf = false;
  double inf_value = 0;
  double count = -1;
  bool has_sum = false;
};

}  // namespace

std::vector<std::string> validate_prometheus(std::istream& is) {
  std::vector<std::string> errors;
  std::map<std::string, std::string> type_of;  // family -> type
  std::map<std::string, std::map<std::string, HistogramChild>> histograms;
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream header(line);
      std::string hash, kind, family;
      header >> hash >> kind >> family;
      if (kind == "TYPE") {
        std::string type;
        header >> type;
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          errors.push_back("line " + std::to_string(lineno) +
                           ": unknown TYPE '" + type + "'");
        } else if (!type_of.emplace(family, type).second) {
          errors.push_back("line " + std::to_string(lineno) +
                           ": duplicate TYPE for '" + family + "'");
        }
      } else if (kind != "HELP") {
        errors.push_back("line " + std::to_string(lineno) +
                         ": unknown comment directive '" + kind + "'");
      }
      continue;
    }
    ParsedSample s = parse_sample(line, errors, lineno);
    if (!s.ok) continue;
    // Resolve the family: histogram series carry suffixes.
    std::string family = s.name;
    auto type_it = type_of.find(family);
    if (type_it == type_of.end()) {
      family = base_family(s.name, /*is_histogram=*/true);
      type_it = type_of.find(family);
    }
    if (type_it == type_of.end()) {
      errors.push_back("line " + std::to_string(lineno) + ": sample '" +
                       s.name + "' has no preceding # TYPE");
      continue;
    }
    if (type_it->second != "histogram") continue;
    auto& child = histograms[family][child_key(s.labels)];
    if (s.name.ends_with("_bucket")) {
      double le = -1;
      bool le_found = false;
      for (const auto& [k, v] : s.labels) {
        if (k != "le") continue;
        le_found = true;
        if (v == "+Inf") {
          child.has_inf = true;
          child.inf_value = s.value;
        } else {
          try {
            le = std::stod(v);
          } catch (const std::exception&) {
            errors.push_back("line " + std::to_string(lineno) +
                             ": unparseable le '" + v + "'");
          }
        }
      }
      if (!le_found) {
        errors.push_back("line " + std::to_string(lineno) +
                         ": bucket sample without le label");
      } else if (le >= 0) {
        child.buckets.emplace_back(le, s.value);
      }
    } else if (s.name.ends_with("_count")) {
      child.count = s.value;
    } else if (s.name.ends_with("_sum")) {
      child.has_sum = true;
    } else {
      errors.push_back("line " + std::to_string(lineno) +
                       ": unexpected sample '" + s.name +
                       "' under histogram family '" + family + "'");
    }
  }

  for (const auto& [family, children] : histograms) {
    for (const auto& [key, child] : children) {
      (void)key;
      double prev_le = -1, prev_count = -1;
      for (const auto& [le, cumulative] : child.buckets) {
        if (le <= prev_le) {
          errors.push_back("histogram '" + family +
                           "': bucket edges not strictly increasing");
        }
        if (cumulative < prev_count) {
          errors.push_back("histogram '" + family +
                           "': bucket counts not cumulative");
        }
        prev_le = le;
        prev_count = cumulative;
      }
      if (!child.has_inf) {
        errors.push_back("histogram '" + family + "': missing +Inf bucket");
      } else if (prev_count > child.inf_value) {
        errors.push_back("histogram '" + family +
                         "': +Inf bucket below last finite bucket");
      }
      if (child.count < 0) {
        errors.push_back("histogram '" + family + "': missing _count");
      } else if (child.has_inf && child.count != child.inf_value) {
        errors.push_back("histogram '" + family +
                         "': _count disagrees with +Inf bucket");
      }
      if (!child.has_sum) {
        errors.push_back("histogram '" + family + "': missing _sum");
      }
    }
  }
  return errors;
}

std::string prom_path_for(const std::string& json_path) {
  const std::size_t dot = json_path.find_last_of('.');
  const std::size_t slash = json_path.find_last_of('/');
  const bool has_extension =
      dot != std::string::npos && (slash == std::string::npos || dot > slash);
  return (has_extension ? json_path.substr(0, dot) : json_path) + ".prom";
}

}  // namespace palu::obs
