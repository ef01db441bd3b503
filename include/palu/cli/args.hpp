// Minimal declarative command-line parser for the palu tool.
//
// Supports `--name value`, `--name=value`, and bare flags, with typed
// accessors and defaults.  Kept tiny on purpose — just enough for the
// `palu_tool` subcommands — but fully tested so tool behaviour is pinned.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace palu::cli {

class Args {
 public:
  /// Parses `argv[begin..argc)`; throws palu::InvalidArgument on an
  /// option with no value or an argument that is not an option.
  static Args parse(int argc, const char* const* argv, int begin = 1);

  bool has(const std::string& name) const;

  /// Typed lookups with defaults; throw palu::InvalidArgument when the
  /// value does not parse.
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name,
                       std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  /// Whether a bare flag is present; throws palu::InvalidArgument when it
  /// carries a value (`--csv=no`, `--csv false`).
  bool get_flag(const std::string& name) const;

  /// Names seen on the command line (for unknown-option diagnostics).
  std::vector<std::string> names() const;

 private:
  std::map<std::string, std::optional<std::string>> values_;
};

}  // namespace palu::cli
