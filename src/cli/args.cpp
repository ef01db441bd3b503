#include "palu/cli/args.hpp"

#include <charconv>
#include <string_view>

#include "palu/common/error.hpp"

namespace palu::cli {

Args Args::parse(int argc, const char* const* argv, int begin) {
  Args out;
  for (int i = begin; i < argc; ++i) {
    std::string_view token = argv[i];
    if (token.size() < 3 || token.substr(0, 2) != "--") {
      throw InvalidArgument("Args: expected --option, got '" +
                            std::string(token) + "'");
    }
    token.remove_prefix(2);
    const std::size_t eq = token.find('=');
    if (eq != std::string_view::npos) {
      out.values_[std::string(token.substr(0, eq))] =
          std::string(token.substr(eq + 1));
      continue;
    }
    // "--name value" when the next token is not an option; bare flag
    // otherwise.
    if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      out.values_[std::string(token)] = std::string(argv[i + 1]);
      ++i;
    } else {
      out.values_[std::string(token)] = std::nullopt;
    }
  }
  return out;
}

bool Args::has(const std::string& name) const {
  return values_.contains(name);
}

std::string Args::get_string(const std::string& name,
                             const std::string& fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  PALU_CHECK(it->second.has_value(),
             "Args: option --" + name + " requires a value");
  return *it->second;
}

std::int64_t Args::get_int(const std::string& name,
                           std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  PALU_CHECK(it->second.has_value(),
             "Args: option --" + name + " requires a value");
  const std::string& text = *it->second;
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  PALU_CHECK(ec == std::errc{} && ptr == text.data() + text.size(),
             "Args: option --" + name + " is not an integer: " + text);
  return value;
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  PALU_CHECK(it->second.has_value(),
             "Args: option --" + name + " requires a value");
  const std::string& text = *it->second;
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    throw InvalidArgument("Args: option --" + name +
                          " is not a number: " + text);
  }
  PALU_CHECK(consumed == text.size(),
             "Args: option --" + name + " is not a number: " + text);
  return value;
}

bool Args::get_flag(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return false;
  PALU_CHECK(!it->second.has_value(), "Args: flag --" + name +
                                          " takes no value, got '" +
                                          *it->second + "'");
  return true;
}

std::vector<std::string> Args::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [name, value] : values_) out.push_back(name);
  return out;
}

}  // namespace palu::cli
