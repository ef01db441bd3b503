#include "palu/serve/options.hpp"

#include <string>

#include "palu/common/error.hpp"

namespace palu::serve {

BackpressurePolicy parse_backpressure(std::string_view text) {
  if (text == "block") return BackpressurePolicy::kBlock;
  if (text == "drop-oldest") return BackpressurePolicy::kDropOldest;
  if (text == "drop-newest") return BackpressurePolicy::kDropNewest;
  throw InvalidArgument("unknown backpressure policy '" +
                        std::string(text) +
                        "' (expected block|drop-oldest|drop-newest)");
}

std::string_view to_string(BackpressurePolicy policy) noexcept {
  switch (policy) {
    case BackpressurePolicy::kBlock:
      return "block";
    case BackpressurePolicy::kDropOldest:
      return "drop-oldest";
    case BackpressurePolicy::kDropNewest:
      return "drop-newest";
  }
  return "block";
}

}  // namespace palu::serve
