// Fixture: a site whose name IS in tools/failpoints.txt is clean — and a
// commented-out site plus a name inside a string literal must not confuse
// the scanner: PALU_FAILPOINT("lint.fixture.in.comment") stays inert.
// palu-lint-expect-clean
#include <string>

#include "palu/common/failpoint.hpp"

void poke() { PALU_FAILPOINT("fit.palu_mle"); }

inline std::string prose() {
  return "mentions std::rand and time(nullptr) only as text";
}
