#include "common/error.h"

#include <cmath>

// Out-of-line anchor so the vtables for the exception hierarchy are emitted
// exactly once (avoids weak-vtable duplication across every TU).
namespace facsp {
namespace {
[[maybe_unused]] void anchor() {
  Error e{"anchor"};
  (void)e;
}
}  // namespace

void require_finite(const char* what, std::initializer_list<double> values) {
  for (double v : values)
    if (!std::isfinite(v))
      throw ConfigError(std::string(what) + ": numbers must be finite");
}

}  // namespace facsp
