// Seeded violations: error/discarded-status. MightFail is declared to
// return Status, so both casts below are rejected. A bare
// `MightFail(3);` is not linted: [[nodiscard]] makes it a build error
// under -DGAMMA_WERROR=ON.
#include "common/status.h"

gammadb::Status MightFail(int v);

void Caller() {
  (void)MightFail(1);
  static_cast<void>(MightFail(2));
}
