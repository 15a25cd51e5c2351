// The header's own .cpp does not make it reachable.
#include "lib/orphan.hpp"

namespace roadrunner::fixture {

int orphan_answer() { return 42; }

}  // namespace roadrunner::fixture
