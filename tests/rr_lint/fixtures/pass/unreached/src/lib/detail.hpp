// Golden fixture for unreached-header: another src/ header includes this
// one, which is enough.
#pragma once

namespace roadrunner::fixture {

inline int detail_answer() { return 42; }

}  // namespace roadrunner::fixture
