// Golden fixture for unreached-header: an example includes this header.
#pragma once

#include "lib/detail.hpp"

namespace roadrunner::fixture {

inline int used_answer() { return detail_answer(); }

}  // namespace roadrunner::fixture
