// Golden fixture for unreached-header: only the header's own .cpp and a
// test include it, so no program can reach what it declares.
#pragma once

namespace roadrunner::fixture {

int orphan_answer();

}  // namespace roadrunner::fixture
