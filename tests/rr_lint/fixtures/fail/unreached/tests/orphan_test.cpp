// A test does not make a header reachable either.
#include "lib/orphan.hpp"

int main() { return roadrunner::fixture::orphan_answer() == 42 ? 0 : 1; }
