// An example program: it makes lib/used.hpp reachable.
#include "lib/used.hpp"

int main() { return roadrunner::fixture::used_answer() == 42 ? 0 : 1; }
