#!/usr/bin/env python3
"""Golden-fixture tests for tools/rr_lint.py, run as the `rr_lint_test`
ctest target. Three fixture classes keep the rule table honest:

  pass/        — idiomatic code: zero findings, exit 0
  fail/        — one seeded violation per rule: exactly that rule fires,
                 non-zero exit
  suppressed/  — the same violations with `// rr-lint: allow(...)`
                 trailers: zero findings, exit 0

Plus CLI-contract checks (--list-rules, --explain) so the explain mode and
the rule table cannot drift apart.
"""

import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
LINT = ROOT / "tools" / "rr_lint.py"
FIXTURES = HERE / "fixtures"

EXPECTED_FAIL = {
    "raw_random.cpp": "raw-random",
    "wall_clock.cpp": "wall-clock",
    "core/unordered_iter.cpp": "unordered-iter",
    "adversary/unordered_iter.cpp": "unordered-iter",
    "adversary/raw_random.cpp": "raw-random",
    "workload/unordered_iter.cpp": "unordered-iter",
    "workload/raw_random.cpp": "raw-random",
    "traffic/unordered_iter.cpp": "unordered-iter",
    "raw_thread.cpp": "raw-thread",
    "dist/raw_socket.cpp": "raw-thread",
    "metric_name.cpp": "metric-name",
    "metric_newline.cpp": "metric-name",
    "fp_accum.cpp": "fp-unordered-accum",
    "parallel_mutation.cpp": "parallel-mutation",
    "dist/msgtype_missing.cpp": "msgtype-exhaustive",
    "dist/len_narrow.cpp": "len-narrow",
    "unknown_suppression.cpp": "unknown-suppression",
    "stale_suppression.cpp": "stale-suppression",
    "unreached/src/lib/orphan.hpp": "unreached-header",
}

failures = []


def check(label, condition, detail=""):
    if condition:
        print(f"ok   {label}")
    else:
        failures.append(label)
        print(f"FAIL {label}  {detail}")


def sources(directory):
    """Every C++ fixture under `directory`, headers included."""
    return sorted(p for p in directory.rglob("*")
                  if p.suffix in (".cpp", ".hpp"))


def run(*args):
    return subprocess.run(
        [sys.executable, str(LINT), *map(str, args)],
        capture_output=True, text=True)


# --- pass fixtures: zero findings -----------------------------------------
for fixture in sources(FIXTURES / "pass"):
    r = run(fixture)
    check(f"pass/{fixture.name} lints clean",
          r.returncode == 0 and not r.stdout.strip(), r.stdout)

# --- fail fixtures: exactly the seeded rule fires, exit is non-zero -------
for rel, rule in sorted(EXPECTED_FAIL.items()):
    fixture = FIXTURES / "fail" / rel
    r = run(fixture)
    fired = re.findall(r"\[([a-z-]+)\]", r.stdout)
    check(f"fail/{rel} exits non-zero", r.returncode == 1, f"rc={r.returncode}")
    check(f"fail/{rel} fires only [{rule}]",
          fired == [rule], f"fired={fired} out={r.stdout}")

# --- suppressed fixtures: trailers silence every rule ---------------------
for fixture in sources(FIXTURES / "suppressed"):
    r = run(fixture)
    check(f"suppressed/{fixture.name} lints clean",
          r.returncode == 0 and not r.stdout.strip(), r.stdout)

# --- whole-fixture-tree sweep: findings == the seeded set, nothing else ---
all_fixtures = sources(FIXTURES)
r = run(*all_fixtures)
fired = sorted(re.findall(r"\[([a-z-]+)\]", r.stdout))
check("fixture-tree sweep fires each rule's seed exactly once",
      fired == sorted(EXPECTED_FAIL.values()), f"fired={fired}")

# --- CLI contract ---------------------------------------------------------
r = run("--list-rules")
listed = set(re.findall(r"^([a-z-]+)\s", r.stdout, re.M))
expected_rules = set(EXPECTED_FAIL.values())
check("--list-rules covers every tested rule",
      r.returncode == 0 and expected_rules <= listed,
      f"listed={listed}")

for rule in sorted(expected_rules):
    r = run("--explain", rule)
    check(f"--explain {rule} prints a fix recipe",
          r.returncode == 0 and "Fix:" in r.stdout and rule in r.stdout)

r = run("--explain", "no-such-rule")
check("--explain rejects unknown rules", r.returncode == 2)

r = run(FIXTURES / "does_not_exist.cpp")
check("missing file is a usage error, not a pass", r.returncode == 2)

# --------------------------------------------------------------------------
if failures:
    print(f"\n{len(failures)} check(s) failed")
    sys.exit(1)
print("\nall rr-lint fixture checks passed")
