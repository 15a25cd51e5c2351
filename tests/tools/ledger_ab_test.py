#!/usr/bin/env python3
"""Unit tests for tools/ledger_ab.py, run as the `ledger_ab_test` ctest
target.

Each case builds a throwaway git repository holding a BENCHMARK.json and a
stub ledger/run.py, commits a base and a change version of the stub, and
runs the tool against the base commit. The stub prints the ledger's JSON
result line with values the case chose and logs every call, so the test
sees which side ran when, with which seed and run length.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
TOOL = ROOT / "tools" / "ledger_ab.py"

failures = []


def check(label, condition, detail=""):
    if condition:
        print(f"ok   {label}")
    else:
        failures.append(label)
        print(f"FAIL {label}  {detail}")


BENCHMARK = {
    "command": [sys.executable, "ledger/run.py"],
    "paths": ["ledger"],
    "run_seconds": 7,
    "workloads": [{"name": "alpha"}, {"name": "beta"}],
    "end_to_end": [
        {"name": "speed", "unit": "1/s", "better": "higher", "bound": 0.2},
        {"name": "rss", "unit": "MB", "better": "lower", "bound": 0.2},
    ],
}

# The stub's SIDE, SPEED (a function of the seed), CORRECT, FAILED and
# BUILDS are filled in per version.
STUB = """import argparse, json, os, sys
SIDE = {side!r}
parser = argparse.ArgumentParser()
parser.add_argument("--workload")
parser.add_argument("--seed", type=int)
parser.add_argument("--seconds", type=int)
args = parser.parse_args()
with open({log!r}, "a") as log:
    log.write(json.dumps([SIDE, args.workload, args.seed, args.seconds,
                          os.environ.get("CARGO_TARGET_DIR")]) + "\\n")
if not {builds!r}:
    print("ledger: build step failed: cmake", file=sys.stderr)
    sys.exit(2)
speed = {speed}
print("manifest and metric lines")
print(json.dumps({{"correct": {correct!r}, "attempted": 4,
                   "failed": {failed!r},
                   "metrics": {{"speed": {{"value": speed, "unit": "1/s"}},
                               "rss": {{"value": 100.0, "unit": "MB"}}}}}}))
"""


def git(repo, *args):
    subprocess.run(["git", *args], cwd=repo, check=True,
                   capture_output=True, text=True)


def make_repo(tmp, name, base, change):
    """A repository whose HEAD~1 holds the base stub and whose HEAD (and
    working tree) holds the change stub. base and change are dicts of the
    STUB fields."""
    repo = tmp / name
    (repo / "ledger").mkdir(parents=True)
    log = tmp / f"{name}.log"
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    git(repo, "init", "-q")
    git(repo, "config", "user.email", "test@example.com")
    git(repo, "config", "user.name", "test")
    for side, fields in (("parent", base), ("change", change)):
        stub = dict(speed="100.0", correct=True, failed=0, builds=True)
        stub.update(fields)
        (repo / "ledger" / "run.py").write_text(
            STUB.format(side=side, log=str(log), **stub))
        git(repo, "add", "-A")
        git(repo, "commit", "-q", "-m", side)
    return repo, log


def run(repo, *args):
    return subprocess.run([sys.executable, str(TOOL), "HEAD~1", *args],
                          cwd=repo, capture_output=True, text=True)


def calls(log):
    return [json.loads(line) for line in log.read_text().splitlines()]


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


with tempfile.TemporaryDirectory() as td:
    tmp = Path(td)

    # --- equal sides: alternation, seeds, run length, table --------------
    repo, log = make_repo(tmp, "equal", {}, {})
    r = run(repo, "alpha", "--pairs", "3", "--seed", "40")
    check("equal sides exit 0", r.returncode == 0,
          f"rc={r.returncode} err={r.stderr}")
    seen = calls(log)
    check("the sides alternate, base first in pair 0",
          [c[0] for c in seen] == ["parent", "change", "change", "parent",
                                   "parent", "change"], seen)
    check("pair i runs seed S+i on both sides",
          [c[2] for c in seen] == [40, 40, 41, 41, 42, 42], seen)
    check("the run length comes from BENCHMARK.json",
          all(c[3] == 7 for c in seen), seen)
    check("only the named workload runs",
          all(c[1] == "alpha" for c in seen), seen)
    dirs = {c[0]: c[4] for c in seen}
    check("each side has its own CARGO_TARGET_DIR",
          dirs["parent"] and dirs["change"] and
          dirs["parent"] != dirs["change"], dirs)
    table = last_json(r.stdout)
    row = table["workloads"]["alpha"]["metrics"]["speed"]
    check("the last stdout line is the table as JSON",
          row["parent"]["median"] == 100.0 and row["change_wins"] == 0
          and row["pairs"] == 3 and table["status"] == "ok", table)
    check("the table prints q1/median/q3 and wins",
          "change wins" in r.stdout and "0/3" in r.stdout, r.stdout)
    check("the base worktree is removed afterwards",
          "ledger_ab_" not in subprocess.run(
              ["git", "worktree", "list"], cwd=repo, capture_output=True,
              text=True).stdout)

    # --- no workload named: every workload of BENCHMARK.json runs --------
    log.write_text("")
    r = run(repo, "--pairs", "1", "--seed", "1")
    check("no workload runs all of them",
          r.returncode == 0 and
          sorted({c[1] for c in calls(log)}) == ["alpha", "beta"],
          calls(log))

    # --- a regression beyond the bound -----------------------------------
    repo, _ = make_repo(tmp, "slow", {}, {"speed": "70.0"})
    r = run(repo, "alpha", "--pairs", "3", "--seed", "1")
    check("a regression beyond the bound exits 1", r.returncode == 1,
          f"rc={r.returncode}")
    check("the failure names the metric and workload",
          "alpha: speed" in r.stderr, r.stderr)
    check("the JSON marks the regression",
          last_json(r.stdout)["workloads"]["alpha"]["metrics"]["speed"]
          ["verdict"] == "regression", r.stdout)

    # --- a change within the bound, better in every pair ------------------
    repo, _ = make_repo(tmp, "near", {}, {"speed": "110.0"})
    r = run(repo, "alpha", "--pairs", "3", "--seed", "1")
    check("a change within the bound passes", r.returncode == 0,
          f"rc={r.returncode} err={r.stderr}")
    check("wins count strictly better pairs",
          last_json(r.stdout)["workloads"]["alpha"]["metrics"]["speed"]
          ["change_wins"] == 3, r.stdout)

    # --- a parent spread wider than the bound -----------------------------
    repo, _ = make_repo(tmp, "noisy", {"speed": "[50.0, 100.0, 150.0]"
                                                "[args.seed % 3]"},
                        {"speed": "50.0"})
    r = run(repo, "alpha", "--pairs", "3", "--seed", "0")
    check("a spread wider than the bound exits 0", r.returncode == 0,
          f"rc={r.returncode} err={r.stderr}")
    check("a spread wider than the bound prints unresolved",
          "unresolved" in r.stdout, r.stdout)
    repo, _ = make_repo(tmp, "noisy_better", {"speed": "[50.0, 100.0, 150.0]"
                                                       "[args.seed % 3]"},
                        {"speed": "200.0"})
    r = run(repo, "alpha", "--pairs", "3", "--seed", "0")
    check("a change better than every parent run is judged despite the "
          "spread", r.returncode == 0 and
          last_json(r.stdout)["workloads"]["alpha"]["metrics"]["speed"]
          ["verdict"] == "ok", r.stdout)

    # --- a change run that is not correct ---------------------------------
    repo, _ = make_repo(tmp, "wrong", {}, {"correct": False})
    r = run(repo, "alpha", "--pairs", "2", "--seed", "1")
    check("an incorrect change run exits 1", r.returncode == 1,
          f"rc={r.returncode}")
    check("the incorrect run is named", "alpha" in r.stderr
          and "not correct" in r.stderr, r.stderr)

    # --- a higher failed share on the change side --------------------------
    repo, _ = make_repo(tmp, "fails", {"failed": 1}, {"failed": 2,
                                                     "correct": True})
    r = run(repo, "alpha", "--pairs", "2", "--seed", "1")
    check("a higher failed share exits 1", r.returncode == 1,
          f"rc={r.returncode}")
    check("the failed share is named", "operations" in r.stderr, r.stderr)

    repo, _ = make_repo(tmp, "samefails", {"failed": 1}, {"failed": 1})
    r = run(repo, "alpha", "--pairs", "2", "--seed", "1")
    check("an equal failed share passes", r.returncode == 0,
          f"rc={r.returncode} err={r.stderr}")

    # --- a base that fails to build ---------------------------------------
    repo, log = make_repo(tmp, "nobuild", {"builds": False}, {})
    r = run(repo, "alpha", "--pairs", "3", "--seed", "1")
    check("an unbuildable base exits 0", r.returncode == 0,
          f"rc={r.returncode} err={r.stderr}")
    check("an unbuildable base warns", "warning" in r.stdout, r.stdout)
    check("an unbuildable base skips the change runs",
          [c[0] for c in calls(log)] == ["parent"], calls(log))

    # --- a change that fails to build ---------------------------------------
    repo, _ = make_repo(tmp, "changenobuild", {}, {"builds": False})
    r = run(repo, "alpha", "--pairs", "2", "--seed", "1")
    check("an unbuildable change exits 1", r.returncode == 1,
          f"rc={r.returncode}")

    # --- usage errors --------------------------------------------------------
    r = run(repo, "gamma", "--pairs", "1", "--seed", "1")
    check("an unknown workload exits 2", r.returncode == 2
          and "gamma" in r.stderr, f"rc={r.returncode} err={r.stderr}")
    r = subprocess.run([sys.executable, str(TOOL), "no-such-rev", "--pairs",
                        "1", "--seed", "1"], cwd=repo, capture_output=True,
                       text=True)
    check("an unknown revision exits 2", r.returncode == 2,
          f"rc={r.returncode} err={r.stderr}")

if failures:
    print(f"\n{len(failures)} check(s) failed")
    sys.exit(1)
print("\nall ledger_ab checks passed")
