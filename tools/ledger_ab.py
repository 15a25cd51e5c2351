#!/usr/bin/env python3
"""ledger_ab: run the ledger on a base revision and on the working tree in
alternating pairs, and gate on BENCHMARK.json's end-to-end bounds.

Usage:
  ledger_ab.py BASE_REV [WORKLOAD ...] --pairs N --seed S

Run from inside the repository. BASE_REV is checked out with ``git worktree
add --detach`` into a temporary directory; the change side is the working
tree as it stands. With no WORKLOAD, every workload of BENCHMARK.json runs.
Pair i runs ``BENCHMARK.json``'s command (``ledger/run.py``) with
``--workload W --seed S+i --seconds <run_seconds>`` once in each tree, each
with its own ``CARGO_TARGET_DIR``; the base runs first in even pairs and the
change first in odd ones, so a drift in the machine's speed hits both
sides alike. The last JSON line of each run is its result.

For every workload and every end-to-end metric the table shows the parent's
and the change's q1 / median / q3, "change wins k/N" (the pairs in which the
change was strictly better; ties count for neither side) and a verdict. The
failed/attempted operations of each side follow. The last line of stdout is
the same table as one JSON object.

Exit status 1, naming the workload and metric, when:
  * a change run is not ``correct``, or prints no result;
  * the change side failed a larger share of operations than the parent;
  * a change median is worse than the parent's by more than the metric's
    ``bound`` (a share of the parent's median).
A metric whose parent q1-q3 spread, as a share of the parent's median, is
wider than its bound cannot be judged: it reads ``unresolved`` and does not
fail, unless every change run is better than every parent run. When the base tree does not build (its first run prints no result),
the comparison is skipped with a warning and exit 0. Exit 2 is a usage
error: an unknown workload or a revision git cannot check out.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """q1, median and q3, interpolating linearly between order statistics."""
    ordered = sorted(values)

    def at(q: float) -> float:
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def last_json_line(stdout: str):
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                result = json.loads(line)
            except json.JSONDecodeError:
                return None
            return result if isinstance(result, dict) else None
    return None


def run_ledger(command, tree: Path, build: Path, workload: str, seed: int,
               seconds: int):
    """One ledger run; its JSON result, or None when it printed none."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(build))
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    result = last_json_line(proc.stdout)
    if result is None:
        print(f"ledger_ab: {workload} seed {seed} in {tree} printed no "
              f"result (exit {proc.returncode})", file=sys.stderr)
    return result


def metric_value(result, name: str):
    value = result.get("metrics", {}).get(name, {}).get("value")
    return float(value) if isinstance(value, (int, float)) else None


def judge(metric, parent: list[float], change: list[float], wins: int,
          pairs: int) -> dict:
    """One metric of one workload: the parent's and change's quartiles and
    the verdict ok, unresolved or regression."""
    p = quartiles(parent)
    c = quartiles(change)
    bound = metric["bound"]
    scale = abs(p[1]) or 1.0
    worse = (c[1] - p[1]) / scale
    if metric["better"] == "higher":
        worse = -worse
        clearly_better = min(change) > max(parent)
    else:
        clearly_better = max(change) < min(parent)
    if (p[2] - p[0]) / scale > bound and not clearly_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    else:
        verdict = "ok"
    return {"unit": metric["unit"], "better": metric["better"],
            "bound": bound,
            "parent": dict(zip(("q1", "median", "q3"), p)),
            "change": dict(zip(("q1", "median", "q3"), c)),
            "change_wins": wins, "pairs": pairs, "worse_by": worse,
            "verdict": verdict}


def summarize(benchmark, workload: str, results) -> dict:
    """results[side] is the list of per-pair JSON results (None: no
    result) for side "parent" or "change"."""
    table = {"metrics": {}}
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        pairs = [(metric_value(b, name), metric_value(c, name))
                 for b, c in zip(results["parent"], results["change"])
                 if b is not None]
        pairs = [(b, c) for b, c in pairs if None not in (b, c)]
        if not pairs:
            continue
        if metric["better"] == "higher":
            wins = sum(c > b for b, c in pairs)
        else:
            wins = sum(c < b for b, c in pairs)
        table["metrics"][name] = judge(metric, [b for b, _ in pairs],
                                       [c for _, c in pairs], wins, len(pairs))
    for side, runs in results.items():
        done = [r for r in runs if r is not None]
        table[side] = {
            "attempted": sum(int(r.get("attempted", 0)) for r in done),
            "failed": sum(int(r.get("failed", 0)) for r in done),
            "incorrect_runs": sum(r.get("correct") is not True for r in done),
            "runs": len(runs),
        }
    return table


def failed_share(side: dict) -> float:
    return side["failed"] / side["attempted"] if side["attempted"] else 0.0


def problems(workload: str, table: dict) -> list[str]:
    found = []
    change, parent = table["change"], table["parent"]
    if change["incorrect_runs"]:
        found.append(f"{workload}: {change['incorrect_runs']} change run(s) "
                     f"not correct")
    if failed_share(change) > failed_share(parent):
        found.append(f"{workload}: the change failed "
                     f"{change['failed']}/{change['attempted']} operations, "
                     f"the parent {parent['failed']}/{parent['attempted']}")
    for name, row in table["metrics"].items():
        if row["verdict"] == "regression":
            found.append(f"{workload}: {name} is {row['worse_by']:.1%} worse "
                         f"than the parent's median (bound "
                         f"{row['bound']:.0%})")
    return found


def print_table(workload: str, table: dict, seeds: str) -> None:
    print(f"{workload}  (seeds {seeds})")
    print(f"  {'metric':<22}{'parent q1 / median / q3':>34}"
          f"{'change q1 / median / q3':>34}  {'change wins':<12} verdict")
    for name, row in table["metrics"].items():
        p, c = row["parent"], row["change"]
        print(f"  {name:<22}"
              f"{p['q1']:>12.4g}{p['median']:>11.4g}{p['q3']:>11.4g}"
              f"{c['q1']:>12.4g}{c['median']:>11.4g}{c['q3']:>11.4g}"
              f"  {row['change_wins']}/{row['pairs']:<10} {row['verdict']}")
    for side in ("parent", "change"):
        s = table[side]
        print(f"  {side}: {s['failed']}/{s['attempted']} operations failed, "
              f"{s['incorrect_runs']} of {s['runs']} runs not correct")


def git(repo: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=repo, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", metavar="BASE_REV")
    parser.add_argument("workloads", metavar="WORKLOAD", nargs="*")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    top = git(Path.cwd(), "rev-parse", "--show-toplevel")
    if top.returncode != 0:
        print("ledger_ab: not inside a git repository", file=sys.stderr)
        return 2
    root = Path(top.stdout.strip())
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    known = [w["name"] for w in benchmark["workloads"]]
    workloads = args.workloads or known
    unknown = [w for w in workloads if w not in known]
    if unknown:
        print(f"ledger_ab: unknown workload(s) {', '.join(unknown)}; "
              f"BENCHMARK.json has {', '.join(known)}", file=sys.stderr)
        return 2
    base_commit = git(root, "rev-parse", "--verify", args.base + "^{commit}")
    if base_commit.returncode != 0:
        print(f"ledger_ab: cannot resolve {args.base}: "
              f"{base_commit.stderr.strip()}", file=sys.stderr)
        return 2

    report = {"base": args.base, "base_commit": base_commit.stdout.strip(),
              "change_commit": git(root, "rev-parse", "HEAD").stdout.strip(),
              "change_dirty": bool(git(root, "status", "--porcelain",
                                       "--untracked-files=no").stdout.strip()),
              "pairs": args.pairs, "seed": args.seed,
              "run_seconds": benchmark["run_seconds"],
              "nproc": os.cpu_count(), "workloads": {}}
    found = []
    base_built = False
    with tempfile.TemporaryDirectory(prefix="ledger_ab_") as tmp:
        base_tree = Path(tmp) / "base"
        added = git(root, "worktree", "add", "--detach", str(base_tree),
                    report["base_commit"])
        if added.returncode != 0:
            print(f"ledger_ab: cannot check out {args.base}: "
                  f"{added.stderr.strip()}", file=sys.stderr)
            return 2
        try:
            trees = {"parent": (base_tree, Path(tmp) / "build-parent"),
                     "change": (root, Path(tmp) / "build-change")}
            for workload in workloads:
                results = {"parent": [], "change": []}
                for i in range(args.pairs):
                    seed = args.seed + i
                    order = ("parent", "change") if i % 2 == 0 else \
                            ("change", "parent")
                    for side in order:
                        print(f"ledger_ab: {workload} pair {i + 1}/"
                              f"{args.pairs} {side} seed {seed}",
                              file=sys.stderr)
                        tree, build = trees[side]
                        result = run_ledger(benchmark["command"], tree, build,
                                            workload, seed,
                                            benchmark["run_seconds"])
                        if side == "parent" and not base_built:
                            if result is None:
                                print(f"ledger_ab: warning: the base tree at "
                                      f"{args.base} did not build or run; "
                                      f"skipping the comparison")
                                report["status"] = "skipped"
                                print(json.dumps(report, sort_keys=True))
                                return 0
                            base_built = True
                        if result is None and side == "change":
                            print(f"ledger_ab: {workload}: a change run "
                                  f"(seed {seed}) printed no result",
                                  file=sys.stderr)
                            return 1
                        results[side].append(result)
                table = summarize(benchmark, workload, results)
                report["workloads"][workload] = table
                print_table(workload, table,
                            f"{args.seed}..{args.seed + args.pairs - 1}")
                found += problems(workload, table)
        finally:
            git(root, "worktree", "remove", "--force", str(base_tree))
            git(root, "worktree", "prune")

    report["status"] = "regression" if found else "ok"
    for problem in found:
        print(f"ledger_ab: {problem}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
