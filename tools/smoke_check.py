#!/usr/bin/env python3
"""smoke_check: run one smoke scenario and check what it must show.

Usage:
  smoke_check.py --run-experiment=BIN --campaign=BIN SCENARIO.ini [-- ARG...]

The INI's kind picks the rule; ARGs after ``--`` go to every run.

* An INI without a ``[campaign]`` section is an experiment. It runs once as
  ``run_experiment SCENARIO.ini --out=<tmp>/metrics.csv``, must exit 0, and
  every line of ``SCENARIO.expect`` (next to the INI) must hold on the
  metrics CSV.
* An INI with a ``[campaign]`` section is a campaign. It runs three times:
  ``--workers=1 --fresh``; ``--workers=4`` into a new store with
  ``--trace-out --profile``; ``--workers=4`` against that store again,
  which must resume every job. Every run must exit 0 and the three
  aggregate CSVs must be byte-identical. The trace must parse, and its
  complete (``X``) events must carry every Chrome trace field and cover the
  sim, ml, strategy and campaign categories. With a ``[report]`` section, each run's stdout must
  hold, as a whole line, the heading of its first metric with its
  ``[sweep]`` axes, e.g. ``final_accuracy by traffic.regime (mean over
  seeds):``.

An ``.expect`` file holds one check per line; ``#`` starts a comment.

  LHS OP RHS     OP is one of == >= > <
  finite(NAME)   a counter, or every point of a series, is finite

A side is a number, a counter name, ``len(SERIES)`` or ``sum(GLOB)``: the
sum of the counters whose names match the glob, e.g. the per-channel
``sum(transfers_*_failed_jamming)``. A counter or series missing from the
CSV fails its line; a glob in ``sum()`` that matches nothing sums to 0.

Exit status: 0 = every check holds, 1 = a check failed, 2 = usage.
"""

from __future__ import annotations

import argparse
import csv
import fnmatch
import json
import math
import operator
import re
import subprocess
import sys
import tempfile
from pathlib import Path

OPS = {"==": operator.eq, ">=": operator.ge, ">": operator.gt,
       "<": operator.lt}
COMPARE = re.compile(r"^(\S+)\s*(==|>=|>|<)\s*(\S+)$")
CALL = re.compile(r"^(len|sum|finite)\(([\w.:*?\[\]-]+)\)$")
NAME = re.compile(r"^[A-Za-z_][\w.:-]*$")
TRACE_FIELDS = {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
TRACE_CATEGORIES = {"sim", "ml", "strategy", "campaign"}


class CheckFailed(Exception):
    pass


def read_metrics(path: Path):
    """(counters, series) of a run_experiment metrics CSV."""
    counters: dict[str, float] = {}
    series: dict[str, list[float]] = {}
    with path.open(newline="") as f:
        for row in csv.DictReader(f):
            value = float(row["value"])
            if row["kind"] == "counter":
                counters[row["name"]] = value
            else:
                series.setdefault(row["name"], []).append(value)
    return counters, series


def side(text: str, counters, series) -> float:
    """The value one side of a comparison names."""
    try:
        return float(text)
    except ValueError:
        pass
    call = CALL.match(text)
    if call and call[1] == "len":
        if call[2] not in series:
            raise CheckFailed(f"no series {call[2]}")
        return float(len(series[call[2]]))
    if call and call[1] == "sum":
        return math.fsum(v for k, v in sorted(counters.items())
                         if fnmatch.fnmatchcase(k, call[2]))
    if not NAME.match(text):
        raise CheckFailed(f"cannot read '{text}'")
    if text not in counters:
        raise CheckFailed(f"no counter {text}")
    return counters[text]


def check_line(line: str, counters, series) -> str:
    """Checks one expect line; returns what it observed, else raises."""
    call = CALL.match(line)
    if call and call[1] == "finite":
        name = call[2]
        if name in counters:
            values = [counters[name]]
        elif name in series:
            values = series[name]
        else:
            raise CheckFailed(f"no counter or series {name}")
        bad = [v for v in values if not math.isfinite(v)]
        if bad:
            raise CheckFailed(f"{len(bad)} of {len(values)} not finite")
        return f"{len(values)} finite"
    compare = COMPARE.match(line)
    if not compare:
        raise CheckFailed("not a check: want LHS OP RHS or finite(NAME)")
    lhs, op, rhs = compare.groups()
    left, right = side(lhs, counters, series), side(rhs, counters, series)
    observed = f"{left:g} {op} {right:g}"
    if not OPS[op](left, right):
        raise CheckFailed(f"observed {observed}")
    return observed


def check_expect(expect: Path, counters, series) -> list[str]:
    """Checks every line of an expect file; returns the failures."""
    failures = []
    for lineno, raw in enumerate(expect.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            print(f"ok    {line}    [{check_line(line, counters, series)}]")
        except CheckFailed as e:
            failures.append(f"{expect.name}:{lineno}: {line}: {e}")
            print(f"FAIL  {line}    [{e}]")
    return failures


def read_ini(path: Path) -> dict[str, dict[str, str]]:
    """Sections and keys of an INI, comments stripped as util/ini.cpp does."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    for raw in path.read_text().splitlines():
        line = re.split(r"(?:^|(?<=[\s=]))[#;]", raw, maxsplit=1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1].strip(), {})
        elif "=" in line and current is not None:
            key, value = line.split("=", 1)
            current[key.strip()] = value.strip()
    return sections


def run(cmd: list[str], cwd: Path) -> str:
    """Runs one binary, echoing its output; returns stdout."""
    print("$", " ".join(cmd), flush=True)
    r = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       errors="replace")
    sys.stdout.write(r.stdout + r.stderr)
    if r.returncode != 0:
        raise CheckFailed(f"{Path(cmd[0]).name} exited {r.returncode}")
    return r.stdout


def check_trace(path: Path) -> list[str]:
    try:
        events = json.loads(path.read_text())["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"trace {path.name} does not parse: {e!r}"]
    failures = []
    short = [e for e in complete if not TRACE_FIELDS <= e.keys()]
    if short:
        failures.append(f"{len(short)} X events lack a field of "
                        f"{sorted(TRACE_FIELDS)}, e.g. {short[0]}")
    missing = TRACE_CATEGORIES - {e.get("cat") for e in complete}
    if missing:
        failures.append(f"trace has no X events in {sorted(missing)}")
    return failures


def check_experiment(ini: Path, binary: str, tmp: Path,
                     extra: list[str]) -> list[str]:
    expect = ini.with_suffix(".expect")
    if not expect.is_file():
        return [f"{expect} is missing"]
    metrics = tmp / "metrics.csv"
    run([binary, str(ini), f"--out={metrics}", *extra], tmp)
    return check_expect(expect, *read_metrics(metrics))


def report_heading(metrics: str, grid) -> str:
    """The heading campaign/report.cpp prints over the first metric's table:
    the [sweep] axes, which the campaign parser holds in sorted key order,
    name its columns."""
    metric = metrics.split(",")[0].strip()
    columns = " by " + "/".join(sorted(grid)) if grid else ""
    return f"{metric}{columns} (mean over seeds):"


def check_campaign(ini: Path, binary: str, tmp: Path, extra: list[str],
                   report, grid) -> list[str]:
    store, trace = tmp / "store", tmp / "trace.json"
    runs = {"1 worker": ["--workers=1", "--fresh"],
            "4 workers": ["--workers=4", f"--store={store}",
                          f"--trace-out={trace}", "--profile"],
            "resume": ["--workers=4", f"--store={store}"]}
    stdout, aggregate = {}, {}
    for i, (label, args) in enumerate(runs.items()):
        out = tmp / f"aggregate{i}.csv"
        stdout[label] = run([binary, str(ini), *args, f"--out={out}", *extra],
                            tmp)
        aggregate[label] = out.read_bytes()
    failures = [f"the {label} aggregate differs from the 1 worker one"
                for label in ("4 workers", "resume")
                if aggregate[label] != aggregate["1 worker"]]
    done = re.search(r"done: (\d+) executed, (\d+) resumed", stdout["resume"])
    if not done or done[1] != "0" or done[2] == "0":
        failures.append("the resume run did not resume every job: "
                        + (done[0] if done else "no 'done:' line"))
    failures += check_trace(trace)
    if report.get("metrics"):
        heading = report_heading(report["metrics"], grid)
        failures += [f"the {label} run printed no '{heading}' line"
                     for label, text in stdout.items()
                     if heading not in text.splitlines()]
    if not failures:
        print(f"ok    {len(runs)} runs, identical aggregates, "
              f"resume executed nothing, trace covers "
              f"{sorted(TRACE_CATEGORIES)}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one smoke scenario and check it.")
    parser.add_argument("--run-experiment", help="run_experiment binary")
    parser.add_argument("--campaign", help="roadrunner_campaign binary")
    parser.add_argument("ini", type=Path)
    parser.add_argument("extra", nargs="*",
                        help="arguments after -- go to every run")
    args = parser.parse_args()
    ini = args.ini.resolve()
    if not ini.is_file():
        parser.error(f"{ini} is not a file")
    sections = read_ini(ini)
    is_campaign = "campaign" in sections
    binary = args.campaign if is_campaign else args.run_experiment
    if not binary:
        parser.error(f"{ini.name} needs --"
                     + ("campaign" if is_campaign else "run-experiment"))
    binary = str(Path(binary).resolve())
    with tempfile.TemporaryDirectory(prefix="smoke_") as td:
        try:
            if is_campaign:
                failures = check_campaign(ini, binary, Path(td), args.extra,
                                          sections.get("report", {}),
                                          sections.get("sweep", {}))
            else:
                failures = check_experiment(ini, binary, Path(td), args.extra)
        except (CheckFailed, OSError) as e:
            failures = [str(e)]
    for failure in failures:
        print(f"smoke_check: {ini.name}: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
