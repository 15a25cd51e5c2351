#!/usr/bin/env python3
"""smoke_check: run one smoke scenario and check what it must show.

Usage:
  smoke_check.py --run-experiment=BIN --campaign=BIN [--full]
                 [--aggregate-out=FILE] SCENARIO.ini [-- ARG...]

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
  seeds):``. With a ``SCENARIO.claims`` file next to it, every claim must
  then hold on the aggregate CSV and the store's records.

An ``.expect`` file holds one check per line; ``#`` starts a comment.

  LHS OP RHS     OP is one of == >= > <
  finite(NAME)   a counter, or every point of a series, is finite

A side is a number, a counter name, ``len(SERIES)`` or ``sum(GLOB)``: the
sum of the counters whose names match the glob, e.g. the per-channel
``sum(transfers_*_failed_jamming)``. A counter or series missing from the
CSV fails its line; a glob in ``sum()`` that matches nothing sums to 0.

A ``.claims`` file holds one claim on a campaign's aggregates per line:

  LHS OP RHS                            OP is one of == >= > <
  monotone(M by AXIS [@ ROW]) increasing|decreasing
  refuted: CLAIM                        the claim failed at its first run
  refuted[full]: CLAIM                  it failed at its first full-scale
                                        run; at the reduced scale it is an
                                        ordinary claim
  set SECTION.KEY = VALUE               the reduced scale
  [full]                                the lines below hold at full scale

A side is a sum of terms joined by `` + ``. A term is a number,
``mean(M @ ROW)``, ``ci_lo(M @ ROW)`` or ``ci_hi(M @ ROW)`` (the aggregate
CSV's mean, mean - ci95_half, mean + ci95_half), or one of the three
wrapped around ``paired_diff(M, ROW_A, ROW_B)``: the per-seed differences
M(ROW_A) - M(ROW_B) from the store's records, which need ``pair_seeds =
true``, with the same Student-t interval as ``campaign::compute_stats``.
A ROW is one or more ``key=value`` pairs separated by spaces, a subset of
a point's label (``name=opportunistic participants=5``); it must select
exactly one point (``@ ROW`` may be left out when there is one point).
``monotone`` compares the means of the points ROW selects in AXIS's order
(numeric when every value is a number, else as listed); no two may share
an AXIS value. A metric missing at a selected point fails its line; in the
records, a counter some seeds of a point recorded counts as 0 in the
others, as in the aggregate. A ``refuted:`` line fails if it holds (a
missing metric does not hold; a row that selects no point fails any
line), and so does a ``refuted[full]:`` line under ``--full``. The ``set``
lines are applied to a copy of the INI, and ``[full]`` lines skipped,
unless ``--full`` is given; ``--full`` runs the INI as written, once on 4
workers and once resuming (a 1-worker pass would take four times as long
at full scale), with no trace: the reduced scale checks the trace of the
same INI. ``--aggregate-out`` keeps a copy of the aggregate CSV.

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
import shutil
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


# ---------------------------------------------------------------- claims --

# Two-tailed 95% Student-t critical values for df = 1..30, then 1.96: the
# table in src/campaign/aggregate.cpp, so a paired interval here is the one
# campaign::compute_stats would give.
T95 = (12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
       2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
       2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
       2.048, 2.045, 2.042)
DIGESTS = (":final", ":mean", ":timeavg", ":max")
CLAIM_COMPARE = re.compile(r"^(.+?)\s+(==|>=|>|<)\s+(.+)$")
STAT = re.compile(r"^(mean|ci_lo|ci_hi)\((.*)\)$")
PAIRED = re.compile(r"^paired_diff\(([^,()]+),([^,()]+),([^,()]+)\)$")
MONOTONE = re.compile(r"^monotone\(\s*(\S+)\s+by\s+([\w.-]+)"
                      r"(?:\s*@\s*([^)]*))?\)\s+(increasing|decreasing)$")
SET = re.compile(r"^set\s+([\w-]+)\.([\w.-]+)\s*=\s*(\S.*)$")
METRIC = re.compile(r"^[A-Za-z_][\w.:-]*$")
REFUTED = re.compile(r"^refuted(?:\[([^\]]*)\])?:")


class ClaimError(CheckFailed):
    """The claim cannot be evaluated as written: it fails even if refuted."""


class NotHeld(CheckFailed):
    """The claim does not hold, or a metric it reads is missing."""


def stats(values: list[float]) -> tuple[float, float]:
    """(mean, ci95_half) computed as campaign::compute_stats does."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    sq = 0.0
    for v in values:
        d = v - mean
        sq += d * d
    stddev = math.sqrt(sq / (n - 1))
    t = T95[n - 2] if n - 1 <= 30 else 1.96
    return mean, t * stddev / math.sqrt(n)


def parse_row(text: str) -> dict[str, str]:
    row = {}
    for pair in text.split():
        key, eq, value = pair.partition("=")
        if not eq or not key or not value:
            raise ValueError(f"'{pair}' is not key=value")
        row[key] = value
    return row


def parse_term(text: str):
    """('num', x) | (stat, metric, row) | (stat, 'paired', m, row_a, row_b)."""
    text = text.strip()
    try:
        return ("num", float(text))
    except ValueError:
        pass
    call = STAT.match(text)
    if not call:
        raise ValueError(f"'{text}' is not a number, mean(), ci_lo() or "
                         "ci_hi()")
    stat, inner = call[1], call[2].strip()
    paired = PAIRED.match(inner)
    if paired:
        metric = paired[1].strip()
        if not METRIC.match(metric):
            raise ValueError(f"'{metric}' is not a metric name")
        return (stat, "paired", metric, parse_row(paired[2]),
                parse_row(paired[3]))
    if inner.startswith("paired_diff"):
        raise ValueError(f"'{inner}' wants paired_diff(M, ROW_A, ROW_B)")
    metric, _, row = inner.partition("@")
    metric = metric.strip()
    if not METRIC.match(metric):
        raise ValueError(f"'{metric}' is not a metric name")
    return (stat, metric, parse_row(row))


def parse_claim(text: str):
    """('monotone', metric, axis, row, direction) | ('compare', l, op, r)."""
    monotone = MONOTONE.match(text)
    if monotone:
        if not METRIC.match(monotone[1]):
            raise ValueError(f"'{monotone[1]}' is not a metric name")
        return ("monotone", monotone[1], monotone[2],
                parse_row(monotone[3] or ""), monotone[4])
    compare = CLAIM_COMPARE.match(text)
    if not compare:
        raise ValueError("not a claim: want LHS OP RHS or "
                         "monotone(M by AXIS [@ ROW]) increasing|decreasing")
    lhs, op, rhs = compare.groups()
    side = lambda t: [parse_term(term) for term in t.split(" + ")]
    return ("compare", side(lhs), op, side(rhs))


def parse_claims(path: Path):
    """(sets, claims) of a claims file; raises ValueError on a bad line.

    A claim is (lineno, text, refuted, full_only, parsed), where refuted is
    None, "any" (``refuted:``) or "full" (``refuted[full]:``)."""
    sets, claims, full = [], [], False
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        try:
            if not line:
                continue
            if line == "[full]":
                full = True
                continue
            setting = SET.match(line)
            if line.startswith("set "):
                if not setting or full:
                    raise ValueError("want 'set SECTION.KEY = VALUE' "
                                     "before [full]")
                sets.append(setting.groups())
                continue
            mark = REFUTED.match(line)
            if mark and mark[1] not in (None, "full"):
                raise ValueError(f"'refuted[{mark[1]}]:' is not a mark: "
                                 "want 'refuted:' or 'refuted[full]:'")
            refuted = (mark[1] or "any") if mark else None
            text = line[mark.end():].strip() if mark else line
            claims.append((lineno, line, refuted, full, parse_claim(text)))
        except ValueError as e:
            raise ValueError(f"{path.name}:{lineno}: {line}: {e}") from None
    return sets, claims


def apply_sets(text: str, sets) -> str:
    """The INI text with each (section, key, value) set, as util/ini.cpp
    would read it: an existing key is replaced, a missing one added."""
    lines = text.splitlines()
    for section, key, value in sets:
        current, start, found = None, None, False
        for i, raw in enumerate(lines):
            line = re.split(r"(?:^|(?<=[\s=]))[#;]", raw, maxsplit=1)[0]
            line = line.strip()
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                if current == section and start is None:
                    start = i
            elif (current == section and "=" in line
                  and line.split("=", 1)[0].strip() == key):
                lines[i] = f"{key} = {value}"
                found = True
        if not found:
            if start is None:
                lines += ["", f"[{section}]"]
                start = len(lines) - 1
            lines.insert(start + 1, f"{key} = {value}")
    return "\n".join(lines) + "\n"


def parse_label(label: str) -> dict[str, str]:
    pairs = [p.split("=", 1) for p in label.split(", ") if p]
    return {k: v for k, v in pairs}


class Aggregates:
    """A finished campaign: its aggregate CSV, store records and axes."""

    def __init__(self, aggregate: Path, store: Path, sections):
        self.points: dict[str, dict] = {}  # label -> metric -> (mean, ci)
        with aggregate.open(newline="") as f:
            for row in csv.DictReader(f):
                self.points.setdefault(row["point_label"], {})[
                    row["metric"]] = (float(row["mean"]),
                                      float(row["ci95_half"]))
        self.records: dict[str, dict] = {}  # label -> seed -> metric -> v
        for path in sorted(store.glob("*.csv")):
            meta, metrics = {}, {}
            with path.open(newline="") as f:
                for field, name, value in list(csv.reader(f))[1:]:
                    if field == "meta":
                        meta[name] = value
                    else:
                        metrics[name] = float(value)
            self.records.setdefault(meta["point_label"], {})[
                int(meta["seed_index"])] = metrics
        campaign = sections.get("campaign", {})
        self.paired = campaign.get("pair_seeds", "false") in (
            "true", "1", "yes", "on")
        self.axes: dict[str, list[str]] = {}
        for section in ("sweep", "sweep.zip"):
            for key, values in sections.get(section, {}).items():
                self.axes[key.split(".", 1)[-1]] = [
                    v.strip() for v in values.split(",")]

    def select(self, row: dict[str, str]) -> list[str]:
        return [label for label in self.points
                if row.items() <= parse_label(label).items()]

    def point(self, row: dict[str, str]) -> str:
        labels = self.select(row)
        if len(labels) != 1:
            want = " ".join(f"{k}={v}" for k, v in row.items()) or "(all)"
            raise ClaimError(f"'{want}' selects {len(labels)} points, "
                             "want 1")
        return labels[0]

    def per_seed(self, metric: str, label: str) -> dict[int, float]:
        seeds = self.records.get(label, {})
        have = {s: m[metric] for s, m in seeds.items() if metric in m}
        if not have:
            raise NotHeld(f"no {metric} at '{label}'")
        if not metric.endswith(DIGESTS):
            return {s: have.get(s, 0.0) for s in seeds}
        if len(have) < len(seeds):
            raise NotHeld(f"{metric} missing at {len(seeds) - len(have)} "
                         f"seeds of '{label}'")
        return have

    def term(self, term) -> float:
        if term[0] == "num":
            return term[1]
        stat = term[0]
        if term[1] == "paired":
            if not self.paired:
                raise ClaimError("paired_diff needs pair_seeds = true")
            _, _, metric, row_a, row_b = term
            a = self.per_seed(metric, self.point(row_a))
            b = self.per_seed(metric, self.point(row_b))
            if a.keys() != b.keys():
                raise ClaimError("paired_diff rows ran different seeds")
            mean, half = stats([a[s] - b[s] for s in sorted(a)])
        else:
            _, metric, row = term
            label = self.point(row)
            if metric not in self.points[label]:
                raise NotHeld(f"no {metric} at '{label}'")
            mean, half = self.points[label][metric]
        return {"mean": mean, "ci_lo": mean - half, "ci_hi": mean + half}[stat]

    def side(self, terms) -> float:
        total = 0.0
        for term in terms:
            total += self.term(term)
        return total

    def monotone(self, metric, axis, row, direction) -> str:
        if axis not in self.axes:
            raise ClaimError(f"{axis} is not a sweep axis")
        values = list(dict.fromkeys(self.axes[axis]))
        try:
            values.sort(key=float)
        except ValueError:
            pass
        chosen = {}
        for label in self.select(row):
            value = parse_label(label).get(axis)
            if value is None:
                continue
            if value in chosen:
                raise ClaimError(f"two points at {axis}={value}; narrow "
                                 "the row")
            chosen[value] = label
        if len(chosen) < 2:
            raise ClaimError(f"{len(chosen)} points along {axis}, want 2+")
        means = []
        for value in sorted(chosen, key=values.index):
            label = chosen[value]
            if metric not in self.points[label]:
                raise NotHeld(f"no {metric} at '{label}'")
            means.append(self.points[label][metric][0])
        observed = " ".join(f"{v:g}" for v in means)
        step = operator.gt if direction == "increasing" else operator.lt
        if not all(step(b, a) for a, b in zip(means, means[1:])):
            raise NotHeld(f"not {direction}: {observed}")
        return observed

    def check(self, parsed) -> str:
        """What the claim observed; raises NotHeld if it does not hold."""
        if parsed[0] == "monotone":
            return self.monotone(*parsed[1:])
        _, lhs, op, rhs = parsed
        left, right = self.side(lhs), self.side(rhs)
        observed = f"{left:g} {op} {right:g}"
        if not OPS[op](left, right):
            raise NotHeld(f"observed {observed}")
        return observed


def check_claims(path: Path, claims, data: Aggregates,
                 full: bool) -> list[str]:
    """Checks every claim; returns the failures."""
    failures = []
    for lineno, line, refuted_at, full_only, parsed in claims:
        if full_only and not full:
            print(f"skip  {line}    [full scale only]")
            continue
        refuted = refuted_at == "any" or (refuted_at == "full" and full)
        try:
            observed = data.check(parsed)
            if refuted:
                raise ClaimError(f"a refuted claim holds: {observed}")
            print(f"ok    {line}    [{observed}]")
        except NotHeld as e:
            if refuted:
                print(f"ok    {line}    [still fails: {e}]")
                continue
            failures.append(f"{path.name}:{lineno}: {line}: {e}")
            print(f"FAIL  {line}    [{e}]")
        except ClaimError as e:
            failures.append(f"{path.name}:{lineno}: {line}: {e}")
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
                   sections, full: bool, claims, aggregate_out) -> list[str]:
    store, trace = tmp / "store", tmp / "trace.json"
    runs = {"1 worker": ["--workers=1", "--fresh"],
            "4 workers": ["--workers=4", f"--store={store}"],
            "resume": ["--workers=4", f"--store={store}"]}
    if full:
        del runs["1 worker"]
    else:
        runs["4 workers"] += [f"--trace-out={trace}", "--profile"]
    stdout, aggregate = {}, {}
    for i, (label, args) in enumerate(runs.items()):
        out = tmp / f"aggregate{i}.csv"
        stdout[label] = run([binary, str(ini), *args, f"--out={out}", *extra],
                            tmp)
        aggregate[label] = out
    first = next(iter(runs))
    failures = [f"the {label} aggregate differs from the {first} one"
                for label in runs if label != first
                and aggregate[label].read_bytes()
                != aggregate[first].read_bytes()]
    done = re.search(r"done: (\d+) executed, (\d+) resumed", stdout["resume"])
    if not done or done[1] != "0" or done[2] == "0":
        failures.append("the resume run did not resume every job: "
                        + (done[0] if done else "no 'done:' line"))
    if not full:
        failures += check_trace(trace)
    report = sections.get("report", {})
    if report.get("metrics"):
        heading = report_heading(report["metrics"], sections.get("sweep", {}))
        failures += [f"the {label} run printed no '{heading}' line"
                     for label, text in stdout.items()
                     if heading not in text.splitlines()]
    if not failures:
        traced = "" if full else \
            f", trace covers {sorted(TRACE_CATEGORIES)}"
        print(f"ok    {len(runs)} runs, identical aggregates, "
              f"resume executed nothing{traced}")
    if aggregate_out:
        shutil.copyfile(aggregate[first], aggregate_out)
    if claims is not None:
        path, parsed = claims
        failures += check_claims(
            path, parsed, Aggregates(aggregate[first], store, sections), full)
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one smoke scenario and check it.")
    parser.add_argument("--run-experiment", help="run_experiment binary")
    parser.add_argument("--campaign", help="roadrunner_campaign binary")
    parser.add_argument("--full", action="store_true",
                        help="check claims at full scale: ignore the "
                             "claims' set lines, check their [full] lines")
    parser.add_argument("--aggregate-out", type=Path,
                        help="keep a copy of the campaign's aggregate CSV")
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
    claims_path = ini.with_suffix(".claims")
    claims = None
    if claims_path.is_file():
        try:
            sets, parsed = parse_claims(claims_path)
        except ValueError as e:
            print(f"smoke_check: {e}", file=sys.stderr)
            return 1
        if not is_campaign:
            print(f"smoke_check: {claims_path.name}: claims need a campaign "
                  "INI", file=sys.stderr)
            return 1
        claims = (claims_path, parsed)
    aggregate_out = (args.aggregate_out.resolve() if args.aggregate_out
                     else None)
    with tempfile.TemporaryDirectory(prefix="smoke_") as td:
        tmp = Path(td)
        try:
            if claims is not None and sets and not args.full:
                # The reduced scale: a copy of the INI with the set lines.
                reduced = tmp / ini.name
                reduced.write_text(apply_sets(ini.read_text(), sets))
                ini, sections = reduced, read_ini(reduced)
            if is_campaign:
                failures = check_campaign(ini, binary, tmp, args.extra,
                                          sections, args.full, claims,
                                          aggregate_out)
            else:
                failures = check_experiment(ini, binary, tmp, args.extra)
        except (CheckFailed, OSError) as e:
            failures = [str(e)]
    for failure in failures:
        print(f"smoke_check: {ini.name}: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
