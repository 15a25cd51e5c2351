#!/usr/bin/env python3
"""Unit tests for tools/smoke_check.py, run as the `smoke_check_test` ctest
target.

Stub executables stand in for run_experiment and roadrunner_campaign: the
experiment stub writes a fixture metrics CSV, the campaign stub writes
aggregates, a trace and a report heading, each with one planted fault per
mode. Every expect-file operator and side form must pass on the fixture
when the fact holds and fail when it does not; a nonzero exit, differing
campaign aggregates, a short trace and a missing heading, or one naming
the wrong [sweep] axes, must each fail. A third stub serves a campaign's
aggregate CSV and store records from one of two fixtures, in which every
fact of the other is turned round: each claim form must hold on one and
fail on the other.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
TOOL = ROOT / "tools" / "smoke_check.py"

failures = []


def check(label, condition, detail=""):
    if condition:
        print(f"ok   {label}")
    else:
        failures.append(label)
        print(f"FAIL {label}  {detail}")


METRICS = """kind,name,time_s,value
series,queue,10,1
series,queue,20,2
series,queue,30,3
series,score,10,0.5
series,score,20,nan
counter,crashes,1500,2
counter,rate,1500,0.25
counter,regret,1500,1.5
counter,blowup,1500,inf
counter,transfers_V2C_failed_jamming,1500,3
counter,transfers_V2X_failed_jamming,1500,4
"""

# Every line holds on METRICS.
HOLDS = """# comment lines and trailing comments are ignored
crashes == 2
crashes >= 2
crashes > 1
rate < 1
2 == crashes
crashes > rate
len(queue) == 3
sum(transfers_*_failed_jamming) == 7
sum(transfers_*_failed_fault-outage) == 0   # no such channel: sums to 0
finite(regret)
finite(queue)
"""

# Every line fails on METRICS.
VIOLATED = """crashes == 3
crashes >= 3
crashes > 2
rate < 0.25
3 == crashes
rate > crashes
len(queue) > 3
sum(transfers_*_failed_jamming) < 7
finite(blowup)
finite(score)
no_such_counter >= 0
len(no_such_series) >= 0
finite(no_such_metric)
crashes => 2
"""

EXPERIMENT_STUB = """
import sys
out = next(a[6:] for a in sys.argv if a.startswith("--out="))
open(out, "w").write({metrics!r})
sys.exit({exit_code})
"""

CAMPAIGN_STUB = """
import json, os, sys
mode = {mode!r}
opts = dict(a[2:].split("=", 1) for a in sys.argv[2:] if "=" in a)
store = opts.get("store")
resumed = store is not None and os.path.isdir(store)
if store:
    os.makedirs(store, exist_ok=True)
if mode == "needs_seeds" and opts.get("seeds") != "1":
    sys.exit(2)
aggregate = "point,metric,mean\\n0,final_accuracy,0.5\\n"
if mode == "differ_4_workers" and opts["workers"] == "4" and not resumed:
    aggregate += "1,final_accuracy,0.6\\n"
if mode == "differ_resume" and resumed:
    aggregate += "1,final_accuracy,0.6\\n"
open(opts["out"], "w").write(aggregate)
if "trace-out" in opts:
    cats = ["sim", "ml", "strategy", "campaign"]
    if mode == "no_ml_spans":
        cats.remove("ml")
    events = [dict(name="span", cat=c, ph="X", ts=0, dur=1, pid=1, tid=1)
              for c in cats]
    events.append(dict(name="meta", ph="M", pid=1))
    if mode == "event_without_dur":
        del events[0]["dur"]
    text = json.dumps({{"traceEvents": events}})
    open(opts["trace-out"], "w").write(text[:-3] if mode == "bad_json"
                                       else text)
if resumed and mode != "reexecute":
    print("\\rdone: 0 executed, 2 resumed in 0.0 s")
else:
    print("\\rdone: 2 executed, 0 resumed in 0.0 s")
print("        * = final_accuracy (mean over seeds)")
heading = dict(wrong_axis="final_accuracy by scenario.vehicles",
               axes_in_file_order="final_accuracy by "
                                  "scenario.vehicles/city.size_m",
               no_axis="final_accuracy",
               indented="  final_accuracy by city.size_m/scenario.vehicles"
               ).get(mode, "final_accuracy by city.size_m/scenario.vehicles")
if mode != "no_heading":
    print(heading + " (mean over seeds):")
if mode == "leak":
    print("ERROR: LeakSanitizer: detected memory leaks")
    sys.exit(23)
"""



# --- claims fixtures ------------------------------------------------------
# Five points x five paired seeds. The aggregates are what
# campaign::write_aggregate_csv wrote for these records (C++ means and
# Student-t intervals, to the last bit): the claims checker must read the
# same interval off the records. In DOWN the fl rows' accuracy and bytes
# run the other way and opp's accuracy drops by 0.4.
ACC = {"name=fl, r=1": [0.50, 0.52, 0.48, 0.51, 0.49],
       "name=fl, r=2": [0.60, 0.62, 0.58, 0.61, 0.59],
       "name=fl, r=4": [0.70, 0.72, 0.68, 0.71, 0.69],
       "name=opp, r=2": [0.55, 0.66, 0.60, 0.64, 0.58],
       "name=zero, r=0": [0.0] * 5}
BYTES = {"name=fl, r=1": 100.0, "name=fl, r=2": 200.0, "name=fl, r=4": 400.0,
         "name=opp, r=2": 150.0, "name=zero, r=0": 0.0}
AGGREGATE_UP = """point_index,point_label,strategy,metric,n,mean,stddev,ci95_half,min,max
0,"name=fl, r=1",stub,acc,5,0.5,0.01581138830084191,0.019629284245738572,0.48,0.52
0,"name=fl, r=1",stub,bytes,5,100,0,0,100,100
0,"name=fl, r=1",stub,lost,5,0.4,0.5477225575051662,0.6799783525966102,0,1
1,"name=fl, r=2",stub,acc,5,0.5999999999999999,0.01581138830084191,0.019629284245738572,0.58,0.62
1,"name=fl, r=2",stub,bytes,5,200,0,0,200,200
2,"name=fl, r=4",stub,acc,5,0.7,0.015811388300841875,0.01962928424573853,0.68,0.72
2,"name=fl, r=4",stub,bytes,5,400,0,0,400,400
3,"name=opp, r=2",stub,acc,5,0.6060000000000001,0.04449719092257398,0.05524170250815954,0.55,0.66
3,"name=opp, r=2",stub,bytes,5,150,0,0,150,150
3,"name=opp, r=2",stub,queue:max,4,5,1.8257418583505538,2.904755296635731,3,7
4,"name=zero, r=0",stub,acc,5,0,0,0,0,0
4,"name=zero, r=0",stub,bytes,5,0,0,0,0,0
"""
AGGREGATE_DOWN = """point_index,point_label,strategy,metric,n,mean,stddev,ci95_half,min,max
0,"name=fl, r=1",stub,acc,5,0.7,0.015811388300841875,0.01962928424573853,0.68,0.72
0,"name=fl, r=1",stub,bytes,5,400,0,0,400,400
0,"name=fl, r=1",stub,lost,5,0.4,0.5477225575051662,0.6799783525966102,0,1
1,"name=fl, r=2",stub,acc,5,0.5999999999999999,0.01581138830084191,0.019629284245738572,0.58,0.62
1,"name=fl, r=2",stub,bytes,5,200,0,0,200,200
2,"name=fl, r=4",stub,acc,5,0.5,0.01581138830084191,0.019629284245738572,0.48,0.52
2,"name=fl, r=4",stub,bytes,5,100,0,0,100,100
3,"name=opp, r=2",stub,acc,5,0.20600000000000002,0.04449719092257398,0.05524170250815954,0.15,0.26
3,"name=opp, r=2",stub,bytes,5,150,0,0,150,150
3,"name=opp, r=2",stub,queue:max,4,5,1.8257418583505538,2.904755296635731,3,7
4,"name=zero, r=0",stub,acc,5,0,0,0,0,0
4,"name=zero, r=0",stub,bytes,5,0,0,0,0,0
"""


def records(down):
    acc, nbytes = dict(ACC), dict(BYTES)
    if down:
        acc["name=fl, r=1"], acc["name=fl, r=4"] = (acc["name=fl, r=4"],
                                                    acc["name=fl, r=1"])
        nbytes["name=fl, r=1"], nbytes["name=fl, r=4"] = 400.0, 100.0
        acc["name=opp, r=2"] = [0.15, 0.26, 0.20, 0.24, 0.18]
    out = []
    for p, label in enumerate(acc):
        for seed in range(5):
            metrics = {"acc": acc[label][seed], "bytes": nbytes[label]}
            if p == 0 and seed in (1, 3):
                metrics["lost"] = 1.0  # a sparse counter: 0.4 over 5 seeds
            if p == 3 and seed != 2:
                metrics["queue:max"] = 3.0 + seed  # a digest, 4 seeds
            out.append([label, seed, metrics])
    return out


CLAIMS_STUB = """
import csv, json, os, sys
fixture = json.load(open({fixture!r}))
opts = dict(a[2:].split("=", 1) for a in sys.argv[2:] if "=" in a)
with open({log!r}, "a") as log:
    log.write(json.dumps(dict(argv=sys.argv[2:],
                              ini=open(sys.argv[1]).read())) + "\\n")
store = opts.get("store")
resumed = store is not None and os.path.isdir(store)
open(opts["out"], "w").write(fixture["aggregate"])
if store:
    os.makedirs(store, exist_ok=True)
    for i, (label, seed, metrics) in enumerate(fixture["records"]):
        with open(os.path.join(store, f"h{{i}}.csv"), "w", newline="") as f:
            w = csv.writer(f, lineterminator="\\n")
            w.writerow(["field", "name", "value"])
            w.writerow(["meta", "hash", f"h{{i}}"])
            w.writerow(["meta", "point_label", label])
            w.writerow(["meta", "seed_index", seed])
            for name, value in metrics.items():
                w.writerow(["metric", name, repr(value)])
if "trace-out" in opts:
    events = [dict(name="span", cat=c, ph="X", ts=0, dur=1, pid=1, tid=1)
              for c in ["sim", "ml", "strategy", "campaign"]]
    open(opts["trace-out"], "w").write(json.dumps({{"traceEvents": events}}))
print("\\rdone: 0 executed, 25 resumed" if resumed
      else "\\rdone: 25 executed, 0 resumed")
"""

CLAIMS_INI = """[campaign]
name = stub
seeds = 5
pair_seeds = {paired}
[sweep.zip]
strategy.name = fl, fl, fl, opp, zero
x.r = 1, 2, 4, 2, 0
"""

# (claim, holds on UP, holds on DOWN): every side form and direction.
CLAIMS = [
    ("mean(acc @ name=fl r=1) < 0.55", True, False),
    ("ci_lo(acc @ name=opp) > 0.5", True, False),
    ("ci_hi(acc @ name=opp) > 0.6", True, False),
    ("mean(paired_diff(acc, name=fl r=4, name=fl r=1)) > 0.15", True, False),
    ("ci_lo(paired_diff(acc, name=fl r=4, name=fl r=1)) > 0", True, False),
    ("ci_hi(paired_diff(acc, name=fl r=1, name=fl r=2)) < 0", True, False),
    ("mean(bytes @ name=fl r=1) + mean(bytes @ name=fl r=2) < 350", True,
     False),
    ("300 == mean(bytes @ name=fl r=1) + mean(bytes @ name=fl r=2)", True,
     False),
    ("monotone(acc by r @ name=fl) increasing", True, False),
    ("monotone(acc by r @ name=fl) decreasing", False, True),
    ("monotone(bytes by r @ name=fl) increasing", True, False),
    ("refuted: mean(acc @ name=fl r=1) > 0.55", True, False),
    ("refuted: monotone(acc by r @ name=fl) decreasing", True, False),
    # The sparse counter reads 0.4 in the aggregate and in the records.
    ("mean(lost @ name=fl r=1) > 0.3", True, True),
    ("mean(paired_diff(lost, name=fl r=1, name=fl r=1)) == 0", True, True),
    # The Student-t interval of the records is the aggregate's, to the bit.
    ("ci_lo(paired_diff(acc, name=opp, name=zero)) == ci_lo(acc @ name=opp)",
     True, True),
    ("ci_hi(paired_diff(acc, name=opp, name=zero)) == ci_hi(acc @ name=opp)",
     True, True),
    ("mean(paired_diff(acc, name=opp, name=zero)) == mean(acc @ name=opp)",
     True, True),
    # A missing metric fails its line, a refuted one passes on it.
    ("mean(nothing @ name=fl r=1) > 0", False, False),
    ("mean(queue:max @ name=fl r=1) > 0", False, False),
    ("mean(paired_diff(queue:max, name=opp, name=opp)) == 0", False, False),
    ("refuted: mean(nothing @ name=fl r=1) > 0", True, True),
    # A row must select one point; monotone at least two along its axis.
    ("mean(acc @ r=2) > 0", False, False),
    ("refuted: mean(acc @ r=2) > 0", False, False),
    ("monotone(acc by r @ r=2) increasing", False, False),
]

MALFORMED = [
    "mean(acc @ name=fl r=1) => 0.5",
    "median(acc @ name=fl) > 0",
    "mean(acc @ name) > 0",
    "mean(paired_diff(acc, name=fl)) > 0",
    "monotone(acc by r) upward",
    "mean(acc @ name=fl r=1)",
    "set campaign.seeds",
    "[full]\nset campaign.seeds = 2",
    "refuted[x]: mean(acc @ name=fl r=1) > 0.5",
]


def stub(path, body):
    path.write_text(f"#!{sys.executable}\n{body}")
    path.chmod(0o755)
    return path


def run(ini, experiment, campaign, *extra):
    return subprocess.run(
        [sys.executable, str(TOOL), f"--run-experiment={experiment}",
         f"--campaign={campaign}", str(ini), *extra],
        capture_output=True, text=True)


with tempfile.TemporaryDirectory() as td:
    tmp = Path(td)
    experiment = stub(tmp / "run_experiment",
                      EXPERIMENT_STUB.format(metrics=METRICS, exit_code=0))
    crashing = stub(tmp / "run_experiment_exit3",
                    EXPERIMENT_STUB.format(metrics=METRICS, exit_code=3))
    campaign = stub(tmp / "campaign", CAMPAIGN_STUB.format(mode="ok"))
    os.chdir(tmp)  # nothing may land in the working directory

    # --- expect grammar: every operator and side form, both ways ---------
    holds = tmp / "holds.ini"
    holds.write_text("[scenario]\nvehicles = 4\n")
    (tmp / "holds.expect").write_text(HOLDS)
    r = run(holds, experiment, campaign)
    check("holding expect file exits 0", r.returncode == 0,
          r.stdout + r.stderr)
    for line in HOLDS.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            check(f"holds: {line}", f"ok    {line}    [" in r.stdout,
                  r.stdout)
    check("a holding line prints the value it observed",
          "ok    sum(transfers_*_failed_jamming) == 7    [7 == 7]"
          in r.stdout, r.stdout)

    violated = tmp / "violated.ini"
    violated.write_text("[scenario]\nvehicles = 4\n")
    (tmp / "violated.expect").write_text(VIOLATED)
    r = run(violated, experiment, campaign)
    check("violated expect file exits 1", r.returncode == 1,
          f"rc={r.returncode}")
    for line in VIOLATED.splitlines():
        check(f"fails: {line}", f"FAIL  {line}    [" in r.stdout, r.stdout)
    check("a missing counter is named", "no counter no_such_counter"
          in r.stdout, r.stdout)
    check("a NaN series point fails finite",
          "FAIL  finite(score)    [1 of 2 not finite]" in r.stdout, r.stdout)
    check("each failure reaches stderr with its line number",
          r.stderr.count("violated.expect:") == len(VIOLATED.splitlines()),
          r.stderr)

    # --- the experiment's exit code counts --------------------------------
    r = run(holds, crashing, campaign)
    check("nonzero experiment exit fails", r.returncode == 1,
          f"rc={r.returncode}")
    check("nonzero exit is reported", "exited 3" in r.stderr, r.stderr)

    lonely = tmp / "lonely.ini"
    lonely.write_text("[scenario]\nvehicles = 4\n")
    r = run(lonely, experiment, campaign)
    check("an experiment without an expect file fails",
          r.returncode == 1 and "lonely.expect is missing" in r.stderr,
          r.stderr)

    # --- campaign rule ----------------------------------------------------
    spec = tmp / "spec.ini"
    spec.write_text("[campaign]   # a campaign INI\nname = stub\n"
                    "[sweep]\nscenario.vehicles = 8, 12\n"
                    "city.size_m = 600, 800\n"
                    "[report]\nmetrics = final_accuracy, other\n")
    r = run(spec, experiment, campaign)
    check("clean campaign passes", r.returncode == 0, r.stdout + r.stderr)
    check("nothing lands in the working directory",
          sorted(p.name for p in tmp.iterdir() if p.is_dir()) == [], "")

    bad_modes = {
        "differ_4_workers": "the 4 workers aggregate differs",
        "differ_resume": "the resume aggregate differs",
        "reexecute": "did not resume every job",
        "no_ml_spans": "no X events in ['ml']",
        "event_without_dur": "X events lack a field",
        "bad_json": "does not parse",
        "no_heading": "printed no 'final_accuracy by city.size_m/"
                      "scenario.vehicles (mean over seeds):' line",
        "wrong_axis": "printed no 'final_accuracy by city.size_m/",
        "axes_in_file_order": "printed no 'final_accuracy by city.size_m/",
        "no_axis": "printed no 'final_accuracy by city.size_m/",
        "indented": "printed no 'final_accuracy by city.size_m/",
        "leak": "exited 23",
    }
    for mode, message in bad_modes.items():
        r = run(spec, experiment,
                stub(tmp / f"campaign_{mode}", CAMPAIGN_STUB.format(mode=mode)))
        check(f"campaign '{mode}' fails", r.returncode == 1,
              f"rc={r.returncode}")
        check(f"campaign '{mode}' says why", message in r.stderr, r.stderr)

    # --- arguments after -- reach every run -------------------------------
    needs_seeds = stub(tmp / "campaign_needs_seeds",
                       CAMPAIGN_STUB.format(mode="needs_seeds"))
    r = run(spec, experiment, needs_seeds)
    check("without --seeds=1 the picky stub fails", r.returncode == 1,
          f"rc={r.returncode}")
    r = run(spec, experiment, needs_seeds, "--", "--seeds=1")
    check("arguments after -- reach every run", r.returncode == 0,
          r.stdout + r.stderr)

    # --- claims: every form holds on one fixture, fails on the other ------
    def claims_stub(tag, down):
        fixture = tmp / f"fixture_{tag}.json"
        fixture.write_text(json.dumps(dict(
            aggregate=AGGREGATE_DOWN if down else AGGREGATE_UP,
            records=records(down))))
        log = tmp / f"log_{tag}.jsonl"
        return stub(tmp / f"campaign_claims_{tag}", CLAIMS_STUB.format(
            fixture=str(fixture), log=str(log))), log

    def claims_run(tag, claims, down=False, paired="true", *extra):
        ini = tmp / f"{tag}.ini"
        ini.write_text(CLAIMS_INI.format(paired=paired))
        (tmp / f"{tag}.claims").write_text(claims)
        binary, log = claims_stub(tag, down)
        r = run(ini, experiment, binary, *extra)
        calls = ([json.loads(line) for line in log.read_text().splitlines()]
                 if log.exists() else [])
        return r, calls

    for fixture, down in (("up", False), ("down", True)):
        text = "".join(line + "\n" for line, _, _ in CLAIMS)
        r, _ = claims_run(f"claims_{fixture}", text, down)
        check(f"{fixture}: a failing claim fails the run", r.returncode == 1,
              f"rc={r.returncode}")
        for line, on_up, on_down in CLAIMS:
            holds = on_down if down else on_up
            check(f"{fixture}: {line} {'holds' if holds else 'fails'}",
                  (f"ok    {line}    [" if holds else f"FAIL  {line}    [")
                  in r.stdout, r.stdout + r.stderr)
    r, _ = claims_run("claims_holding", "".join(
        line + "\n" for line, on_up, _ in CLAIMS if on_up))
    check("claims that all hold pass", r.returncode == 0, r.stdout + r.stderr)
    r, _ = claims_run("refuted_holds", "refuted: mean(acc @ name=fl r=1) "
                      "< 0.55\n")
    check("a refuted line that holds says so",
          "a refuted claim holds: 0.5 < 0.55" in r.stderr, r.stderr)
    r, _ = claims_run("missing", "mean(nothing @ name=fl r=1) > 0\n")
    check("a missing metric is named",
          "no nothing at 'name=fl, r=1'" in r.stderr, r.stderr)

    line = "mean(paired_diff(acc, name=fl r=4, name=fl r=1)) > 0.15"
    r, _ = claims_run("unpaired", line + "\n", False, "false")
    check("paired_diff without pair_seeds fails",
          r.returncode == 1 and "needs pair_seeds = true" in r.stderr,
          r.stdout + r.stderr)
    r, _ = claims_run("unpaired_ci", "ci_lo(acc @ name=opp) > 0.5\n", False,
                      "false")
    check("an unpaired CI reads the aggregate", r.returncode == 0,
          r.stdout + r.stderr)

    for i, line in enumerate(MALFORMED):
        r, calls = claims_run(f"malformed_{i}", line + "\n")
        check(f"malformed: {line!r} is rejected before any run",
              r.returncode == 1 and not calls
              and f"malformed_{i}.claims:" in r.stderr, r.stdout + r.stderr)

    # --- set lines and [full] ----------------------------------------------
    scaled = ("set campaign.seeds = 2\nset scenario.vehicles = 7\n"
              "mean(acc @ name=fl r=1) < 0.55\n[full]\n"
              "mean(acc @ name=fl r=1) > 0.9\n")
    r, calls = claims_run("scaled", scaled)
    check("without --full the [full] lines are skipped", r.returncode == 0
          and "skip  mean(acc @ name=fl r=1) > 0.9" in r.stdout,
          r.stdout + r.stderr)
    check("without --full every run sees the set lines",
          len(calls) == 3 and all("seeds = 2" in c["ini"]
                                  and "vehicles = 7" in c["ini"]
                                  and "seeds = 5" not in c["ini"]
                                  for c in calls), calls)
    check("the source INI is left as it was",
          "seeds = 5" in (tmp / "scaled.ini").read_text(), "")
    kept = tmp / "kept_aggregate.csv"
    r, calls = claims_run("scaled_full", scaled, False, "true", "--full",
                          f"--aggregate-out={kept}")
    check("with --full the [full] lines are checked", r.returncode == 1
          and "FAIL  mean(acc @ name=fl r=1) > 0.9" in r.stdout,
          r.stdout + r.stderr)
    check("with --full the INI runs as written, on 4 workers and resumed",
          len(calls) == 2 and all("seeds = 5" in c["ini"]
                                  and "vehicles" not in c["ini"]
                                  and "--workers=4" in c["argv"]
                                  for c in calls), calls)
    check("--aggregate-out keeps the aggregate",
          kept.is_file() and kept.read_text() == AGGREGATE_UP, "")
    check("with --full no run is traced",
          not any(a.startswith(("--trace-out", "--profile"))
                  for c in calls for a in c["argv"]), calls)

    # --- refuted[full]: an ordinary claim, refuted only under --full ------
    holds = "refuted[full]: mean(acc @ name=fl r=1) < 0.55"
    fails = "refuted[full]: mean(acc @ name=fl r=1) > 0.55"
    r, _ = claims_run("refuted_full_holds", holds + "\n")
    check("refuted[full] that holds passes without --full",
          r.returncode == 0 and f"ok    {holds}    [" in r.stdout,
          r.stdout + r.stderr)
    r, _ = claims_run("refuted_full_holds_full", holds + "\n", False, "true",
                      "--full")
    check("refuted[full] that holds fails with --full",
          r.returncode == 1 and "a refuted claim holds" in r.stderr,
          r.stdout + r.stderr)
    r, _ = claims_run("refuted_full_fails", fails + "\n")
    check("refuted[full] that fails fails without --full",
          r.returncode == 1 and f"FAIL  {fails}    [" in r.stdout,
          r.stdout + r.stderr)
    r, _ = claims_run("refuted_full_fails_full", fails + "\n", False, "true",
                      "--full")
    check("refuted[full] that fails passes with --full",
          r.returncode == 0 and "still fails" in r.stdout,
          r.stdout + r.stderr)
    os.chdir(ROOT)

if failures:
    print(f"\n{len(failures)} check(s) failed", file=sys.stderr)
    sys.exit(1)
print("\nall smoke_check tests passed")
