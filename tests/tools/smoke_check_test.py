#!/usr/bin/env python3
"""Unit tests for tools/smoke_check.py, run as the `smoke_check_test` ctest
target.

Stub executables stand in for run_experiment and roadrunner_campaign: the
experiment stub writes a fixture metrics CSV, the campaign stub writes
aggregates, a trace and a report heading, each with one planted fault per
mode. Every expect-file operator and side form must pass on the fixture
when the fact holds and fail when it does not; a nonzero exit, differing
campaign aggregates, a short trace and a missing heading, or one naming
the wrong [sweep] axes, must each fail.
"""

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
    os.chdir(ROOT)

if failures:
    print(f"\n{len(failures)} check(s) failed", file=sys.stderr)
    sys.exit(1)
print("\nall smoke_check tests passed")
