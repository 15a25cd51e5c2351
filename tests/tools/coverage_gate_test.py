#!/usr/bin/env python3
"""Unit tests for tools/coverage_gate.py, run as the `coverage_gate_test`
ctest target. Exercises the llvm-cov summary parsing, the suffix matching,
the floor gate, the missing-file hard failure, and the --update ratchet —
all without needing clang or llvm-cov locally."""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
TOOL = ROOT / "tools" / "coverage_gate.py"

failures = []


def check(label, condition, detail=""):
    if condition:
        print(f"ok   {label}")
    else:
        failures.append(label)
        print(f"FAIL {label}  {detail}")


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True)


def summary_json(path, files):
    path.write_text(json.dumps({
        "type": "llvm.coverage.json.export",
        "version": "2.0.1",
        "data": [{
            "files": [
                {"filename": name,
                 "summary": {"lines": {"count": 100,
                                       "covered": int(pct),
                                       "percent": pct}}}
                for name, pct in files.items()
            ],
            "totals": {},
        }],
    }))


with tempfile.TemporaryDirectory() as td:
    tmp = Path(td)
    summary = tmp / "coverage.json"
    thresholds = tmp / "thresholds.json"

    summary_json(summary, {
        "/ci/build/../src/util/ini.cpp": 85.0,
        "/ci/build/../src/mobility/trace_file.cpp": 72.5,
    })

    # --- floors met ------------------------------------------------------
    thresholds.write_text(json.dumps(
        {"src/util/ini.cpp": 70.0, "src/mobility/trace_file.cpp": 70.0}))
    r = run("--summary", summary, "--thresholds", thresholds)
    check("floors met exits 0", r.returncode == 0,
          f"rc={r.returncode} out={r.stdout} err={r.stderr}")
    check("suffix matching sees absolute llvm-cov paths",
          "ini.cpp: 85.0%" in r.stdout, r.stdout)

    # --- a file below its floor fails ------------------------------------
    thresholds.write_text(json.dumps(
        {"src/util/ini.cpp": 70.0, "src/mobility/trace_file.cpp": 80.0}))
    r = run("--summary", summary, "--thresholds", thresholds)
    check("file below floor exits 1", r.returncode == 1, f"rc={r.returncode}")
    check("below-floor file is named", "BELOW" in r.stdout and
          "trace_file.cpp" in r.stdout, r.stdout)

    # --- a file missing from the report fails ----------------------------
    thresholds.write_text(json.dumps({"src/dist/protocol.cpp": 50.0}))
    r = run("--summary", summary, "--thresholds", thresholds)
    check("missing file exits 1", r.returncode == 1, f"rc={r.returncode}")
    check("missing file is reported as MISSING", "MISSING" in r.stdout,
          r.stdout)

    # --- malformed inputs are usage errors, not stack traces --------------
    bad = tmp / "bad.json"
    bad.write_text("not json")
    r = run("--summary", bad, "--thresholds", thresholds)
    check("bad summary exits 2", r.returncode == 2, f"rc={r.returncode}")
    check("bad summary emits no traceback", "Traceback" not in r.stderr,
          r.stderr)

    shape = tmp / "shape.json"
    shape.write_text(json.dumps({"unexpected": True}))
    r = run("--summary", shape, "--thresholds", thresholds)
    check("non-export summary exits 2", r.returncode == 2,
          f"rc={r.returncode}")

    # --- --update ratchets floors from the measured values ----------------
    thresholds.write_text(json.dumps(
        {"src/util/ini.cpp": 10.0, "src/dist/protocol.cpp": 50.0}))
    r = run("--summary", summary, "--thresholds", thresholds, "--update")
    check("--update exits 0", r.returncode == 0,
          f"rc={r.returncode} err={r.stderr}")
    updated = json.loads(thresholds.read_text())
    check("--update raises the measured floor (85 - margin)",
          updated["src/util/ini.cpp"] == 82.0, str(updated))
    check("--update keeps floors for files absent from the summary",
          updated["src/dist/protocol.cpp"] == 50.0, str(updated))

    # --- the checked-in thresholds file is well-formed --------------------
    shipped = json.loads((ROOT / "tools" / "coverage_thresholds.json")
                         .read_text())
    check("shipped thresholds cover the four fuzzed parsers",
          {"src/util/ini.cpp", "src/mobility/trace_file.cpp",
           "src/checkpoint/snapshot.cpp",
           "src/dist/protocol.cpp"} <= set(shipped), str(shipped))
    check("shipped floors are sane percentages",
          all(isinstance(v, (int, float)) and 0 < v <= 100
              for v in shipped.values()), str(shipped))

if failures:
    print(f"\n{len(failures)} check(s) failed")
    sys.exit(1)
print("\nall coverage_gate checks passed")
