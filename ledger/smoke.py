#!/usr/bin/env python3
"""Smoke check of one ledger workload (the bench_smoke_* ctest targets).

    python3 ledger/smoke.py path/to/ledger WORKLOAD [--trace]

Runs `ledger --workload=WORKLOAD --smoke` in a temporary directory and
checks that it passes its output checks and reports exactly the metrics
BENCHMARK.json lists, each a finite number. With --trace it checks the
per-layer metrics instead, and that the Chrome trace parses and holds the
bench's spans next to the program's own.
"""
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_SPANS = {
    "bench.scenario.builders",
    "bench.scenario.build",
    "bench.run.untraced",
    "bench.run.traced",
    "bench.replay.checkpoint",
    "bench.replay.mobility",
    "bench.replay.ml",
}


def main():
    ledger, workload = sys.argv[1], sys.argv[2]
    traced = "--trace" in sys.argv[3:]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    expected = {m["name"] for m in contract["per_layer" if traced else "end_to_end"]}

    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "trace.json")
        command = [ledger, f"--workload={workload}", "--smoke", "--seconds=0",
                   f"--scratch={tmp}"]
        if traced:
            command.append(f"--trace={trace}")
        run = subprocess.run(command, cwd=tmp, stdout=subprocess.PIPE,
                             text=True, timeout=110)
        sys.stdout.write(run.stdout)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if run.returncode != 0 or not result["correct"]:
            return fail("the output checks failed")
        if set(result["metrics"]) != expected:
            return fail(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(result['metrics']) ^ expected)}")
        for name, metric in result["metrics"].items():
            if not math.isfinite(metric["value"]):
                return fail(f"{name} is not finite")
        if traced:
            with open(trace) as f:
                events = json.load(f)["traceEvents"]
            names = {e["name"] for e in events if e.get("ph") == "X"}
            if BENCH_SPANS - names:
                return fail(f"bench spans missing: {sorted(BENCH_SPANS - names)}")
            if "sim.run" not in names:
                return fail("the program's own spans are missing")
            print(f"trace ok: {len(events)} events")
    print("smoke ok")
    return 0


def fail(message):
    print(f"smoke FAILED: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
