#!/usr/bin/env python3
"""roadrunner_campaign --dry-run must reject a misspelt sweep axis.

Usage: typoed_axis_check.py <roadrunner_campaign> <campaign.ini>

Copies the campaign INI with one more grid axis, `strategy.round` (a typo
of `strategy.rounds`), and expects exit code 1 with the unknown key named
on stderr. Unchecked, the typo would run as a sweep whose points differ
only by their seeds.
"""
import pathlib
import subprocess
import sys
import tempfile


def main() -> int:
    binary, ini = sys.argv[1], pathlib.Path(sys.argv[2])
    text = ini.read_text()
    if "[sweep]\n" not in text:
        print(f"{ini}: no [sweep] section to add the axis to")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        typo = pathlib.Path(tmp) / "typo.ini"
        typo.write_text(
            text.replace("[sweep]\n", "[sweep]\nstrategy.round = 1, 2\n", 1))
        run = subprocess.run([binary, str(typo), "--dry-run"], cwd=tmp,
                             capture_output=True, text=True, check=False)
    expected = "[strategy]: unknown key 'round'"
    ok = run.returncode == 1 and expected in run.stderr
    print(f"exit {run.returncode}, stderr: {run.stderr.strip()}")
    if not ok:
        print(f"FAIL: want exit 1 and \"{expected}\" on stderr")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
