"""Regenerate pinned.json from the current sources.

Runs every command that some seed of small-sampled or certify can draw and
records its exit code plus, for sampled commands, its report's sha256, the
sha256 of the report without tv_distance and that tv_distance, or, for
extract and tomo, its residuals. Run it from the root of a checkout, only at
a commit whose outputs are meant to become the reference:

    python3 perfbench/pin.py

It pins under PYTHONHASHSEED=0, so that regenerating at one commit gives the
same file: some sampled reports differ in the last digit of tv_distance from
one hash seed to the next (see workloads.split_tv).
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, str(run.SRC))
    import qselftest.cli as cli

    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pin-", dir=run.WORK)
    home = os.getcwd()
    os.chdir(workdir)
    pins = {}
    try:
        workloads.write_pool_circuits()
        for cmd in workloads.pool():
            _, rc, error = run.run_command(cli, cmd.argv)
            if error is not None or rc == 2 or not os.path.exists(run.REPORT):
                print(f"cannot pin {cmd.key}: exit {rc} {error or ''}",
                      file=sys.stderr)
                return 1
            with open(run.REPORT, "rb") as fh:
                data = fh.read()
            os.remove(run.REPORT)
            pins[cmd.key] = workloads.pin_entry(cmd, rc, data)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"pinned {len(pins)} commands in {run.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
