"""Self-check of the benchmark at tiny size; exits 1 on any problem.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It checks that a tiny run of every workload, untraced and traced, emits
exactly the metrics BENCHMARK.json names with their units, plus fail_share
and cmd_p50_ms everywhere, records_per_s where reports hold records and
cmd_tail_ms where enough commands ran; that the traced counts of one seed repeat exactly in two
processes with different string hash seeds; and that a command given a
deliberately wrong expected exit code drives fail_share above 0. Checks the
program itself fails are printed as notes: they are findings of the
benchmark, not faults of it.

`python3 perfbench/selfcheck.py --counts WORKLOAD` prints the traced counts
of one tiny run as JSON; the self-check runs that in the child processes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import run
import workloads

SECONDS = 3.0
HASH_SEEDS = ("1", "2")


def traced_counts(name: str) -> dict:
    """Every traced metric of a tiny run of seed 1 that is not a time, and the
    digest of the reports it wrote."""
    out = run.run(name, 1, 0.0, True, tiny=True)
    counts = {k: m["value"] for k, m in out["result"]["metrics"].items()
              if not k.endswith("_s")}
    return {"counts": counts, "reports_sha256": out["detail"]["reports_sha256"]}


def counts_in_child(name: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, __file__, "--counts", name], env=env,
                         capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    sys.path.insert(0, str(run.SRC))
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            out = run.run(name, 0, SECONDS, trace, tiny=True)
            label = f"{name} trace={int(trace)}"
            got = {k: m["unit"] for k, m in out["result"]["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{label}: metrics {got} differ from {want[trace]}")
            detail = out["detail"]
            expected = {"fail_share", "cmd_p50_ms"}
            if name != "certify":
                expected.add("records_per_s")
            if name != "ladder-exact" and not trace:
                expected.add("cmd_tail_ms")
            missing = expected - set(detail)
            if missing:
                problems.append(f"{label}: no {sorted(missing)} in the detail")
            for key, error in out["failures"]:
                print(f"note: {label}: the program failed a check: {key}: {error}")
        first, second = (counts_in_child(name, h) for h in HASH_SEEDS)
        differ = sorted(k for k, v in first["counts"].items()
                        if v != second["counts"].get(k))
        if first["reports_sha256"] != second["reports_sha256"]:
            print(f"note: {name}: the program wrote different reports under "
                  f"hash seeds {HASH_SEEDS}")
            if "cli.report_bytes" in differ:
                differ.remove("cli.report_bytes")  # follows the reports
        if differ:
            problems.append(f"{name}: traced counts {differ} differ between "
                            f"hash seeds {HASH_SEEDS}")

    def plant_wrong_exit(cmds):
        return [dataclasses.replace(cmds[0], expect_exit=1)] + cmds[1:]

    out = run.run("ladder-exact", 0, 0.0, False, tiny=True, edit=plant_wrong_exit)
    if not out["detail"]["fail_share"]["value"] > 0:
        problems.append("a wrong expected exit code left fail_share at 0")

    for p in problems:
        print(f"PROBLEM {p}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--counts"]:
        sys.path.insert(0, str(run.SRC))
        print(json.dumps(traced_counts(sys.argv[2])))
        sys.exit(0)
    sys.exit(main())
