"""Mutation check: each listed break of the package must fail tier-1.

Every entry is (name, file under src/qselftest, exact old text, new text,
reason). For each entry the script copies the checkout's src/ and tests/
(with perfbench/, README.md and pyproject.toml, which the tests read) into a
temporary directory, replaces the old text with the new one there, and runs
the tier-1 suite on the copy, stopping at its first failure. A mutant that
the suite passes survived, and the script exits 1. The unmutated copy runs
first and must pass, so that a failure reads as the mutant's. An old text
that does not occur exactly once in its file, or a failing unmutated copy,
stops the script with exit 2, so the list cannot go stale quietly. The
checkout itself is never edited.

It is not part of tier-1 (pytest collects only test_*.py); the tier-1 test
`test_mutants.py` checks only that every old text still occurs once. That
test is left out of every run here: in a mutated copy it fails on the
mutant's own old text, which would count any mutant as killed.

    python tests/mutants.py              # every mutant, a few minutes
    python tests/mutants.py 2eps p-not-q # the named ones
    python tests/mutants.py --list
    python tests/mutants.py p-not-q --tests tests/test_reduced.py
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    reason: str


MUTANTS = (
    Mutant(
        "2eps",
        "protocol.py",
        "failing = np.flatnonzero(dev > eps)",
        "failing = np.flatnonzero(dev > 2 * eps)",
        "a verdict that fails only records beyond twice the threshold accepts "
        "devices up to 2 eps away",
    ),
    Mutant(
        "no-last-tomography",
        "protocol.py",
        '        experiments.append(Experiment("tomography", j, step.wires, tomo_prep))',
        "        if j < len(steps):\n"
        '            experiments.append(Experiment("tomography", j, step.wires, tomo_prep))',
        "the last step's gate is never tomographed, so a wrong last gate passes",
    ),
    Mutant(
        "conspiracy-without-b-gate",
        "protocol.py",
        'experiments.append(Experiment("conspiracy", j, step.wires, prep))',
        'experiments.append(Experiment("conspiracy", j, step.wires, tomo_prep))',
        "a step's conspiracy test runs before its B gate, so it checks no pairing",
    ),
    Mutant(
        "no-initial-conspiracy",
        "protocol.py",
        '    experiments = [Experiment("conspiracy", 0, tuple(range(n)), ())]',
        "    experiments = []",
        "the source is never tested, so an unpaired source passes",
    ),
    Mutant(
        "no-union-bound",
        "stats.py",
        "count = math.log(2 * m / gamma) / scale",
        "count = math.log(2 / gamma) / scale",
        "the sample count covers one statistic, not all m at once",
    ),
    Mutant(
        "p-not-q",
        "stats.py",
        "q = p.conj().transpose(0, 2, 1) @ p",
        "q = p",
        "a reduced state contracted with P, not P^dagger P, reads tr(P rho), which "
        "is a probability only for an exact projector",
    ),
    Mutant(
        "reduced-at-every-size",
        "stats.py",
        "_REDUCED_AMPS = 1 << 8\n",
        "_REDUCED_AMPS = 0\n",
        "the reduced path on states of up to 256 amplitudes moves pinned report bits",
    ),
    Mutant(
        "reduced-above-4096",
        "stats.py",
        "_REDUCED_AMPS = 1 << 8\n",
        "_REDUCED_AMPS = 1 << 12\n",
        "states of 257 to 4,096 amplitudes go back to the product tree, whose bits "
        "the n=6 and depolarized n=3 ladder pins no longer hold",
    ),
    Mutant(
        "chunk-drops-a-parent",
        "stats.py",
        "block.rows[i : i + step]",
        "block.rows[i : i + step - 1]",
        "a level split into chunks of parents loses the last parent of each chunk",
    ),
    Mutant(
        "shape-key-ignores-wires",
        "protocol.py",
        "queues.setdefault((exp.kind, exp.wires), [])",
        "queues.setdefault((exp.kind, len(exp.wires)), [])",
        "experiments on other wires share a block, and all are read on the wires "
        "of the first",
    ),
    Mutant(
        "tomography-unordered",
        "protocol.py",
        "return probs[:, _tomography_order(len(exp.wires))]",
        "return probs[:, np.sort(_tomography_order(len(exp.wires)))]",
        "a tomography product on two or more wires is read in slot order (A_w1, "
        "B_w1, A_w2, ...), not record order, so its records get other settings' "
        "values",
    ),
    Mutant(
        "no-clip",
        "stats.py",
        "return np.where(values <= 0.0, 0.0, values).tolist()",
        "return values.tolist()",
        "an impossible outcome rounds to a negative probability",
    ),
    Mutant(
        "no-wire-upper-bound",
        "devices.py",
        "if not 0 <= wire < self.n_wires:",
        "if not 0 <= wire:",
        "a wire past the last names a subsystem of the next side (A wire n is B_0)",
    ),
    Mutant(
        "no-wire-sign-check",
        "devices.py",
        "if not 0 <= wire < self.n_wires:",
        "if not wire < self.n_wires:",
        "a negative wire names a subsystem of the previous side (A wire -1 is the last E)",
    ),
    Mutant(
        "e-reads-b-dims",
        "devices.py",
        '_SIDE_BLOCKS = {"A": 0, "B": 1, "E": 2}',
        '_SIDE_BLOCKS = {"A": 0, "B": 1, "E": 1}',
        "the environment of a wire is mapped to, and sized as, its B subsystem",
    ),
    Mutant(
        "reference-always-skipped",
        "protocol.py",
        "if device is reference:",
        "if True:",
        "every device's own probabilities are taken as the ideals, so every device "
        "passes",
    ),
    Mutant(
        "honest-not-shared",
        "devices.py",
        "@functools.lru_cache(maxsize=1)\ndef honest_device(",
        "def honest_device(",
        "builtin:honest is never the reference, so its reference is evaluated as well",
    ),
    Mutant(
        "reindent-depth",
        "cli.py",
        '"  " * depth) if depth',
        '"  " * (depth + 1)) if depth',
        "a value's text inside a report is indented one level too deep",
    ),
    Mutant(
        "emit-drops-a-part",
        "cli.py",
        'fh.write("".join(parts[i : i + _WRITE_PARTS]))',
        'fh.write("".join(parts[i : i + _WRITE_PARTS - 1]))',
        "the report writer drops the last part of every chunk it writes",
    ),
    Mutant(
        "integer-accepts-bool",
        "devices.py",
        "if not isinstance(value, int) or isinstance(value, bool):",
        "if not isinstance(value, int):",
        "a device or circuit file's true reads as the integer 1",
    ),
    Mutant(
        "cli-imports-extraction-at-start",
        "cli.py",
        "from . import devices as dv\n",
        "from . import devices as dv\nfrom . import extraction as ex\n",
        "every command compiles and runs extraction before it starts",
    ),
    Mutant(
        "uri-float-syntax",
        "devices.py",
        "if not _JSON_NUMBER.fullmatch(v):",
        "if False:",
        "a builtin's parameter takes Python's float syntax, so theta=1_0 runs as "
        "theta = 10",
    ),
)


class StaleMutant(Exception):
    pass


def mutated(text: str, mutant: Mutant) -> str:
    """text with the mutant's old text replaced; StaleMutant unless the old
    text occurs in it exactly once."""
    count = text.count(mutant.old)
    if count != 1:
        raise StaleMutant(
            f"{mutant.name}: old text occurs {count} times in src/qselftest/{mutant.file}, "
            f"not once:\n{mutant.old}"
        )
    return text.replace(mutant.old, mutant.new)


def run(mutant: Mutant | None, tests: list[str]) -> tuple[bool, str, float]:
    """(failed, the first failure or the summary, seconds) of the tests,
    all of tier-1 when empty, on a mutant or on the unmutated copy."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="qselftest-mutant-") as tmp:
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
                shutil.copytree(src, Path(tmp) / name, ignore=skip)
            else:
                shutil.copy2(src, Path(tmp) / name)
        if mutant is not None:
            path = Path(tmp) / "src" / "qselftest" / mutant.file
            path.write_text(mutated(path.read_text(), mutant))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        argv += ["--continue-on-collection-errors", "--ignore", "tests/test_mutants.py", *tests]
        out = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    first = [line for line in lines if line.startswith(("FAILED", "ERROR"))][:1]
    return out.returncode != 0, (first or lines[-1:] or [""])[0], time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    parser.add_argument(
        "--tests", nargs="+", default=[], metavar="PATH",
        help="run only these tests (pytest paths or node ids), not all of tier-1",
    )
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants {unknown}; known: {sorted(by_name)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)
    try:
        for m in chosen:
            mutated((ROOT / "src" / "qselftest" / m.file).read_text(), m)
    except StaleMutant as e:
        print(f"stale: {e}", file=sys.stderr)
        return 2
    if args.list:
        for m in chosen:
            print(f"{m.name:32} {m.file:12} {m.reason}")
        return 0
    failed, line, seconds = run(None, args.tests)
    print(f"{'FAILED' if failed else 'passed':8} {'(unmutated)':32} {seconds:6.1f} s  {line}")
    if failed:
        return 2
    survivors = []
    for m in chosen:
        killed, line, seconds = run(m, args.tests)
        verdict = "killed" if killed else "SURVIVED"
        print(f"{verdict:8} {m.name:32} {seconds:6.1f} s  {line}", flush=True)
        if not killed:
            survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
