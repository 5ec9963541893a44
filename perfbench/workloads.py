"""Seeded inputs, command lists and output checks of the three workloads.

`build(name, seed)` writes the circuit JSON files a workload needs into the
current directory and returns its commands as `qselftest` argv lists, so the
package receives only files and arguments. Commands are given relative file
names, which keeps report bytes independent of where the benchmark runs.

Commands whose outputs cannot be predicted analytically (sampled reports,
extraction and tomography residuals) draw their parameters from finite grids,
and every command any seed can produce has its exit code and report digest or
residuals pinned in `pinned.json`; `pin.py` regenerates that file. A sampled
report must match its pin in every field, and in tv_distance within TV_TOL. Exact ladder
runs are checked analytically instead, so their circuits can be drawn freely.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("small-sampled", "ladder-exact", "certify")

# reserved for gain claims; never used while tuning a change
HELD_OUT_SEED = 9001

THETAS = (0.2, 0.5, 0.9, 1.3)
SAMPLED_PS = (0.005, 0.01, 0.02, 0.05)
CERTIFY_PS = (0.001, 0.01, 0.05, 0.2)
SAMPLE_SEEDS = 16
CHAIN_POOL = 4
CHAIN_WIRES = 3
CHAIN_GATES = 4

HONEST_EXACT_TOL = 1e-9
RESIDUAL_TOL = 1e-9
# hash seeds move tv_distance by ~1e-17; a real change moves it by far more
TV_TOL = 1e-12

_H = {"label": "g1", "wires": [0], "builtin": "H"}
_CNOT = {"label": "g2", "wires": [0, 1], "builtin": "CNOT"}
_X = {"label": "g3", "wires": [1], "builtin": "X"}
FIXED_CIRCUITS = {
    "fig1.json": {"n": 2, "input": "00", "gates": [_H, _CNOT, _X]},
    "bell.json": {"n": 2, "input": "00", "gates": [_H, _CNOT]},
    "h.json": {"n": 1, "input": "0", "gates": [_H]},
}
SAMPLED_CIRCUITS = (("fig1.json", "00"), ("bell.json", "00"), ("h.json", "0"))


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must satisfy.

    expect_exit None means the exit code is pinned; max_deviation, when set,
    bounds the reported max_deviation of an exact circuit-test.
    """

    argv: tuple[str, ...]
    expect_exit: int | None = None
    max_deviation: float | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def chain_circuit(rng: np.random.Generator, n: int, t: int) -> dict:
    """Rotation/CNOT chain: odd steps rotate a random wire, even steps CNOT a pair.

    The input is all zeros. The protocol prepends one NOT per wire where the
    input and the drawn outcome differ, so random inputs would change the
    work of a rung from seed to seed.
    """
    gates = []
    for k in range(t):
        if k % 2 == 0 or n == 1:
            theta = float(rng.uniform(0.0, math.pi))
            c, s = math.cos(theta), math.sin(theta)
            gates.append(
                {"label": f"g{k + 1}", "wires": [int(rng.integers(n))],
                 "matrix": [[c, -s], [s, c]]}
            )
        else:
            a = int(rng.integers(n))
            gates.append(
                {"label": f"g{k + 1}", "wires": [a, (a + 1) % n], "builtin": "CNOT"}
            )
    return {"n": n, "input": "0" * n, "gates": gates}


def _write(name: str, circuit: dict) -> None:
    with open(name, "w", encoding="utf-8") as fh:
        json.dump(circuit, fh)


def write_pool_circuits() -> None:
    """Files every pinned command refers to; the same bytes for every seed."""
    for name, circuit in FIXED_CIRCUITS.items():
        _write(name, circuit)
    for c in range(CHAIN_POOL):
        rng = np.random.default_rng([CHAIN_POOL, c])
        _write(f"chain{c}.json", chain_circuit(rng, CHAIN_WIRES, CHAIN_GATES))


def _rotated(theta: float) -> str:
    return f"builtin:rotated?theta={theta}"


def _depolarized(p: float) -> str:
    return f"builtin:depolarized?p={p}"


# --- small-sampled ---------------------------------------------------------

def _circuit_sampled(device: str, circuit: str, x: str, seed: int) -> Command:
    return Command(("circuit-test", "--device", device, "--circuit", circuit,
                    "--x", x, "--mode", "sampled", "--seed", str(seed)))


def _epr_sampled(device: str, seed: int) -> Command:
    return Command(("epr-test", "--device", device, "--mode", "sampled",
                    "--seed", str(seed)))


def _vandam_sampled(seed: int) -> Command:
    return Command(("circuit-test", "--device", "builtin:vandam", "--circuit",
                    "h.json", "--x", "0", "--mode", "sampled", "--seed",
                    str(seed), "--eps", "0.05"))


def _sampled_devices(rng: np.random.Generator) -> list[str]:
    return [
        "builtin:honest",
        _rotated(THETAS[rng.integers(len(THETAS))]),
        _depolarized(SAMPLED_PS[rng.integers(len(SAMPLED_PS))]),
    ]


# runs per circuit and device in one pass, each with its own sample seed: the
# outcome y a seed draws sets how many steps the compensated circuit has, so
# several seeds per device keep the work of a pass alike across --seed, and
# the median command falls inside the Bell cluster
SAMPLED_REPEATS = 4


def small_sampled(rng: np.random.Generator, tiny: bool) -> list[Command]:
    cmds = []
    for circuit, x in SAMPLED_CIRCUITS:
        repeats = SAMPLED_REPEATS
        if tiny:
            repeats = 0 if circuit == "fig1.json" else 1
        for _ in range(repeats):
            for device in _sampled_devices(rng):
                cmds.append(_circuit_sampled(device, circuit, x,
                                             int(rng.integers(SAMPLE_SEEDS))))
    for device in _sampled_devices(rng):
        cmds.append(_epr_sampled(device, int(rng.integers(SAMPLE_SEEDS))))
    cmds.append(_vandam_sampled(int(rng.integers(SAMPLE_SEEDS))))
    return cmds


def small_sampled_pool() -> list[Command]:
    devices = (["builtin:honest"] + [_rotated(t) for t in THETAS]
               + [_depolarized(p) for p in SAMPLED_PS])
    cmds = []
    for seed in range(SAMPLE_SEEDS):
        for device in devices:
            for circuit, x in SAMPLED_CIRCUITS:
                cmds.append(_circuit_sampled(device, circuit, x, seed))
            cmds.append(_epr_sampled(device, seed))
        cmds.append(_vandam_sampled(seed))
    return cmds


# --- ladder-exact ----------------------------------------------------------

DEPTH_ARM = (4, 8, 16, 32)  # n = 2
WIDTH_ARM = (4, 6, 8)  # t = 4
# (n, t). The depolarized rung costs less than the n=2, t=8 and n=6, t=4
# rungs, so those two stay the middle of the eight commands, with the
# nearest other rungs well apart in cost: cmd_p50_ms, their mean, does not
# jump between rungs from run to run.
DEPOLARIZED_RUNGS = ((3, 4),)
LADDER_PS = (0.005, 0.01, 0.02, 0.05)


def ladder_exact(rng: np.random.Generator, tiny: bool) -> list[Command]:
    rungs = [(2, t) for t in ((2, 4) if tiny else DEPTH_ARM)]
    rungs += [(n, 4) for n in ((3,) if tiny else WIDTH_ARM)]
    cmds = []
    for n, t in rungs:
        circuit = chain_circuit(rng, n, t)
        name = f"ladder_n{n}_t{t}.json"
        _write(name, circuit)
        cmds.append(Command(("circuit-test", "--device", "builtin:honest",
                             "--circuit", name, "--x", circuit["input"]),
                            expect_exit=0, max_deviation=HONEST_EXACT_TOL))
    # a depolarized source moves any probability by at most p, below --eps
    for n, t in ((2, 2),) if tiny else DEPOLARIZED_RUNGS:
        p = LADDER_PS[rng.integers(len(LADDER_PS))]
        circuit = chain_circuit(rng, n, t)
        name = f"ladder_depolarized_n{n}_t{t}.json"
        _write(name, circuit)
        cmds.append(Command(("circuit-test", "--device", _depolarized(p),
                             "--circuit", name, "--x", circuit["input"]),
                            expect_exit=0, max_deviation=p))
    return cmds


# --- certify ---------------------------------------------------------------

def _extract_state(device: str) -> Command:
    return Command(("extract", "--device", device, "--eps", "0.1"))


def _extract_gate(device: str, circuit: str, index: int) -> Command:
    return Command(("extract", "--device", device, "--circuit", circuit,
                    "--gate-index", str(index), "--eps", "1e-6"))


def _tomo(device: str) -> Command:
    return Command(("tomo", "--device", device, "--eps", "1e-6"))


def certify(rng: np.random.Generator, tiny: bool) -> list[Command]:
    def theta() -> str:
        return _rotated(THETAS[rng.integers(len(THETAS))])

    def depolarized(ps: tuple[float, ...] = CERTIFY_PS) -> str:
        return _depolarized(ps[rng.integers(len(ps))])

    cmds = [_extract_state(d) for d in
            ("builtin:honest", "builtin:vandam", theta(), depolarized())]
    fig1_gates = (1, 3) if tiny else (1, 2, 3)
    fig1_devices = ["builtin:honest", theta()]
    if not tiny:
        # extracting fig-1's CNOT from a depolarized device takes about 1.4
        # times as long at p >= 0.05 as below it, a third of a pass; one
        # device from each half keeps the work of a pass alike across seeds
        fig1_devices += [depolarized(CERTIFY_PS[:2]), depolarized(CERTIFY_PS[2:])]
    for device in fig1_devices:
        cmds += [_extract_gate(device, "fig1.json", g) for g in fig1_gates]
    if not tiny:
        cmds += [_extract_state(theta()), _extract_state(depolarized())]
        chain = f"chain{rng.integers(CHAIN_POOL)}.json"
        for device in ("builtin:honest", theta()):
            cmds += [_extract_gate(device, chain, g)
                     for g in range(1, CHAIN_GATES + 1)]
    cmds += [_tomo(theta()), _tomo(depolarized())]
    return cmds


def certify_pool() -> list[Command]:
    rotated = [_rotated(t) for t in THETAS]
    depolarized = [_depolarized(p) for p in CERTIFY_PS]
    cmds = [_extract_state(d)
            for d in ["builtin:honest", "builtin:vandam"] + rotated + depolarized]
    for device in ["builtin:honest"] + rotated + depolarized:
        cmds += [_extract_gate(device, "fig1.json", g) for g in (1, 2, 3)]
    for c in range(CHAIN_POOL):
        for device in ["builtin:honest"] + rotated:
            cmds += [_extract_gate(device, f"chain{c}.json", g)
                     for g in range(1, CHAIN_GATES + 1)]
    cmds += [_tomo(d) for d in rotated + depolarized]
    return cmds


def build(name: str, seed: int, tiny: bool = False) -> list[Command]:
    """Write the workload's inputs into the current directory; return its commands."""
    rng = np.random.default_rng([WORKLOADS.index(name), seed])
    write_pool_circuits()
    if name == "small-sampled":
        return small_sampled(rng, tiny)
    if name == "ladder-exact":
        return ladder_exact(rng, tiny)
    return certify(rng, tiny)


def pool() -> list[Command]:
    """Every command with a pinned outcome that some seed can draw."""
    return small_sampled_pool() + certify_pool()


# --- output checks ---------------------------------------------------------

def residuals(report: dict) -> dict[str, float]:
    """Every residual of an extract or tomo report, flattened by name."""
    result = report["result"]
    if "report" not in result:
        return {"residual": result["residual"]}
    rep = result["report"]
    out = {k: rep[k] for k in ("state_residual", "gate_residual",
                               "factorization_residual") if rep.get(k) is not None}
    for k, v in rep.get("projector_residuals", {}).items():
        out[f"projector_residuals.{k}"] = v
    return out


def split_tv(report: dict) -> tuple[str, float | None]:
    """(sha256 of the report without result.tv_distance, that tv_distance).

    tv_distance is a sum over a set of outcome strings, so its last digits
    follow the interpreter's string hash seed; every other field is
    reproduced exactly. The digest is of canonical JSON, and float repr
    round-trips, so it changes whenever any other value does.
    """
    result = dict(report.get("result", {}))
    tv = result.pop("tv_distance", None)
    rest = json.dumps(dict(report, result=result), sort_keys=True)
    return hashlib.sha256(rest.encode()).hexdigest(), tv


def pin_entry(cmd: Command, rc: int, data: bytes) -> dict:
    """What pinned.json stores for one command run at the pinned commit."""
    entry = {"exit": rc}
    if "sampled" in cmd.argv:
        entry["sha256"] = hashlib.sha256(data).hexdigest()
        entry["content_sha256"], entry["tv_distance"] = split_tv(json.loads(data))
    else:
        entry["residuals"] = residuals(json.loads(data))
    return entry


def byte_identical(cmd: Command, data: bytes | None, pins: dict) -> bool | None:
    """Whether a sampled report has its pinned bytes; None for other commands.

    This is the ROADMAP's byte-identity contract. It is reported beside the
    checks, not as one of them: at the commit that added the benchmark it
    holds only for some string hash seeds (see split_tv).
    """
    pin = pins.get(cmd.key)
    if data is None or pin is None or "sha256" not in pin:
        return None
    return hashlib.sha256(data).hexdigest() == pin["sha256"]


def records_in(cmd: Command, report: dict) -> int:
    """Protocol records a circuit-test or epr-test report holds; 0 otherwise."""
    if cmd.argv[0] not in ("circuit-test", "epr-test"):
        return 0
    return int(report.get("result", {}).get("n_records") or 0)


def check(cmd: Command, rc: int, data: bytes | None, report: dict | None,
          pins: dict) -> str | None:
    """Why the command's output is wrong, or None when it is right.

    data is the --out report as written and report the same, parsed.
    """
    if rc == 2:
        return "exit code 2 (input or configuration error)"
    if data is None:
        return "no --out report written"
    if report is None:
        return "report is not JSON"
    if cmd.expect_exit is not None:
        if rc != cmd.expect_exit:
            return f"exit code {rc}, expected {cmd.expect_exit}"
        if cmd.max_deviation is not None:
            dev = report["result"].get("max_deviation")
            if not (isinstance(dev, (int, float)) and dev <= cmd.max_deviation):
                return f"max_deviation {dev}, bound {cmd.max_deviation}"
        return None
    pin = pins.get(cmd.key)
    if pin is None:
        return "no pinned outcome for this command"
    if rc != pin["exit"]:
        return f"exit code {rc}, pinned {pin['exit']}"
    if "content_sha256" in pin:
        digest, tv = split_tv(report)
        if digest != pin["content_sha256"]:
            return (f"report without tv_distance has sha256 {digest[:12]}, "
                    f"pinned {pin['content_sha256'][:12]}")
        want = pin["tv_distance"]
        if (tv is None) != (want is None) or (
                want is not None and not abs(tv - want) <= TV_TOL):
            return f"tv_distance {tv}, pinned {want}"
        return None
    got = residuals(report)
    if set(got) != set(pin["residuals"]):
        return f"residuals {sorted(got)}, pinned {sorted(pin['residuals'])}"
    for k, want in pin["residuals"].items():
        if not abs(got[k] - want) <= RESIDUAL_TOL:
            return f"{k} {got[k]}, pinned {want}"
    return None
