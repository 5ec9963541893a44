"""Test protocols: the pair test, gate-by-gate schedules, and the full run.

The full run measures the B side once to fix an input frame, runs the
compensated computation on the A side, and in parallel checks every
statistic of the schedule: the initial source test, a per-gate conspiracy
test on the touched wires, and a per-gate tomography test against the
ideal one-sided action. Accept means every estimated statistic sits within
eps of its ideal value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import hilbert as hb
from . import stats as stx
from .devices import (
    BASE_ANGLES,
    COMP_ANGLES,
    TEST_ANGLES,
    CircuitGate,
    DeviceModel,
    IdealCircuit,
    honest_device,
    not_gate,
)
from .errors import DeviceValidationError, ValidationError
from .hilbert import LocalOperator, PhysState
from .stats import Setting, StatRecord

__all__ = [
    "Experiment",
    "ExperimentSchedule",
    "Verdict",
    "build_schedule",
    "circuit_test",
    "epr_test",
    "evaluate_schedule",
]


@dataclass(frozen=True)
class Experiment:
    """One scheduled experiment: a prep prefix shared by a block of settings."""

    kind: str  # "conspiracy" or "tomography"
    j: int  # 0 = initial source test, else 1-based step index
    wires: tuple[int, ...]
    settings: tuple[Setting, ...]

    def __post_init__(self):
        if self.kind not in ("conspiracy", "tomography"):
            raise ValidationError(f"unknown experiment kind {self.kind!r}")


@dataclass(frozen=True)
class ExperimentSchedule:
    """Everything step 6 needs: the compensated gate list and its experiments.

    steps are the compensating NOTs, then the circuit's gates; each step's
    label names the device gate that runs it."""

    circuit: IdealCircuit
    x: str
    y: str
    steps: tuple[CircuitGate, ...]
    experiments: tuple[Experiment, ...]
    eps: float
    gamma: float

    @property
    def n_records(self) -> int:
        return sum(len(e.settings) for e in self.experiments)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a test run; accepted iff no record deviates beyond eps.

    labels name each record's experiment for display (e.g. "conspiracy@2");
    they are not part of the report.
    """

    accepted: bool
    max_deviation: float
    eps: float
    failing_records: tuple[StatRecord, ...]
    records: tuple[StatRecord, ...]
    computation_outcome_histogram: Mapping[str, float] | None = None
    tv_distance: float | None = None
    y: str | None = None
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        ok = all(r.deviation <= self.eps for r in self.records)
        if self.accepted != ok:
            raise ValidationError(
                "verdict inconsistent: accepted flag disagrees with deviations"
            )

    def to_json(self) -> dict:
        # records that measure alike share one measured tuple, as the
        # settings of an experiment share one prep
        measured: dict = {}
        records = [r.to_json(measured) for r in self.records]
        # a failing record's entry is the very dict of its records entry
        shared = {id(r): js for r, js in zip(self.records, records)}
        out = {
            "accepted": self.accepted,
            "max_deviation": self.max_deviation,
            "eps": self.eps,
            "n_records": len(self.records),
            "failing_records": [shared[id(r)] for r in self.failing_records],
            "records": records,
        }
        if self.computation_outcome_histogram is not None:
            out["computation_outcome_histogram"] = dict(
                sorted(self.computation_outcome_histogram.items())
            )
            out["tv_distance"] = self.tv_distance
        if self.y is not None:
            out["y"] = self.y
        return out


def _make_verdict(records: Sequence[StatRecord], eps: float, **extra) -> Verdict:
    records = tuple(records)
    failing = tuple(r for r in records if r.deviation > eps)
    maxdev = max((r.deviation for r in records), default=0.0)
    return Verdict(not failing, maxdev, eps, failing, records, **extra)


# ---------------------------------------------------------------------------
# Pair test

def epr_test(
    device: DeviceModel,
    wire: int = 0,
    eps: float = 0.1,
    mode: str = "exact",
    gamma: float = 0.05,
    seed: int = 0,
) -> Verdict:
    """All 36 joint angle settings on one wire against (1/2)cos^2(a-b)."""
    if mode not in ("exact", "sampled"):
        raise ValidationError(f"mode must be exact or sampled, got {mode!r}")
    settings = _conspiracy_settings((), (wire,))
    n = stx.sample_size(eps, gamma, len(settings)) if mode == "sampled" else 0
    probs = stx.probabilities(device, device.source, [s.branches for s in settings])
    ests = stx.estimates(probs, n, seed) if n else probs
    records = []
    for s, est in zip(settings, ests):
        a, b = s.measured[0][2], s.measured[1][2]
        ideal = 0.5 * math.cos(a - b) ** 2
        records.append(StatRecord(s, ideal, est, n))
    return _make_verdict(records, eps, labels=("epr",) * len(records))


# ---------------------------------------------------------------------------
# Schedule construction

def _compensation_steps(
    circuit: IdealCircuit, x: str, y: str
) -> tuple[CircuitGate, ...]:
    nots = tuple(not_gate(i) for i, (xi, yi) in enumerate(zip(x, y)) if xi != yi)
    return nots + circuit.gates


def _both_sides(steps: Sequence[CircuitGate], upto: int) -> tuple[tuple[str, str], ...]:
    prep = []
    for s in steps[:upto]:
        prep.append(("A", s.label))
        prep.append(("B", s.label))
    return tuple(prep)


def _conspiracy_settings(
    prep: tuple[tuple[str, str], ...], wires: Iterable[int]
) -> tuple[Setting, ...]:
    out = []
    for w in wires:
        for a in TEST_ANGLES:
            for b in TEST_ANGLES:
                out.append(
                    Setting(prep=prep, measured=(("A", w, a, 0), ("B", w, b, 0)))
                )
    return tuple(out)


def _tomography_settings(
    prep: tuple[tuple[str, str], ...], wires: tuple[int, ...]
) -> tuple[Setting, ...]:
    out = []
    k = len(wires)
    for a_tuple in itertools.product(BASE_ANGLES, repeat=k):
        for b_tuple in itertools.product(BASE_ANGLES, repeat=k):
            meas = []
            for w, a, b in zip(wires, a_tuple, b_tuple):
                meas.append(("A", w, a, 0))
                meas.append(("B", w, b, 0))
            out.append(Setting(prep=prep, measured=tuple(meas)))
    return tuple(out)


def _min_records(circuit: IdealCircuit) -> int:
    """Records in circuit's smallest schedule, the one for y = x: no
    compensating NOT, so the source test and two experiments per gate."""
    pairs = len(TEST_ANGLES) ** 2  # conspiracy settings per wire
    return pairs * circuit.n + sum(
        pairs * len(g.wires) + len(BASE_ANGLES) ** (2 * len(g.wires))
        for g in circuit.gates
    )


def build_schedule(
    circuit: IdealCircuit,
    x: str,
    y: str,
    eps: float = 0.1,
    gamma: float = 0.05,
) -> ExperimentSchedule:
    """Experiments for the compensated circuit: initial source test, then one
    conspiracy and one tomography experiment per step.

    The compensation prepends one NOT per wire where x and y disagree; those
    NOTs are tested like every other step.
    """
    n = circuit.n
    if len(x) != n or len(y) != n:
        raise ValidationError(
            f"input/outcome length mismatch: n={n}, |x|={len(x)}, |y|={len(y)}"
        )
    if set(x) - {"0", "1"} or set(y) - {"0", "1"}:
        raise ValidationError("x and y must be bit strings")
    steps = _compensation_steps(circuit, x, y)
    experiments = [
        Experiment("conspiracy", 0, tuple(range(n)), _conspiracy_settings((), range(n)))
    ]
    for j, step in enumerate(steps, start=1):
        prep_j = _both_sides(steps, j)
        experiments.append(
            Experiment("conspiracy", j, step.wires, _conspiracy_settings(prep_j, step.wires))
        )
        prep_tomo = _both_sides(steps, j - 1) + (("A", step.label),)
        experiments.append(
            Experiment("tomography", j, step.wires, _tomography_settings(prep_tomo, step.wires))
        )
    return ExperimentSchedule(circuit, x, y, steps, tuple(experiments), eps, gamma)


# ---------------------------------------------------------------------------
# Evaluation

def _same_bits(device: DeviceModel, reference: DeviceModel) -> bool:
    """Whether walk sees the same device in both: the same layout, and the
    same bits in the source, in every gate (its wires and matrix) and in
    every frame's base projectors (every frame holds all of BASE_ANGLES).
    Arrays compare by bytes, so a NaN never matches, and by strides, since
    a matmul may read a matrix stored in another order differently."""

    def same(a: np.ndarray, b: np.ndarray) -> bool:
        return a.shape == b.shape and a.strides == b.strides and a.tobytes() == b.tobytes()

    return (
        device.layout == reference.layout
        and same(device.source.vec, reference.source.vec)
        and device.gates.keys() == reference.gates.keys()
        and all(
            g.wires == reference.gates[k].wires
            and same(g.matrix, reference.gates[k].matrix)
            for k, g in device.gates.items()
        )
        and device.frames.keys() == reference.frames.keys()
        and all(
            same(m, reference.frames[k].base[a])
            for k, f in device.frames.items()
            for a, m in f.base.items()
        )
    )


def evaluate_schedule(
    device: DeviceModel,
    schedule: ExperimentSchedule,
    mode: str = "exact",
    seed: int = 0,
) -> Verdict:
    """Step 6: estimate every scheduled statistic and compare to its ideal,
    the same setting run on the circuit's honest implementation.

    The device is walked first. The honest implementation is walked only
    when the device differs from it (see `_same_bits`); a device that is it
    bit for bit has the ideals as its own probabilities, since the walk is
    deterministic and reads nothing else.

    Sampled mode draws sample_size(eps, gamma, total records) outcomes per
    record from a stream keyed by (seed, global record index), so evaluation
    order cannot change the result.
    """
    if mode not in ("exact", "sampled"):
        raise ValidationError(f"mode must be exact or sampled, got {mode!r}")
    if device.n_wires < schedule.circuit.n:
        raise DeviceValidationError(
            f"device has {device.n_wires} wires, circuit needs {schedule.circuit.n}"
        )
    reference = honest_device(schedule.circuit)
    m = schedule.n_records
    n_samples = stx.sample_size(schedule.eps, schedule.gamma, m) if mode == "sampled" else 0
    settings = [s for exp in schedule.experiments for s in exp.settings]
    labels = tuple(
        f"{exp.kind}@{exp.j}" for exp in schedule.experiments for _ in exp.settings
    )
    ops = [s.ops for s in settings]
    probs = stx.probabilities(device, device.source, ops)
    if _same_bits(device, reference):
        ideals = probs
    else:
        ideals = stx.probabilities(reference, reference.source, ops)
    ests = stx.estimates(probs, n_samples, seed) if n_samples else probs
    records = [
        StatRecord(s, ideal, est, n_samples)
        for s, ideal, est in zip(settings, ideals, ests)
    ]
    return _make_verdict(records, schedule.eps, labels=labels)


# ---------------------------------------------------------------------------
# Full protocol

def _readout(side: str, bits: str) -> list[tuple[str, int, float]]:
    """Computational-basis branches reading bits off one side, wire by wire."""
    return [(side, w, COMP_ANGLES[int(bit)]) for w, bit in enumerate(bits)]


def _measure_side_distribution(
    device: DeviceModel, state: PhysState, side: str, n: int
) -> dict[str, float]:
    outcomes = [format(code, f"0{n}b") for code in range(1 << n)]
    readouts = [_readout(side, bits) for bits in outcomes]
    return dict(zip(outcomes, stx.probabilities(device, state, readouts)))


def _ideal_computation_distribution(
    schedule: ExperimentSchedule,
) -> dict[str, float]:
    n = schedule.circuit.n
    st = hb.basis_state(hb.SubsystemDims((2,) * n), int(schedule.y, 2))
    for step in schedule.steps:
        st = hb.apply_operator(LocalOperator.unitary(step.wires, step.matrix), st)
    probs = np.abs(st.vec) ** 2
    return {format(i, f"0{n}b"): float(p) for i, p in enumerate(probs)}


def _tv_distance(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    # fsum is exactly rounded, so the result cannot depend on key order
    keys = p.keys() | q.keys()
    return 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def circuit_test(
    device: DeviceModel,
    circuit: IdealCircuit,
    x: str,
    eps: float = 0.1,
    gamma: float = 0.05,
    seed: int = 0,
    mode: str = "exact",
    force_y: str | None = None,
) -> Verdict:
    """The full protocol: draw y from a B-side reading, compensate, compute,
    and evaluate the whole schedule; accept iff every statistic is within eps.

    The computation histogram rides along as the run's output together with
    its total-variation distance from the ideal distribution; it does not
    enter the verdict.
    """
    n = circuit.n
    if device.n_wires < n:
        raise DeviceValidationError(
            f"device has {device.n_wires} wires, circuit needs {n}"
        )
    if len(x) != n or set(x) - {"0", "1"}:
        raise ValidationError(f"x must be {n} bits of 0/1, got {x!r}")
    if mode == "sampled":
        # refuse an eps or gamma too small to sample before any walk: the
        # count grows with the records, and no y gives fewer than y = x
        stx.sample_size(eps, gamma, max(_min_records(circuit), 1))

    # step 2: one B-side reading fixes y
    y_dist = _measure_side_distribution(device, device.source, "B", n)
    if force_y is not None:
        if len(force_y) != n or set(force_y) - {"0", "1"}:
            raise ValidationError(f"forced y must be {n} bits, got {force_y!r}")
        y = force_y
        if y_dist[y] <= 0.0:
            raise ValidationError(f"forced outcome {y!r} has zero probability")
    else:
        rng_y = stx.record_rng(seed, 0)
        keys = sorted(y_dist)
        weights = np.array([y_dist[k] for k in keys])
        weights = weights / weights.sum()
        y = keys[rng_y.choice(len(keys), p=weights)]

    schedule = build_schedule(circuit, x, y, eps, gamma)

    # steps 3-5: collapse on y, run the compensated gates on side A, read out
    st = hb.normalized(stx.collapse(device, device.source, _readout("B", y)))
    for step in schedule.steps:
        st = hb.apply_operator(device.gate_operator("A", step.label), st)
    hist = _measure_side_distribution(device, st, "A", n)
    if mode == "sampled":
        n_comp = stx.sample_size(eps, gamma, max(schedule.n_records, 1))
        keys = sorted(hist)
        weights = np.array([hist[k] for k in keys])
        weights = np.clip(weights, 0.0, None)
        weights = weights / weights.sum()
        counts = stx.record_rng(seed, 1).multinomial(n_comp, weights)
        # int(c): NumPy counts would make NumPy floats, whose repr shows
        # in the printed histogram; the quotient is the same float
        hist = {k: int(c) / n_comp for k, c in zip(keys, counts) if c}
    else:
        hist = {k: v for k, v in hist.items() if v > 1e-12}
    tv = _tv_distance(hist, _ideal_computation_distribution(schedule))

    # steps 6-7
    verdict = evaluate_schedule(device, schedule, mode, seed)
    return replace(verdict, computation_outcome_histogram=hist, tv_distance=tv, y=y)
