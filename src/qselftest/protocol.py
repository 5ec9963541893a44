"""Test protocols: the pair test, gate-by-gate schedules, and the full run.

The full run measures the B side once to fix an input frame, runs the
compensated computation on the A side, and in parallel checks every
statistic of the schedule: the initial source test, a per-gate conspiracy
test on the touched wires, and a per-gate tomography test against the
ideal one-sided action. Accept means every estimated statistic sits within
eps of its ideal value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Mapping

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

__all__ = [
    "Experiment",
    "ExperimentSchedule",
    "Records",
    "Verdict",
    "build_schedule",
    "circuit_test",
    "epr_test",
    "evaluate_schedule",
]


@dataclass(frozen=True, eq=False)
class Experiment:
    """One scheduled experiment: a prep prefix shared by a block of settings.

    Its kind and its number of wires fix its settings (see `_settings`).
    The wires are distinct, so no side measures a wire twice.
    """

    kind: str  # "conspiracy" or "tomography"
    j: int  # 0 = initial source test, else 1-based step index
    wires: tuple[int, ...]
    prep: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if self.kind not in ("conspiracy", "tomography"):
            raise ValidationError(f"unknown experiment kind {self.kind!r}")
        wires = tuple(int(w) for w in self.wires)
        if not wires:
            raise ValidationError("an experiment needs one or more wires")
        if len(set(wires)) != len(wires):
            raise ValidationError(f"experiment wires {wires} repeat a wire")
        object.__setattr__(self, "wires", wires)
        object.__setattr__(
            self, "prep", tuple((str(side), str(label)) for side, label in self.prep)
        )

    @property
    def settings(self) -> np.ndarray:
        """One row per setting, as `_settings` gives them: shared and read-only."""
        return _settings(self.kind, len(self.wires))

    @property
    def branches(self) -> list[tuple[tuple[str, int, float], ...]]:
        """Each setting's branches (side, wire, angle), in column order."""
        m = len(TEST_ANGLES)
        table = [(side, w, a) for w in self.wires for side in "AB" for a in TEST_ANGLES]
        s = self.settings
        codes = (s + np.arange(0, m * s.shape[1], m))[s >= 0].reshape(len(s), -1)
        get = table.__getitem__
        return [tuple(map(get, row)) for row in codes.tolist()]


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


@dataclass(frozen=True, eq=False)
class Records:
    """A run's records as columns: one per setting of every experiment, in
    order. n_samples is the count behind each estimate, 0 in exact mode;
    experiment is each record's index into experiments."""

    experiments: tuple[Experiment, ...]
    ideal_p: np.ndarray
    est_p: np.ndarray
    n_samples: int = 0
    experiment: np.ndarray = field(init=False)
    deviation: np.ndarray = field(init=False)

    def __post_init__(self):
        sizes = [len(e.settings) for e in self.experiments]
        for name in ("ideal_p", "est_p"):
            p = np.asarray(getattr(self, name), dtype=np.float64)
            if p.shape != (sum(sizes),):
                raise ValidationError(f"{name} must hold one value per setting")
            # NaN fails both comparisons
            bad = ~((p >= -1e-12) & (p <= 1 + 1e-12))
            if bad.any():
                raise ValidationError(f"{name}={float(p[bad.argmax()])} outside [0, 1]")
            object.__setattr__(self, name, p)
        object.__setattr__(self, "experiment", np.repeat(np.arange(len(sizes)), sizes))
        object.__setattr__(self, "deviation", np.abs(self.est_p - self.ideal_p))

    def __len__(self) -> int:
        return len(self.ideal_p)


@dataclass(frozen=True, eq=False)
class Verdict:
    """Outcome of a test run; accepted iff no record deviates beyond eps.

    failing holds the indices of the records that deviate beyond eps, in
    order. labels name each experiment for display (e.g. "conspiracy@2");
    they are not part of the report.
    """

    accepted: bool
    max_deviation: float
    eps: float
    failing: np.ndarray
    records: Records
    labels: tuple[str, ...]
    computation_outcome_histogram: Mapping[str, float] | None = None
    tv_distance: float | None = None
    y: str | None = None

    def __post_init__(self):
        if self.accepted != bool((self.records.deviation <= self.eps).all()):
            raise ValidationError(
                "verdict inconsistent: accepted flag disagrees with deviations"
            )

    def to_json(self) -> dict:
        """The report's result as plain JSON values: summary_json, then one
        dict per record; a failing record's entry is its records entry."""
        recs = self.records
        n = recs.n_samples
        settings = [
            {
                "prep": exp.prep,
                "measured": [
                    {"side": s, "wire": w, "angle": a, "flip": 0} for s, w, a in b
                ],
            }
            for exp in recs.experiments
            for b in exp.branches
        ]
        columns = (recs.ideal_p.tolist(), recs.est_p.tolist(), recs.deviation.tolist())
        records = [
            {"setting": s, "ideal_p": i, "est_p": e, "n_samples": n, "deviation": d}
            for s, i, e, d in zip(settings, *columns)
        ]
        out = self.summary_json()
        out["failing_records"] = [records[i] for i in self.failing.tolist()]
        out["records"] = records
        return out

    def summary_json(self) -> dict:
        """to_json without its records and failing_records."""
        out = {
            "accepted": self.accepted,
            "max_deviation": self.max_deviation,
            "eps": self.eps,
            "n_records": len(self.records),
        }
        if self.computation_outcome_histogram is not None:
            out["computation_outcome_histogram"] = dict(
                sorted(self.computation_outcome_histogram.items())
            )
            out["tv_distance"] = self.tv_distance
        if self.y is not None:
            out["y"] = self.y
        return out


def _make_verdict(records: Records, eps: float, labels: tuple[str, ...]) -> Verdict:
    dev = records.deviation
    failing = np.flatnonzero(dev > eps)
    maxdev = float(dev.max()) if dev.size else 0.0
    return Verdict(not failing.size, maxdev, eps, failing, records, labels)


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
    exp = Experiment("conspiracy", 0, (wire,), ())
    n = stx.sample_size(eps, gamma, len(exp.settings)) if mode == "sampled" else 0
    probs = _experiment_probabilities(device, device.source, exp)[0]
    ests = stx.estimates(probs.tolist(), n, seed) if n else probs
    pair = np.array([[0.5 * math.cos(a - b) ** 2 for b in TEST_ANGLES]
                     for a in TEST_ANGLES])
    ideal = pair[exp.settings[:, 0], exp.settings[:, 1]]
    return _make_verdict(Records((exp,), ideal, ests, n), eps, ("epr",))


# ---------------------------------------------------------------------------
# Schedule construction

def _compensation_steps(
    circuit: IdealCircuit, x: str, y: str
) -> tuple[CircuitGate, ...]:
    nots = tuple(not_gate(i) for i, (xi, yi) in enumerate(zip(x, y)) if xi != yi)
    return nots + circuit.gates


@functools.lru_cache(maxsize=None)
def _settings(kind: str, k: int) -> np.ndarray:
    """Every setting of a kind of experiment on k wires, built once and
    read-only: one row per setting and two columns per wire, A_w then B_w
    in the order of the wires. An entry is the index in TEST_ANGLES of the
    angle that side measures the wire at, or -1 where the setting leaves the
    wire alone.

    A conspiracy setting measures one wire on both sides: every (A_w, B_w)
    pair of tested angles, A-major, wire by wire. A tomography setting
    measures every wire on both sides at base angles: every product over the
    A sides, then for each, over the B sides; the last wire's angle varies
    fastest.
    """
    if kind == "conspiracy":
        m = len(TEST_ANGLES)
        pairs = np.stack(np.divmod(np.arange(m * m), m), axis=1)
        out = np.full((k * m * m, 2 * k), -1, dtype=np.int8)
        for w in range(k):
            out[w * m * m:(w + 1) * m * m, 2 * w:2 * w + 2] = pairs
    else:
        m = len(BASE_ANGLES)
        digits = np.unravel_index(np.arange(m ** (2 * k)), (m,) * (2 * k))
        columns = [digits[c] for w in range(k) for c in (w, k + w)]
        out = np.stack(columns, axis=1).astype(np.int8)
    out.flags.writeable = False
    return out


def _min_records(circuit: IdealCircuit) -> int:
    """Records in circuit's smallest schedule, the one for y = x: no
    compensating NOT, so the source test and two experiments per gate."""
    return len(_settings("conspiracy", circuit.n)) + sum(
        len(_settings(kind, len(g.wires)))
        for g in circuit.gates
        for kind in ("conspiracy", "tomography")
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
    experiments = [Experiment("conspiracy", 0, tuple(range(n)), ())]
    prep: tuple[tuple[str, str], ...] = ()
    for j, step in enumerate(steps, start=1):
        tomo_prep = prep + (("A", step.label),)
        prep = tomo_prep + (("B", step.label),)
        experiments.append(Experiment("conspiracy", j, step.wires, prep))
        experiments.append(Experiment("tomography", j, step.wires, tomo_prep))
    return ExperimentSchedule(circuit, x, y, steps, tuple(experiments), eps, gamma)


# ---------------------------------------------------------------------------
# Evaluation

@functools.lru_cache(maxsize=None)
def _tomography_order(k: int) -> np.ndarray:
    """Each tomography setting on k wires as an index into the product of
    base angles over (A_w1, B_w1, A_w2, ...), the order its slots take."""
    m = len(BASE_ANGLES)
    index = np.ravel_multi_index(_settings("tomography", k).T, (m,) * (2 * k))
    index.flags.writeable = False
    return index


def _experiment_probabilities(
    device: DeviceModel, states: PhysState | hb.StateBlock, exp: Experiment
) -> np.ndarray:
    """The exact probability of each of exp's settings on each of its
    prepared states, one row per state; a state is the block of its one row.

    A conspiracy experiment's settings are, wire by wire, the product of
    tested angles over (A_w, B_w), already in record order. A tomography
    experiment's are one product of base angles over (A_w1, B_w1, A_w2, ...),
    read into record order by `_tomography_order`. Each product is evaluated
    on every state at once."""
    m = len(states.rows) if isinstance(states, hb.StateBlock) else 1
    if exp.kind == "tomography":
        slots = tuple((side, w, BASE_ANGLES) for w in exp.wires for side in "AB")
        probs = np.reshape(stx.probabilities(device, states, slots), (m, -1))
        return probs[:, _tomography_order(len(exp.wires))]
    pairs = [(("A", w, TEST_ANGLES), ("B", w, TEST_ANGLES)) for w in exp.wires]
    return np.hstack(
        [np.reshape(stx.probabilities(device, states, slots), (m, -1)) for slots in pairs]
    )


def _schedule_probabilities(
    device: DeviceModel, experiments: tuple[Experiment, ...]
) -> np.ndarray:
    """Each record's exact probability on device, in record order.

    An experiment's prep extends the longer of the last two prepared states
    it starts with (or the source), one gate at a time, and only the last
    two states are kept. A schedule's preps form one chain along its steps,
    each step's A gate then its B gate, so each gate of it is applied once.

    Experiments of one shape (kind and wires) differ only in their
    prepared states. So each shape's states wait in a queue, and are
    evaluated together as one block once the next state would take it past
    _BLOCK_AMPS amplitudes; what is left is evaluated at the end. The kernel
    gives each row the bits of its own state alone, so the values are those
    of each experiment taken alone. A state above _REDUCED_AMPS amplitudes
    is read from its reduced states, which a block does not speed up, so it
    is evaluated at once, uncopied.
    """
    kept: list[tuple[tuple, PhysState]] = []
    out: list = [None] * len(experiments)
    queues: dict[tuple, list[tuple[int, PhysState]]] = {}

    def evaluate(queue: list[tuple[int, PhysState]]) -> None:
        index, states = zip(*queue)
        if len(states) == 1:
            block = states[0]
        else:
            block = hb.StateBlock._wrap(states[0].layout, np.stack([st.vec for st in states]))
        probs = _experiment_probabilities(device, block, experiments[index[0]])
        for i, row in zip(index, probs):
            out[i] = row

    for i, exp in enumerate(experiments):
        prep, state = max(
            [((), device.source)] + [k for k in kept if exp.prep[: len(k[0])] == k[0]],
            key=lambda k: len(k[0]),
        )
        for g in range(len(prep), len(exp.prep)):
            state = hb.apply_operator(device.gate_operator(*exp.prep[g]), state)
            kept = kept[-1:] + [(exp.prep[: g + 1], state)]
        total = state.layout.total
        if total > stx._REDUCED_AMPS:
            evaluate([(i, state)])
            continue
        queue = queues.setdefault((exp.kind, exp.wires), [])
        queue.append((i, state))
        if len(queue) == stx._BLOCK_AMPS // total:
            evaluate(queue)
            queue.clear()
    for queue in queues.values():
        if queue:
            evaluate(queue)
    return np.concatenate(out)


def evaluate_schedule(
    device: DeviceModel,
    schedule: ExperimentSchedule,
    mode: str = "exact",
    seed: int = 0,
) -> Verdict:
    """Step 6: estimate every scheduled statistic and compare to its ideal,
    the same setting run on the circuit's honest implementation.

    The device is evaluated first. The honest implementation, shared per
    circuit by `honest_device`, is evaluated only when the device is not
    that very object; if it is, the ideals are its own probabilities.

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
    probs = _schedule_probabilities(device, schedule.experiments)
    if device is reference:
        ideals = probs
    else:
        ideals = _schedule_probabilities(reference, schedule.experiments)
    ests = stx.estimates(probs.tolist(), n_samples, seed) if n_samples else probs
    records = Records(schedule.experiments, ideals, ests, n_samples)
    labels = tuple(f"{exp.kind}@{exp.j}" for exp in schedule.experiments)
    return _make_verdict(records, schedule.eps, labels)


# ---------------------------------------------------------------------------
# Full protocol

def _readout(side: str, bits: str) -> list[tuple[str, int, float]]:
    """Computational-basis branches reading bits off one side, wire by wire."""
    return [(side, w, COMP_ANGLES[int(bit)]) for w, bit in enumerate(bits)]


def _measure_side_distribution(
    device: DeviceModel, state: PhysState, side: str, n: int
) -> dict[str, float]:
    """Each n-bit outcome of reading side's wires in the computational basis;
    wire 0 is the first bit."""
    outcomes = [format(code, f"0{n}b") for code in range(1 << n)]
    slots = [(side, w, COMP_ANGLES) for w in range(n)]
    return dict(zip(outcomes, stx.probabilities(device, state, slots)))


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
    if mode not in ("exact", "sampled"):
        raise ValidationError(f"mode must be exact or sampled, got {mode!r}")
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
    if force_y is not None and (len(force_y) != n or set(force_y) - {"0", "1"}):
        raise ValidationError(f"forced y must be {n} bits, got {force_y!r}")

    # step 2: one B-side reading fixes y
    y_dist = _measure_side_distribution(device, device.source, "B", n)
    if force_y is not None:
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
