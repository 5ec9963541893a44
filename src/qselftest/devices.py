"""Device models: untrusted bipartite hardware and ideal reference circuits.

A device owns a source state shared across wire pairs, one-sided gates keyed
by label, and per-wire measurement frames indexed by angle. Builtins cover
the honest implementation, a hidden-dimension cheat that passes the legacy
single-system check, wire-wise rotated clones, and depolarized sources.
All statistics consumed elsewhere flow through these objects.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import hilbert as hb
from .errors import CircuitValidationError, ConfigError, DeviceValidationError
from .hilbert import LocalOperator, PhysState, SubsystemDims

BASE_ANGLES = (0.0, math.pi / 8, math.pi / 4)
TEST_ANGLES = BASE_ANGLES + tuple(a + math.pi / 2 for a in BASE_ANGLES)
COMP_ANGLES = (0.0, math.pi / 2)

# display name of every tested angle; device files key frames by the base names
ANGLE_NAMES = dict(zip(TEST_ANGLES, ("0", "pi/8", "pi/4", "pi/2", "5pi/8", "3pi/4")))
ANGLE_KEYS = {name: a for a, name in ANGLE_NAMES.items() if a in BASE_ANGLES}

SEPARABILITY_TOL = 1e-8
GATE_TOL = 1e-10
CIRCUIT_TOL = 1e-12

_ANGLE_MATCH_TOL = 1e-9

__all__ = [
    "ANGLE_KEYS",
    "ANGLE_NAMES",
    "BASE_ANGLES",
    "COMP_ANGLES",
    "TEST_ANGLES",
    "CircuitGate",
    "DeviceGate",
    "DeviceModel",
    "IdealCircuit",
    "MeasurementFrame",
    "RegisterLayout",
    "angle_index",
    "angle_name",
    "builtin_gallery",
    "builtin_gate",
    "honest_device",
    "load_circuit",
    "load_device",
    "noisy_source_device",
    "not_gate",
    "resolve_device",
    "rotated_device",
    "rotation",
    "van_dam_device",
]


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
)


def builtin_gate(name: str) -> np.ndarray:
    """Named ideal gate matrix: H, X, CNOT, SWAP, or ROT(theta)."""
    plain = {"H": _H, "X": _X, "CNOT": _CNOT, "SWAP": _SWAP}
    if name in plain:
        return plain[name].copy()
    if name.startswith("ROT(") and name.endswith(")"):
        try:
            return rotation(float(name[4:-1]))
        except ValueError:
            pass
    raise CircuitValidationError(f"unknown builtin gate {name!r}")


def angle_index(a: float) -> int | None:
    """Position in TEST_ANGLES of the tested angle equal to a modulo pi, or None.

    This is the one place an angle is matched to the tested set, within
    1e-9; an angle just below a multiple of pi wraps around to 0.
    """
    if not math.isfinite(a):
        return None
    r = hb.reduce_angle(a)
    if math.pi - r < _ANGLE_MATCH_TOL:
        return 0
    for i, x in enumerate(TEST_ANGLES):
        if abs(r - x) < _ANGLE_MATCH_TOL:
            return i
    return None


def angle_name(a: float) -> str:
    """Display name of a tested angle; any other angle prints as a decimal."""
    i = angle_index(a)
    return f"{a:.6f}" if i is None else ANGLE_NAMES[TEST_ANGLES[i]]


# each side's block of subsystems in RegisterLayout.full
_SIDE_BLOCKS = {"A": 0, "B": 1, "E": 2}


@dataclass(frozen=True)
class RegisterLayout:
    """Wire-pair register shape: per-wire A/B dims plus per-wire environments.

    The full layout orders subsystems [A_1..A_n, B_1..B_n, E_1..E_n]; a
    device file's single c_dim is the product of the per-wire e_dims.
    side_index is the one map from a (side, wire) to a subsystem of full.
    """

    n_wires: int
    a_dims: tuple[int, ...]
    b_dims: tuple[int, ...]
    e_dims: tuple[int, ...] = ()
    full: SubsystemDims = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = int(self.n_wires)
        if n < 1:
            raise DeviceValidationError("layout: n_wires must be >= 1")
        a = tuple(int(d) for d in self.a_dims)
        b = tuple(int(d) for d in self.b_dims)
        e = tuple(int(d) for d in self.e_dims) if self.e_dims else (1,) * len(a)
        if len(a) != n or len(b) != n or len(e) != n:
            raise DeviceValidationError(
                f"layout: dim lists must have length n_wires={n}, "
                f"got a={len(a)} b={len(b)} e={len(e)}"
            )
        object.__setattr__(self, "n_wires", n)
        object.__setattr__(self, "a_dims", a)
        object.__setattr__(self, "b_dims", b)
        object.__setattr__(self, "e_dims", e)
        object.__setattr__(self, "full", SubsystemDims(a + b + e))  # checks the cap

    def side_index(self, side: str, wire: int) -> int:
        """The subsystem of full that side ("A", "B" or "E") holds on wire."""
        block = _SIDE_BLOCKS.get(side)
        if block is None:
            raise DeviceValidationError(f"unknown side {side!r}")
        if not 0 <= wire < self.n_wires:
            raise DeviceValidationError(
                f"side {side} has no wire {wire}: the layout has wires 0..{self.n_wires - 1}"
            )
        return block * self.n_wires + wire

    def side_dim(self, side: str, wire: int) -> int:
        return self.full.dims[self.side_index(side, wire)]


@dataclass(frozen=True)
class MeasurementFrame:
    """Projector family for one (side, wire): base angles 0, pi/8, pi/4.

    Complements are derived as Id - P(base), so each angle's two branches sum
    to the identity exactly. Base keys are stored as the BASE_ANGLES they
    name; every projector is checked here, once.
    """

    side: str
    wire: int
    base: Mapping[float, np.ndarray]

    def __post_init__(self):
        if self.side not in ("A", "B"):
            raise DeviceValidationError(f"frame: unknown side {self.side!r}")
        where = f"frame ({self.side}, wire {self.wire})"
        fixed = {}
        dim = None
        for a, m in self.base.items():
            i = angle_index(a)
            if i is None or i >= len(BASE_ANGLES) or BASE_ANGLES[i] in fixed:
                raise DeviceValidationError(
                    f"{where}: base angle {a} is not one of {BASE_ANGLES}, or repeats one"
                )
            m = np.array(m, dtype=np.complex128)
            if dim is None:
                dim = m.shape[0]
            if m.shape != (dim, dim):
                raise DeviceValidationError(f"{where}: inconsistent dims")
            d = hb.max_diff(m, m.conj().T)
            if d > GATE_TOL:
                raise DeviceValidationError(
                    f"{where}: angle {a} projector is not Hermitian ({hb.diff_text(d)})"
                )
            with np.errstate(invalid="ignore", over="ignore"):  # max_diff flags non-finite
                d = hb.max_diff(m @ m, m)
            if d > GATE_TOL:
                raise DeviceValidationError(
                    f"{where}: angle {a} projector is not idempotent ({hb.diff_text(d)})"
                )
            m.setflags(write=False)
            fixed[BASE_ANGLES[i]] = m
        for want in BASE_ANGLES:
            if want not in fixed:
                raise DeviceValidationError(f"{where}: missing base angle {want}")
        object.__setattr__(self, "base", MappingProxyType(fixed))

    @property
    def dim(self) -> int:
        return next(iter(self.base.values())).shape[0]

    def projector(self, angle: float) -> np.ndarray:
        """Projector matrix for any angle in the base set or its complements."""
        i = angle_index(angle)
        if i is None:
            raise DeviceValidationError(
                f"frame ({self.side}, wire {self.wire}): angle {angle} is not in the "
                "tested set"
            )
        complement, k = divmod(i, len(BASE_ANGLES))
        m = self.base[BASE_ANGLES[k]]
        return np.eye(self.dim) - m if complement else m


@dataclass(frozen=True)
class DeviceGate:
    """One-sided gate: a unitary on the listed wires of a single side."""

    side: str
    wires: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        if self.side not in ("A", "B"):
            raise DeviceValidationError(f"gate: unknown side {self.side!r}")
        wires = tuple(int(w) for w in self.wires)
        if not wires or len(set(wires)) != len(wires):
            raise DeviceValidationError(f"gate wires must be distinct, got {wires}")
        object.__setattr__(self, "wires", wires)
        m = np.array(self.matrix, dtype=np.complex128)
        with np.errstate(invalid="ignore", over="ignore"):  # max_diff flags non-finite
            d = hb.max_diff(m @ m.conj().T, np.eye(m.shape[0]))
        if d > GATE_TOL:
            raise DeviceValidationError(
                f"gate on side {self.side} wires {wires}: matrix is not unitary "
                f"({hb.diff_text(d)})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class CircuitGate:
    """Ideal circuit step: a real orthogonal matrix on up to three wires."""

    label: str
    wires: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        wires = tuple(int(w) for w in self.wires)
        if not 1 <= len(wires) <= 3 or len(set(wires)) != len(wires):
            raise CircuitValidationError(
                f"gate {self.label}: needs 1..3 distinct wires, got {wires}"
            )
        object.__setattr__(self, "wires", wires)
        m = np.array(self.matrix, dtype=np.complex128)
        d = 1 << len(wires)
        if m.shape != (d, d):
            raise CircuitValidationError(
                f"gate {self.label}: matrix shape {m.shape} does not match "
                f"{len(wires)} wires"
            )
        dev = hb.max_diff(m.imag, 0.0)
        if dev > CIRCUIT_TOL:
            raise CircuitValidationError(
                f"gate {self.label}: ideal matrix must be real ({hb.diff_text(dev)})"
            )
        m = np.array(m.real, dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):  # max_diff flags non-finite
            dev = hb.max_diff(m.T @ m, np.eye(d))
        if dev > CIRCUIT_TOL:
            raise CircuitValidationError(
                f"gate {self.label}: ideal matrix must be orthogonal ({hb.diff_text(dev)})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


# the ideal output distribution of n wires has 2^n entries, within DIM_CAP
_MAX_WIRES = hb.DIM_CAP.bit_length() - 1


def _wire_count(n) -> int:
    n = int(n)
    if not 1 <= n <= _MAX_WIRES:
        raise CircuitValidationError(f"circuit: n must be in 1..{_MAX_WIRES}, got {n}")
    return n


@dataclass(frozen=True, eq=False)
class IdealCircuit:
    """Reference computation: n wires, ordered real orthogonal gates, input bits.

    Instances compare by identity: the gates hold arrays, which a field-wise
    == cannot compare.
    """

    n: int
    gates: tuple[CircuitGate, ...]
    input: str

    def __post_init__(self):
        n = _wire_count(self.n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gates", tuple(self.gates))
        labels = [g.label for g in self.gates]
        if len(set(labels)) != len(labels):
            raise CircuitValidationError(f"circuit: duplicate gate labels in {labels}")
        # the honest gate table holds a compensating NOT under each of these
        for w in range(n):
            if _not_label(w) in labels:
                raise CircuitValidationError(
                    f"gate {_not_label(w)}: label is reserved for the compensating "
                    f"NOT on wire {w}"
                )
        for g in self.gates:
            if min(g.wires) < 0 or max(g.wires) >= n:
                raise CircuitValidationError(
                    f"gate {g.label}: wires {g.wires} out of range for n={n}"
                )
        if (
            not isinstance(self.input, str)
            or len(self.input) != n
            or set(self.input) - {"0", "1"}
        ):
            raise CircuitValidationError(
                f"circuit: input must be {n} bits of 0/1, got {self.input!r}"
            )

    @property
    def t(self) -> int:
        return len(self.gates)


def _check_source(layout: RegisterLayout, source: PhysState) -> None:
    if source.layout != layout.full:
        raise DeviceValidationError(
            f"source: layout {source.layout.dims} does not match device "
            f"{layout.full.dims}"
        )
    with np.errstate(invalid="ignore", over="ignore"):  # max_diff flags non-finite
        d = hb.max_diff(hb.norm(source), 1.0)
    if d > 1e-12:
        raise DeviceValidationError(
            f"source: norm is not 1 within 1e-12 ({hb.diff_text(d)})"
        )
    # per-wire independence: each (A_i, B_i, E_i) cut must have Schmidt rank 1
    if layout.n_wires > 1:
        dims = layout.full.dims
        for i in range(layout.n_wires):
            keep = tuple(layout.side_index(side, i) for side in "ABE")
            t = np.moveaxis(source.vec.reshape(dims), keep, (0, 1, 2))
            kdim = dims[keep[0]] * dims[keep[1]] * dims[keep[2]]
            # the tall transpose has the same singular values, sooner
            sv = np.linalg.svd(t.reshape(kdim, -1).T, compute_uv=False)
            rank = int(np.sum(sv > SEPARABILITY_TOL))
            if rank != 1:
                raise DeviceValidationError(
                    f"source: wire {i} cut has Schmidt rank {rank}, expected 1 "
                    f"(tolerance {SEPARABILITY_TOL})"
                )


@dataclass(frozen=True)
class DeviceModel:
    """Untrusted hardware: source, one-sided labeled gates, per-wire frames.

    Gates are fixed matrices per (side, label) and act on one side only;
    invocation count cannot matter because application is pure.
    """

    layout: RegisterLayout
    source: PhysState
    gates: Mapping[tuple[str, str], DeviceGate]
    frames: Mapping[tuple[str, int], MeasurementFrame]

    def __post_init__(self):
        object.__setattr__(self, "gates", MappingProxyType(dict(self.gates)))
        object.__setattr__(self, "frames", MappingProxyType(dict(self.frames)))
        self.validate()
        # branch projectors by (side, wire, angle), each built on first use:
        # the frames are fixed, so one operator serves every later call
        object.__setattr__(self, "_branch_ops", {})

    def validate(self) -> None:
        lay = self.layout
        _check_source(lay, self.source)
        for (side, label), g in self.gates.items():
            if g.side != side:
                raise DeviceValidationError(
                    f"gate ({side}, {label}): stored side {g.side} disagrees with key"
                )
            try:
                want = math.prod(lay.side_dim(side, w) for w in g.wires)
            except DeviceValidationError as e:
                raise DeviceValidationError(f"gate ({side}, {label}): {e}") from None
            if g.matrix.shape[0] != want:
                raise DeviceValidationError(
                    f"gate ({side}, {label}): matrix dim {g.matrix.shape[0]} does "
                    f"not match wires {g.wires} on side {side}"
                )
        for (side, wire), f in self.frames.items():
            if f.side != side or f.wire != wire:
                raise DeviceValidationError(
                    f"frame ({side}, {wire}): stored key disagrees"
                )
            if f.dim != lay.side_dim(side, wire):
                raise DeviceValidationError(
                    f"frame ({side}, {wire}): dim {f.dim} does not match layout "
                    f"{lay.side_dim(side, wire)}"
                )
        for side in ("A", "B"):
            for w in range(lay.n_wires):
                if (side, w) not in self.frames:
                    raise DeviceValidationError(f"frame ({side}, {w}): missing")

    @property
    def n_wires(self) -> int:
        return self.layout.n_wires

    def gate_operator(self, side: str, label: str) -> LocalOperator:
        """Full-layout unitary for a labeled gate."""
        try:
            g = self.gates[(side, label)]
        except KeyError:
            raise DeviceValidationError(
                f"device has no gate {label!r} on side {side}"
            ) from None
        targets = tuple(self.layout.side_index(side, w) for w in g.wires)
        return LocalOperator.unitary(targets, g.matrix)

    def frame_operator(self, side: str, wire: int, angle: float) -> LocalOperator:
        """Full-layout branch projector for a measurement angle."""
        op = self._branch_ops.get((side, wire, angle))
        if op is None:
            try:
                f = self.frames[(side, wire)]
            except KeyError:
                raise DeviceValidationError(
                    f"device has no frame on side {side} wire {wire}"
                ) from None
            op = LocalOperator.projector(
                (self.layout.side_index(side, wire),), f.projector(angle)
            )
            self._branch_ops[(side, wire, angle)] = op
        return op


def _assemble_source(layout: RegisterLayout, per_wire: Sequence[np.ndarray]) -> PhysState:
    """Tensor per-wire (A_i, B_i, E_i) states and reorder to the full layout."""
    n = layout.n_wires
    parts = []
    for i, v in enumerate(per_wire):
        dims = SubsystemDims(
            (layout.a_dims[i], layout.b_dims[i], layout.e_dims[i])
        )
        parts.append(PhysState(dims, v))
    with np.errstate(invalid="ignore", over="ignore"):  # _check_source flags these
        inter = hb.tensor(*parts) if len(parts) > 1 else parts[0]
    # interleaved order [A1 B1 E1 A2 B2 E2 ...] -> [A.. B.. E..]
    perm = (
        tuple(3 * i for i in range(n))
        + tuple(3 * i + 1 for i in range(n))
        + tuple(3 * i + 2 for i in range(n))
    )
    return hb.permute_subsystems(inter, perm)


@functools.cache
def _qubit_frame(side: str, wire: int) -> MeasurementFrame:
    """The ideal qubit frame: the angle projectors themselves. Built and
    checked once per (side, wire), then shared: a frame is read-only."""
    return MeasurementFrame(
        side, wire, {a: hb.projector_angle(a).matrix for a in BASE_ANGLES}
    )


def _epr_wire(a_dim: int, b_dim: int, e_dim: int) -> np.ndarray:
    if a_dim != 2 or b_dim != 2:
        raise DeviceValidationError("epr source needs 2x2 wires")
    v = np.zeros(4 * e_dim, dtype=np.complex128)
    v[0] = v[3 * e_dim] = 1 / math.sqrt(2)  # |00>+|11> with environment in |0>
    return v


def _not_label(wire: int) -> str:
    return f"not{wire}"


def not_gate(wire: int) -> CircuitGate:
    """The NOT on one wire, labelled not{wire}: honest gate tables hold it
    on both sides, and circuit_test prepends it where x and y differ. A
    circuit may not use that label for a gate of its own."""
    return CircuitGate(_not_label(wire), (wire,), _X)


def _honest_gates(g: CircuitGate) -> tuple[DeviceGate, DeviceGate]:
    """The honest A and B gates for g. The B-side partner is the complex
    conjugate (equal to the matrix itself for real gates); that is the
    unique choice restoring the shared pairs after both sides step."""
    return DeviceGate("A", g.wires, g.matrix), DeviceGate("B", g.wires, np.conj(g.matrix))


@functools.cache
def _honest_not(wire: int) -> tuple[str, tuple[DeviceGate, DeviceGate]]:
    """The label and honest gates of the NOT on wire: built and checked
    once, then shared, since a gate is read-only."""
    g = not_gate(wire)
    return g.label, _honest_gates(g)


def _circuit_gates(
    circuit: IdealCircuit | None, n: int
) -> dict[tuple[str, str], DeviceGate]:
    """Honest gate table: circuit gates plus per-wire NOTs, both sides."""
    gates = circuit.gates if circuit is not None else ()
    pairs = [(g.label, _honest_gates(g)) for g in gates]
    table: dict[tuple[str, str], DeviceGate] = {}
    for label, (a, b) in pairs + [_honest_not(w) for w in range(n)]:
        table["A", label] = a
        table["B", label] = b
    return table


def _honest_parts(circuit: IdealCircuit | None) -> tuple[RegisterLayout, dict, dict]:
    """The layout, gate table and frames of honest_device(circuit), one wire
    without a circuit, without building or checking its source."""
    n = 1 if circuit is None else circuit.n
    layout = RegisterLayout(n, (2,) * n, (2,) * n)
    frames = {(side, w): _qubit_frame(side, w) for side in ("A", "B") for w in range(n)}
    return layout, _circuit_gates(circuit, n), frames


@functools.lru_cache(maxsize=1)
def honest_device(circuit: IdealCircuit | None = None) -> DeviceModel:
    """Ideal implementation: fresh EPR pairs, the circuit's own gates, ideal frames.

    Read-only, so shared: a call with the same circuit object as the last
    call returns the same device, which is how evaluate_schedule knows it.
    """
    layout, gates, frames = _honest_parts(circuit)
    source = _assemble_source(
        layout, [_epr_wire(2, 2, 1) for _ in range(layout.n_wires)]
    )
    return DeviceModel(layout, source, gates, frames)


def van_dam_device() -> DeviceModel:
    """Hidden-dimension cheat: two qubits per register, encoded 0/1 as 00/11.

    The computational measurement mixes the disagreeing basis states, so the
    legacy prepare-Hadamard-measure check passes exactly; the intermediate
    angles (ideal projectors on the first hidden qubit) do not survive the
    pair tests.
    """
    layout = RegisterLayout(1, (4,), (4,))
    v = np.zeros(16, dtype=np.complex128)
    v[0] = v[15] = 1 / math.sqrt(2)  # |00,00> + |11,11>
    source = PhysState(layout.full, v)

    mix = np.zeros((4, 4), dtype=float)
    mix[0, 0] = 1.0
    s = np.zeros(4)
    s[1] = s[2] = 1 / math.sqrt(2)
    comp = mix + np.outer(s, s)
    eye2 = np.eye(2)
    base = {
        0.0: comp,
        math.pi / 8: np.kron(hb.projector_angle(math.pi / 8).matrix, eye2),
        math.pi / 4: np.kron(hb.projector_angle(math.pi / 4).matrix, eye2),
    }
    frames = {
        (side, 0): MeasurementFrame(side, 0, dict(base)) for side in ("A", "B")
    }
    had = np.kron(eye2, _X)  # alleged Hadamard: swaps 00<->01 and 10<->11
    notg = np.kron(_X, _X)  # alleged NOT: swaps encoded 0 and 1
    gates = {
        ("A", "g1"): DeviceGate("A", (0,), had),
        ("B", "g1"): DeviceGate("B", (0,), had),
        ("A", "not0"): DeviceGate("A", (0,), notg),
        ("B", "not0"): DeviceGate("B", (0,), notg),
    }
    return DeviceModel(layout, source, gates, frames)


def rotated_device(
    circuit: IdealCircuit | None = None,
    v_a: Sequence[np.ndarray] | None = None,
    v_b: Sequence[np.ndarray] | None = None,
    theta: float | None = None,
) -> DeviceModel:
    """Honest device conjugated wire-wise by local unitaries (default: rotation(theta)).

    Every statistic matches the honest device exactly; only the frame of
    reference differs.
    """
    layout, honest_gates, honest_frames = _honest_parts(circuit)
    nw = layout.n_wires
    if theta is None and v_a is None:
        theta = 0.0
    if v_a is None:
        v_a = [rotation(theta) for _ in range(nw)]
    if v_b is None:
        v_b = [m.copy() for m in v_a]
    v_a = [np.asarray(m, dtype=np.complex128) for m in v_a]
    v_b = [np.asarray(m, dtype=np.complex128) for m in v_b]

    per_wire = []
    for i in range(nw):
        w = np.kron(np.kron(v_a[i], v_b[i]), np.eye(1))
        per_wire.append(w @ _epr_wire(2, 2, 1))
    source = _assemble_source(layout, per_wire)

    conj = {}  # (side, wires) -> the conjugation w and w^dagger, built once

    def conj_gate(g: DeviceGate) -> DeviceGate:
        if (g.side, g.wires) not in conj:
            vs = v_a if g.side == "A" else v_b
            w = np.array([[1.0 + 0j]])
            for wi in g.wires:
                w = np.kron(w, vs[wi])
            conj[g.side, g.wires] = (w, w.conj().T)
        w, wh = conj[g.side, g.wires]
        return DeviceGate(g.side, g.wires, w @ g.matrix @ wh)

    gates = {k: conj_gate(g) for k, g in honest_gates.items()}
    frames = {}
    for (side, wire), f in honest_frames.items():
        v = v_a[wire] if side == "A" else v_b[wire]
        newbase = {a: v @ m @ v.conj().T for a, m in f.base.items()}
        frames[(side, wire)] = MeasurementFrame(side, wire, newbase)
    return DeviceModel(layout, source, gates, frames)


_BELL_BASIS = (
    np.array([1, 0, 0, 1]) / math.sqrt(2),
    np.array([1, 0, 0, -1]) / math.sqrt(2),
    np.array([0, 1, 1, 0]) / math.sqrt(2),
    np.array([0, 1, -1, 0]) / math.sqrt(2),
)


def _depolarized_wire(p: float) -> np.ndarray:
    """Purification of (1-p)|pair><pair| + p Id/4 on (A, B, E) with E of dim 4."""
    if not 0.0 <= p <= 1.0:
        raise DeviceValidationError(f"depolarized source: p={p} outside [0, 1]")
    weights = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
    wire = np.zeros(16, dtype=np.complex128)
    for k, (lam, bell) in enumerate(zip(weights, _BELL_BASIS)):
        # (A,B,E) with E innermost: amp[(ab)*4 + k]
        wire[4 * np.arange(4) + k] += math.sqrt(lam) * bell
    return wire


def _depolarized(n: int, p: float) -> tuple[RegisterLayout, PhysState]:
    """The layout and source of n qubit wires that each share (1-p)|pair><pair|
    + p Id/4, purified against a 4-level environment on that wire."""
    layout = RegisterLayout(n, (2,) * n, (2,) * n, (4,) * n)
    wire = _depolarized_wire(p)
    return layout, _assemble_source(layout, [wire.copy() for _ in range(n)])


def noisy_source_device(circuit: IdealCircuit | None = None, p: float = 0.0) -> DeviceModel:
    """Honest gates and frames over a purified depolarized pair source."""
    honest_layout, gates, frames = _honest_parts(circuit)
    layout, source = _depolarized(honest_layout.n_wires, p)
    return DeviceModel(layout, source, gates, frames)


# ---------------------------------------------------------------------------
# JSON loading

def _matrix_from_json(rows, what: str) -> np.ndarray:
    try:
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError):
        raise DeviceValidationError(f"{what}: matrix entries must be [re, im] pairs") from None
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise DeviceValidationError(
            f"{what}: matrix must be square rows of [re, im] pairs, got shape {arr.shape}"
        )
    return np.ascontiguousarray(arr).view(np.complex128)[..., 0]


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _vector_from_json(entries, what: str) -> np.ndarray:
    try:
        arr = np.array(entries, dtype=float)
    except (TypeError, ValueError):
        raise DeviceValidationError(f"{what}: vector entries must be [re, im] pairs") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DeviceValidationError(f"{what}: vector entries must be [re, im] pairs")
    return np.ascontiguousarray(arr).view(np.complex128)[:, 0]


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; ValueError on a repeated key, which
    json would read as its last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def _read_json(path_or_data, error: type[Exception]):
    """Parsed contents of a JSON file, or path_or_data itself if already parsed."""
    if not isinstance(path_or_data, (str, bytes)):
        return path_or_data
    try:
        with open(path_or_data) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # also covers bytes that are not text
        raise error(f"{path_or_data}: not valid JSON ({exc})") from None


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}


def _expect(value, kind: type, what: str, error: type[Exception]):
    """value if it is of the JSON type kind (dict, list or str), else error."""
    if not isinstance(value, kind):
        raise error(f"{what}: must be {_JSON_TYPES[kind]}, got {value!r:.60}")
    return value


def _integer(value, what: str, error: type[Exception]) -> int:
    """value if it is a JSON integer: an int that is not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{what}: must be an integer, got {value!r:.60}")
    return value


def _integers(values, what: str, error: type[Exception]) -> tuple[int, ...]:
    return tuple(_integer(v, what, error) for v in _expect(values, list, what, error))


def _number(value, what: str, error: type[Exception]) -> float:
    """value as a float if it is a JSON number (an int or a float, not a
    bool) that a float holds."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int past the largest float
            pass
    raise error(f"{what}: must be a number, got {value!r:.60}")


def _fields(value, what: str, error: type[Exception], needs=(), takes=()) -> dict:
    """value if it is a JSON object that holds every key of needs and no key
    outside needs and takes, else error naming the key at fault."""
    obj = _expect(value, dict, what, error)
    for key in obj:
        if key not in needs and key not in takes:
            known = ", ".join((*needs, *takes)) or "no parameters"
            raise error(f"{what} takes {known}, not {key!r:.60}")
    for key in needs:
        if key not in obj:
            raise error(f"{what} requires {key!r}")
    return obj


# the params each source kind of a device file takes, every one of them required
_SOURCE_PARAMS = {"epr": (), "depolarized": ("p",), "matrix": ("per_wire",)}


def load_device(path_or_data) -> DeviceModel:
    """Build a DeviceModel from a JSON file path or an already-parsed dict."""
    err = DeviceValidationError
    data = _read_json(path_or_data, err)
    data = _fields(data, "device", err, ("layout",), ("source", "gates", "frames"))
    lay_d = _fields(
        data["layout"], "layout", err, ("n_wires", "a_dims", "b_dims"), ("e_dims", "c_dim")
    )
    n = _integer(lay_d["n_wires"], "layout: n_wires", err)
    a_dims = _integers(lay_d["a_dims"], "layout: a_dims", err)
    b_dims = _integers(lay_d["b_dims"], "layout: b_dims", err)
    if "e_dims" in lay_d and "c_dim" in lay_d:
        raise DeviceValidationError("layout takes e_dims or c_dim, not both")
    if "e_dims" in lay_d:
        e_dims = _integers(lay_d["e_dims"], "layout: e_dims", err)
    else:
        c = _integer(lay_d.get("c_dim", 1), "layout: c_dim", err)
        e_dims = (c,) + (1,) * (len(a_dims) - 1)  # environment attached to wire 0
    layout = RegisterLayout(n, a_dims, b_dims, e_dims)

    src = _fields(data.get("source", {}), "source", err, takes=("kind", "params"))
    kind = src.get("kind", "epr")
    params = _expect(src.get("params", {}), dict, "source: params", err)
    if not isinstance(kind, str) or kind not in _SOURCE_PARAMS:
        raise DeviceValidationError(f"source: unknown kind {kind!r:.60}")
    params = _fields(params, f"source: kind {kind!r}", err, _SOURCE_PARAMS[kind])
    if kind == "epr":
        per_wire = [
            _epr_wire(layout.a_dims[i], layout.b_dims[i], layout.e_dims[i])
            for i in range(n)
        ]
        source = _assemble_source(layout, per_wire)
    elif kind == "depolarized":
        if layout.a_dims != (2,) * n or layout.b_dims != (2,) * n:
            raise DeviceValidationError("source: depolarized needs 2x2 wires")
        if "e_dims" in lay_d or lay_d.get("c_dim", 1) != 1:
            key = "e_dims" if "e_dims" in lay_d else "c_dim"
            raise DeviceValidationError(
                f"layout: {key} does not fit source kind 'depolarized', whose "
                "environment is 4 levels on each wire"
            )
        layout, source = _depolarized(n, _number(params["p"], "source: p", err))
    else:
        vecs = _expect(params["per_wire"], list, "source: params.per_wire", err)
        if len(vecs) != n:
            raise DeviceValidationError(
                "source: kind 'matrix' needs params.per_wire with one vector per wire"
            )
        per_wire = [
            _vector_from_json(v, f"source wire {i}") for i, v in enumerate(vecs)
        ]
        source = _assemble_source(layout, per_wire)

    gates = {}
    for i, g in enumerate(_expect(data.get("gates", []), list, "gates", err)):
        g = _fields(g, f"gate {i + 1}", err, ("side", "label", "wires", "matrix"))
        side = _expect(g["side"], str, "gate: side", err)
        label = _expect(g["label"], str, "gate: label", err)
        what = f"gate ({side}, {label})"
        wires = _integers(g["wires"], f"{what}: wires", err)
        if (side, label) in gates:
            raise DeviceValidationError(f"{what}: listed twice")
        gates[(side, label)] = DeviceGate(side, wires, _matrix_from_json(g["matrix"], what))

    frames: dict[tuple[str, int], dict[float, np.ndarray]] = {}
    for i, f in enumerate(_expect(data.get("frames", []), list, "frames", err)):
        f = _fields(f, f"frame {i + 1}", err, ("side", "wire", "angle", "matrix"))
        side, key = f["side"], f["angle"]
        wire = _integer(f["wire"], "frame: wire", err)
        if side not in ("A", "B") or not 0 <= wire < n:
            raise DeviceValidationError(
                f"frame ({side!r:.20}, {wire}): not a wire of the layout"
            )
        if not isinstance(key, str) or key not in ANGLE_KEYS:
            raise DeviceValidationError(
                f"frame ({side}, {wire}): angle key {key!r:.20} must be one of "
                f"{sorted(ANGLE_KEYS)} (complements are derived)"
            )
        what = f"frame ({side}, {wire}, {key})"
        angles = frames.setdefault((side, wire), {})
        if ANGLE_KEYS[key] in angles:
            raise DeviceValidationError(f"{what}: listed twice")
        angles[ANGLE_KEYS[key]] = _matrix_from_json(f["matrix"], what)
    frame_objs = {}
    for side in ("A", "B"):
        for w in range(n):
            if (side, w) in frames:
                frame_objs[(side, w)] = MeasurementFrame(side, w, frames[(side, w)])
            elif layout.side_dim(side, w) == 2:
                frame_objs[(side, w)] = _qubit_frame(side, w)
            else:
                raise DeviceValidationError(
                    f"frame ({side}, {w}): missing and wire dim is not 2, cannot default"
                )
    return DeviceModel(layout, source, gates, frame_objs)


def load_circuit(path_or_data) -> IdealCircuit:
    """Build an IdealCircuit from a JSON file path or an already-parsed dict."""
    err = CircuitValidationError
    data = _fields(_read_json(path_or_data, err), "circuit", err, ("n",), ("input", "gates"))
    n = _wire_count(_integer(data["n"], "circuit: n", err))
    x = data.get("input", "0" * n)
    gates = []
    for i, g in enumerate(_expect(data.get("gates", []), list, "circuit: gates", err)):
        g = _fields(g, f"gate {i + 1}", err, ("wires",), ("label", "builtin", "matrix"))
        label = _expect(g.get("label", f"g{i + 1}"), str, f"gate {i + 1}: label", err)
        wires = _integers(g["wires"], f"gate {label}: wires", err)
        if "builtin" in g and "matrix" in g:
            raise CircuitValidationError(f"gate {label}: takes builtin or matrix, not both")
        if "builtin" in g:
            m = builtin_gate(_expect(g["builtin"], str, f"gate {label}: builtin", err))
        elif "matrix" in g:
            try:
                m = np.array(g["matrix"], dtype=float)
            except (TypeError, ValueError):
                raise CircuitValidationError(
                    f"gate {label}: matrix must be rows of numbers or [re, im] pairs"
                ) from None
            if m.ndim == 3 and m.shape[2] == 2:  # [re, im] pairs; CircuitGate checks im
                m = np.ascontiguousarray(m).view(np.complex128)[..., 0]
        else:
            raise CircuitValidationError(f"gate {label}: needs builtin or matrix")
        gates.append(CircuitGate(label, wires, m))
    return IdealCircuit(n, tuple(gates), x)


# every builtin device, in gallery order: its query parameters (every one of
# them required), its gallery line, and its builder from (circuit, **params)
_BUILTINS = {
    "honest": ((), ("builtin:honest", "ideal implementation of the given circuit"),
               honest_device),
    "vandam": ((), ("builtin:vandam", "hidden-qubit cheat passing the legacy Hadamard check"),
               lambda circuit: van_dam_device()),
    "rotated": (("theta",),
                ("builtin:rotated?theta=T", "honest conjugated wire-wise by rotation(T)"),
                rotated_device),
    "depolarized": (("p",),
                    ("builtin:depolarized?p=P", "honest gates over a depolarized pair source"),
                    noisy_source_device),
}

# the one syntax a builtin's parameter value takes: a JSON number, as in files
_JSON_NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")


def builtin_gallery() -> tuple[tuple[str, str], ...]:
    return tuple(line for _, line, _ in _BUILTINS.values())


def resolve_device(spec: str, circuit: IdealCircuit | None = None) -> DeviceModel:
    """Device from a builtin URI (builtin:name?k=v) or a JSON file path."""
    if not spec.startswith("builtin:"):
        return load_device(spec)
    name, _, query = spec[len("builtin:"):].partition("?")
    if name not in _BUILTINS:
        raise ConfigError(f"unknown builtin device {name!r} (see the gallery)")
    needs, _, build = _BUILTINS[name]
    items = {}
    for item in query.split("&") if query else ():
        k = item.partition("=")[0]
        if k in items:
            raise ConfigError(f"device parameter {k!r} repeats in {spec!r}")
        items[k] = item
    params = {}
    for k, item in _fields(items, f"builtin:{name}", ConfigError, needs).items():
        v = item.partition("=")[2]
        try:
            params[k] = float(v)
        except ValueError:
            raise ConfigError(f"bad device parameter {item!r} in {spec!r}") from None
        if not math.isfinite(params[k]):
            raise ConfigError(f"device parameter {item!r} in {spec!r} is not finite")
        # float() also reads digit underscores, blanks, a leading + and a
        # bare point, none of which a JSON number has
        if not _JSON_NUMBER.fullmatch(v):
            raise ConfigError(f"bad device parameter {item!r} in {spec!r}")
    return build(circuit, **params)
