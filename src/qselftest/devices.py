"""Device models: untrusted bipartite hardware and ideal reference circuits.

A device owns a source state shared across wire pairs, one-sided gates keyed
by label, and per-wire measurement frames indexed by angle. Builtins cover
the honest implementation, a hidden-dimension cheat that passes the legacy
single-system check, wire-wise rotated clones, and depolarized sources.
All statistics consumed elsewhere flow through these objects.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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
    "replace_source",
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


@dataclass(frozen=True)
class RegisterLayout:
    """Wire-pair register shape: per-wire A/B dims plus per-wire environments.

    The full layout orders subsystems [A_1..A_n, B_1..B_n, E_1..E_n]; a
    device file's single c_dim is the product of the per-wire e_dims.
    """

    n_wires: int
    a_dims: tuple[int, ...]
    b_dims: tuple[int, ...]
    e_dims: tuple[int, ...] = ()

    def __post_init__(self):
        n = int(self.n_wires)
        if n < 1:
            raise DeviceValidationError("layout: n_wires must be >= 1")
        a = tuple(int(d) for d in self.a_dims)
        b = tuple(int(d) for d in self.b_dims)
        e = tuple(int(d) for d in self.e_dims) if self.e_dims else (1,) * n
        if len(a) != n or len(b) != n or len(e) != n:
            raise DeviceValidationError(
                f"layout: dim lists must have length n_wires={n}, "
                f"got a={len(a)} b={len(b)} e={len(e)}"
            )
        object.__setattr__(self, "n_wires", n)
        object.__setattr__(self, "a_dims", a)
        object.__setattr__(self, "b_dims", b)
        object.__setattr__(self, "e_dims", e)
        self.full  # trigger the dimension cap check

    @property
    def c_dim(self) -> int:
        return math.prod(self.e_dims)

    @property
    def full(self) -> SubsystemDims:
        return SubsystemDims(self.a_dims + self.b_dims + self.e_dims)

    def a_index(self, wire: int) -> int:
        return wire

    def b_index(self, wire: int) -> int:
        return self.n_wires + wire

    def e_index(self, wire: int) -> int:
        return 2 * self.n_wires + wire

    def side_index(self, side: str, wire: int) -> int:
        if side == "A":
            return self.a_index(wire)
        if side == "B":
            return self.b_index(wire)
        raise DeviceValidationError(f"unknown side {side!r}")

    def side_dim(self, side: str, wire: int) -> int:
        return (self.a_dims if side == "A" else self.b_dims)[wire]


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


@dataclass(frozen=True, eq=False)
class IdealCircuit:
    """Reference computation: n wires, ordered real orthogonal gates, input bits.

    Instances compare by identity so they can key caches of derived models.
    """

    n: int
    gates: tuple[CircuitGate, ...]
    input: str

    def __post_init__(self):
        n = int(self.n)
        if n < 1:
            raise CircuitValidationError("circuit: n must be >= 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gates", tuple(self.gates))
        labels = [g.label for g in self.gates]
        if len(set(labels)) != len(labels):
            raise CircuitValidationError(f"circuit: duplicate gate labels in {labels}")
        for g in self.gates:
            if max(g.wires) >= n:
                raise CircuitValidationError(
                    f"gate {g.label}: wires {g.wires} out of range for n={n}"
                )
        if len(self.input) != n or set(self.input) - {"0", "1"}:
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
    d = hb.max_diff(hb.norm(source), 1.0)
    if d > 1e-12:
        raise DeviceValidationError(
            f"source: norm is not 1 within 1e-12 ({hb.diff_text(d)})"
        )
    # per-wire independence: each (A_i, B_i, E_i) cut must have Schmidt rank 1
    if layout.n_wires > 1:
        dims = layout.full.dims
        for i in range(layout.n_wires):
            keep = (layout.a_index(i), layout.b_index(i), layout.e_index(i))
            t = np.moveaxis(source.vec.reshape(dims), keep, (0, 1, 2))
            kdim = dims[keep[0]] * dims[keep[1]] * dims[keep[2]]
            sv = np.linalg.svd(t.reshape(kdim, -1), compute_uv=False)
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
    zero_states: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "gates", MappingProxyType(dict(self.gates)))
        object.__setattr__(self, "frames", MappingProxyType(dict(self.frames)))
        self.validate()

    def validate(self) -> None:
        lay = self.layout
        _check_source(lay, self.source)
        for (side, label), g in self.gates.items():
            if g.side != side:
                raise DeviceValidationError(
                    f"gate ({side}, {label}): stored side {g.side} disagrees with key"
                )
            if max(g.wires) >= lay.n_wires:
                raise DeviceValidationError(
                    f"gate ({side}, {label}): wire {max(g.wires)} out of range"
                )
            want = math.prod(lay.side_dim(side, w) for w in g.wires)
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
            if wire >= lay.n_wires:
                raise DeviceValidationError(f"frame ({side}, {wire}): wire out of range")
            if f.dim != lay.side_dim(side, wire):
                raise DeviceValidationError(
                    f"frame ({side}, {wire}): dim {f.dim} does not match layout "
                    f"{lay.side_dim(side, wire)}"
                )
        for side in ("A", "B"):
            for w in range(lay.n_wires):
                if (side, w) not in self.frames:
                    raise DeviceValidationError(f"frame ({side}, {w}): missing")
        if self.zero_states is not None:
            if len(self.zero_states) != lay.n_wires:
                raise DeviceValidationError("zero_states: need one vector per wire")
            for w, z in enumerate(self.zero_states):
                d = hb.max_diff(np.linalg.norm(z), 1.0)
                if z.shape != (lay.a_dims[w],) or d > 1e-10:
                    raise DeviceValidationError(
                        f"zero_states: wire {w} vector is not a unit local state "
                        f"of shape ({lay.a_dims[w]},) ({hb.diff_text(d)})"
                    )

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
        try:
            f = self.frames[(side, wire)]
        except KeyError:
            raise DeviceValidationError(
                f"device has no frame on side {side} wire {wire}"
            ) from None
        return LocalOperator.projector(
            (self.layout.side_index(side, wire),), f.projector(angle)
        )

    def zero_state(self, wire: int) -> np.ndarray:
        """The device's alleged local |0> on a wire's A subsystem."""
        if self.zero_states is not None:
            return self.zero_states[wire]
        z = np.zeros(self.layout.a_dims[wire], dtype=np.complex128)
        z[0] = 1.0
        return z


def _assemble_source(layout: RegisterLayout, per_wire: Sequence[np.ndarray]) -> PhysState:
    """Tensor per-wire (A_i, B_i, E_i) states and reorder to the full layout."""
    n = layout.n_wires
    parts = []
    for i, v in enumerate(per_wire):
        dims = SubsystemDims(
            (layout.a_dims[i], layout.b_dims[i], layout.e_dims[i])
        )
        parts.append(PhysState(dims, v))
    inter = hb.tensor(*parts) if len(parts) > 1 else parts[0]
    # interleaved order [A1 B1 E1 A2 B2 E2 ...] -> [A.. B.. E..]
    perm = (
        tuple(3 * i for i in range(n))
        + tuple(3 * i + 1 for i in range(n))
        + tuple(3 * i + 2 for i in range(n))
    )
    return hb.permute_subsystems(inter, perm)


def _qubit_frames(layout: RegisterLayout) -> dict[tuple[str, int], MeasurementFrame]:
    base = {a: hb.projector_angle(a).matrix for a in BASE_ANGLES}
    out = {}
    for side in ("A", "B"):
        for w in range(layout.n_wires):
            out[(side, w)] = MeasurementFrame(side, w, dict(base))
    return out


def _epr_wire(a_dim: int, b_dim: int, e_dim: int) -> np.ndarray:
    if a_dim != 2 or b_dim != 2:
        raise DeviceValidationError("epr source needs 2x2 wires")
    v = np.zeros(4 * e_dim, dtype=np.complex128)
    v[0] = v[3 * e_dim] = 1 / math.sqrt(2)  # |00>+|11> with environment in |0>
    return v


def _circuit_gates(
    circuit: IdealCircuit | None, n: int
) -> dict[tuple[str, str], tuple[tuple[int, ...], np.ndarray]]:
    """Honest gate table: circuit gates plus per-wire NOTs, both sides.

    The B-side partner is the complex conjugate (equal to the matrix itself
    for real gates); that is the unique choice restoring the shared pairs
    after both sides step."""
    table: dict[tuple[str, str], tuple[tuple[int, ...], np.ndarray]] = {}
    if circuit is not None:
        for g in circuit.gates:
            table[("A", g.label)] = (g.wires, g.matrix.copy())
            table[("B", g.label)] = (g.wires, np.conj(g.matrix))
    for w in range(n):
        table[("A", f"not{w}")] = ((w,), _X.copy())
        table[("B", f"not{w}")] = ((w,), _X.copy())
    return table


def honest_device(circuit: IdealCircuit | None = None, n: int | None = None) -> DeviceModel:
    """Ideal implementation: fresh EPR pairs, the circuit's own gates, ideal frames."""
    if circuit is not None:
        n = circuit.n
    elif n is None:
        n = 1
    layout = RegisterLayout(n, (2,) * n, (2,) * n)
    source = _assemble_source(
        layout, [_epr_wire(2, 2, 1) for _ in range(n)]
    )
    gates = {
        key: DeviceGate(key[0], wires, m)
        for key, (wires, m) in _circuit_gates(circuit, n).items()
    }
    return DeviceModel(layout, source, gates, _qubit_frames(layout))


def van_dam_device(
    pi8: np.ndarray | None = None, pi4: np.ndarray | None = None
) -> DeviceModel:
    """Hidden-dimension cheat: two qubits per register, encoded 0/1 as 00/11.

    The computational measurement mixes the disagreeing basis states, so the
    legacy prepare-Hadamard-measure check passes exactly; the intermediate
    angles (defaulting to ideal projectors on the first hidden qubit) do not
    survive the pair tests.
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
        math.pi / 8: pi8 if pi8 is not None else np.kron(hb.projector_angle(math.pi / 8).matrix, eye2),
        math.pi / 4: pi4 if pi4 is not None else np.kron(hb.projector_angle(math.pi / 4).matrix, eye2),
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
    n: int | None = None,
) -> DeviceModel:
    """Honest device conjugated wire-wise by local unitaries (default: rotation(theta)).

    Every statistic matches the honest device exactly; only the frame of
    reference differs.
    """
    base = honest_device(circuit, n=n)
    nw = base.n_wires
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
    source = _assemble_source(base.layout, per_wire)

    def conj_gate(g: DeviceGate) -> DeviceGate:
        vs = v_a if g.side == "A" else v_b
        w = np.array([[1.0 + 0j]])
        for wi in g.wires:
            w = np.kron(w, vs[wi])
        return DeviceGate(g.side, g.wires, w @ g.matrix @ w.conj().T)

    gates = {k: conj_gate(g) for k, g in base.gates.items()}
    frames = {}
    for (side, wire), f in base.frames.items():
        v = v_a[wire] if side == "A" else v_b[wire]
        newbase = {a: v @ m @ v.conj().T for a, m in f.base.items()}
        frames[(side, wire)] = MeasurementFrame(side, wire, newbase)
    zeros = tuple(v_a[w] @ base.zero_state(w) for w in range(nw))
    return DeviceModel(base.layout, source, gates, frames, zero_states=zeros)


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


def noisy_source_device(
    circuit: IdealCircuit | None = None, p: float = 0.0, n: int | None = None
) -> DeviceModel:
    """Honest gates and frames over a purified depolarized pair source.

    Each wire shares (1-p)|pair><pair| + p Id/4, purified against a 4-level
    environment stored in the device's environment register.
    """
    base = honest_device(circuit, n=n)
    nw = base.n_wires
    layout = RegisterLayout(nw, (2,) * nw, (2,) * nw, (4,) * nw)
    wire = _depolarized_wire(p)
    source = _assemble_source(layout, [wire.copy() for _ in range(nw)])
    return DeviceModel(layout, source, base.gates, base.frames)


def replace_source(device: DeviceModel, source: PhysState) -> DeviceModel:
    """New device sharing gates and frames but with a different source state."""
    return DeviceModel(
        device.layout, source, dict(device.gates), dict(device.frames),
        zero_states=device.zero_states,
    )


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
    return arr[..., 0] + 1j * arr[..., 1]


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
    return arr[:, 0] + 1j * arr[:, 1]


def _read_json(path_or_data, error: type[Exception]):
    """Parsed contents of a JSON file, or path_or_data itself if already parsed."""
    if not isinstance(path_or_data, (str, bytes)):
        return path_or_data
    try:
        with open(path_or_data) as fh:
            return json.load(fh)
    except ValueError as exc:  # also covers bytes that are not text
        raise error(f"{path_or_data}: not valid JSON ({exc})") from None


def load_device(path_or_data) -> DeviceModel:
    """Build a DeviceModel from a JSON file path or an already-parsed dict."""
    data = _read_json(path_or_data, DeviceValidationError)
    try:
        lay_d = data["layout"]
        n = int(lay_d["n_wires"])
        a_dims = tuple(int(d) for d in lay_d["a_dims"])
        b_dims = tuple(int(d) for d in lay_d["b_dims"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DeviceValidationError(f"layout: missing or malformed field ({exc})") from None
    if "e_dims" in lay_d:
        e_dims = tuple(int(d) for d in lay_d["e_dims"])
    else:
        c = int(lay_d.get("c_dim", 1))
        e_dims = (c,) + (1,) * (n - 1)  # environment attached to wire 0
    layout = RegisterLayout(n, a_dims, b_dims, e_dims)

    src = data.get("source", {"kind": "epr"})
    kind = src.get("kind", "epr")
    params = src.get("params", {})
    if kind == "epr":
        per_wire = [
            _epr_wire(layout.a_dims[i], layout.b_dims[i], layout.e_dims[i])
            for i in range(n)
        ]
        source = _assemble_source(layout, per_wire)
    elif kind == "depolarized":
        if layout.a_dims != (2,) * n or layout.b_dims != (2,) * n:
            raise DeviceValidationError("source: depolarized needs 2x2 wires")
        layout = RegisterLayout(n, layout.a_dims, layout.b_dims, (4,) * n)
        wire = _depolarized_wire(float(params.get("p", 0.0)))
        source = _assemble_source(layout, [wire.copy() for _ in range(n)])
    elif kind == "matrix":
        vecs = params.get("per_wire")
        if vecs is None or len(vecs) != n:
            raise DeviceValidationError(
                "source: kind 'matrix' needs params.per_wire with one vector per wire"
            )
        per_wire = [
            _vector_from_json(v, f"source wire {i}") for i, v in enumerate(vecs)
        ]
        source = _assemble_source(layout, per_wire)
    else:
        raise DeviceValidationError(f"source: unknown kind {kind!r}")

    gates = {}
    for g in data.get("gates", ()):
        try:
            side, label, rows = g["side"], g["label"], g["matrix"]
            wires = tuple(int(w) for w in g["wires"])
        except (KeyError, TypeError, ValueError):
            raise DeviceValidationError(
                "gate: each entry needs side, label, wires, matrix"
            ) from None
        m = _matrix_from_json(rows, f"gate ({side}, {label})")
        gates[(side, label)] = DeviceGate(side, wires, m)

    frames: dict[tuple[str, int], dict[float, np.ndarray]] = {}
    for f in data.get("frames", ()):
        try:
            side, wire, key = f["side"], int(f["wire"]), f["angle"]
        except (KeyError, TypeError, ValueError):
            raise DeviceValidationError(
                "frame: each entry needs side, wire, angle, matrix"
            ) from None
        if key not in ANGLE_KEYS:
            raise DeviceValidationError(
                f"frame ({side}, {wire}): angle key {key!r} must be one of "
                f"{sorted(ANGLE_KEYS)} (complements are derived)"
            )
        m = _matrix_from_json(f["matrix"], f"frame ({side}, {wire}, {key})")
        frames.setdefault((side, wire), {})[ANGLE_KEYS[key]] = m
    frame_objs = {}
    for side in ("A", "B"):
        for w in range(n):
            if (side, w) in frames:
                frame_objs[(side, w)] = MeasurementFrame(side, w, frames[(side, w)])
            elif layout.side_dim(side, w) == 2:
                base = {a: hb.projector_angle(a).matrix for a in BASE_ANGLES}
                frame_objs[(side, w)] = MeasurementFrame(side, w, base)
            else:
                raise DeviceValidationError(
                    f"frame ({side}, {w}): missing and wire dim is not 2, cannot default"
                )
    return DeviceModel(layout, source, gates, frame_objs)


def load_circuit(path_or_data) -> IdealCircuit:
    """Build an IdealCircuit from a JSON file path or an already-parsed dict."""
    data = _read_json(path_or_data, CircuitValidationError)
    try:
        n = int(data["n"])
        raw_gates = data.get("gates", [])
        x = data.get("input", "0" * n)
    except (KeyError, TypeError, ValueError) as exc:
        raise CircuitValidationError(f"circuit: malformed file ({exc})") from None
    gates = []
    for i, g in enumerate(raw_gates):
        if not isinstance(g, dict):
            raise CircuitValidationError(f"gate {i + 1}: must be an object, got {g!r}")
        label = g.get("label", f"g{i + 1}")
        try:
            wires = tuple(int(w) for w in g["wires"])
        except (KeyError, TypeError, ValueError):
            raise CircuitValidationError(f"gate {label}: missing wires") from None
        if "builtin" in g:
            m = builtin_gate(str(g["builtin"]))
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


_GALLERY = (
    ("builtin:honest", "ideal implementation of the given circuit"),
    ("builtin:vandam", "hidden-qubit cheat passing the legacy Hadamard check"),
    ("builtin:rotated?theta=T", "honest conjugated wire-wise by rotation(T)"),
    ("builtin:depolarized?p=P", "honest gates over a depolarized pair source"),
)


def builtin_gallery() -> tuple[tuple[str, str], ...]:
    return _GALLERY


def resolve_device(spec: str, circuit: IdealCircuit | None = None) -> DeviceModel:
    """Device from a builtin URI (builtin:name?k=v) or a JSON file path."""
    if not spec.startswith("builtin:"):
        return load_device(spec)
    rest = spec[len("builtin:"):]
    name, _, query = rest.partition("?")
    params = {}
    if query:
        for item in query.split("&"):
            k, _, v = item.partition("=")
            try:
                params[k] = float(v)
            except ValueError:
                raise ConfigError(f"bad device parameter {item!r} in {spec!r}") from None
            if not math.isfinite(params[k]):
                raise ConfigError(f"device parameter {item!r} in {spec!r} is not finite")
    if name == "honest":
        return honest_device(circuit)
    if name == "vandam":
        return van_dam_device()
    if name == "rotated":
        return rotated_device(circuit, theta=params.get("theta", 0.0))
    if name == "depolarized":
        return noisy_source_device(circuit, p=params.get("p", 0.0))
    raise ConfigError(f"unknown builtin device {name!r} (see the gallery)")
