"""Dense states, local operators, and subspace geometry over explicit layouts.

Everything is a plain complex vector or small matrix tagged with subsystem
dimensions. Operators act on an explicit subset of subsystems and are applied
by index arithmetic; full-space matrices are never materialized. Values are
immutable and all operations are pure.

Matrices are checked for structure (unitary, projector, orthogonal, unit
norm) once, in the device or circuit constructor they enter through, with
`max_diff`; a LocalOperator checks only its shape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DimensionError, ValidationError

DIM_CAP = 1 << 20
RANK_TOL = 1e-9

__all__ = [
    "DIM_CAP",
    "RANK_TOL",
    "LocalOperator",
    "PhysState",
    "SubspaceBasis",
    "SubsystemDims",
    "angle_state",
    "apply_operator",
    "basis_state",
    "bell_state",
    "dist",
    "inner",
    "max_diff",
    "norm",
    "normalized",
    "op_norm_on",
    "orthonormalize",
    "partial_trace",
    "permute_subsystems",
    "project_onto",
    "projector_angle",
    "reduce_angle",
    "tensor",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SubsystemDims:
    """Ordered subsystem dimensions of a register."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims:
            raise DimensionError("a layout needs at least one subsystem")
        if any(d < 1 for d in dims):
            raise DimensionError(f"subsystem dims must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)
        if self.total > DIM_CAP:
            raise DimensionError(
                f"total dimension {self.total} exceeds the cap {DIM_CAP}"
            )

    @property
    def total(self) -> int:
        return math.prod(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __add__(self, other: "SubsystemDims") -> "SubsystemDims":
        return SubsystemDims(self.dims + other.dims)


@dataclass(frozen=True)
class PhysState:
    """Dense state vector over a layout. Intermediate values may be unnormalized."""

    layout: SubsystemDims
    vec: np.ndarray

    def __post_init__(self):
        v = np.array(self.vec, dtype=np.complex128, copy=True).reshape(-1)
        if v.size != self.layout.total:
            raise DimensionError(
                f"vector length {v.size} does not match layout total {self.layout.total}"
            )
        object.__setattr__(self, "vec", _frozen(v))

    @classmethod
    def _wrap(cls, layout: SubsystemDims, vec: np.ndarray) -> "PhysState":
        # internal fast path for arrays we own; skips the defensive copy
        self = object.__new__(cls)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "vec", _frozen(vec))
        return self


@dataclass(frozen=True)
class LocalOperator:
    """Matrix acting on an explicit ordered subset of subsystems.

    kind is one of "unitary", "projector", "general". It is a label only:
    the matrix is checked for shape here, and for structure where it entered
    the package (DeviceGate, MeasurementFrame, CircuitGate).
    """

    targets: tuple[int, ...]
    matrix: np.ndarray
    kind: str = "general"

    def __post_init__(self):
        targets = tuple(int(t) for t in self.targets)
        if not targets or len(set(targets)) != len(targets) or min(targets) < 0:
            raise DimensionError(f"targets must be distinct and >= 0, got {targets}")
        object.__setattr__(self, "targets", targets)
        m = np.array(self.matrix, dtype=np.complex128, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionError(f"operator matrix must be square, got {m.shape}")
        if self.kind not in ("unitary", "projector", "general"):
            raise ValidationError(f"unknown operator kind {self.kind!r}")
        object.__setattr__(self, "matrix", _frozen(m))

    @classmethod
    def unitary(cls, targets, matrix) -> "LocalOperator":
        return cls(tuple(targets), matrix, "unitary")

    @classmethod
    def projector(cls, targets, matrix) -> "LocalOperator":
        return cls(tuple(targets), matrix, "projector")

    @classmethod
    def general(cls, targets, matrix) -> "LocalOperator":
        return cls(tuple(targets), matrix, "general")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


StateMap = Callable[[PhysState], PhysState]
OperatorLike = Union[LocalOperator, StateMap, None]


def tensor(*parts: PhysState) -> PhysState:
    """Tensor product of states; layouts concatenate in the given order."""
    if not parts:
        raise DimensionError("tensor() needs at least one argument")
    layout = parts[0].layout
    vec = parts[0].vec
    for p in parts[1:]:
        layout = layout + p.layout
        vec = np.kron(vec, p.vec)
    return PhysState._wrap(layout, np.ascontiguousarray(vec))


def apply_operator(op: LocalOperator, state: PhysState) -> PhysState:
    """Apply a local operator to a state by index arithmetic.

    The matrix acts on the targets in their listed order; the other
    subsystems are untouched and the full-space matrix is never formed.
    """
    dims = state.layout.dims
    if max(op.targets) >= len(dims):
        raise DimensionError(
            f"operator targets {op.targets} out of range for layout {dims}"
        )
    if op.dim != math.prod(dims[t] for t in op.targets):
        raise DimensionError(
            f"operator dim {op.dim} does not match target dims "
            f"{tuple(dims[t] for t in op.targets)}"
        )
    perm, inv = _axis_order(op.targets, len(dims))
    t = state.vec.reshape(dims).transpose(perm)
    shape = t.shape
    out = op.matrix @ t.reshape(op.dim, -1)
    out = out.reshape(shape).transpose(inv)
    return PhysState._wrap(state.layout, out.reshape(-1))


@functools.lru_cache(maxsize=1024)
def _axis_order(
    targets: tuple[int, ...], ndim: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The axis order that brings targets to the front, and its inverse.

    This is the transpose np.moveaxis(t, targets, range(k)) builds, so the
    views and copies, and hence every float, are the same.
    """
    perm = targets + tuple(i for i in range(ndim) if i not in targets)
    inv = [0] * ndim
    for pos, axis in enumerate(perm):
        inv[axis] = pos
    return perm, tuple(inv)


def angle_state(a: float) -> PhysState:
    """cos(a)|0> + sin(a)|1> on a single qubit."""
    return PhysState(SubsystemDims((2,)), np.array([math.cos(a), math.sin(a)]))


def reduce_angle(a: float) -> float:
    """The projector angle a modulo pi, in [0, pi)."""
    b = math.fmod(float(a), math.pi)
    return b + math.pi if b < 0.0 else b


def projector_angle(a: float) -> LocalOperator:
    """Rank-1 qubit projector onto the angle-a direction (period pi).

    Complements are exact by construction: angles in the upper half mod pi
    are built as Id - P(base), so P(a) + P(a + pi/2) = Id.
    """
    b = reduce_angle(a)
    if b < math.pi / 2:
        c, s = math.cos(b), math.sin(b)
        m = np.array([[c * c, c * s], [c * s, s * s]])
    else:
        bb = b - math.pi / 2
        c, s = math.cos(bb), math.sin(bb)
        m = np.eye(2) - np.array([[c * c, c * s], [c * s, s * s]])
    return LocalOperator.projector((0,), m)


def max_diff(x, y) -> float:
    """Largest entrywise |x - y|; inf when x or y has a non-finite entry.

    Every structural check compares this against its tolerance, so a NaN
    fails it (a bare `np.abs(d).max() > tol` is False for NaN).
    """
    x, y = np.asarray(x), np.asarray(y)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return math.inf
    return float(np.abs(x - y).max(initial=0.0))


def diff_text(d: float) -> str:
    """A max_diff result as the cause clause of an error message."""
    return "it has a non-finite entry" if d == math.inf else f"largest deviation {d:.2e}"


def inner(x: PhysState, y: PhysState) -> complex:
    """<x|y>, conjugate-linear in the first argument."""
    if x.layout != y.layout:
        raise DimensionError("inner() layouts differ")
    return complex(np.vdot(x.vec, y.vec))


def norm(x: PhysState) -> float:
    return float(np.linalg.norm(x.vec))


def dist(x: PhysState, y: PhysState) -> float:
    if x.layout != y.layout:
        raise DimensionError("dist() layouts differ")
    return float(np.linalg.norm(x.vec - y.vec))


def normalized(x: PhysState) -> PhysState:
    n = norm(x)
    if n == 0.0:
        raise ValidationError("cannot normalize the zero vector")
    return PhysState._wrap(x.layout, x.vec / n)


def basis_state(layout: SubsystemDims, index: int) -> PhysState:
    v = np.zeros(layout.total, dtype=np.complex128)
    v[index] = 1.0
    return PhysState._wrap(layout, v)


def bell_state(n: int = 1) -> PhysState:
    """2^(-n/2) sum_x |x>|x> over qubit blocks (x-half, then partner half)."""
    d = 1 << n
    v = np.zeros(d * d, dtype=np.complex128)
    v[(d + 1) * np.arange(d)] = 1.0 / math.sqrt(d)
    return PhysState._wrap(SubsystemDims((2,) * (2 * n)), v)


def permute_subsystems(state: PhysState, perm: Sequence[int]) -> PhysState:
    """Reorder subsystems: new slot i holds old subsystem perm[i]."""
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(len(state.layout))):
        raise DimensionError(f"perm {perm} is not a permutation of the layout")
    dims = state.layout.dims
    new_dims = tuple(dims[p] for p in perm)
    v = state.vec.reshape(dims).transpose(perm).reshape(-1)
    return PhysState._wrap(SubsystemDims(new_dims), np.ascontiguousarray(v))


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal row basis of a subspace plus the generators' singular profile."""

    layout: SubsystemDims
    matrix: np.ndarray
    singular_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(np.asarray(self.matrix)))
        object.__setattr__(
            self, "singular_values", _frozen(np.asarray(self.singular_values))
        )

    @property
    def rank(self) -> int:
        return self.matrix.shape[0]

    @property
    def states(self) -> tuple[PhysState, ...]:
        return tuple(PhysState(self.layout, row) for row in self.matrix)


def orthonormalize(
    states: Sequence[PhysState], rank_tol: float = RANK_TOL
) -> SubspaceBasis:
    """Modified Gram-Schmidt with deflation; drops residuals below rank_tol.

    Idempotent on already-orthonormal inputs. The singular values of the
    generator stack ride along for rank diagnostics.
    """
    if not states:
        raise DimensionError("orthonormalize() needs at least one state")
    layout = states[0].layout
    if any(s.layout != layout for s in states):
        raise DimensionError("orthonormalize() layouts differ")
    stack = np.stack([s.vec for s in states])
    sv = np.linalg.svd(stack, compute_uv=False)
    rows: list[np.ndarray] = []
    for v in stack:
        w = v.astype(np.complex128, copy=True)
        for _ in range(2):  # re-orthogonalize once for stability
            for q in rows:
                w -= q * np.vdot(q, w)
        nw = np.linalg.norm(w)
        if nw >= rank_tol:
            rows.append(w / nw)
    mat = np.stack(rows) if rows else np.zeros((0, layout.total), dtype=np.complex128)
    return SubspaceBasis(layout, mat, sv)


def project_onto(basis: SubspaceBasis, x: PhysState) -> PhysState:
    """Orthogonal projection of x onto the subspace."""
    if x.layout != basis.layout:
        raise DimensionError("project_onto() layouts differ")
    coeffs = basis.matrix.conj() @ x.vec
    return PhysState._wrap(basis.layout, basis.matrix.T @ coeffs)


def _as_map(x: OperatorLike) -> StateMap:
    if x is None:
        return lambda s: s
    if isinstance(x, LocalOperator):
        return lambda s: apply_operator(x, s)
    return x


def op_norm_on(basis: SubspaceBasis, m: OperatorLike, n: OperatorLike = None) -> float:
    """Largest singular value of (M - N) restricted to the subspace.

    m and n may be LocalOperators, callables on PhysState, or None (identity).
    """
    fm, fn = _as_map(m), _as_map(n)
    if basis.rank == 0:
        return 0.0
    cols = [fm(s).vec - fn(s).vec for s in basis.states]
    return float(np.linalg.svd(np.stack(cols), compute_uv=False)[0])


def partial_trace(x, keep: Sequence[int], dims: Sequence[int] | None = None) -> np.ndarray:
    """Reduced density matrix over the kept subsystems (in the listed order).

    x may be a PhysState or a square density matrix (then dims is required).
    """
    keep = tuple(int(i) for i in keep)
    if isinstance(x, PhysState):
        d = x.layout.dims
        if len(set(keep)) != len(keep) or any(i < 0 or i >= len(d) for i in keep):
            raise DimensionError(f"bad keep indices {keep} for layout {d}")
        t = np.moveaxis(x.vec.reshape(d), keep, range(len(keep)))
        kdim = math.prod(d[i] for i in keep)
        flat = t.reshape(kdim, -1)
        return flat @ flat.conj().T
    if dims is None:
        raise DimensionError("partial_trace() on a matrix requires dims")
    d = tuple(int(v) for v in dims)
    rho = np.asarray(x, dtype=np.complex128).reshape(d + d)
    ns = len(d)
    if len(set(keep)) != len(keep) or any(i < 0 or i >= ns for i in keep):
        raise DimensionError(f"bad keep indices {keep} for dims {d}")
    traced = [i for i in range(ns) if i not in keep]
    labels = list(range(2 * ns))
    for i in traced:
        labels[ns + i] = i  # contract bra against ket
    out_labels = [i for i in keep] + [ns + i for i in keep]
    out = np.einsum(rho, labels, out_labels)
    kdim = math.prod(d[i] for i in keep)
    return out.reshape(kdim, kdim)
