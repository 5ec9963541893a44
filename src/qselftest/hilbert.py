"""Dense states, local operators, and subspace geometry over explicit layouts.

Everything is a plain complex vector or small matrix tagged with subsystem
dimensions. Operators act on an explicit subset of subsystems and are applied
by index arithmetic, along one product path: a state is a block of one row,
and stacked operators act on a block in one batched matmul. Full-space
matrices are never materialized. Values are immutable and all operations
are pure.

Matrices are checked for structure (unitary, projector, orthogonal, unit
norm) once, in the device or circuit constructor they enter through, with
`max_diff`; a LocalOperator checks only its shape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

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
    "StateBlock",
    "SubsystemDims",
    "angle_state",
    "apply_operator",
    "basis_state",
    "max_diff",
    "norm",
    "normalized",
    "op_norm_on",
    "orthonormalize",
    "partial_trace",
    "permute_subsystems",
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

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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


@dataclass(frozen=True)
class StateBlock:
    """m states over one layout, as the rows of one (m, total) array: the
    form in which apply_operator acts on many states at once. Rows may be
    unnormalized."""

    layout: SubsystemDims
    rows: np.ndarray

    def __post_init__(self):
        total = self.layout.total
        r = np.array(self.rows, dtype=np.complex128, copy=True)
        if r.ndim != 2 or r.shape[1] != total:
            raise DimensionError(
                f"a block needs rows of length {total}, got shape {r.shape}"
            )
        object.__setattr__(self, "rows", _frozen(r))

    @classmethod
    def _wrap(cls, layout: SubsystemDims, rows: np.ndarray) -> "StateBlock":
        # internal fast path for arrays we own; skips the defensive copy
        self = object.__new__(cls)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "rows", _frozen(rows))
        return self

    def states(self) -> tuple[PhysState, ...]:
        """Each row as a state, in order; the rows are shared, not copied."""
        return tuple([PhysState._wrap(self.layout, row) for row in self.rows])


def apply_operator(
    op: LocalOperator | Sequence[LocalOperator], state: PhysState | StateBlock
) -> PhysState | StateBlock:
    """Apply local operators to states by index arithmetic.

    The matrix acts on the targets in their listed order; the other
    subsystems are untouched and the full-space matrix is never formed.

    A state is the block of its one row. Given a block of m states and a
    sequence of k operators on the same targets, returns the block of the
    m*k results, parent-major: row i*k + j is operator j applied to row i.
    The block is gathered once, the k matrices act as one (k*d x d) stack,
    and the stack acts on it in one batched matmul, which runs one product
    per parent with that parent's own shapes and strides; each output
    element comes from its own row of the stack, so every row has the bits
    of its operator applied to its parent alone. A single operator is the
    k = 1 case; on a state, it returns a state.
    """
    single = isinstance(op, LocalOperator)
    ops = (op,) if single else tuple(op)
    targets = ops[0].targets
    dims = state.layout.dims
    perm, inv, d = _plan(targets, dims)
    for o in ops:
        if o.targets != targets:
            raise DimensionError(f"stacked operators act on {targets} and {o.targets}")
        if o.dim != d:
            raise DimensionError(
                f"operator dim {o.dim} does not match target dims "
                f"{tuple(dims[t] for t in targets)}"
            )
    k = len(ops)
    total = state.layout.total
    block = isinstance(state, StateBlock)
    rows = state.rows if block else state.vec[None]
    m = len(rows)
    t = rows.reshape((m,) + dims).transpose(perm)
    stack = op.matrix if single else np.concatenate([o.matrix for o in ops])
    out = stack @ t.reshape(m, d, total // d)
    # each row back in natural order, as one contiguous (m * k, total) copy
    out = out.reshape((m, k) + t.shape[1:]).transpose(inv).reshape(m * k, total)
    if single and not block:
        return PhysState._wrap(state.layout, out[0])
    return StateBlock._wrap(state.layout, out)


@functools.lru_cache(maxsize=1024)
def _plan(
    targets: tuple[int, ...], dims: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The axis order that brings targets to the front of each array of a
    block (the block index stays first), the inverse that takes a block of
    stacks (block index, then stack index) back, and the targets' dimension.

    Past the block index, the first is the transpose
    np.moveaxis(t, targets, range(k)) builds, so the views and copies, and
    hence every float, are the same.
    """
    ndim = len(dims)
    if max(targets) >= ndim:
        raise DimensionError(
            f"operator targets {targets} out of range for layout {dims}"
        )
    perm = targets + tuple(i for i in range(ndim) if i not in targets)
    inv = [0, 1] + [0] * ndim
    for pos, axis in enumerate(perm):
        inv[axis + 2] = pos + 2
    return (0,) + tuple(p + 1 for p in perm), tuple(inv), math.prod(dims[t] for t in targets)


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


def norm(x: PhysState) -> float:
    # the sum np.linalg.norm takes for a complex vector, without its dispatch
    re, im = x.vec.real, x.vec.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def normalized(x: PhysState) -> PhysState:
    n = norm(x)
    if n == 0.0:
        raise ValidationError("cannot normalize the zero vector")
    return PhysState._wrap(x.layout, x.vec / n)


def basis_state(layout: SubsystemDims, index: int) -> PhysState:
    v = np.zeros(layout.total, dtype=np.complex128)
    v[index] = 1.0
    return PhysState._wrap(layout, v)


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
    """Orthonormal basis of a subspace of layout, held once, as `stacked`:
    one state whose extra last subsystem (dim rank) indexes the basis
    vectors, so an operator on the layout acts on all of them."""

    layout: SubsystemDims
    stacked: PhysState

    @property
    def rank(self) -> int:
        return self.stacked.layout.dims[-1]


# generators taken per block; a span of up to this many generators is
# orthonormalized one generator at a time, as by plain CGS2
_GS_BLOCK = 128


def orthonormalize(states: Sequence[PhysState]) -> SubspaceBasis:
    """Gram-Schmidt with deflation; drops residuals below RANK_TOL.

    Generators go in blocks (block classical Gram-Schmidt with one
    re-orthogonalization, BCGS2). A block is projected against all rows
    accepted before it with one matmul. Then each of its generators is
    projected, twice, against the rows the block accepted before it, and is
    accepted if what is left has norm at least RANK_TOL. A second pass takes
    the block's new rows against the earlier rows with one matmul, and once
    more against each other. Idempotent on already-orthonormal inputs.
    """
    if not states:
        raise DimensionError("orthonormalize() needs at least one state")
    layout = states[0].layout
    if any(s.layout != layout for s in states):
        raise DimensionError("orthonormalize() layouts differ")
    stack = np.array([s.vec for s in states], dtype=np.complex128)
    r = 0  # accepted rows overwrite stack[:r], whose generators are used up
    for start in range(0, len(stack), _GS_BLOCK):
        block = stack[start : start + _GS_BLOCK]
        q = stack[:r]
        block -= (block @ q.conj().T) @ q
        r0 = r
        for w in block:
            for _ in range(2):
                p = stack[r0:r]
                w -= (p @ w.conj()).conj() @ p
            nw = np.linalg.norm(w)
            if nw >= RANK_TOL:
                stack[r] = w / nw
                r += 1
        if r0:
            # taking out a generator's in-block part leaves rounding along
            # the earlier rows as large as that part, not as what is left
            new = stack[r0:r]
            new -= (new @ q.conj().T) @ q
            for i, w in enumerate(new):
                w -= (new[:i] @ w.conj()).conj() @ new[:i]
                w /= np.linalg.norm(w)
    # not capped: these are the basis's own amplitudes
    dims = object.__new__(SubsystemDims)
    object.__setattr__(dims, "dims", layout.dims + (r,))
    return SubspaceBasis(
        layout, PhysState._wrap(dims, np.ascontiguousarray(stack[:r].T).reshape(-1))
    )


def op_norm_on(stacked: PhysState, op: LocalOperator) -> float:
    """Largest singular value of an operator restricted to a subspace.

    `stacked` is the subspace's orthonormal basis as `SubspaceBasis.stacked`
    lays it out, so the operator is applied once, to all basis vectors.
    A difference M - N is passed as one operator.
    """
    rank = stacked.layout.dims[-1]
    if rank == 0:
        return 0.0
    out = apply_operator(op, stacked).vec
    return float(np.linalg.svd(out.reshape(-1, rank), compute_uv=False)[0])


def partial_trace(x: PhysState, keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix over the kept subsystems (in the listed order)."""
    keep = tuple(int(i) for i in keep)
    d = x.layout.dims
    if len(set(keep)) != len(keep) or any(i < 0 or i >= len(d) for i in keep):
        raise DimensionError(f"bad keep indices {keep} for layout {d}")
    t = np.moveaxis(x.vec.reshape(d), keep, range(len(keep)))
    kdim = math.prod(d[i] for i in keep)
    flat = t.reshape(kdim, -1)
    return flat @ flat.conj().T
