"""Constructive extraction: swap unitaries, equivalence residuals, tomography.

From nothing but the device's own projectors this module builds the
ancilla-swap unitaries that pull the hidden qubit into a fresh
logical slot, and residual distances measuring how far the device is from
an honest implementation on the tested subspace. Pauli reconstruction from
three measurement angles and a commutant factorization round out the
toolbox.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import hilbert as hb
from . import stats as stx
from .devices import (
    BASE_ANGLES,
    TEST_ANGLES,
    DeviceModel,
    IdealCircuit,
    angle_index,
    angle_name,
    matrix_to_json,
)
from .errors import ValidationError
from .hilbert import LocalOperator, PhysState, SubspaceBasis, SubsystemDims

TOMO_ANGLES = (0.0, math.pi / 4, math.pi / 2)

_PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}
# per-slot weights turning angle-projector probabilities into Pauli traces:
# row I, X or Z, column one of TOMO_ANGLES
_PAULI_WEIGHTS = np.array([
    [1.0, 0.0, 1.0],
    [-1.0, 2.0, -1.0],
    [1.0, 0.0, -1.0],
])

__all__ = [
    "EquivalenceReport",
    "TOMO_ANGLES",
    "build_swap_extraction",
    "certify_gate_equivalence",
    "certify_state_equivalence",
    "commutant_factor",
    "polar_unitary",
    "swap_factors",
    "tomo_reconstruct",
    "tomo_settings",
]


def polar_unitary(m: np.ndarray) -> np.ndarray:
    """Closest unitary in Frobenius norm; singular directions completed by SVD."""
    u, _, vh = np.linalg.svd(np.asarray(m, dtype=np.complex128))
    return u @ vh


def swap_factors(device: DeviceModel, side: str, wire: int) -> tuple[np.ndarray, np.ndarray]:
    """The two crossed controlled-NOTs whose product swaps wire and logical slot.

    Matrices live on (logical qubit) x (wire subsystem), logical slot first.
    """
    f = device.frames[(side, wire)]
    d = f.dim
    p0 = f.projector(0.0)
    p2 = f.projector(math.pi / 2)
    n = 2.0 * f.projector(math.pi / 4) - np.eye(d)
    e00 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
    e11 = np.array([[0, 0], [0, 1]], dtype=np.complex128)
    x = _PAULI["X"]
    c1 = np.kron(e00, np.eye(d)) + np.kron(e11, n)
    c2 = np.kron(np.eye(2), p0) + np.kron(x, p2)
    return c1, c2


def build_swap_extraction(device: DeviceModel, side: str, wire: int) -> LocalOperator:
    """Unitary on (logical qubit, wire) moving the wire's hidden bit out.

    Composed from the device's own projectors; on the honest device it maps
    |0> x psi to psi x |0>.
    """
    c1, c2 = swap_factors(device, side, wire)
    return LocalOperator.unitary((0, 1), c1 @ c2)


@dataclass(frozen=True)
class EquivalenceReport:
    """Residual distances of one device fragment from the ideal, on S.

    u_bar_a / u_bar_b hold one swap unitary per certified wire. Residuals of
    0 mean exact equivalence on the tested subspace.
    """

    wires: tuple[int, ...]
    u_bar_a: tuple[LocalOperator, ...]
    u_bar_b: tuple[LocalOperator, ...]
    s_basis: SubspaceBasis
    state_residual: float
    projector_residuals: Mapping[str, float]
    gate_residual: float | None = None
    factorization_residual: float | None = None
    w_matrix: np.ndarray | None = None

    @property
    def s_rank(self) -> int:
        return self.s_basis.rank

    def to_json(self) -> dict:
        out = {
            "wires": list(self.wires),
            "s_rank": self.s_rank,
            "state_residual": self.state_residual,
            "projector_residuals": dict(sorted(self.projector_residuals.items())),
            "u_bar_a": [matrix_to_json(op.matrix) for op in self.u_bar_a],
            "u_bar_b": [matrix_to_json(op.matrix) for op in self.u_bar_b],
        }
        if self.gate_residual is not None:
            out["gate_residual"] = self.gate_residual
        if self.factorization_residual is not None:
            out["factorization_residual"] = self.factorization_residual
        if self.w_matrix is not None:
            out["w_matrix"] = matrix_to_json(self.w_matrix)
        return out


def _span_generators(
    device: DeviceModel, source: PhysState, wires: tuple[int, ...]
) -> list[PhysState]:
    """Products of per-wire projectors applied to the source.

    Per wire and side the angle set reduces to Id and the base angles
    {0, pi/8, pi/4}: the three upper-half projectors are Id minus a base one.
    A base projector whose matrix lies in the span of Id and the ones kept
    before it is dropped too; on a real qubit frame that is P(pi/4), as real
    symmetric 2x2 matrices span only three dimensions. The slots act on
    distinct subsystems, so the products of the kept operators span the same
    S: from 9^k generators on real qubit frames, and from up to 16^k on
    others. Generators come in product order over the (wire, side) slots.
    """
    slots = [
        (side, w, (None,) + _independent_angles(device, side, w))
        for w in wires
        for side in ("A", "B")
    ]
    return [st for block in stx.branch_states(device, source, slots) for st in block.states()]


def _independent_angles(device: DeviceModel, side: str, wire: int) -> tuple[float, ...]:
    """The base angles whose projectors are independent of Id and the ones
    before them, in BASE_ANGLES order."""
    mats = [device.frame_operator(side, wire, a).matrix for a in BASE_ANGLES]
    kept = [np.eye(len(mats[0])).reshape(-1)]
    angles = []
    for a, m in zip(BASE_ANGLES, mats):
        rows = kept + [m.reshape(-1)]
        if np.linalg.matrix_rank(np.array(rows), tol=hb.RANK_TOL) == len(rows):
            kept = rows
            angles.append(a)
    return tuple(angles)


def _extended_zero(source: PhysState, k: int) -> PhysState:
    """Source with 2k fresh logical qubits (A then B block) prepended in |0>."""
    dims = SubsystemDims((2,) * (2 * k)) + source.layout
    vec = np.zeros(dims.total, dtype=np.complex128)
    vec[: source.layout.total] = source.vec
    return PhysState._wrap(dims, vec)


def _placed_swaps(
    bare_a: Sequence[LocalOperator], bare_b: Sequence[LocalOperator], slots: Sequence[int]
) -> tuple[LocalOperator, ...]:
    """Per-wire swap unitaries re-targeted into an extended layout.

    Extended slots: [A_c per wire, B_c per wire, register...], where
    slots[i] and slots[k + i] are wire i's A and B subsystems in the register.
    """
    k = len(bare_a)
    placed = []
    for i, (ua, ub) in enumerate(zip(bare_a, bare_b)):
        placed.append(LocalOperator.unitary((i, 2 * k + slots[i]), ua.matrix))
        placed.append(LocalOperator.unitary((k + i, 2 * k + slots[k + i]), ub.matrix))
    return tuple(placed)


def _apply_all(ops: Sequence[LocalOperator], st: PhysState) -> PhysState:
    for op in ops:
        st = hb.apply_operator(op, st)
    return st


def _phi_plus_vec(k: int) -> np.ndarray:
    d = 1 << k
    f = np.zeros(d * d, dtype=np.complex128)
    f[(d + 1) * np.arange(d)] = 1.0 / math.sqrt(d)
    return f


def certify_state_equivalence(
    device: DeviceModel,
    source: PhysState | None = None,
    wires: Sequence[int] = (0,),
) -> EquivalenceReport:
    """Check that the source carries fresh pairs on the given wires.

    Builds the swap unitaries from the device's frames, moves the alleged
    pair content into fresh logical qubits, and reports how far the result
    is from a perfect pair tensored with junk; the minimizing junk state is
    the exact partial inner product, no search involved. Projector residuals
    compare each base frame angle against the pulled-back logical projector
    on S; each complement angle a + pi/2 reports an upper bound, its base
    residual plus how far the swap is from an isometry on the |0> input.
    Raises ValidationError unless the wires are one or more distinct ones.
    """
    wires = tuple(int(w) for w in wires)
    if not wires or len(set(wires)) != len(wires):
        raise ValidationError(f"need one or more distinct wires, got {wires}")
    if source is None:
        source = device.source
    k = len(wires)
    lay = device.layout

    # the generators are not kept: they are as large as the basis
    s_basis = hb.orthonormalize(_span_generators(device, source, wires))
    stacked = s_basis.stacked

    sides = [lay.side_index(side, w) for side in "AB" for w in wires]
    bare_a = tuple(build_swap_extraction(device, "A", w) for w in wires)
    bare_b = tuple(build_swap_extraction(device, "B", w) for w in wires)
    v = _apply_all(_placed_swaps(bare_a, bare_b, sides), _extended_zero(source, k))

    d_log = 1 << k
    f = _phi_plus_vec(k)
    block = v.vec.reshape(d_log * d_log, -1)
    chi = f.conj() @ block
    # the remainder norm directly; sqrt(1 - overlap) would lose half the digits
    state_residual = float(np.linalg.norm(block - np.outer(f, chi)))

    proj_residuals: dict[str, float] = {}
    for i, w in enumerate(wires):
        for side, bare in (("A", bare_a[i]), ("B", bare_b[i])):
            d = lay.side_dim(side, w)
            # the swap's |0>-logical columns, split by the logical output row
            u0 = bare.matrix[:d, :d]
            u1 = bare.matrix[d:, :d]
            g00 = u0.conj().T @ u0
            g01 = u0.conj().T @ u1
            cross = g01 + g01.conj().T
            g11 = u1.conj().T @ u1
            # P(a + pi/2) = Id - P(a) and m(a) + m(a + pi/2) = g00 + g11, so
            # the complement's difference is Id - g00 - g11 minus the base
            # one: its residual is at most the base residual plus this
            # defect, which is rounding when U|0> is an isometry
            defect = float(np.linalg.norm(np.eye(d) - g00 - g11, 2))
            frame = device.frames[(side, w)]
            target = (lay.side_index(side, w),)
            for a in BASE_ANGLES:
                # <0|U^dag (|a><a| x Id) U|0> on the wire
                c, s = hb.angle_state(a).vec
                m = (c * c) * g00 + (c * s) * cross + (s * s) * g11
                res = hb.op_norm_on(stacked, LocalOperator(target, frame.projector(a) - m))
                proj_residuals[f"{side}{w}:{angle_name(a)}"] = res
                proj_residuals[f"{side}{w}:{angle_name(a + math.pi / 2)}"] = res + defect

    return EquivalenceReport(
        wires, bare_a, bare_b, s_basis, state_residual, proj_residuals
    )


def certify_gate_equivalence(
    device: DeviceModel, circuit: IdealCircuit, j: int
) -> EquivalenceReport:
    """Certify step j of the circuit against its ideal gate.

    The pre-gate state (both sides stepped through j-1) supplies S and the
    state residuals; the candidate co-action W on the logical B block comes
    from block-averaging the conjugated device gate and snapping to the
    nearest unitary. The gate residual is the restricted distance between
    the device gate and the pulled-back ideal action.

    The swaps, the ideal gate T and W touch only the 2k logical qubits and
    the support: the gate's A and B wire subsystems (plus any other one the
    device's gate acts on). So X = U|0>, Z = T^dag U|0> G and the pulled-back
    action <0|U^dag W T U|0> are built once, as matrices on the support, and
    S enters through its reduced state rho_S there and its stacked basis.
    """
    if not 1 <= j <= circuit.t:
        raise ValidationError(f"gate index {j} outside 1..{circuit.t}")
    gate = circuit.gates[j - 1]
    wires = gate.wires
    k = len(wires)
    lay = device.layout

    prep = [(side, g.label) for g in circuit.gates[: j - 1] for side in ("A", "B")]
    base = certify_state_equivalence(device, stx.prepare(device, prep), wires)
    stacked = base.s_basis.stacked

    gate_op = device.gate_operator("A", gate.label)
    sides = [lay.side_index(side, w) for side in "AB" for w in wires]
    support = tuple(sides) + tuple(t for t in gate_op.targets if t not in sides)
    dims = tuple(stacked.layout.dims[t] for t in support)
    d_sup = math.prod(dims)
    d_log = 1 << k
    # every basis state of the support at once, its index in a last subsystem
    eye = PhysState._wrap(
        SubsystemDims(dims + (d_sup,)), np.eye(d_sup, dtype=np.complex128).reshape(-1)
    )
    g_sup = LocalOperator.unitary([support.index(t) for t in gate_op.targets], gate_op.matrix)
    t_log = LocalOperator.unitary(range(k), gate.matrix)
    t_log_dag = LocalOperator.unitary(range(k), gate.matrix.conj().T)

    placed = _placed_swaps(base.u_bar_a, base.u_bar_b, range(2 * k))
    g_eye = hb.apply_operator(g_sup, eye)
    x = _apply_all(placed, _extended_zero(eye, k))
    z = _apply_all(placed, _extended_zero(g_eye, k))
    z = hb.apply_operator(t_log_dag, z)
    xm = x.vec.reshape(-1, d_sup)
    zm = z.vec.reshape(-1, d_sup)

    # w'_pq = sum over S of <x_s| E_pq |z_s> = tr(X^dag E_pq Z rho_S)
    rho = hb.partial_trace(stacked, support)
    zr = (zm @ rho).reshape(d_log, d_log, -1)
    w_prime = np.einsum("ipa,iqa->pq", zr, xm.conj().reshape(d_log, d_log, -1))
    w = polar_unitary(w_prime)

    wx = hb.apply_operator(LocalOperator.unitary(range(k, 2 * k), w), x)
    # the fit max_s ||K s||, K = Z - W X: K = QR, so ||K s|| = ||R s|| with
    # no digits lost to the square root of <s|K^dag K|s>; R S is as large as
    # the basis, so it is not kept for the gate residual below
    r = np.linalg.qr(zm - wx.vec.reshape(-1, d_sup), mode="r")
    rs = hb.apply_operator(LocalOperator(support, r), stacked).vec.reshape(-1, base.s_rank)
    # column norms from views of the real and imaginary parts: no conjugate
    # copy or product of the whole matrix
    re, im = rs.real, rs.imag
    fact = math.sqrt((np.einsum("ij,ij->j", re, re) + np.einsum("ij,ij->j", im, im)).max())
    del rs, re, im

    twx = hb.apply_operator(t_log, wx).vec.reshape(-1, d_sup)
    # the device gate on the support is g_eye's matrix; both sides as one operator
    diff = g_eye.vec.reshape(d_sup, d_sup) - xm.conj().T @ twx
    gate_residual = hb.op_norm_on(stacked, LocalOperator(support, diff))
    return replace(
        base,
        gate_residual=gate_residual,
        factorization_residual=fact,
        w_matrix=w,
    )


# ---------------------------------------------------------------------------
# Tomography and commutant factorization

def tomo_settings(n: int) -> tuple[tuple[float, ...], ...]:
    """All 3^n angle tuples a reconstruction needs."""
    return tuple(itertools.product(TOMO_ANGLES, repeat=n))


def _canonical_tomo_key(key: Sequence[float], n: int) -> tuple[float, ...]:
    if len(key) != n:
        raise ValidationError(f"angle tuple {key} does not have length {n}")
    out = []
    for a in key:
        i = angle_index(a)
        if i is None or TEST_ANGLES[i] not in TOMO_ANGLES:
            raise ValidationError(f"angle {a} is not one of the three tomography angles")
        out.append(TEST_ANGLES[i])
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _word_stack(n: int) -> np.ndarray:
    """Flattened I/X/Z words, orthonormal under the trace inner product."""
    rows = []
    for word in itertools.product("IXZ", repeat=n):
        mat = np.array([[1.0]], dtype=np.complex128)
        for letter in word:
            mat = np.kron(mat, _PAULI[letter])
        rows.append(mat.reshape(-1) / math.sqrt(1 << n))
    return np.array(rows)

# a rank-1 fit that misses the observed words by more than this is not
# explaining the statistics; fall back to the plain inversion
_PURE_FIT_TOL = 0.05
_REFINE_ITERS = 600


def _nearest_real_pure(rho0: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Rank-1 state matching rho0 on the observable words, by alternating projection.

    Returns the projector and how far its word coordinates sit from the
    observed ones; the caller decides whether the fit is good enough.
    """
    dim = 1 << n
    stack = _word_stack(n)
    observed = stack.conj() @ rho0.reshape(-1)
    rho = rho0
    for _ in range(_REFINE_ITERS):
        _, vecs = np.linalg.eigh(rho)
        v = vecs[:, -1]
        flat = np.outer(v, v.conj()).reshape(-1)
        cand = (flat + stack.T @ (observed - stack.conj() @ flat)).reshape(dim, dim)
        if np.linalg.norm(cand - rho) < 1e-15:
            rho = cand
            break
        rho = cand
    _, vecs = np.linalg.eigh(rho)
    v = vecs[:, -1]
    pure = np.outer(v, v.conj())
    resid = float(np.linalg.norm(stack.conj() @ pure.reshape(-1) - observed))
    return pure, resid


def tomo_reconstruct(stats: Mapping[Sequence[float], float], n: int) -> np.ndarray:
    """Density estimate from the 3^n angle-projector probabilities.

    Each I/X/Z Pauli word is an exact linear combination of the projector
    products. The words containing Y are unobservable at these angles;
    for n >= 2 their coefficients are completed by snapping to the rank-1
    state consistent with the observed words, which is exact whenever the
    target is a real pure state (positivity pins the missing words). When
    no rank-1 state explains the statistics, the unobservable words are
    left at zero.
    """
    if not 1 <= n <= 3:
        raise ValidationError(f"reconstruction supports 1..3 slots, got {n}")
    table = {}
    for key, p in stats.items():
        table[_canonical_tomo_key(key, n)] = float(p)
    need = tomo_settings(n)
    missing = [k for k in need if k not in table]
    if missing:
        raise ValidationError(f"missing {len(missing)} settings, first {missing[0]}")

    # the trace of each word, in _word_stack(n) order, is its row of the
    # n-fold Kronecker power of the weights times the probabilities in
    # tomo_settings(n) order; rho is the sum of trace / 2^n times each word.
    # Both sums add one term at a time, each over all words at once: a
    # matmul sums in its own order, which moves the last bits of rho
    weights = functools.reduce(np.kron, [_PAULI_WEIGHTS] * n)
    coeffs = sum(table[key] * column for key, column in zip(need, weights.T))
    dim = 1 << n
    rho = sum(c * word for c, word in zip(coeffs / math.sqrt(dim), _word_stack(n)))
    rho = rho.reshape(dim, dim)
    if n == 1:
        return rho
    pure, resid = _nearest_real_pure(rho, n)
    if resid <= _PURE_FIT_TOL:
        return pure
    return rho


def commutant_factor(u: np.ndarray, n: int) -> tuple[np.ndarray | None, float]:
    """Best factorization U ~ Id_{2^n} x W; (None, 2.0) when the average is singular.

    W is the polar-nearest unitary to the diagonal block sum; the residual
    is the spectral distance ||U - Id x W||.
    """
    u = np.asarray(u, dtype=np.complex128)
    h1 = 1 << n
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] % h1:
        raise ValidationError(
            f"need a square matrix with dimension divisible by {h1}, got {u.shape}"
        )
    h2 = u.shape[0] // h1
    d = hb.max_diff(u @ u.conj().T, np.eye(u.shape[0]))
    if d > 1e-10:
        raise ValidationError(
            f"commutant factorization needs a unitary input ({hb.diff_text(d)})"
        )
    blocks = u.reshape(h1, h2, h1, h2)
    w_prime = np.einsum("iaib->ab", blocks)
    sv = np.linalg.svd(w_prime, compute_uv=False)
    if sv.min() <= 1e-9:
        return None, 2.0
    w = polar_unitary(w_prime)
    residual = float(np.linalg.norm(u - np.kron(np.eye(h1), w), 2))
    return w, residual
