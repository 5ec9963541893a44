"""Constructive extraction: swap unitaries, equivalence residuals, tomography.

From nothing but the device's own projectors this module builds the NOT
gate, the ancilla-swap unitaries that pull the hidden qubit into a fresh
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
# per-slot weights turning angle-projector probabilities into Pauli traces
_PAULI_WEIGHTS = {
    "I": (1.0, 0.0, 1.0),
    "X": (-1.0, 2.0, -1.0),
    "Z": (1.0, 0.0, -1.0),
}

__all__ = [
    "EquivalenceReport",
    "TOMO_ANGLES",
    "build_not",
    "build_swap_extraction",
    "certify_gate_equivalence",
    "certify_state_equivalence",
    "check_basis_geometry",
    "check_collapse_symmetry",
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


def build_not(device: DeviceModel, side: str, wire: int) -> LocalOperator:
    """N = 2 P^{pi/4} - Id on the wire: the device's own NOT, unitary for free."""
    p = device.frames[(side, wire)].projector(math.pi / 4)
    n = 2.0 * p - np.eye(p.shape[0])
    return LocalOperator.unitary((device.layout.side_index(side, wire),), n)


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
    0 mean exact equivalence on the tested subspace; the basis carries the
    singular-value profile when noise bends S away from its ideal rank.
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

    @property
    def max_projector_residual(self) -> float:
        return max(self.projector_residuals.values(), default=0.0)

    def to_json(self) -> dict:
        out = {
            "wires": list(self.wires),
            "s_rank": self.s_rank,
            "s_singular_values": [float(s) for s in self.s_basis.singular_values],
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

    Per wire and side the angle set reduces to {0, pi/8, pi/4, Id}: the three
    upper-half projectors are Id minus a base one, so the spanned subspace is
    unchanged while the generator count drops from 36^k to 16^k. Generators
    come in itertools.product order over the (wire, side) slots, and each
    shared prefix of projectors is applied once.
    """
    gens = [source]
    for w in wires:
        for side in ("A", "B"):
            gens = [
                g if a is None else stx.collapse(device, g, ((side, w, a),))
                for g in gens
                for a in (None,) + BASE_ANGLES
            ]
    return gens


def _extended_zero(source: PhysState, k: int) -> PhysState:
    """Source with 2k fresh logical qubits (A then B block) prepended in |0>."""
    dims = SubsystemDims((2,) * (2 * k)) + source.layout
    vec = np.zeros(dims.total, dtype=np.complex128)
    vec[: source.layout.total] = source.vec
    return PhysState._wrap(dims, vec)


def _swap_ops(
    device: DeviceModel, wires: tuple[int, ...]
) -> tuple[tuple[LocalOperator, ...], tuple[LocalOperator, ...], tuple[LocalOperator, ...]]:
    """Per-wire swap unitaries re-targeted into the extended layout.

    Returns (bare A ops, bare B ops, all ops with extended-layout targets);
    extended slots: [A_c per wire, B_c per wire, device...].
    """
    k = len(wires)
    lay = device.layout
    bare_a, bare_b, placed = [], [], []
    for i, w in enumerate(wires):
        ua = build_swap_extraction(device, "A", w)
        ub = build_swap_extraction(device, "B", w)
        bare_a.append(ua)
        bare_b.append(ub)
        placed.append(LocalOperator.unitary((i, 2 * k + lay.a_index(w)), ua.matrix))
        placed.append(LocalOperator.unitary((k + i, 2 * k + lay.b_index(w)), ub.matrix))
    return tuple(bare_a), tuple(bare_b), tuple(placed)


def _apply_all(ops: Sequence[LocalOperator], st: PhysState) -> PhysState:
    for op in ops:
        st = hb.apply_operator(op, st)
    return st


def _apply_all_adjoint(ops: Sequence[LocalOperator], st: PhysState) -> PhysState:
    for op in reversed(ops):
        st = hb.apply_operator(
            LocalOperator(op.targets, op.matrix.conj().T, "unitary"), st
        )
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
    compare each frame angle against the pulled-back logical projector on S.
    """
    wires = tuple(int(w) for w in wires)
    if source is None:
        source = device.source
    k = len(wires)
    lay = device.layout

    gens = _span_generators(device, source, wires)
    s_basis = hb.orthonormalize(gens)

    bare_a, bare_b, placed = _swap_ops(device, wires)
    v = _apply_all(placed, _extended_zero(source, k))

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
            u = bare.matrix
            frame = device.frames[(side, w)]
            target = (lay.side_index(side, w),)
            for a in TEST_ANGLES:
                av = hb.angle_state(a).vec
                logical = np.kron(np.outer(av, av.conj()), np.eye(d))
                # the <0|.|0> block on the logical slot, which comes first
                m = (u.conj().T @ logical @ u)[:d, :d]
                res = hb.op_norm_on(
                    s_basis,
                    LocalOperator(target, frame.projector(a), "projector"),
                    LocalOperator(target, m, "general"),
                )
                key = f"{side}{w}:{angle_name(a)}"
                proj_residuals[key] = float(res)

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
    """
    if not 1 <= j <= circuit.t:
        raise ValidationError(f"gate index {j} outside 1..{circuit.t}")
    gate = circuit.gates[j - 1]
    wires = gate.wires
    k = len(wires)
    lay = device.layout

    st = device.source
    for g in circuit.gates[: j - 1]:
        st = hb.apply_operator(device.gate_operator("A", g.label), st)
        st = hb.apply_operator(device.gate_operator("B", g.label), st)
    base = certify_state_equivalence(device, st, wires)

    _, _, placed = _swap_ops(device, wires)
    t_log = LocalOperator.unitary(tuple(range(k)), gate.matrix)
    t_log_dag = LocalOperator.unitary(tuple(range(k)), gate.matrix.conj().T)
    gate_op = device.gate_operator("A", gate.label)
    d_log = 1 << k

    xs, zs = [], []
    for s in base.s_basis.states:
        ext = _extended_zero(s, k)
        xs.append(_apply_all(placed, ext).vec.reshape(d_log, d_log, -1))
        moved = hb.apply_operator(gate_op, s)
        z = _apply_all(placed, _extended_zero(moved, k))
        zs.append(hb.apply_operator(t_log_dag, z).vec.reshape(d_log, d_log, -1))

    w_prime = np.zeros((d_log, d_log), dtype=np.complex128)
    for xk, zk in zip(xs, zs):
        w_prime += np.einsum("ipd,iqd->pq", zk, xk.conj())
    w = polar_unitary(w_prime)

    w_log = LocalOperator.unitary(tuple(range(k, 2 * k)), w)
    fact = 0.0
    for xk, zk in zip(xs, zs):
        flat = xk.reshape(-1)
        dims = SubsystemDims((d_log, d_log, xk.shape[2]))
        wx = hb.apply_operator(
            LocalOperator.unitary((1,), w), PhysState._wrap(dims, flat)
        )
        fact = max(fact, float(np.linalg.norm(zk.reshape(-1) - wx.vec)))

    def composite(x: PhysState) -> PhysState:
        ext = _extended_zero(x, k)
        ext = _apply_all(placed, ext)
        ext = hb.apply_operator(t_log, ext)
        ext = hb.apply_operator(w_log, ext)
        ext = _apply_all_adjoint(placed, ext)
        return PhysState._wrap(x.layout, ext.vec[: x.layout.total])

    gate_residual = float(hb.op_norm_on(base.s_basis, gate_op, composite))
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

    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for word in itertools.product("IXZ", repeat=n):
        coeff = 0.0
        for key in need:
            weight = 1.0
            for letter, angle in zip(word, key):
                weight *= _PAULI_WEIGHTS[letter][TOMO_ANGLES.index(angle)]
            if weight:
                coeff += weight * table[key]
        mat = np.array([[1.0]], dtype=np.complex128)
        for letter in word:
            mat = np.kron(mat, _PAULI[letter])
        rho += (coeff / dim) * mat
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


# ---------------------------------------------------------------------------
# Diagnostics

def check_collapse_symmetry(device: DeviceModel, wire: int = 0) -> dict:
    """Compare the two sides' collapses of the source, angle by angle.

    side_diff is ||P_A^a psi - P_B^a psi||; joint_diff is
    ||P_A^a psi - P_A^a P_B^a psi||. Both vanish on an honest source.
    """
    per_angle = {}
    worst = 0.0
    for a in TEST_ANGLES:
        pa = stx.collapse(device, device.source, (("A", wire, a),))
        pb = stx.collapse(device, device.source, (("B", wire, a),))
        joint = stx.collapse(device, pa, (("B", wire, a),))
        side = hb.dist(pa, pb)
        per_angle[angle_name(a)] = {
            "side_diff": float(side),
            "joint_diff": float(hb.dist(pa, joint)),
        }
        worst = max(worst, side)
    return {"max_side_diff": float(worst), "per_angle": per_angle}


@dataclass(frozen=True)
class BasisGeometryReport:
    """Lengths and angles of the four collapse vectors, plus a change matrix."""

    lengths: tuple[float, ...]
    ideal_lengths: tuple[float, ...]
    max_cross_overlap: float
    change_matrix: np.ndarray | None = None
    ideal_change_matrix: np.ndarray | None = None
    max_change_error: float | None = None

    @property
    def max_length_error(self) -> float:
        return max(abs(a - b) for a, b in zip(self.lengths, self.ideal_lengths))


def _collapse_family(
    device: DeviceModel, wire: int, alpha: float, beta: float
) -> list[PhysState]:
    out = []
    for a in (alpha, alpha + math.pi / 2):
        for b in (beta, beta + math.pi / 2):
            branches = (("A", wire, a), ("B", wire, b))
            out.append(stx.collapse(device, device.source, branches))
    return out


def _ideal_lengths(alpha: float, beta: float) -> tuple[float, ...]:
    out = []
    for a in (alpha, alpha + math.pi / 2):
        for b in (beta, beta + math.pi / 2):
            out.append(abs(math.cos(a - b)) / math.sqrt(2))
    return tuple(out)


def check_basis_geometry(
    device: DeviceModel,
    wire: int = 0,
    alpha: float = 0.0,
    beta: float = math.pi / 8,
    alpha2: float | None = None,
    beta2: float | None = None,
) -> BasisGeometryReport:
    """Orthogonality and lengths of the four (a, b)-collapse vectors.

    With a second angle pair the report also compares the basis-change
    matrix between the two families against the ideal one.
    """
    if abs(alpha - beta) < 1e-12:
        raise ValidationError("basis geometry needs two distinct base angles")
    fam = _collapse_family(device, wire, alpha, beta)
    lengths = tuple(float(hb.norm(v)) for v in fam)
    if min(lengths) <= 1e-12:
        raise ValidationError("zero-length collapse vector, geometry undefined")
    unit = [v.vec / n for v, n in zip(fam, lengths)]
    cross = 0.0
    for i in range(4):
        for jj in range(i + 1, 4):
            cross = max(cross, abs(np.vdot(unit[i], unit[jj])))

    change = ideal_change = None
    max_err = None
    if alpha2 is not None and beta2 is not None:
        fam2 = _collapse_family(device, wire, alpha2, beta2)
        lengths2 = [float(hb.norm(v)) for v in fam2]
        if min(lengths2) <= 1e-12:
            raise ValidationError("zero-length collapse vector, geometry undefined")
        unit2 = [v.vec / n for v, n in zip(fam2, lengths2)]
        change = np.array([[np.vdot(u2, u1) for u1 in unit] for u2 in unit2])
        ideal_change = _ideal_change(alpha, beta, alpha2, beta2)
        max_err = float(np.abs(change - ideal_change).max())
    return BasisGeometryReport(
        lengths,
        _ideal_lengths(alpha, beta),
        float(cross),
        change,
        ideal_change,
        max_err,
    )


def _ideal_change(alpha: float, beta: float, alpha2: float, beta2: float) -> np.ndarray:
    phi = hb.bell_state(1)
    lay = phi.layout

    def family(al, be):
        out = []
        for a in (al, al + math.pi / 2):
            for b in (be, be + math.pi / 2):
                st = hb.apply_operator(
                    LocalOperator((0,), hb.projector_angle(a).matrix, "projector"), phi
                )
                st = hb.apply_operator(
                    LocalOperator((1,), hb.projector_angle(b).matrix, "projector"), st
                )
                out.append(st.vec / hb.norm(st))
        return out

    f1 = family(alpha, beta)
    f2 = family(alpha2, beta2)
    return np.array([[np.vdot(u2, u1) for u1 in f1] for u2 in f2])
