"""Outcome statistics: exact branch probabilities, seeded sampling, sample sizing.

A statistic is the probability of a product of branch projectors, one per
measured (side, wire), on a prepared state. A slot (side, wire, angles)
names one measured side and wire and the angles it is read at; an angle of
None applies no projector there. `probabilities` is the package's one path
from a device to a branch probability. It takes one state or a block of
them, so that the protocol evaluates every prepared state of an experiment
shape at once. Up to _REDUCED_AMPS amplitudes it takes the squared norms of
the product tree `branch_states` builds, which evaluates every product of a
list of slots at once, one slot per kernel call over a whole block of
parent states; above that it contracts each state's reduced state for the
slots. `prepare` and `collapse` apply gates and projectors one at a time.
Sampling draws reproducible Monte-Carlo estimates, sized by a Hoeffding
bound.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import hilbert as hb
from .devices import DeviceModel
from .errors import ValidationError

__all__ = [
    "branch_states",
    "collapse",
    "estimates",
    "prepare",
    "probabilities",
    "record_rng",
    "sample_prob",
    "sample_size",
]

Slot = tuple[str, int, Sequence["float | None"]]

# amplitudes a block may hold after a kernel call: while a level's block of
# children stays within it, all its parents are applied in one call; past
# it, parents go in chunks whose children fit, one at a time where a single
# parent's do not, and then, above the last slot, so do their children
_BLOCK_AMPS = 1 << 12

# amplitudes above which probabilities contracts the slots' reduced state
# rather than build every branch state: at or below it the product tree is
# as fast, and it writes the bits every pinned sampled and certify report
# holds
_REDUCED_AMPS = 1 << 8


def branch_states(
    device: DeviceModel, state: hb.PhysState, slots: Sequence[Slot]
) -> Iterator[hb.StateBlock]:
    """The state after each product of the slots' branches, as consecutive
    blocks of rows in product order: the first slot varies slowest.

    Every row has the bits of its branch projectors applied to state alone,
    one at a time in slot order, and each projector is built once. One slot
    is applied to all the parents of a level in one kernel call while their
    children fit in _BLOCK_AMPS amplitudes, else to chunks of parents whose
    children do. Where one parent's children do not fit, the slots are taken
    depth first, holding one state per slot and one parent's last children.
    """
    return _leaves(_levels(device, slots), hb.StateBlock._wrap(state.layout, state.vec[None]))


def _levels(device: DeviceModel, slots: Sequence[Slot]) -> list[tuple]:
    """Each slot's branch operators, None where it applies no projector."""
    return [
        tuple(None if a is None else device.frame_operator(side, wire, a) for a in angles)
        for side, wire, angles in slots
    ]


def _leaves(levels: Sequence[tuple], block: hb.StateBlock) -> Iterator[hb.StateBlock]:
    """The rows below each parent of block, under levels of operators (None
    for no projector), in product order."""
    if not levels:
        yield block
        return
    level, rest = levels[0], levels[1:]
    m, total = block.rows.shape
    if m * len(level) * total <= _BLOCK_AMPS:
        yield from _leaves(rest, _children(level, block))
    elif m > 1:
        step = max(_BLOCK_AMPS // (len(level) * total), 1)
        for i in range(0, m, step):
            yield from _leaves(levels, hb.StateBlock._wrap(block.layout, block.rows[i : i + step]))
    elif rest:
        for op in level:
            yield from _leaves(rest, block if op is None else hb.apply_operator(op, block))
    else:
        # one parent's last branches: each run of projectors as one stack,
        # and a None as the parent itself
        for none, run in itertools.groupby(level, lambda op: op is None):
            if none:
                yield from itertools.repeat(block, len(list(run)))
            else:
                yield hb.apply_operator(list(run), block)


def _children(level: tuple, block: hb.StateBlock) -> hb.StateBlock:
    """Every parent's children under one slot, parent-major; a None branch
    is its parent, copied."""
    ops = [op for op in level if op is not None]
    if ops and len(ops) == len(level):
        return hb.apply_operator(ops, block)
    m, total = block.rows.shape
    out = np.empty((m, len(level), total), dtype=np.complex128)
    out[:, [i for i, op in enumerate(level) if op is None]] = block.rows[:, None]
    if ops:
        applied = hb.apply_operator(ops, block).rows.reshape(m, len(ops), total)
        out[:, [i for i, op in enumerate(level) if op is not None]] = applied
    return hb.StateBlock._wrap(block.layout, out.reshape(m * len(level), total))


def probabilities(
    device: DeviceModel, states: hb.PhysState | hb.StateBlock, slots: Sequence[Slot]
) -> list[float]:
    """The probability of each product of the slots' branches on each state,
    parent-major, each state's in product order: the first slot varies
    slowest. A state is the block of its one row, as in hb.apply_operator.

    Up to _REDUCED_AMPS amplitudes each is the squared norm of its row of
    branch_states, hb.norm(row) ** 2 bit for bit: the same strided dot
    products, taken for a whole block in one batched matmul, then squared
    in Python. The kernel gives each row the bits of its operators applied
    to its own state alone, so a block's values are those of its states
    taken one at a time. Every pinned sampled and certify report holds those
    bits, and on states that small the product tree is as fast.

    Above it, where building every branch state costs more than reading
    them from a reduced state, the slots' subsystems of each state are
    traced out once, when they are distinct and their reduced state rho has
    no more entries than the state. Each value is then
    tr((Q_1 x ... x Q_k) rho) with Q = P^dagger P for each slot's operator P
    (the identity for None), which equals ||(P_1 x ... x P_k) psi||^2 for
    any operators on distinct subsystems, to rounding. Rounding can take an
    impossible outcome just below 0, so each value is clipped at 0.0.
    """
    levels = _levels(device, slots)
    if isinstance(states, hb.PhysState):
        states = hb.StateBlock._wrap(states.layout, states.vec[None])
    layout = states.layout
    out: list[float] = []
    if layout.total > _REDUCED_AMPS:
        targets = [device.layout.side_index(side, wire) for side, wire, _ in slots]
        dims = [layout.dims[t] for t in targets]
        if len(set(targets)) == len(targets) and math.prod(dims) ** 2 <= layout.total:
            for state in states.states():
                out += _reduced_probabilities(levels, dims, hb.partial_trace(state, targets))
            return out
    # map lets go of each block before the next one is built
    for norms in map(_squared_norms, _leaves(levels, states)):
        out += norms
    return out


def _reduced_probabilities(
    levels: Sequence[tuple], dims: Sequence[int], rho: np.ndarray
) -> list[float]:
    """tr((Q_1 x ... x Q_k) rho) for each product of the levels' Q = P^dagger P,
    in product order, clipped at 0.0; rho is over the levels' subsystems."""
    k = len(levels)
    r = rho.reshape(tuple(dims) * 2)
    # slots from the last: before slot j, r's axes are the outcomes of the
    # slots after it, then the kets and the bras of slots 0..j
    for j in reversed(range(k)):
        d = dims[j]
        mats = [np.eye(d) if op is None else op.matrix for op in levels[j]]
        p = np.array(mats, dtype=np.complex128).reshape(-1, d, d)
        q = p.conj().transpose(0, 2, 1) @ p
        done = k - 1 - j
        # tr(Q rho) sums Q[a, b] rho[b, a]: Q's column meets rho's ket
        r = np.tensordot(q, r, axes=([2, 1], [done + j, done + 2 * j + 1]))
    values = r.real.ravel()
    return np.where(values <= 0.0, 0.0, values).tolist()


def _squared_norms(block: hb.StateBlock) -> list[float]:
    re, im = block.rows.real, block.rows.imag
    s = np.matmul(re[:, None], re[:, :, None]) + np.matmul(im[:, None], im[:, :, None])
    # the square of hb.norm's root, as Python's float ** rounds it: NumPy's
    # power rounds some of these squares differently
    return [math.sqrt(x) ** 2 for x in s.ravel().tolist()]


def prepare(device: DeviceModel, prep: Iterable[tuple[str, str]]) -> hb.PhysState:
    """The device's source after its one-sided gates (side, label), in order."""
    state = device.source
    for side, label in prep:
        state = hb.apply_operator(device.gate_operator(side, label), state)
    return state


def collapse(
    device: DeviceModel,
    state: hb.PhysState,
    branches: Iterable[tuple[str, int, float]],
) -> hb.PhysState:
    """Unnormalized state after the device's branch projectors, in order.

    Each branch is (side, wire, angle); its squared norm is the probability
    that every listed branch occurs.
    """
    for side, wire, angle in branches:
        state = hb.apply_operator(device.frame_operator(side, wire, angle), state)
    return state


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx), fixed by its
# stream-compatibility policy, and PCG64's seeding step (pcg64.h)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(value: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first, as
    SeedSequence reads its entropy and spawn key."""
    value = operator.index(value)
    if value < 0:
        raise ValidationError(f"seed and stream index must be >= 0, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


# SeedSequence's 32-bit word operations, on Python ints or on uint64 arrays
# (one entry per stream). Every value stays below 2**32 between operations,
# so a product fits in 64 bits and the masks give the uint32 results.

def _hashmix(value, const: int):
    """hashmix(value) with hash constant const, and the constant it leaves."""
    value = value ^ const
    const = const * _MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    out = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return out ^ out >> 16


def _seed_words(seed: int, key: Sequence) -> list:
    """SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64), the
    words PCG64 is seeded from, for key the 32-bit words of k.

    The hash constants run through a fixed sequence, whatever the words, so
    a key word given as a uint64 array of many streams' words hashes every
    stream at once, and the seed's own words are hashed once, as ints."""
    entropy = _words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))  # a spawn key pads the seed
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:] + list(key):
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    halves = []
    const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        halves.append(value ^ value >> 16)
    return [halves[k] | halves[k + 1] << 32 for k in range(0, len(halves), 2)]


def _pcg64_state(s0: int, s1: int, s2: int, s3: int) -> tuple[int, int]:
    """PCG64's (state, inc) once seeded from the words (s0, s1, s2, s3): the
    first two are its initial state, the last two its sequence, high first."""
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    return ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128, inc


def _generator() -> tuple[np.random.PCG64, dict, np.random.Generator]:
    """A PCG64, its state dict to fill in, and a Generator drawing from it."""
    bits = np.random.PCG64(0)
    return bits, bits.state, np.random.Generator(bits)


def record_rng(seed: int, index: int) -> np.random.Generator:
    """Stream index of a run. Stream 0 draws y, stream 1 the computation
    histogram, and stream 2 + i record i, so the order of evaluation cannot
    matter."""
    if seed < 0 or index < 0:
        raise ValidationError(f"seed and stream index must be >= 0, got {seed}, {index}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def estimates(probs: Sequence[float], n: int, seed: int) -> list[float]:
    """sample_prob(p, n, record_rng(seed, 2 + i)) for the i-th p of probs.

    Every stream's seed words are derived in one pass over arrays, and one
    PCG64 is set to each stream's state in turn: the draws are those of the
    separate streams, without building each one."""
    # 2**32 records would not fit in memory, so each spawn key is one word
    keys = np.arange(2, 2 + len(probs), dtype=np.uint64)
    words = [w.tolist() for w in _seed_words(seed, [keys])]
    bits, state, gen = _generator()
    pcg = state["state"]
    out = []
    for p, s0, s1, s2, s3 in zip(probs, *words):
        pcg["state"], pcg["inc"] = _pcg64_state(s0, s1, s2, s3)
        bits.state = state
        out.append(sample_prob(p, n, gen))
    return out


def sample_prob(p: float, n: int, rng: np.random.Generator) -> float:
    """Fraction of n simulated runs landing in a branch of probability p.

    p is clipped to [0, 1] first, so rounding just outside it cannot fail.
    """
    if n < 1:
        raise ValidationError(f"sample count must be >= 1, got {n}")
    return float(rng.binomial(n, min(max(p, 0.0), 1.0))) / n


# the largest count Generator.binomial and multinomial take
_MAX_SAMPLES = int(np.iinfo(np.int64).max)


def sample_size(eps: float, gamma: float, m: int) -> int:
    """Two-sided Hoeffding count with a union bound over m statistics.

    A count that is not finite or exceeds _MAX_SAMPLES cannot be drawn, so
    eps or gamma that small is refused."""
    if not 0 < eps < 1:
        raise ValidationError(f"eps={eps} outside (0, 1)")
    if not 0 < gamma < 1:
        raise ValidationError(f"gamma={gamma} outside (0, 1)")
    if m < 1:
        raise ValidationError(f"m={m} must be >= 1")
    scale = 2 * eps * eps  # 0.0 once eps is below ~1e-162
    count = math.log(2 * m / gamma) / scale if scale else math.inf
    if not count <= _MAX_SAMPLES:
        raise ValidationError(
            f"eps={eps}, gamma={gamma} need {count:.3g} samples per statistic, "
            f"more than {_MAX_SAMPLES} can be drawn"
        )
    return math.ceil(count)
