"""Outcome statistics: exact branch probabilities, seeded sampling, sample sizing.

An op list names what the device is asked to do: ordered one-sided gate
applications (side, label), then one projector branch (side, wire, angle)
per measured wire. This module turns op lists into probabilities, either
exactly or through reproducible Monte-Carlo estimates sized by a Hoeffding
bound. `walk` is the package's one path from a device to a collapsed state
and its branch probability: it evaluates a sequence of op lists, applies
each prefix they share once, applies the sibling branches of one parent
state as one stack, and keeps only the states a later list restarts from;
`prepare`, `collapse` and `probabilities` are built on it.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import hilbert as hb
from .devices import DeviceModel
from .errors import ValidationError

__all__ = [
    "collapse",
    "estimates",
    "prepare",
    "probabilities",
    "record_rng",
    "sample_prob",
    "sample_size",
    "walk",
]


def walk(
    device: DeviceModel, state: hb.PhysState, op_lists: Sequence[Sequence[tuple]]
) -> Iterator[hb.PhysState]:
    """The state after each op list, applied in order to state.

    An op is a one-sided gate (side, label) or a branch projector
    (side, wire, angle). Each list starts from the state of the longest
    prefix it shares with the list before it, so a shared prefix is applied
    once. Siblings, consecutive lists that differ only in a last branch on
    one (side, wire), go to apply_operator as one stack of projectors on
    their shared parent state. Of the states on the path, only those that a
    later list restarts from are kept. Every state has the bits of its list
    applied alone, one operator at a time: the same operators act on the
    same inputs in the same order, and a stacked row is computed as its
    operator alone would be.
    """
    lists = [tuple(ops) for ops in op_lists]
    n = len(lists)
    # restart[j]: the length of the prefix list j shares with list j - 1
    restart = [0] * n
    for j in range(1, n):
        before, ops = lists[j - 1], lists[j]
        k, common = 0, min(len(before), len(ops))
        while k < common and before[k] == ops[k]:
            k += 1
        restart[j] = k
    # shallower[j]: the first list after j that restarts below restart[j]
    shallower = [n] * n
    later: list[int] = []
    for j in range(n - 1, 0, -1):
        while later and restart[later[-1]] >= restart[j]:
            later.pop()
        if later:
            shallower[j] = later[-1]
        later.append(j)

    def needed(j: int) -> set[int]:
        # the depths that lists j, j + 1, ... restart from: the running
        # minima of restart[j:], as a shallower restart drops deeper states
        depths = set()
        while j < n:
            depths.add(restart[j])
            j = shallower[j]
        return depths

    operators: dict = {}

    def operator(op: tuple) -> hb.LocalOperator:
        if op not in operators:
            build = device.gate_operator if len(op) == 2 else device.frame_operator
            operators[op] = build(*op)
        return operators[op]

    path = {0: state}  # depth -> state after that many ops of the current list
    i = 0
    while i < n:
        ops, depth = lists[i], restart[i]
        end, stem = i + 1, len(ops)
        if depth < stem and len(ops[-1]) == 3:
            stem -= 1  # a branch; its siblings share the stem before it
            while (
                end < n
                and restart[end] == stem
                and len(lists[end]) == len(ops)
                and len(lists[end][-1]) == 3
                and lists[end][-1][:2] == ops[-1][:2]
            ):
                end += 1
        need = needed(end)
        states = (path[depth],)
        path = {d: s for d, s in path.items() if d in need}
        for depth in range(depth, stem):
            states = (hb.apply_operator(operator(ops[depth]), states[0]),)
            if depth + 1 in need:
                path[depth + 1] = states[0]
        if stem < len(ops):
            branches = [operator(other[-1]) for other in lists[i:end]]
            states = hb.apply_operator(branches, states[0])
            if len(ops) in need:
                path[len(ops)] = states[-1]
        yield from states
        i = end


def probabilities(
    device: DeviceModel, state: hb.PhysState, op_lists: Sequence[Sequence[tuple]]
) -> list[float]:
    """Squared norm of the state after each op list (see walk)."""
    # map lets go of each state before walk builds the next stack of
    # siblings, so a stack is freed before the next one is allocated
    return list(map(_squared_norm, walk(device, state, op_lists)))


def _squared_norm(st: hb.PhysState) -> float:
    return hb.norm(st) ** 2


def prepare(device: DeviceModel, prep: Iterable[tuple[str, str]]) -> hb.PhysState:
    """The device's source after its one-sided gates (side, label), in order."""
    return next(walk(device, device.source, (prep,)))


def collapse(
    device: DeviceModel,
    state: hb.PhysState,
    branches: Iterable[tuple[str, int, float]],
) -> hb.PhysState:
    """Unnormalized state after the device's branch projectors, in order.

    Each branch is (side, wire, angle); its squared norm is the probability
    that every listed branch occurs.
    """
    return next(walk(device, state, (branches,)))


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
