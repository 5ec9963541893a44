"""Outcome statistics: exact branch probabilities, seeded sampling, sample sizing.

A Setting names what the device is asked to do (ordered one-sided gate
applications, then one projector branch per measured wire); this module turns
settings into probabilities, either exactly or through reproducible
Monte-Carlo estimates sized by a Hoeffding bound. `walk` is the package's
one path from a device to a collapsed state and its branch probability: it
evaluates a sequence of op lists, applies each prefix they share once,
applies the sibling branches of one parent state as one stack, and keeps
only the states a later list restarts from; `prepare`, `collapse` and
`probabilities` are built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import hilbert as hb
from .devices import TEST_ANGLES, DeviceModel, angle_index
from .errors import ValidationError

__all__ = [
    "Setting",
    "StatRecord",
    "collapse",
    "prepare",
    "probabilities",
    "record_rng",
    "sample_prob",
    "sample_size",
    "walk",
]


def _is_prep(prep) -> bool:
    """Whether prep is already a tuple of (str, str) tuples, so a Setting can
    keep it as given and every setting of an experiment shares one object."""
    return type(prep) is tuple and all(
        type(e) is tuple and len(e) == 2 and type(e[0]) is str and type(e[1]) is str
        for e in prep
    )


@dataclass(frozen=True)
class Setting:
    """One statistic: prep gates (side, label) in order, then measured branches.

    Each measured entry is (side, wire, angle, flip); flip 0 keeps the
    angle's own branch, flip 1 its complement at angle + pi/2.
    """

    prep: tuple[tuple[str, str], ...] = ()
    measured: tuple[tuple[str, int, float, int], ...] = ()

    def __post_init__(self):
        prep = self.prep
        if not _is_prep(prep):
            prep = tuple((str(s), str(l)) for s, l in prep)
        meas = []
        seen = set()
        for side, wire, angle, flip in self.measured:
            if side not in ("A", "B"):
                raise ValidationError(f"measured side {side!r} must be A or B")
            if (side, wire) in seen:
                raise ValidationError(f"wire ({side}, {wire}) measured twice")
            seen.add((side, wire))
            if flip not in (0, 1):
                raise ValidationError(f"flip must be 0 or 1, got {flip!r}")
            i = angle_index(angle)
            if i is None:
                raise ValidationError(f"angle {angle} is not in the tested set")
            meas.append((side, int(wire), TEST_ANGLES[i], int(flip)))
        object.__setattr__(self, "prep", prep)
        object.__setattr__(self, "measured", tuple(meas))

    def branch_angle(self, entry: tuple[str, int, float, int]) -> float:
        side, wire, angle, flip = entry
        return angle + flip * math.pi / 2

    @property
    def branches(self) -> tuple[tuple[str, int, float], ...]:
        """(side, wire, branch angle) per measured wire, in measurement order."""
        return tuple((e[0], e[1], self.branch_angle(e)) for e in self.measured)

    @property
    def ops(self) -> tuple[tuple, ...]:
        """The prep gates, then the branches: the setting's op list for walk."""
        return self.prep + self.branches

    def to_json(self, measured: dict | None = None) -> dict:
        """The setting as report JSON.

        "prep" is the setting's own tuple of tuples, and "measured" a tuple
        of dicts, not list copies, so that the report encoder writes a tuple
        shared by many settings once. Given a dict, equal measured lists share
        the tuple kept there. The bytes are those of lists; the dict equals a
        loaded report only after a json round trip, which turns the tuples
        into lists.
        """
        entries = None if measured is None else measured.get(self.measured)
        if entries is None:
            entries = tuple(
                {"side": s, "wire": w, "angle": a, "flip": f}
                for s, w, a, f in self.measured
            )
            if measured is not None:
                measured[self.measured] = entries
        return {"prep": self.prep, "measured": entries}


@dataclass(frozen=True)
class StatRecord:
    """One estimated statistic next to its ideal target."""

    setting: Setting
    ideal_p: float
    est_p: float
    n_samples: int = 0

    def __post_init__(self):
        for name, p in (("ideal_p", self.ideal_p), ("est_p", self.est_p)):
            if not -1e-12 <= p <= 1 + 1e-12:
                raise ValidationError(f"{name}={p} outside [0, 1]")

    @property
    def deviation(self) -> float:
        return abs(self.est_p - self.ideal_p)

    def to_json(self, measured: dict | None = None) -> dict:
        return {
            "setting": self.setting.to_json(measured),
            "ideal_p": self.ideal_p,
            "est_p": self.est_p,
            "n_samples": self.n_samples,
            "deviation": self.deviation,
        }


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


def record_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one record; order of evaluation cannot matter."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


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
