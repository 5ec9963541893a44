"""Outcome statistics: exact branch probabilities, seeded sampling, sample sizing.

A Setting names what the device is asked to do (ordered one-sided gate
applications, then one projector branch per measured wire); this module turns
settings into probabilities, either exactly or through reproducible
Monte-Carlo estimates sized by a Hoeffding bound. `walk` is the package's
one path from a device to a collapsed state and its branch probability: it
evaluates a sequence of op lists and applies each prefix they share once;
`prepare`, `collapse` and `probabilities` are built on it.
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

    def with_flips(self, flips: Sequence[int]) -> "Setting":
        """Same setting with the outcome branches replaced wire by wire."""
        if len(flips) != len(self.measured):
            raise ValidationError("need one flip per measured wire")
        meas = tuple(
            (s, w, a, int(f)) for (s, w, a, _), f in zip(self.measured, flips)
        )
        return Setting(self.prep, meas)

    def to_json(self) -> dict:
        """The setting as report JSON.

        "prep" is the setting's own tuple of tuples, not a list copy, so that
        the report encoder writes a prep shared by an experiment's settings
        once. The bytes are those of a list; the dict equals a loaded report
        only after a json round trip, which turns the tuples into lists.
        """
        return {
            "prep": self.prep,
            "measured": [
                {"side": s, "wire": w, "angle": a, "flip": f}
                for s, w, a, f in self.measured
            ],
        }


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

    def to_json(self) -> dict:
        return {
            "setting": self.setting.to_json(),
            "ideal_p": self.ideal_p,
            "est_p": self.est_p,
            "n_samples": self.n_samples,
            "deviation": self.deviation,
        }


def walk(
    device: DeviceModel, state: hb.PhysState, op_lists: Iterable[Sequence[tuple]]
) -> Iterator[hb.PhysState]:
    """The state after each op list, applied in order to state.

    An op is a one-sided gate (side, label) or a branch projector
    (side, wire, angle). Each list starts from the state of the longest
    prefix it shares with the list before it, so a shared prefix is applied
    once, and only the current list's path of states is kept. Every state is
    the result of the same apply_operator calls, on the same inputs and in
    the same order, as applying its list alone, so it is the same floats.
    """
    ops: tuple = ()
    path = [state]
    operators: dict = {}
    for new in op_lists:
        new = tuple(new)
        k, common = 0, min(len(ops), len(new))
        while k < common and ops[k] == new[k]:
            k += 1
        del path[k + 1:]
        for op in new[k:]:
            if op not in operators:
                build = device.gate_operator if len(op) == 2 else device.frame_operator
                operators[op] = build(*op)
            path.append(hb.apply_operator(operators[op], path[-1]))
        ops = new
        yield path[-1]


def probabilities(
    device: DeviceModel, state: hb.PhysState, op_lists: Iterable[Sequence[tuple]]
) -> list[float]:
    """Squared norm of the state after each op list (see walk)."""
    return [float(hb.norm(st) ** 2) for st in walk(device, state, op_lists)]


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


def sample_size(eps: float, gamma: float, m: int) -> int:
    """Two-sided Hoeffding count with a union bound over m statistics."""
    if not 0 < eps < 1:
        raise ValidationError(f"eps={eps} outside (0, 1)")
    if not 0 < gamma < 1:
        raise ValidationError(f"gamma={gamma} outside (0, 1)")
    if m < 1:
        raise ValidationError(f"m={m} must be >= 1")
    return math.ceil(math.log(2 * m / gamma) / (2 * eps * eps))
