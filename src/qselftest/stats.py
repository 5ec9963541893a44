"""Outcome statistics: exact branch probabilities, seeded sampling, sample sizing.

A Setting names what the device is asked to do (ordered one-sided gate
applications, then one projector branch per measured wire); this module turns
settings into probabilities, either exactly or through reproducible
Monte-Carlo estimates sized by a Hoeffding bound. `prepare` and `collapse`
are the package's one path from a device to a collapsed state and its
branch probability.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import hilbert as hb
from .devices import TEST_ANGLES, DeviceModel, IdealCircuit, angle_index, honest_device
from .errors import ValidationError

__all__ = [
    "Setting",
    "StatRecord",
    "branch_prob",
    "branch_probabilities",
    "collapse",
    "exact_prob",
    "ideal_prob",
    "prepare",
    "record_rng",
    "reference_device",
    "sample_prob",
    "sample_size",
]


@dataclass(frozen=True)
class Setting:
    """One statistic: prep gates (side, label) in order, then measured branches.

    Each measured entry is (side, wire, angle, flip); flip 0 keeps the
    angle's own branch, flip 1 its complement at angle + pi/2.
    """

    prep: tuple[tuple[str, str], ...] = ()
    measured: tuple[tuple[str, int, float, int], ...] = ()

    def __post_init__(self):
        prep = tuple((str(s), str(l)) for s, l in self.prep)
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

    def with_flips(self, flips: Sequence[int]) -> "Setting":
        """Same setting with the outcome branches replaced wire by wire."""
        if len(flips) != len(self.measured):
            raise ValidationError("need one flip per measured wire")
        meas = tuple(
            (s, w, a, int(f)) for (s, w, a, _), f in zip(self.measured, flips)
        )
        return Setting(self.prep, meas)

    def to_json(self) -> dict:
        return {
            "prep": [[s, l] for s, l in self.prep],
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


def prepare(device: DeviceModel, prep: Iterable[tuple[str, str]]) -> hb.PhysState:
    """The device's source after its one-sided gates (side, label), in order."""
    st = device.source
    for side, label in prep:
        st = hb.apply_operator(device.gate_operator(side, label), st)
    return st


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


def branch_prob(device: DeviceModel, state: hb.PhysState, s: Setting) -> float:
    """Probability of the setting's outcome branch on an already prepared state."""
    return float(hb.norm(collapse(device, state, s.branches)) ** 2)


def exact_prob(device: DeviceModel, s: Setting) -> float:
    """Probability of the setting's outcome branch, evaluated on the device."""
    return branch_prob(device, prepare(device, s.prep), s)


_REFERENCES: "weakref.WeakKeyDictionary[IdealCircuit, DeviceModel]" = (
    weakref.WeakKeyDictionary()
)
_BARE_REFERENCE: list[DeviceModel] = []


def reference_device(circuit: IdealCircuit | None) -> DeviceModel:
    """Honest implementation of the circuit, cached per circuit object."""
    if circuit is None:
        if not _BARE_REFERENCE:
            _BARE_REFERENCE.append(honest_device(None))
        return _BARE_REFERENCE[0]
    dev = _REFERENCES.get(circuit)
    if dev is None:
        dev = honest_device(circuit)
        _REFERENCES[circuit] = dev
    return dev


def ideal_prob(circuit: IdealCircuit | None, s: Setting) -> float:
    """Target probability: the same setting run on the honest implementation.

    Conspiracy settings come out as products of (1/2)cos^2(a-b) per wire and
    tomography settings as (1/2)tr(T' P(a) T P(b)) blocks, both by direct
    evaluation on fresh pairs.
    """
    return exact_prob(reference_device(circuit), s)


def record_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one record; order of evaluation cannot matter."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def sample_prob(
    device: DeviceModel, s: Setting, n: int, rng: np.random.Generator
) -> float:
    """Fraction of n simulated runs landing in the outcome branch."""
    if n < 1:
        raise ValidationError(f"sample count must be >= 1, got {n}")
    p = min(max(exact_prob(device, s), 0.0), 1.0)
    return float(rng.binomial(n, p)) / n


def sample_size(eps: float, gamma: float, m: int) -> int:
    """Two-sided Hoeffding count with a union bound over m statistics."""
    if not 0 < eps < 1:
        raise ValidationError(f"eps={eps} outside (0, 1)")
    if not 0 < gamma < 1:
        raise ValidationError(f"gamma={gamma} outside (0, 1)")
    if m < 1:
        raise ValidationError(f"m={m} must be >= 1")
    return math.ceil(math.log(2 * m / gamma) / (2 * eps * eps))


def branch_probabilities(device: DeviceModel, s: Setting) -> dict[tuple[int, ...], float]:
    """Exact probability of every outcome branch of the measured wires."""
    k = len(s.measured)
    out = {}
    for code in range(1 << k):
        flips = tuple((code >> i) & 1 for i in range(k))
        out[flips] = exact_prob(device, s.with_flips(flips))
    return out
