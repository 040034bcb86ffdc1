"""Finite outcome spaces and exact probability mass functions.

Everything downstream (entropies, divergences, window laws) is built on two
immutable containers: ``Pmf`` for a single variable and ``JointPmf`` for a
tuple of named variables with a dense probability array in row-major label
order.  All values are 64-bit floats; normalization is enforced to 1e-12.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from ._util import NORMALIZATION_ATOL, read_json, write_text_atomic
from .errors import IncompatibleSpaceError, NotNormalizedError

Label = Any

# most negative a probability may be: rounding error, clipped to 0
NEGATIVE_MASS_ATOL = 1e-15


def freeze_label(label):
    """JSON writes tuple labels as lists; rebuild hashable labels."""
    if isinstance(label, list):
        return tuple(freeze_label(v) for v in label)
    return label


@dataclass(frozen=True)
class OutcomeSpace:
    """Ordered finite set of distinct symbols.

    The ordering is fixed and used for deterministic tie-breaking in all
    argmin/argmax decisions.
    """

    labels: tuple[Label, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise IncompatibleSpaceError("outcome space must be nonempty")
        index = {}
        for i, lab in enumerate(labels):
            if lab in index:
                raise IncompatibleSpaceError(f"duplicate label {lab!r}")
            index[lab] = i
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label) -> bool:
        return label in self._index

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise IncompatibleSpaceError(f"label {label!r} not in space") from None

    @property
    def is_numeric(self) -> bool:
        return all(
            isinstance(lab, (int, float)) and not isinstance(lab, bool)
            for lab in self.labels
        )

    def levels(self) -> np.ndarray:
        """Numeric label values, for quadratic-loss moments."""
        if not self.is_numeric:
            raise IncompatibleSpaceError("space has non-numeric labels")
        return np.asarray(self.labels, dtype=float)


def _validate_probs(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    if np.any(probs < -NEGATIVE_MASS_ATOL) or not np.all(np.isfinite(probs)):
        raise NotNormalizedError("probabilities must be finite and nonnegative")
    probs = np.where(probs < 0.0, 0.0, probs)
    total = float(probs.sum())
    if abs(total - 1.0) > NORMALIZATION_ATOL:
        raise NotNormalizedError(f"probabilities sum to {total!r}, not 1")
    probs.setflags(write=False)
    return probs


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function over an :class:`OutcomeSpace`."""

    space: OutcomeSpace
    probs: np.ndarray

    def __post_init__(self):
        probs = _validate_probs(self.probs)
        if probs.shape != (len(self.space),):
            raise IncompatibleSpaceError(
                f"probs shape {probs.shape} does not match space size {len(self.space)}"
            )
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_mapping(cls, mapping: Mapping[Label, float], space: OutcomeSpace | None = None) -> "Pmf":
        if space is None:
            space = OutcomeSpace(tuple(mapping.keys()))
        probs = np.zeros(len(space))
        for lab, p in mapping.items():
            probs[space.index(lab)] = p
        return cls(space, probs)

    @classmethod
    def uniform(cls, space: OutcomeSpace) -> "Pmf":
        return cls(space, np.full(len(space), 1.0 / len(space)))

    @classmethod
    def point_mass(cls, space: OutcomeSpace, label: Label) -> "Pmf":
        probs = np.zeros(len(space))
        probs[space.index(label)] = 1.0
        return cls(space, probs)

    def mean(self) -> float:
        v = self.space.levels()
        return float(self.probs @ v)

    def variance(self) -> float:
        v = self.space.levels()
        mu = float(self.probs @ v)
        return float(self.probs @ (v - mu) ** 2)


@dataclass(frozen=True, eq=False)
class JointPmf:
    """Joint law over named variables, stored as a dense array.

    ``probs[i1, ..., in]`` is the probability of the label tuple whose k-th
    component is ``variables[k][1].labels[ik]``.
    """

    variables: tuple[tuple[str, OutcomeSpace], ...]
    probs: np.ndarray

    def __post_init__(self):
        variables = tuple((str(n), s) for n, s in self.variables)
        names = [n for n, _ in variables]
        if len(set(names)) != len(names):
            raise IncompatibleSpaceError(f"duplicate variable names in {names}")
        object.__setattr__(self, "variables", variables)
        probs = _validate_probs(self.probs)
        expected = tuple(len(s) for _, s in variables)
        if probs.shape != expected:
            raise IncompatibleSpaceError(
                f"probs shape {probs.shape} does not match spaces {expected}"
            )
        object.__setattr__(self, "probs", probs)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    def space(self, name: str) -> OutcomeSpace:
        for n, s in self.variables:
            if n == name:
                return s
        raise IncompatibleSpaceError(f"unknown variable {name!r}")

    def axis(self, name: str) -> int:
        for i, (n, _) in enumerate(self.variables):
            if n == name:
                return i
        raise IncompatibleSpaceError(f"unknown variable {name!r}")

    def arrange(self, names: Sequence[str]) -> "JointPmf":
        """Marginalize onto ``names`` and put axes in exactly that order."""
        names = list(names)
        if len(set(names)) != len(names):
            raise IncompatibleSpaceError(f"repeated names in {names}")
        axes = [self.axis(n) for n in names]
        drop = tuple(i for i in range(len(self.variables)) if i not in axes)
        reduced = self.probs.sum(axis=drop) if drop else self.probs
        kept = [i for i in range(len(self.variables)) if i not in drop]
        perm = [kept.index(a) for a in axes]
        reduced = np.transpose(reduced, perm)
        variables = tuple((n, self.space(n)) for n in names)
        return JointPmf(variables, np.ascontiguousarray(reduced))

    def pmf(self, name: str) -> Pmf:
        m = self.arrange([name])
        return Pmf(m.variables[0][1], m.probs)

    def conditional(self, assignment: Mapping[str, Label]) -> "JointPmf":
        """Law of the remaining variables given an exact cell assignment.

        Conditioning on a zero-probability cell is an error.
        """
        rest = [n for n in self.names if n not in assignment]
        extra = set(assignment) - set(self.names)
        if extra:
            raise IncompatibleSpaceError(f"unknown variables {sorted(extra)}")
        if not rest:
            raise IncompatibleSpaceError("cannot condition on every variable")
        idx = tuple(
            self.space(n).index(assignment[n]) if n in assignment else slice(None)
            for n in self.names
        )
        block = self.probs[idx]
        mass = float(block.sum())
        if mass <= 0.0:
            raise NotNormalizedError(f"conditioning cell {dict(assignment)!r} has zero probability")
        variables = tuple((n, self.space(n)) for n in rest)
        return JointPmf(variables, np.ascontiguousarray(block / mass))

    def cells(self):
        """Iterate (label_tuple, probability) over every cell."""
        labels = [s.labels for _, s in self.variables]
        flat = self.probs.ravel()
        shape = self.probs.shape
        for flat_idx in range(flat.size):
            idx = np.unravel_index(flat_idx, shape)
            yield tuple(labels[k][i] for k, i in enumerate(idx)), float(flat[flat_idx])

    def cell_label(self, flat_index: int) -> tuple:
        return grid_label([s for _, s in self.variables], flat_index)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "variables": [{"name": n, "labels": list(s.labels)} for n, s in self.variables],
            "probs": [float(p) for p in self.probs.ravel()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "JointPmf":
        variables = tuple(
            (v["name"], OutcomeSpace(tuple(map(freeze_label, v["labels"]))))
            for v in data["variables"]
        )
        shape = tuple(len(s) for _, s in variables)
        probs = np.asarray(data["probs"], dtype=float).reshape(shape)
        return cls(variables, probs)

    def save(self, path) -> None:
        write_text_atomic(path, json.dumps(self.to_json_dict()).encode())

    @classmethod
    def load(cls, path) -> "JointPmf":
        return read_json(path, cls.from_json_dict)


def grid_label(spaces: Sequence[OutcomeSpace], flat_index: int) -> tuple:
    """Label tuple of cell ``flat_index`` of the row-major grid over ``spaces``."""
    idx = np.unravel_index(flat_index, tuple(len(s) for s in spaces))
    return tuple(s.labels[i] for s, i in zip(spaces, idx))


def check_same_variables(a: JointPmf, b: JointPmf) -> None:
    """Two joints must name the same variables, in the same order, over the
    same spaces."""
    if a.names != b.names:
        raise IncompatibleSpaceError(f"variable mismatch: {a.names} vs {b.names}")
    for (n, sa), (_, sb) in zip(a.variables, b.variables):
        if sa.labels != sb.labels:
            raise IncompatibleSpaceError(f"space mismatch on variable {n!r}")

