"""Window laws and the provider interface shared by exact and empirical sources.

A window law is a joint distribution over lagged variables: the target at
some lag plus any number of per-source features at their own lags.  Laws
that share a layout, the same sources on the same axes with only the lags
differing, are asked for as one :class:`LagStack`: the source of each axis
(0 for the target, ``l`` for source ``l``) plus an int64 ``lags[G, k]``
array, one row per law.  A provider's one law method, ``window_law_stack``,
returns them as a new ``probs[G, ...]`` in the stack's axis order, so a
caller asks for the order it consumes and scores the batch without a
``JointPmf`` per law.  Exact providers unroll a process model, empirical
providers count sliding windows, and the mixture provider blends two
compatible providers cell by cell with ``MixtureLawProvider.mix``, which
sweeps also apply to endpoint stacks they build once.

Request tuples such as ``("y", 0)`` or ``("x2", 3)`` are the public edge:
``lag_stack`` turns request sets into a stack, each set deduplicated and
sorted (target lags first, then source, lag), and ``window_law_of`` gives
one set's law with variables named ``"y@<lag>"`` and ``"x<l>@<lag>"``.
A law under dynamic ages is one joint over ``AGE_VARIABLE`` and the
unlagged ``"x<l>"`` and ``"y"``, for a model and for data alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from ._util import is_whole
from .errors import IncompatibleSpaceError
from .spaces import JointPmf, OutcomeSpace

Request = tuple[str, int]

# most cells a batched law evaluation keeps live at once; stacks larger than
# this are built and consumed in chunks
STACK_CELLS = 2**18


def parse_request(req) -> tuple[int, int]:
    """``(source, lag)`` of a ``(variable, lag)`` request, source 0 for 'y'.
    A lag must pass ``is_whole``: 1.5 or ``True`` is refused, not truncated."""
    var, lag = req
    var = str(var)
    if not is_whole(lag):
        raise IncompatibleSpaceError(f"lag of {var!r} must be a whole number in the int64 range, got {lag!r}")
    lag = int(lag)
    if lag < 0:
        raise IncompatibleSpaceError(f"lags must be nonnegative, got {lag} for {var!r}")
    if var != "y" and not (var.startswith("x") and var[1:].isdigit() and int(var[1:]) >= 1):
        raise IncompatibleSpaceError(f"unknown variable {var!r}; expected 'y' or 'x<l>'")
    return source_index(var) or 0, lag


def source_index(var: str) -> int | None:
    """1-based source index of an 'x<l>' variable; None for the target."""
    return None if var == "y" else int(var[1:])


def source_variable(source: int) -> str:
    """The variable a stack axis over ``source`` reads: 'y' for 0, else 'x<l>'."""
    return "y" if source == 0 else f"x{source}"


# the variable of a dynamic-age joint law (age vector, x1..xm, y) that holds the age vector
AGE_VARIABLE = "age"


def canonical_requests(requests: Sequence) -> tuple[Request, ...]:
    """Deduplicate and sort requests: target lags first, then source, lag."""
    return tuple((source_variable(l), lag) for l, lag in sorted(set(map(parse_request, requests))))


def variable_name(var: str, lag: int) -> str:
    return f"{var}@{lag}"


@dataclass(frozen=True, eq=False)
class WindowLaw:
    """Joint law over lagged variables plus the lag bookkeeping behind it."""

    law: JointPmf
    requests: tuple[Request, ...]
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class LagStack:
    """Lags of window laws that share one layout: law axis ``i`` reads source
    ``sources[i]`` (0 for the target), and row ``g`` of the read-only int64
    copy ``lags[G, k]`` holds each axis's lag in law ``g``.  The constructor
    checks once that there is a row, no lag is negative and no row reads
    one (source, lag) twice."""

    sources: tuple[int, ...]
    lags: np.ndarray

    def __post_init__(self):
        sources = tuple(int(l) for l in self.sources)
        if not sources:
            raise IncompatibleSpaceError("at least one variable must be requested")
        lags = np.asarray(self.lags)
        if lags.ndim != 2 or len(lags) == 0:
            raise IncompatibleSpaceError("at least one request set is required")
        if lags.shape[1] != len(sources):
            raise IncompatibleSpaceError(f"lag rows have {lags.shape[1]} columns for {len(sources)} sources")
        if lags.dtype.kind not in "iu" or lags.max() > np.iinfo(np.int64).max:
            raise IncompatibleSpaceError("lags must be integers in the int64 range")
        lags = np.array(lags, dtype=np.int64)
        if lags.min() < 0:
            g, i = np.argwhere(lags < 0)[0]
            var = source_variable(sources[i])
            raise IncompatibleSpaceError(f"lags must be nonnegative, got {lags[g, i]} for {var!r}")
        for l in {l for l in sources if sources.count(l) > 1}:
            same = np.sort(lags[:, [i for i, s in enumerate(sources) if s == l]], axis=1)
            g, i = np.nonzero(same[:, 1:] == same[:, :-1])
            if len(g):
                raise IncompatibleSpaceError(f"request set {g[0]} reads {source_variable(l)}@{same[g[0], i[0]]} twice")
        lags.setflags(write=False)
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "lags", lags)

    def requests(self, g: int) -> tuple[Request, ...]:
        """Law ``g`` as (variable, lag) requests in axis order."""
        return tuple((source_variable(l), lag) for l, lag in zip(self.sources, self.lags[g].tolist()))

    def reads(self, g: int) -> str:
        """Law ``g``'s reads as messages name them: ``[y@0, x1@3]``."""
        return "[" + ", ".join(variable_name(*req) for req in self.requests(g)) + "]"


def lag_stack(request_sets: Sequence[Sequence]) -> LagStack:
    """The stack of request sets that must share one layout: once each set
    is deduplicated and sorted, the same variables in the same positions,
    only their lags differing."""
    reqs_list = [canonical_requests(r) for r in request_sets]
    if not reqs_list:
        raise IncompatibleSpaceError("at least one request set is required")
    variables = [var for var, _ in reqs_list[0]]
    for reqs in reqs_list:
        if [var for var, _ in reqs] != variables:
            raise IncompatibleSpaceError(f"request sets do not share one layout: {reqs} vs {reqs_list[0]}")
    lags = [[lag for _, lag in reqs] for reqs in reqs_list]
    return LagStack(tuple(source_index(var) or 0 for var in variables), lags)


def axis_spaces(provider: "LawProvider", sources: Sequence[int]) -> list[OutcomeSpace]:
    """The outcome space of each axis of a stack over ``sources``."""
    return [provider.target_space if l == 0 else provider.feature_space(l) for l in sources]


def window_law_of(provider: "LawProvider", requests: Sequence) -> WindowLaw:
    """The law of one request set from ``provider.window_law_stack``, with
    variables named ``y@0``, ``x1@3`` and so on."""
    stack = lag_stack([requests])
    probs, reqs = provider.window_law_stack(stack), stack.requests(0)
    variables = tuple((variable_name(*req), space) for req, space in zip(reqs, axis_spaces(provider, stack.sources)))
    return WindowLaw(law=JointPmf(variables, probs[0]), requests=reqs)


class LawProvider(Protocol):
    """Anything that can produce exact-or-estimated window laws."""

    @property
    def m(self) -> int:
        """Number of feature sources."""
        ...

    def feature_space(self, l: int) -> OutcomeSpace:
        """Outcome space of source ``l`` (1-based)."""
        ...

    def feature_size(self, l: int) -> int:
        """``len(feature_space(l))``; a provider whose labels are built on
        demand counts them without building them."""
        ...

    @property
    def target_space(self) -> OutcomeSpace:
        ...

    def window_law_stack(self, stack: LagStack) -> np.ndarray:
        """The laws of ``stack`` as ``probs[G, ...]``: ``probs[g]`` is law
        ``g``, with axis ``i`` over the space of ``stack.sources[i]``.  The
        array is new and owned by the caller, which may overwrite it (the
        chi-squared kernel scores it in place)."""
        ...


def check_compatible(a: LawProvider, b: LawProvider) -> None:
    if a.m != b.m:
        raise IncompatibleSpaceError(f"source count mismatch: {a.m} vs {b.m}")
    if a.target_space.labels != b.target_space.labels:
        raise IncompatibleSpaceError("target spaces differ")
    for l in range(1, a.m + 1):
        if a.feature_space(l).labels != b.feature_space(l).labels:
            raise IncompatibleSpaceError(f"feature spaces differ for source {l}")


@dataclass(frozen=True, eq=False)
class MixtureLawProvider:
    """Cell-wise convex mixture of two compatible law providers.

    Every window law is ``(1 - eta) * base + eta * other``, which drives the
    Markov-deviation coefficient continuously between the two endpoints.
    """

    base: LawProvider
    other: LawProvider
    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise IncompatibleSpaceError(f"eta must lie in [0, 1], got {self.eta}")
        check_compatible(self.base, self.other)

    @property
    def m(self) -> int:
        return self.base.m

    def feature_space(self, l: int) -> OutcomeSpace:
        return self.base.feature_space(l)

    def feature_size(self, l: int) -> int:
        return self.base.feature_size(l)

    @property
    def target_space(self) -> OutcomeSpace:
        return self.base.target_space

    window_law = window_law_of

    def window_law_stack(self, stack: LagStack) -> np.ndarray:
        return self.mix(self.base.window_law_stack(stack), self.other.window_law_stack(stack))

    def mix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``(1 - eta) * a + eta * b``, new, for a law or a stack of laws of
        the base and other providers: every law of this provider is built so."""
        out = a * (1.0 - self.eta)
        out += self.eta * b
        return out
