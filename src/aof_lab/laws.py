"""Window laws and the provider interface shared by exact and empirical sources.

A window law is a joint distribution over lagged variables: the target at
some lag plus any number of per-source features at their own lags.  The
variable naming convention is ``"y@<lag>"`` for the target and
``"x<l>@<lag>"`` for source ``l`` (1-based).  Requests are (variable, lag)
pairs such as ``("y", 0)`` or ``("x2", 3)``.

Grid searches ask for many laws that share one *layout*: the same variables
in the same positions, only their lags differ.  A provider's one law method,
``window_law_stack``, returns such a batch as one array with a leading batch
axis, so a caller can evaluate a statistic over the whole batch without
building a ``JointPmf`` per law.  Exact providers unroll a process model,
empirical providers count sliding windows in a dataset, and the mixture
provider blends two compatible providers cell by cell with
``MixtureLawProvider.mix``, which sweeps over the mixture weight also apply
to endpoint stacks they build once.  A single law is the one-request-set
case of a stack, named by ``window_law_of``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .errors import IncompatibleSpaceError
from .spaces import JointPmf, OutcomeSpace

Request = tuple[str, int]

# largest table (law cells, or elementary cells times hidden states) one law
# may need; guards against grids whose laws cannot fit in memory
DEFAULT_MAX_CELLS = 4_000_000

# most cells a batched law evaluation keeps live at once; stacks larger than
# this are built and consumed in chunks
STACK_CELLS = 2**18

# (bare variable, space) per axis of every law in a stack, e.g.
# (("y", Y), ("x1", X1), ("x1", X1)) for requests y@0, x1@a, x1@b with a < b
Layout = tuple[tuple[str, OutcomeSpace], ...]


def parse_request(req) -> Request:
    var, lag = req
    var = str(var)
    lag = int(lag)
    if lag < 0:
        raise IncompatibleSpaceError(f"lags must be nonnegative, got {lag} for {var!r}")
    if var != "y":
        if not (var.startswith("x") and var[1:].isdigit() and int(var[1:]) >= 1):
            raise IncompatibleSpaceError(f"unknown variable {var!r}; expected 'y' or 'x<l>'")
    return var, lag


def source_index(var: str) -> int | None:
    """1-based source index of an 'x<l>' variable; None for the target."""
    return None if var == "y" else int(var[1:])


def canonical_requests(requests: Sequence) -> tuple[Request, ...]:
    """Deduplicate and sort requests: target lags first, then source, lag."""
    return tuple(sorted({parse_request(r) for r in requests}, key=_request_order))


def _request_order(req: Request) -> tuple[int, int, int]:
    var, lag = req
    return (0, 0, lag) if var == "y" else (1, int(var[1:]), lag)


def variable_name(var: str, lag: int) -> str:
    return f"{var}@{lag}"


@dataclass(frozen=True, eq=False)
class WindowLaw:
    """Joint law over lagged variables plus the lag bookkeeping behind it."""

    law: JointPmf
    requests: tuple[Request, ...]
    meta: dict = field(default_factory=dict)


def canonical_request_sets(request_sets: Sequence[Sequence]) -> list[tuple[Request, ...]]:
    """Canonical form of request sets that must share one layout: the same
    variables in the same positions, only their lags differing."""
    reqs_list = [canonical_requests(r) for r in request_sets]
    if not reqs_list:
        raise IncompatibleSpaceError("at least one request set is required")
    if not reqs_list[0]:
        raise IncompatibleSpaceError("at least one variable must be requested")
    variables = [var for var, _ in reqs_list[0]]
    for reqs in reqs_list:
        if [var for var, _ in reqs] != variables:
            raise IncompatibleSpaceError(f"request sets do not share one layout: {reqs} vs {reqs_list[0]}")
    return reqs_list


def window_law_of(provider: "LawProvider", requests: Sequence) -> WindowLaw:
    """The law of one request set from ``provider.window_law_stack``, with
    variables named ``y@0``, ``x1@3`` and so on."""
    reqs = canonical_requests(requests)
    layout, probs = provider.window_law_stack([reqs])
    variables = tuple((variable_name(var, lag), space) for (var, lag), (_, space) in zip(reqs, layout))
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

    @property
    def target_space(self) -> OutcomeSpace:
        ...

    def window_law_stack(self, request_sets: Sequence[Sequence]) -> tuple[Layout, np.ndarray]:
        """Laws of request sets that share one layout, as ``(layout,
        probs[G, ...])`` with ``probs[g]`` the law of ``request_sets[g]``."""
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

    @property
    def target_space(self) -> OutcomeSpace:
        return self.base.target_space

    window_law = window_law_of

    def window_law_stack(self, request_sets: Sequence[Sequence]) -> tuple[Layout, np.ndarray]:
        layout, a = self.base.window_law_stack(request_sets)
        _, b = self.other.window_law_stack(request_sets)
        return layout, self.mix(a, b)

    def mix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``(1 - eta) * a + eta * b`` for a law or a stack of laws of the
        base and other providers: every law of this provider is built so."""
        return (1.0 - self.eta) * a + self.eta * b
