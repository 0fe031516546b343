"""Exact desk-scale simulation of Grover search and the unknown-count schedule.

From the uniform start a Grover state stays in the span of the uniform
marked and the uniform unmarked state, so a round's measurement law is
the closed form sin^2((2r+1)θ) (BBHT 1998, Lemma 1). Every round of the
schedule samples that law directly, at O(1) per round plus the draw of
an index, whatever the domain size. The dense state-vector simulation
that the closed form is tested against lives with the tests, in
tests/reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

BBHT_GROWTH = 6 / 5


def bbht_cutoff(domain_size: int) -> int:
    """Per-schedule ceiling on cumulative Grover iterations: 9 * ceil(sqrt(N))."""
    r = math.isqrt(domain_size)
    if r * r < domain_size:
        r += 1
    return 9 * r


class SearchSpace:
    """Power-of-two search domain with a marking predicate.

    logical_size L is the real problem size; indices L..N-1 are padding,
    forced unmarked, where N is the least power of two >= max(L, 2).
    positions, sorted, are the only indices the predicate may mark
    (default: all of 0..L-1); the predicate is evaluated once at each of
    them and never anywhere else.
    """

    def __init__(
        self,
        logical_size: int,
        marker: Callable[[int], bool],
        positions: Iterable[int] | None = None,
    ):
        if logical_size < 0:
            raise ValueError("logical size must be >= 0")
        self.logical_size = logical_size
        self.domain_size = 2 if logical_size <= 1 else 1 << (logical_size - 1).bit_length()
        self._raw_marker = marker
        self._positions = range(logical_size) if positions is None else positions
        self._marked: np.ndarray | None = None
        self._marked_set: frozenset[int] | None = None

    def marker(self, index: int) -> bool:
        """Whether index is marked; padding never is. Reads the cached marked set."""
        if self._marked_set is None:
            self.marked_indices()
        return index in self._marked_set

    def marked_indices(self) -> np.ndarray:
        """Sorted indices of all marked elements (computed once, then cached)."""
        if self._marked is None:
            hits = [i for i in self._positions if self._raw_marker(i)]
            self._marked = np.asarray(hits, dtype=np.int64)
            self._marked_set = frozenset(hits)
        return self._marked

    @property
    def marked_count(self) -> int:
        return int(self.marked_indices().size)


@dataclass
class BbhtStats:
    """Accumulated run statistics over one or more schedule rounds."""

    grover_iterations: int = 0
    checks: int = 0
    rounds: int = 0

    @property
    def oracle_applications(self) -> int:
        return self.grover_iterations + self.checks

    def merge(self, other: "BbhtStats") -> None:
        self.grover_iterations += other.grover_iterations
        self.checks += other.checks
        self.rounds += other.rounds


def success_probability(domain_size: int, marked: int, iterations: int) -> float:
    """Probability that r Grover iterations end on a marked index.

    Closed form sin^2((2r+1) * arcsin(sqrt(k/N))); 0 when nothing is marked.
    """
    if not (0 <= marked <= domain_size and domain_size >= 1):
        raise ValueError(f"need 0 <= k <= N, got k={marked} N={domain_size}")
    if marked == 0:
        return 0.0
    theta = math.asin(math.sqrt(marked / domain_size))
    return math.sin((2 * iterations + 1) * theta) ** 2


def _closed_form_round(space: SearchSpace, iterations: int, rng: np.random.Generator) -> int:
    """Sample one round's measurement outcome from the closed form, without a state vector.

    Amplitudes stay uniform within the marked class and within the
    unmarked class, so the outcome is: marked with the closed-form
    probability (uniform over marked indices), else uniform over the rest.
    """
    n, k = space.domain_size, space.marked_count
    p = success_probability(n, k, iterations)
    if k == n or rng.random() < p:
        marked = space.marked_indices()
        return int(marked[rng.integers(marked.size)])
    for _ in range(64):  # rejection is cheap unless nearly everything is marked
        idx = int(rng.integers(n))
        if not space.marker(idx):
            return idx
    unmarked = np.setdiff1d(np.arange(n, dtype=np.int64), space.marked_indices())
    return int(unmarked[rng.integers(unmarked.size)])


def bbht_search(space: SearchSpace, rng_seed, oracle=None) -> tuple[int | None, BbhtStats]:
    """Search with an unknown number of marked elements (BBHT schedule).

    Rounds draw a random iteration count below a bound that grows by 6/5
    per round (capped at sqrt(N)); each round's measurement is classically
    checked against the marker, so a returned index is always marked.
    The schedule stops at success or once cumulative Grover iterations
    reach 9 * ceil(sqrt(N)). Every Grover iteration and every check is one
    quantum oracle application, recorded on `oracle` when one is given.
    """
    rng = np.random.default_rng(rng_seed)
    n = space.domain_size
    cutoff = bbht_cutoff(n)
    stats = BbhtStats()
    bound = 1.0
    while stats.grover_iterations < cutoff:
        r = int(rng.integers(0, math.ceil(bound)))
        r = min(r, cutoff - stats.grover_iterations)
        measured = _closed_form_round(space, r, rng)
        stats.grover_iterations += r
        stats.rounds += 1
        if oracle is not None:
            oracle.count_quantum_applications(r + 1)  # r iterations + 1 check
        stats.checks += 1
        if space.marker(measured):
            return measured, stats
        bound = min(bound * BBHT_GROWTH, math.sqrt(n))
    return None, stats
