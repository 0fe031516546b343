"""Exact desk-scale simulation of Grover search and the unknown-count schedule.

From the uniform start a Grover state stays in the span of the uniform
marked and the uniform unmarked state, so a round's measurement law is
the closed form sin^2((2r+1)θ) (BBHT 1998, Lemma 1). Every round of the
schedule samples that law directly, at O(1) per round whatever the domain
size. A round's iteration count never depends on earlier outcomes, so the
schedule draws its rounds' counts and success uniforms ROUND_CHUNK rounds
at a time, and it draws an index only on a hit: on a miss the measured
index would only feed a check that must fail. The dense state-vector
simulation that the closed form is tested against, and the round-by-round
loop this schedule is tested against, live with the tests, in
tests/reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable

import numpy as np

BBHT_GROWTH = 6 / 5
# Rounds drawn per pair of Generator calls. An unmarked schedule, which runs
# to the cutoff, averages about 30 rounds at N <= 512, so one or two chunks
# cover it; a marked one stops after 3 to 13 rounds and discards the rest.
ROUND_CHUNK = 32


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

    def marked_indices(self) -> np.ndarray:
        """Sorted indices of all marked elements (computed once, then cached); padding never is one."""
        if self._marked is None:
            hits = [i for i in self._positions if self._raw_marker(i)]
            self._marked = np.asarray(hits, dtype=np.int64)
        return self._marked

    @cached_property
    def marked_count(self) -> int:
        """Number of marked indices, computed on first read and then a plain attribute."""
        return int(self.marked_indices().size)


@dataclass
class BbhtStats:
    """Accumulated run statistics over one or more schedule rounds."""

    grover_iterations: int = 0
    rounds: int = 0

    @property
    def oracle_applications(self) -> int:
        return self.grover_iterations + self.rounds  # one check per round

    def merge(self, other: "BbhtStats") -> None:
        self.grover_iterations += other.grover_iterations
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


def _closed_form_round(
    space: SearchSpace, iterations: int, uniform: float, rng: np.random.Generator
) -> int | None:
    """One round's outcome from the closed form, without a state vector: a marked index, or None on a miss.

    Amplitudes stay uniform within the marked class, so the round hits
    with the closed-form probability, decided by uniform (a draw in
    [0, 1)), and a hit is uniform over the marked indices. A miss draws
    nothing: its index is unmarked, and the check of it would fail. With
    nothing marked every round misses, and the closed form is not evaluated.
    """
    n, k = space.domain_size, space.marked_count
    if k and (k == n or uniform < success_probability(n, k, iterations)):
        marked = space.marked_indices()
        return int(marked[rng.integers(marked.size)])
    return None


@lru_cache(maxsize=64)
def _round_ceilings(domain_size: int) -> np.ndarray:
    """Exclusive ceilings of the rounds' iteration counts, ROUND_CHUNK per row; the last row repeats forever.

    Round i draws below ceil(bound_i), where bound_0 = 1 and each bound is
    6/5 of the last, capped at sqrt(N). Read-only: the cache shares it.
    """
    cap = math.sqrt(domain_size)
    bound = 1.0
    ceilings = []
    while bound < cap or len(ceilings) % ROUND_CHUNK:
        ceilings.append(math.ceil(bound))
        bound = min(bound * BBHT_GROWTH, cap)
    ceilings += [math.ceil(cap)] * ROUND_CHUNK  # a last row of capped rounds
    rows = np.array(ceilings, dtype=np.int64).reshape(-1, ROUND_CHUNK)
    rows.setflags(write=False)
    return rows


def bbht_search(space: SearchSpace, rng_seed, oracle=None) -> tuple[int | None, BbhtStats]:
    """Search with an unknown number of marked elements (BBHT schedule).

    Rounds draw a random iteration count below a bound that grows by 6/5
    per round (capped at sqrt(N)); a round that hits measures a marked
    index, which its classical check confirms, so a returned index is
    always marked. The schedule stops at a hit or once cumulative Grover
    iterations reach 9 * ceil(sqrt(N)). Every Grover iteration and every
    check is one quantum oracle application, recorded on `oracle` when one
    is given.
    """
    rng = np.random.default_rng(rng_seed)
    cutoff = bbht_cutoff(space.domain_size)
    rows = _round_ceilings(space.domain_size)
    iterations = rounds = 0
    found = None
    while found is None and iterations < cutoff:
        # one chunk: ROUND_CHUNK counts, then ROUND_CHUNK uniforms; the last row repeats
        highs = rows[min(rounds // ROUND_CHUNK, len(rows) - 1)]
        for r, uniform in zip(rng.integers(0, highs).tolist(), rng.random(ROUND_CHUNK).tolist()):
            if r > cutoff - iterations:
                r = cutoff - iterations
            found = _closed_form_round(space, r, uniform, rng)
            iterations += r
            rounds += 1
            if found is not None or iterations >= cutoff:
                break
    stats = BbhtStats(grover_iterations=iterations, rounds=rounds)
    if oracle is not None:
        oracle.count_quantum_applications(stats.oracle_applications)  # r iterations + 1 check per round
    return found, stats


def bbht_restarts(delta: float) -> int:
    """Schedules a search runs so that all of them miss with probability at most delta: the least R with 4^-R <= delta.

    That is ceil(log4(1/delta)), read off delta's binary exponent so that
    no rounding of 1/delta or of a logarithm leaves it one short: 4^-R is
    a power of two, so 4^-R <= delta exactly when 4^-R <= 2^(e-1), the
    largest power of two <= delta. At delta = 0.01 it is 4.

    The count rests on one bound: over a domain of N >= 2 indices (a power
    of two), k >= 1 of them marked, one schedule misses with probability
    at most 1/4. Schedules draw independently, so R of them all miss with
    probability at most 4^-R <= delta. Proof, with θ = arcsin(sqrt(k/N)),
    c = ceil(sqrt N) and the cutoff C = 9c:

    - k > 3N/4. Round 0's ceiling is 1, so it draws r = 0 and hits with
      probability sin^2 θ = k/N > 3/4.
    - N = 2, k = 1. θ = π/4, so every round hits with probability 1/2
      whatever its r. A round spends at most c - 1 = 1 iteration, so a
      schedule that misses has missed at least C = 18 rounds: probability
      at most 2^-18.
    - N >= 4, 1 <= k <= 3N/4.
      (a) BBHT 1998, Lemma 2: a round whose r is uniform below m hits with
          probability 1/2 - sin(4mθ) / (4m sin 2θ), so at least 1/4 once
          m >= M = 1/sin 2θ.
      (b) sin 2θ = 2 sqrt(k(N-k)) / N, and k(N-k) is concave in k, so on
          [1, 3N/4] it is least at an end: N-1 at k = 1, and
          3N^2/16 >= N-1 at k = 3N/4 since (3N-4)(N-4) >= 0. Hence
          M <= N / (2 sqrt(N-1)) <= sqrt(N/3) < 0.578 sqrt N.
      (c) Round i draws below ceil(b_i), where b_0 = 1 and
          b_(i+1) = min(6/5 b_i, sqrt N), and spends at most
          ceil(b_i) - 1 < b_i. The bounds only grow, and those below M
          are below sqrt N, so uncapped: a geometric series of ratio 6/5
          whose largest term is below M. Together those first rounds
          spend less than 6M < 3.47 sqrt N iterations.
      (d) Every later round has ceiling >= M and spends at most c - 1.
          Before the fifth of them fewer than 3.47 sqrt N + 4(c - 1)
          iterations are spent, which leaves more than 1.5c of C. So the
          schedule reaches the first five later rounds (if it has not hit)
          and the cutoff clamps none of their draws.
      (e) Each of those rounds draws its r and its outcome afresh, so by
          (a) it hits with probability at least 1/4 whatever came before,
          and the schedule misses all five with probability at most
          (3/4)^5 = 243/1024 < 1/4.

    The float ratio BBHT_GROWTH sits a hair below 6/5, which the margin of
    6/sqrt(3) = 3.464 under 3.47 absorbs. The bound is far from tight: the
    exact failure probability (tests/reference.py, bbht_stop_law) is below
    1.1e-5 for every k at every N up to 2^9, and the tests confirm it
    against 1/4 there and for a few k at N = 1024 and 4096.
    """
    _, e = math.frexp(delta)  # delta = f * 2^e with 1/2 <= f < 1
    return (2 - e) // 2
