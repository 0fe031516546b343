"""Exact desk-scale simulation of Grover search and the unknown-count schedule.

From the uniform start a Grover state stays in the span of the uniform
marked and the uniform unmarked state, so a round's measurement law is
the closed form sin^2((2r+1)θ) (BBHT 1998, Lemma 1), and a search needs
only the domain size N and the marked indices, which a SearchSpace reads
once from its marker. Every round of the schedule samples that law
directly, at O(1) per round whatever the domain size, drawing from the
caller's Generator. A round's iteration count never depends on earlier
outcomes, so the schedule draws its rounds' counts and success uniforms
ROUND_CHUNK rounds at a time, and it draws an index only on a hit: on a
miss the measured index would only feed a check that must fail. The
dense state-vector simulation that the closed form is tested against,
and the round-by-round loop this schedule is tested against, live with
the tests, in tests/reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

BBHT_GROWTH = 6 / 5
# Rounds drawn per Generator call. An unmarked schedule, which runs
# to the cutoff, averages 32 to 44 rounds at N = 16 to 512 at delta = 0.01,
# so two chunks cover it; a marked one stops after 3 to 13 rounds and
# discards the rest. Chunks of 48 and 64 did not pay: on tiny-batch, in
# one process with the order rotated every rep, 48 and 64 read 0.985 and
# 0.999 of 32 at seed 1, 0.996 and 1.007 at seed 23, and 0.997 and 1.000
# at seed 7, where an A/A copy of 32 read 1.035.
ROUND_CHUNK = 32


class SearchSpace:
    """Power-of-two search domain and its marked indices.

    logical_size L is the real problem size; indices L..N-1 are padding,
    where N is the least power of two >= max(L, 2). marker takes no
    argument and returns the sorted int64 marked indices, all below L;
    marked_indices() calls it once.
    """

    def __init__(self, logical_size: int, marker: Callable[[], np.ndarray]):
        if logical_size < 0:
            raise ValueError("logical size must be >= 0")
        self.logical_size = logical_size
        self.domain_size = 2 if logical_size <= 1 else 1 << (logical_size - 1).bit_length()
        self._marker = marker
        self._marked: np.ndarray | None = None

    def marked_indices(self) -> np.ndarray:
        """Sorted indices of all marked elements, marker() (computed once, then cached)."""
        if self._marked is None:
            self._marked = self._marker()
        return self._marked

    @cached_property
    def marked_count(self) -> int:
        """Number of marked indices, computed on first read and then a plain attribute."""
        return int(self.marked_indices().size)


@dataclass
class BbhtStats:
    """Run statistics of one schedule: its Grover iterations and its rounds."""

    grover_iterations: int = 0
    rounds: int = 0

    @property
    def oracle_applications(self) -> int:
        return self.grover_iterations + self.rounds  # one check per round


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


def _round_counts(uniforms: np.ndarray, ceilings: np.ndarray) -> np.ndarray:
    """Iteration counts floor(u * c) for uniforms u from Generator.random and ceilings c: each in 0..c-1.

    u is a multiple of 2^-53 below 1, and for c < 2^52 the float product
    stays below c even at u = 1 - 2^-53. Of the 2^53 values of u, each
    count takes within two of 2^53 / c: the exact product splits them
    within one, and rounding the product moves each end of a count's
    range by at most one value of u (u = (2^54 - 1)/3 * 2^-53 and c = 3
    give 2, not 1). So each count has probability within 2^-52 of 1/c.
    """
    return (uniforms * ceilings).astype(np.int64)


# q = 6444/10000 = 1611/2500 >= 1/2 + 1/(4 sqrt 3) = 0.64434: a capped round misses with probability at most q
MISS_BOUND = (1611, 2500)


@lru_cache(maxsize=256)
def bbht_cutoff(domain_size: int, delta: float) -> int:
    """Grover iterations one schedule may spend so that it misses with probability at most delta: W + j(c - 1).

    c = ceil(sqrt N) is the capped ceiling, the last of _round_ceilings(N);
    W is the sum of ceiling - 1 over the rounds before the first round
    whose ceiling is c, fixed per N; and j is the least integer with
    q^j <= delta, read in integer arithmetic off delta's integer ratio,
    so that no rounding leaves it one short. At delta = 0.01, j = 11.

    Proof, over a domain of N >= 2 indices (a power of two), k >= 1 of
    them marked, with θ = arcsin(sqrt(k/N)):

    - k = N. Round 0 draws r = 0 and hits with probability 1.
    - N = 2, k = 1. θ = π/4, so every round hits with probability 1/2
      whatever its r. W = 0 and a round spends at most c - 1 = 1
      iteration, so a schedule that misses has missed at least j rounds:
      probability at most 2^-j < q^j.
    - N >= 4, 1 <= k <= N - 1.
      (a) k(N-k) is concave in k, so on [1, N-1] it is least at an end:
          N - 1. Hence M = 1/sin 2θ = N / (2 sqrt(k(N-k))) <= N / (2 sqrt(N-1)),
          and that is at most sqrt(N/3) for N >= 4.
      (b) A capped round draws r uniform below c >= sqrt N. By BBHT 1998,
          Lemma 2, it hits with probability 1/2 - sin(4cθ) / (4c sin 2θ)
          >= 1/2 - M/(4c) >= 1/2 - 1/(4 sqrt 3) > 0.3556: it misses with
          probability at most q. The draw r = floor(u c) of a uniform u, a
          multiple of 2^-53 (_round_counts), takes each value with
          probability within 2^-52 of 1/c, which moves the miss probability
          by at most c 2^-52 (below 1e-6 for any N < 2^63), inside the slack
          of 6e-5 between q and 1/2 + 1/(4 sqrt 3).
      (c) A round spends at most its ceiling less one. So the rounds before
          the first capped round spend at most W, and before the i-th
          capped round, i <= j, at most W + (i-1)(c-1) are spent. That
          leaves at least c - 1 >= 1 of the cutoff: the schedule reaches
          the round (if it has not hit) and does not clamp its draw.
      (d) Each of those j rounds draws its r and its outcome afresh, so by
          (b) the schedule misses all of them with probability at most
          q^j <= delta.

    The bound is far from tight: at delta = 0.01 the exact law
    (tests/reference.py, bbht_stop_law) puts the failure below 5.3e-4 for
    every k at N = 4 and below 1.1e-8 from N = 32 to 2^9, and the tests
    check it against delta for every k at every N up to 2^9.
    """
    ceilings = _round_ceilings(domain_size).ravel()
    c = int(ceilings[-1])
    first = int(np.argmax(ceilings == c))
    num, den = MISS_BOUND
    a, b = delta.as_integer_ratio()
    j, missed, allowed = 0, b, a  # q^j > a/b exactly when num^j * b > a * den^j
    while missed > allowed:
        j, missed, allowed = j + 1, missed * num, allowed * den
    return int(ceilings[:first].sum()) - first + j * (c - 1)


def bbht_search(space: SearchSpace, rng: np.random.Generator, cutoff: int) -> tuple[int | None, BbhtStats]:
    """Search with an unknown number of marked elements (BBHT schedule), spending at most cutoff Grover iterations.

    Rounds draw a random iteration count below a bound that grows by 6/5
    per round (capped at sqrt(N)); a round that hits measures a marked
    index, which its classical check confirms, so a returned index is
    always marked. The schedule stops at a hit or once cumulative Grover
    iterations reach the cutoff, to which the last round's draw is
    clamped; bbht_cutoff sizes it to a failure probability. Each Grover
    iteration and each check is one quantum oracle application, counted in
    the stats for the caller to charge. Every draw comes from rng.
    """
    rows = _round_ceilings(space.domain_size)
    iterations = rounds = 0
    found = None
    while found is None and iterations < cutoff:
        # one chunk, one call: ROUND_CHUNK uniforms for the counts, then ROUND_CHUNK success uniforms
        draws = rng.random(2 * ROUND_CHUNK)
        counts = _round_counts(draws[:ROUND_CHUNK], rows[min(rounds // ROUND_CHUNK, len(rows) - 1)])
        for r, uniform in zip(counts.tolist(), draws[ROUND_CHUNK:].tolist()):
            if r > cutoff - iterations:
                r = cutoff - iterations
            found = _closed_form_round(space, r, uniform, rng)
            iterations += r
            rounds += 1
            if found is not None or iterations >= cutoff:
                break
    return found, BbhtStats(grover_iterations=iterations, rounds=rounds)
