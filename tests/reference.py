"""Dense state-vector Grover simulation: the reference the closed form is tested against.

The package samples every search round from the closed-form law
sin^2((2r+1)θ). This module iterates the full real amplitude vector
instead, at O(N) per iteration, so tests can compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mstverify import SearchSpace


def marked_mask(space: SearchSpace) -> np.ndarray:
    """Boolean mask over the whole domain, padding included, of the marked indices."""
    mask = np.zeros(space.domain_size, dtype=bool)
    mask[space.marked_indices()] = True
    return mask


class StateVector:
    """Dense real amplitudes of a Grover register."""

    __slots__ = ("amplitudes",)

    def __init__(self, domain_size: int):
        self.amplitudes = np.full(domain_size, domain_size**-0.5)

    def grover_iteration(self, marked_mask: np.ndarray) -> None:
        """Phase-flip the marked amplitudes, then invert about the mean."""
        a = self.amplitudes
        # in place, bit-identical to a[mask] *= -1 and a.mean(): the same float operations and pairwise sum
        np.negative(a, out=a, where=marked_mask)
        np.subtract(2.0 * (np.add.reduce(a) / a.size), a, out=a)

    def norm(self) -> float:
        a = self.amplitudes
        return float(math.sqrt(a @ a))

    def marked_probability(self, marked_mask: np.ndarray) -> float:
        a = self.amplitudes[marked_mask]
        return float(a @ a)

    def sample(self, rng: np.random.Generator) -> int:
        """Measure: one index drawn from the squared amplitudes."""
        a = self.amplitudes
        cum = a * a
        np.cumsum(cum, out=cum)
        idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        return min(idx, a.size - 1)


@dataclass(frozen=True)
class GroverRunStats:
    """Outcome of one fixed-iteration-count Grover run."""

    iterations: int
    oracle_applications: int
    measured_index: int
    success: bool


def dense_round(space: SearchSpace, iterations: int, rng: np.random.Generator) -> int:
    """One measured outcome of a dense Grover round from the uniform start."""
    state = StateVector(space.domain_size)
    mask = marked_mask(space)
    for _ in range(iterations):
        state.grover_iteration(mask)
    return state.sample(rng)


def grover_search(space: SearchSpace, iterations: int, rng_seed) -> GroverRunStats:
    """Run one exact Grover search with a fixed iteration count.

    Starts from the uniform superposition, applies `iterations` rounds of
    phase flip + inversion about the mean, then measures once. One oracle
    application per iteration. Deterministic for a given rng_seed.
    """
    if iterations < 0:
        raise ValueError("iteration count must be >= 0")
    rng = np.random.default_rng(rng_seed)
    measured = dense_round(space, iterations, rng)
    return GroverRunStats(
        iterations=iterations,
        oracle_applications=iterations,
        measured_index=measured,
        success=space.marker(measured),
    )
