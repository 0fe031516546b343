"""Grover simulator fidelity and the unknown-count schedule."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mstverify.grover import SearchSpace, _closed_form_round, bbht_cutoff, bbht_search, success_probability

from .conftest import edge_oracle, triangle
from .reference import KZeroError, StateVector, grover_search, marked_mask, optimal_iterations


def space(logical, marked):
    marked = set(marked)
    return SearchSpace(logical, lambda i: i in marked)


class TestClosedForms:
    def test_single_marked_in_four_is_certain_after_one_iteration(self):
        assert success_probability(4, 1, 1) == pytest.approx(1.0, abs=1e-15)

    def test_zero_iterations_is_initial_mass(self):
        assert success_probability(64, 5, 0) == pytest.approx(5 / 64, abs=1e-15)

    def test_everything_marked_is_certain(self):
        for r in range(4):
            assert success_probability(16, 16, r) == pytest.approx(1.0, abs=1e-12)

    def test_zero_marked_is_zero(self):
        assert success_probability(32, 0, 7) == 0.0

    @pytest.mark.parametrize("n_k_r", [((4, 1), 1), ((1024, 1), 25), ((64, 64), 0)])
    def test_optimal_iterations(self, n_k_r):
        (n, k), expected = n_k_r
        assert optimal_iterations(n, k) == expected

    def test_optimal_iterations_rejects_zero_marked(self):
        with pytest.raises(KZeroError):
            optimal_iterations(16, 0)


class TestSearchSpace:
    @pytest.mark.parametrize("logical,domain", [(0, 2), (1, 2), (2, 2), (3, 4), (5, 8), (1024, 1024)])
    def test_domain_is_least_power_of_two(self, logical, domain):
        assert space(logical, []).domain_size == domain

    def test_padding_never_marked(self):
        s = SearchSpace(3, lambda i: True)
        assert [s.marker(i) for i in range(4)] == [True, True, True, False]
        assert s.marked_count == 3


class TestGroverSearch:
    def test_certain_hit_with_one_marked_of_four(self):
        s = space(4, [2])
        for seed in range(25):
            stats = grover_search(s, 1, seed)
            assert stats.success and stats.measured_index == 2
            assert stats.oracle_applications == stats.iterations == 1

    def test_zero_iterations_samples_uniformly(self):
        s = space(8, [3])
        counts = np.zeros(8, int)
        for seed in range(400):
            counts[grover_search(s, 0, seed).measured_index] += 1
        assert (counts > 0).all()
        assert counts.max() < 400 * 0.3

    def test_nothing_marked_leaves_state_uniform(self):
        s = space(16, [])
        sv = StateVector(s.domain_size)
        before = sv.amplitudes.copy()
        mask = marked_mask(s)
        for _ in range(10):
            sv.grover_iteration(mask)
        assert np.abs(sv.amplitudes - before).max() <= 1e-12
        assert not grover_search(s, 5, 1).success

    def test_simulation_matches_formula_small_grid(self):
        for n in (2, 8, 64, 256):
            for k in range(0, min(n, 5)):
                s = space(n, range(k))
                mask = marked_mask(s)
                sv = StateVector(s.domain_size)
                r_max = 2 * optimal_iterations(n, k) if k else 6
                for r in range(r_max + 1):
                    assert sv.marked_probability(mask) == pytest.approx(
                        success_probability(n, k, r), abs=1e-9
                    )
                    sv.grover_iteration(mask)
                    assert abs(sv.norm() - 1.0) <= 1e-12

    def test_two_level_flatness(self):
        s = space(64, [3, 17, 40])
        mask = marked_mask(s)
        sv = StateVector(64)
        for _ in range(12):
            sv.grover_iteration(mask)
            marked = sv.amplitudes[mask]
            unmarked = sv.amplitudes[~mask]
            assert marked.max() - marked.min() <= 1e-12
            assert unmarked.max() - unmarked.min() <= 1e-12

    def test_padding_carries_unmarked_amplitude(self):
        # logical size 5 pads indices 5..7; padding must track the unmarked class
        s = space(5, [1, 4])
        mask = marked_mask(s)
        sv = StateVector(s.domain_size)
        for _ in range(6):
            sv.grover_iteration(mask)
            unmarked_logical = sv.amplitudes[2]
            for pad in range(5, 8):
                assert abs(sv.amplitudes[pad] - unmarked_logical) <= 1e-12

    def test_padding_never_a_success(self):
        s = space(5, range(5))  # every logical index marked, pads stay out
        for seed in range(40):
            stats = grover_search(s, 1, seed)
            if stats.success:
                assert stats.measured_index < 5


class TestBbht:
    def test_everything_marked_ends_in_first_round(self):
        s = space(8, range(8))
        for seed in range(10):
            found, stats = bbht_search(s, seed)
            assert found is not None and s.marker(found)
            assert stats.oracle_applications <= 2

    def test_nothing_marked_respects_cutoff(self):
        s = space(64, [])
        found, stats = bbht_search(s, 5)
        assert found is None
        assert stats.grover_iterations <= bbht_cutoff(64)
        assert stats.oracle_applications == stats.grover_iterations + stats.checks

    def test_counts_applications_on_oracle(self):
        s = space(16, [9])
        o = edge_oracle(triangle())
        found, stats = bbht_search(s, 3, o)
        assert found == 9
        assert o.quantum_queries == stats.oracle_applications
        assert o.classical_queries == 0

    def test_deterministic_per_seed(self):
        s = space(64, [5, 9])
        assert bbht_search(s, 11) == bbht_search(s, 11)

    def test_success_rate_and_cost_with_known_density(self):
        # N=64, k=4: analytic mean cost is sqrt(N/k) = 4 iterations; allow 3x
        # for the schedule overhead, and demand >= 95% success within one
        # restart of the schedule.
        s = space(64, [7, 21, 40, 61])
        hits = 0
        applications = []
        trials = 2000
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            found, stats = bbht_search(s, rng)
            total = stats.oracle_applications
            if found is None:
                found, stats2 = bbht_search(s, rng)
                total += stats2.oracle_applications
            if found is not None:
                assert s.marker(found)
                hits += 1
            applications.append(total)
        assert hits / trials >= 0.95
        assert sum(applications) / trials <= 3 * math.sqrt(64 / 4)


class TestClosedFormRound:
    def test_per_index_frequencies_match_dense_reference(self, monkeypatch):
        """Each index is drawn as often as the dense state's squared amplitude says.

        Per index, the count over `draws` samples is Binomial(draws, p); it
        must lie within 5 standard deviations of draws*p, plus 0.5 so that
        p = 0 admits no sample. Cases: padding (logical 5 in N=8), nothing marked, all
        marked, and nearly all marked, where 64 rejected draws in a row are
        likely and the unmarked index comes from the np.setdiff1d fallback.
        """
        fallbacks = []
        setdiff1d = np.setdiff1d
        monkeypatch.setattr(np, "setdiff1d", lambda *a, **k: fallbacks.append(1) or setdiff1d(*a, **k))
        cases = [
            (5, [1, 4], 1),
            (5, [1, 4], 2),
            (6, [], 3),
            (8, range(8), 2),
            (16, [3], 2),
            (63, range(63), 1),  # only the padding index 63 is unmarked
            (64, set(range(64)) - {10, 50}, 1),
        ]
        draws = 4000
        for logical, marked, r in cases:
            s = space(logical, marked)
            state = StateVector(s.domain_size)
            for _ in range(r):
                state.grover_iteration(marked_mask(s))
            p = state.amplitudes**2
            rng = np.random.default_rng(logical * 100 + r)
            counts = np.bincount([_closed_form_round(s, r, rng) for _ in range(draws)], minlength=s.domain_size)
            tolerance = 5 * np.sqrt(draws * p * (1 - p)) + 0.5
            assert (np.abs(counts - draws * p) <= tolerance).all(), (logical, sorted(marked), r, counts, draws * p)
        assert fallbacks
