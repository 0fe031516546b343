"""Grover simulator fidelity and the unknown-count schedule."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from mstverify import random_connected_graph, random_spanning_tree, verify
from mstverify.boruvka import build_boruvka_tree
from mstverify.grover import (
    SearchSpace,
    _closed_form_round,
    _round_ceilings,
    _round_counts,
    MISS_BOUND,
    bbht_cutoff,
    bbht_search,
    success_probability,
)

from .reference import (
    KZeroError,
    StateVector,
    bbht_stop_law,
    chunked_bbht_search,
    grover_search,
    loop_bbht_search,
    marked_mask,
    optimal_iterations,
    rejection_round,
)


DELTA = 0.01
Q = Fraction(*MISS_BOUND)


def space(logical, marked):
    marked = np.array(sorted(set(marked)), dtype=np.int64)
    return SearchSpace(logical, lambda: marked)


def search(s, rng_seed):
    """One schedule at the default delta's cutoff, on default_rng(rng_seed): a Generator is used as is."""
    return bbht_search(s, np.random.default_rng(rng_seed), bbht_cutoff(s.domain_size, DELTA))


def within_binomial(counts, trials, p) -> bool:
    """Every count of Binomial(trials, p) within 5 standard deviations, plus 0.5 so that p = 0 admits no sample."""
    counts, p = np.asarray(counts), np.asarray(p)
    return bool((np.abs(counts - trials * p) <= 5 * np.sqrt(trials * p * (1 - p)) + 0.5).all())


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

    def test_more_marked_than_the_domain_rejected(self):
        with pytest.raises(ValueError, match="need 0 <= k <= N, got k=5 N=4"):
            success_probability(4, 5, 1)

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

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="logical size must be >= 0"):
            SearchSpace(-1, bool)

    @pytest.mark.parametrize("mode", ["edgelist", "adjacency"])
    def test_padding_never_marked(self, mode):
        """A verify's search space marks only indices below its logical size, so the padding up to N stays unmarked."""
        rng = np.random.default_rng(3)
        padded = marked_total = 0
        for _ in range(40):
            g = random_connected_graph(int(rng.integers(3, 24)), None, rng)
            t = random_spanning_tree(g, rng)
            s, _ = verify._search_space(g, verify._violations(g, t, build_boruvka_tree(g, t)), mode)
            marked = s.marked_indices()
            assert marked.dtype == np.int64 and (marked < s.logical_size).all()
            assert not marked_mask(s)[s.logical_size :].any()
            padded += s.logical_size < s.domain_size
            marked_total += marked.size
        assert padded > 0 and marked_total > 0


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
            found, stats = search(s, seed)
            assert found is not None and found in s.marked_indices()
            assert stats.oracle_applications <= 2

    def test_nothing_marked_respects_cutoff(self):
        s = space(64, [])
        found, stats = search(s, 5)
        assert found is None
        assert stats.grover_iterations == bbht_cutoff(64, DELTA)
        assert stats.oracle_applications == stats.grover_iterations + stats.rounds

    def test_deterministic_per_seed(self):
        s = space(64, [5, 9])
        assert search(s, 11) == search(s, 11)

    def test_success_rate_and_cost_with_known_density(self):
        # N=64, k=4: analytic mean cost is sqrt(N/k) = 4 iterations; allow 3x
        # for the schedule overhead, and demand >= 99% success of one schedule.
        s = space(64, [7, 21, 40, 61])
        hits = 0
        applications = []
        trials = 2000
        for seed in range(trials):
            found, stats = search(s, seed)
            if found is not None:
                assert found in s.marked_indices()
                hits += 1
            applications.append(stats.oracle_applications)
        assert hits / trials >= 1 - DELTA
        assert sum(applications) / trials <= 3 * math.sqrt(64 / 4)


class TestClosedFormRound:
    def test_per_index_frequencies_match_dense_reference(self, monkeypatch):
        """The reference round draws each index as often as the dense state's squared amplitude says.

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
            counts = np.bincount([rejection_round(s, r, rng) for _ in range(draws)], minlength=s.domain_size)
            tolerance = 5 * np.sqrt(draws * p * (1 - p)) + 0.5
            assert (np.abs(counts - draws * p) <= tolerance).all(), (logical, sorted(marked), r, counts, draws * p)
        assert fallbacks

    @pytest.mark.parametrize(
        "logical,marked,r",
        [(5, [1, 4], 1), (5, [1, 4], 2), (6, [], 3), (8, range(8), 2), (16, [3], 2), (63, range(63), 1), (512, [7, 300, 511], 5)],
    )
    def test_hits_follow_the_closed_form_and_are_uniform_over_the_marked(self, logical, marked, r):
        """The round hits at the closed-form rate, a hit is uniform over the marked indices, padding never comes back.

        Over `draws` rounds the hit count is Binomial(draws, p), and given
        `hits` hits each marked index's count is Binomial(hits, 1/k).
        """
        s = space(logical, marked)
        n, k = s.domain_size, s.marked_count
        p = success_probability(n, k, r)
        draws = 4000
        rng = np.random.default_rng(logical * 100 + r)
        outcomes = [_closed_form_round(s, r, u, rng) for u in rng.random(draws).tolist()]
        found = [i for i in outcomes if i is not None]
        assert within_binomial(len(found), draws, p)
        assert all(isinstance(i, int) and i in s.marked_indices() and i < logical for i in found)
        if found:
            counts = np.bincount(found, minlength=n)[s.marked_indices()]
            assert within_binomial(counts, len(found), 1 / k), counts

    def test_draws_no_index_on_a_miss(self):
        s = space(64, [5])
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert _closed_form_round(s, 3, 0.999999, rng) is None
        assert rng.bit_generator.state == before


def mean_and_se(values) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    return values.mean(), values.std(ddof=1) / math.sqrt(values.size)


class TestScheduleAgainstReference:
    @pytest.mark.parametrize(
        "logical,marked", [(8, []), (8, range(8)), (5, [1, 4]), (64, [9]), (64, [7, 21, 40, 61]), (512, [3, 100, 400])]
    )
    def test_matches_the_round_by_round_loop(self, logical, marked):
        """Hit rate, mean rounds and mean iterations of the chunked schedule and the loop agree within 5 standard errors."""
        s = space(logical, marked)
        schedules = 2000
        cutoff = bbht_cutoff(s.domain_size, DELTA)
        ours = [search(s, seed) for seed in range(schedules)]
        loop = [loop_bbht_search(s, schedules + seed, cutoff) for seed in range(schedules)]
        for stat in (
            lambda found, stats: found is not None,
            lambda found, stats: stats.rounds,
            lambda found, stats: stats.grover_iterations,
        ):
            mean_a, se_a = mean_and_se([stat(*run) for run in ours])
            mean_b, se_b = mean_and_se([stat(*run) for run in loop])
            assert abs(mean_a - mean_b) <= 5 * math.hypot(se_a, se_b) + 1e-12, (mean_a, mean_b)
        assert all(found is None or found in s.marked_indices() for found, _ in ours)

    @pytest.mark.parametrize("delta", [0.49, 0.26, 0.25, DELTA, 1e-6])
    def test_one_schedule_fails_with_probability_at_most_delta(self, delta):
        """The cutoff's guarantee, exactly, for every marked count k >= 1 at every N up to 2^9.

        2^9 is the largest domain a 32-vertex adjacency search has.
        """
        for n in [2**e for e in range(1, 10)]:
            p_fail, stop = bbht_stop_law(n, np.arange(1, n + 1), bbht_cutoff(n, delta))
            assert (p_fail <= delta).all(), (n, int(p_fail.argmax()) + 1, p_fail.max())
            assert stop.sum(axis=1) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,k", [(1024, 1), (1024, 5), (4096, 1), (4096, 3)])
    def test_one_schedule_fails_with_probability_at_most_delta_at_larger_domains(self, n, k):
        p_fail, _ = bbht_stop_law(n, k, bbht_cutoff(n, DELTA))
        assert p_fail <= DELTA, (n, k, p_fail)

    @pytest.mark.parametrize("n", [2**e for e in range(1, 41)])
    def test_capped_rounds_of_the_bound_run_unclamped(self, n):
        """Steps (c) and (d) of the cutoff's proof, on the schedule's own ceilings.

        The ceilings never fall, the last is c = ceil(sqrt N) (so a capped
        round hits with the Lemma 2 bound), and every round up to the j-th
        whose ceiling is c, each spending at most its ceiling less one,
        fits under the cutoff, at deltas from 0.49 to 1e-308. j is
        bbht_cutoff(4, delta), as TestCappedRounds checks.
        """
        ceilings = _round_ceilings(n).ravel().tolist()
        c = math.isqrt(n - 1) + 1
        assert all(a <= b for a, b in zip(ceilings, ceilings[1:])) and ceilings[-1] == c
        first = ceilings.index(c)
        for delta in (0.49, 0.25, DELTA, 1e-308):
            spent = sum(x - 1 for x in ceilings[:first]) + bbht_cutoff(4, delta) * (c - 1)
            assert spent == bbht_cutoff(n, delta), (n, delta, first, spent)

    @pytest.mark.parametrize("n", [2**e for e in range(1, 41)])
    def test_count_draws_stay_below_their_ceilings(self, n):
        """The schedule's count expression maps Generator.random's largest value, 1 - 2^-53, to c - 1 and 0 to 0 for every ceiling c."""
        rows = _round_ceilings(n)
        for row in rows:
            assert _round_counts(np.full(row.size, 1 - 2.0**-53), row).tolist() == (row - 1).tolist()
            assert _round_counts(np.zeros(row.size), row).tolist() == [0] * row.size

    def test_nothing_marked_always_fails(self):
        p_fail, _ = bbht_stop_law(64, 0, bbht_cutoff(64, DELTA))
        assert p_fail == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("logical,marked", [(8, []), (64, [7, 21, 40, 61])])
    def test_stop_rounds_follow_the_exact_law(self, logical, marked):
        """The histogram of stats.rounds, and the failure count, lie within binomial bounds of the exact law.

        Round counts expected fewer than 5 times are pooled into one bin,
        so no bin's bound rests on a near-zero probability.
        """
        s = space(logical, marked)
        p_fail, stop = bbht_stop_law(s.domain_size, s.marked_count, bbht_cutoff(s.domain_size, DELTA))
        schedules = 4000
        runs = [search(s, seed) for seed in range(schedules)]
        rounds = np.bincount([stats.rounds for _, stats in runs], minlength=stop.size)
        assert rounds.size == stop.size  # no schedule outlasts the law's rounds
        common = schedules * stop >= 5
        assert within_binomial(rounds[common], schedules, stop[common]), (rounds, schedules * stop)
        assert within_binomial(rounds[~common].sum(), schedules, stop[~common].sum())
        assert within_binomial(sum(found is None for found, _ in runs), schedules, p_fail)


class TestRandomStream:
    @pytest.mark.parametrize(
        "logical,marked",
        [(1, []), (2, [0, 1]), (5, [1, 4]), (8, []), (64, [9]), (512, [3, 100, 400]), (130816, [])],
    )
    def test_draws_and_reports_equal_the_generator_schedule(self, logical, marked):
        """Seven schedules on one shared Generator: same index and BbhtStats per schedule, same Generator state after.

        The last case (N = 2^17, cutoff 6011) runs 53 to 70 rounds, past one
        chunk and into rounds capped at sqrt(N).
        """
        s = space(logical, marked)
        cutoff = bbht_cutoff(s.domain_size, DELTA)
        for seed in range(40):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(7):
                assert search(s, ours) == chunked_bbht_search(s, theirs, cutoff), (logical, seed)
            assert ours.bit_generator.state == theirs.bit_generator.state, (logical, seed)


class TestCappedRounds:
    POWERS = [float(Q**i) for i in range(2, 40)]

    def test_miss_bound_covers_lemma_two(self):
        """q >= 1/2 + 1/(4 sqrt 3), exactly: (4(q - 1/2))^2 * 3 >= 1."""
        assert (4 * (Q - Fraction(1, 2))) ** 2 * 3 >= 1
        assert Q == Fraction(6444, 10000)

    @pytest.mark.parametrize(
        "delta",
        [1e-308, 2.0**-1022, 0.01, 0.49, 0.25, 0.26]
        + [d for q in POWERS for d in (math.nextafter(q, 0.0), q, math.nextafter(q, 1.0))],
    )
    def test_count_is_the_least_whose_misses_fit_in_delta(self, delta):
        """j capped rounds, each missing with probability at most q, miss together with probability <= delta; j - 1 might not.

        At N = 4 the ceilings are 1, 2, 2, ..., so W = 0, c - 1 = 1 and the cutoff is j.
        """
        j = bbht_cutoff(4, delta)
        assert j >= 2
        assert Q**j <= Fraction(delta)
        assert Q ** (j - 1) > Fraction(delta)
