"""Expander construction, spectral measurement, family certification."""

from fractions import Fraction
from itertools import combinations
from math import gcd, sqrt

import numpy as np
import pytest

from gapforge.errors import GapforgeError, InfeasibleParametersError
from gapforge.sampler import (
    DEFAULT_DEGREE_SCHEDULE,
    RegularGraph,
    SamplerFamily,
    SamplerParams,
    adversarial_corpus,
    build_expander,
    build_full_family,
    build_sampler_family,
    certify_sampler,
    intersection_degree,
    mixing_bound,
    second_eigenvalue,
    second_eigenvalue_dense,
    trace_lambda_sq_bound,
)
from gapforge.sampler import _neighbor_sum
from gapforge.util import derive_seed, rng_from


# two disjoint copies of K4, and a 3-regular bipartite graph on 4 + 4 vertices
TWO_K4 = tuple(
    tuple(u + off for u in range(4) if u != v) for off in (0, 4) for v in range(4)
)
BIPARTITE_CUBIC = tuple(
    tuple((v + k) % 4 + 4 for k in range(3)) if v < 4
    else tuple((v - 4 - k) % 4 for k in range(3))
    for v in range(8)
)


class TestBuildExpander:
    def test_k4(self):
        g = build_expander(4, 3, seed=0)
        assert g.adjacency.tolist() == [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
        assert not g.adjacency.flags.writeable

    def test_determinism(self):
        a = build_expander(20, 6, seed=123)
        b = build_expander(20, 6, seed=123)
        assert a == b
        c = build_expander(20, 6, seed=124)
        assert a != c

    def test_parity_violation(self):
        with pytest.raises(InfeasibleParametersError):
            build_expander(5, 3, seed=0)

    def test_degree_bounds(self):
        with pytest.raises(InfeasibleParametersError):
            build_expander(8, 2, seed=0)
        with pytest.raises(InfeasibleParametersError):
            build_expander(8, 8, seed=0)

    def test_regular_simple_connected(self):
        for N, D in ((12, 5), (16, 11), (30, 4), (16, 15)):
            if (N * D) % 2:
                continue
            g = build_expander(N, D, seed=7)
            assert g.connected_non_bipartite()
            for v, row in enumerate(g.adjacency):
                assert len(row) == D
                assert len(set(row)) == D  # simple
                assert v not in row  # loop-free

    def test_connected_non_bipartite(self):
        assert build_expander(4, 3, seed=0).connected_non_bipartite()  # K4
        assert not RegularGraph(8, 3, TWO_K4).connected_non_bipartite()
        assert not RegularGraph(8, 3, BIPARTITE_CUBIC).connected_non_bipartite()
        # circulant C_N(a, b): connected iff gcd(N, a, b) = 1, and then
        # bipartite iff N is even and both offsets are odd
        for N in (8, 9, 12, 15, 16):
            for a, b in combinations(range(1, (N + 1) // 2), 2):
                adj = [[(v + d) % N for d in (a, -a, b, -b)] for v in range(N)]
                want = gcd(N, a, b) == 1 and not (N % 2 == 0 and a % 2 and b % 2)
                assert RegularGraph(N, 4, adj).connected_non_bipartite() == want

    def test_malformed_adjacency_rejected(self):
        for N, D, adj, msg in (
            (4, 3, ((1, 2, 3), (0, 2), (0, 1, 3), (0, 1, 2)), "exactly D"),
            (4, 2, ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)), "exactly D"),
            (5, 3, ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)), "vertex count"),
            (4, 3, ((1, 2, 4), (0, 2, 3), (0, 1, 3), (0, 1, 2)), "outside"),
        ):
            with pytest.raises(GapforgeError, match=msg):
                RegularGraph(N, D, adj)

    def test_asymmetric_edge_rejected(self):
        # directed 4-cycle: (0, 1) is an entry, (1, 0) is not
        with pytest.raises(GapforgeError, match="not symmetric"):
            RegularGraph(4, 1, ((1,), (2,), (3,), (0,)))

    def test_asymmetric_multiplicity_rejected(self):
        # both directions of (0, 1) are present, but (0, 1) twice and (1, 0)
        # once; the edge sets agree, only the multiset differs
        with pytest.raises(GapforgeError, match=r"not symmetric at \(0,1\)"):
            RegularGraph(3, 2, ((1, 1), (0, 2), (1, 2)))

    def test_symmetry_check_matches_pairwise_reference(self):
        def symmetric(adj):
            counts = {}
            for u, row in enumerate(adj):
                for v in row:
                    counts[(u, v)] = counts.get((u, v), 0) + 1
            return all(counts.get((v, u), 0) == c for (u, v), c in counts.items())

        rng = rng_from(5)
        for trial in range(40):
            g = build_expander(12, 4, seed=trial)
            adj = [list(row) for row in g.adjacency]
            if trial % 4:  # move one entry; some moves keep the multiset symmetric
                adj[int(rng.integers(12))][int(rng.integers(4))] = int(rng.integers(12))
            adj = tuple(tuple(row) for row in adj)
            if symmetric(adj):
                RegularGraph(12, 4, adj)
            else:
                with pytest.raises(GapforgeError, match="not symmetric"):
                    RegularGraph(12, 4, adj)

    def test_most_random_cubic_graphs_expand(self):
        # N=6, D=3: measured lambda below 0.95 for at least 90 of 100 seeds
        good = 0
        for seed in range(100):
            g = build_expander(6, 3, seed=seed)
            if second_eigenvalue_dense(g) < 0.95:
                good += 1
        assert good >= 90


class TestSecondEigenvalue:
    def test_complete_graph_spectrum(self):
        for D in (3, 7, 15):
            g = build_expander(D + 1, D, seed=0)
            assert second_eigenvalue(g, 1e-9) == pytest.approx(1.0 / D, abs=1e-9)

    def test_disconnected_two_components(self):
        g = RegularGraph(8, 3, TWO_K4)
        assert second_eigenvalue(g, 1e-9) == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_n16(self):
        g = build_expander(16, 3, seed=42)
        assert abs(second_eigenvalue(g, 1e-8) - second_eigenvalue_dense(g)) < 1e-6

    def test_matches_dense_up_to_64(self):
        for N, D, seed in ((8, 4, 0), (24, 5, 1), (48, 7, 2), (64, 9, 3), (64, 32, 4)):
            g = build_expander(N, D, seed=seed)
            assert abs(second_eigenvalue(g, 1e-8) - second_eigenvalue_dense(g)) < 1e-6

    def test_bipartite_absolute_value(self):
        # 3-regular bipartite: eigenvalue -1, so the absolute second is 1
        g = RegularGraph(8, 3, BIPARTITE_CUBIC)
        assert second_eigenvalue(g, 1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_early_stop_is_a_lower_bound_above_stop(self):
        early = 0
        for N, D, seed in ((8, 4, 0), (24, 5, 1), (48, 7, 2), (64, 9, 3), (64, 32, 4)):
            g = build_expander(N, D, seed=seed)
            exact = second_eigenvalue_dense(g)
            for frac in (0.0, 0.5, 0.9, 0.99):
                stop = frac * exact
                got = second_eigenvalue(g, 1e-8, stop_above=stop)
                assert stop < got <= exact + 1e-12
                early += got < exact - 1e-6
        assert early, "no case stopped before converging"

    def test_early_stop_never_meets_an_accepted_solve(self):
        for N, D, seed in ((24, 5, 1), (64, 9, 3)):
            g = build_expander(N, D, seed=seed)
            full = second_eigenvalue(g, 1e-8)
            for stop in (full, full + 1e-9, 0.99):
                assert second_eigenvalue(g, 1e-8, stop_above=stop) == full


    @pytest.mark.parametrize("N, D", [(40, 4), (64, 8), (1536, 64)])
    @pytest.mark.parametrize("b", [2, 8])
    def test_block_walk_matches_gather_sum_bit_for_bit(self, N, D, b):
        g = build_expander(N, D, seed=D)
        M = rng_from(N + b).standard_normal((N, b))
        want = M[g.adjacency].sum(axis=1) / D
        got = _neighbor_sum(M, np.ascontiguousarray(g.adjacency.T)) / D
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestTraceBound:
    def test_bounds_dense_lambda_on_expanders(self):
        for N in (10, 16, 32, 48, 64):
            for D in (3, 4, 6, N // 2, N - 2):
                if (N * D) % 2:
                    continue
                g = build_expander(N, D, seed=N + D)
                bound = sqrt(trace_lambda_sq_bound(g))
                assert bound >= second_eigenvalue_dense(g) - 1e-12
                assert bound == pytest.approx((N / D - 1) ** 0.5, rel=1e-12)
                assert trace_lambda_sq_bound(g) == Fraction(N - D, D)

    def test_complete_graph(self):
        for N in (4, 8, 16):
            g = build_expander(N, N - 1, seed=0)
            assert trace_lambda_sq_bound(g) == Fraction(1, N - 1)
            assert sqrt(trace_lambda_sq_bound(g)) == pytest.approx((N - 1) ** -0.5)
            assert second_eigenvalue_dense(g) == pytest.approx(1 / (N - 1))

    def test_multigraph_counts_repeated_neighbors(self):
        # 4-regular on 4 vertices: edges {0,1} and {2,3} twice, every other
        # pair once
        adj = ((1, 1, 3, 2), (0, 0, 2, 3), (1, 3, 3, 0), (2, 2, 0, 1))
        g = RegularGraph(4, 4, adj)
        # S = 4 vertices * (2^2 + 1 + 1) = 24, so lambda^2 <= 24/16 - 1
        assert trace_lambda_sq_bound(g) == Fraction(1, 2)
        assert sqrt(trace_lambda_sq_bound(g)) >= second_eigenvalue_dense(g) - 1e-12
        # the simple-graph formula sqrt(N/D - 1) would give 0 here
        assert second_eigenvalue_dense(g) > 0.4


PARAMS = SamplerParams(
    epsilon=Fraction(1, 10),
    delta=Fraction(6, 10),
    gamma=Fraction(8, 10),
    target_lambda=0.95,
)


class TestFamilies:
    def test_halved_family_shape(self):
        fam = build_sampler_family(PARAMS, 64, seed=5)
        assert len(fam.sets) == 32
        sizes = {len(s) for s in fam.sets}
        assert len(sizes) == 1

    def test_odd_ground_set_floors(self):
        fam = build_sampler_family(PARAMS, 33, seed=5, degree_schedule=(4, 8))
        assert len(fam.sets) == 16

    def test_full_family_shape(self):
        fam = build_full_family(PARAMS, 32, seed=5)
        assert len(fam.sets) == 32

    def test_determinism_byte_for_byte(self):
        a = build_sampler_family(PARAMS, 64, seed=9)
        b = build_sampler_family(PARAMS, 64, seed=9)
        assert a == b  # sets, params, lambda and degree
        assert a.sets.tobytes() == b.sets.tobytes()

    def test_equality_tells_kinds_apart(self):
        # one seed's halved and full families share the first N/2 rows
        halved = build_sampler_family(PARAMS, 32, seed=5)
        full = build_full_family(PARAMS, 32, seed=5)
        assert np.array_equal(halved.sets, full.sets[:16])
        assert halved != full
        # the same sets given explicitly carry no graph lambda or degree
        explicit = SamplerFamily(32, full.sets, PARAMS)
        assert np.array_equal(explicit.sets, full.sets)
        assert explicit != full

    def test_infeasible_lambda_target(self):
        strict = SamplerParams(
            epsilon=Fraction(1, 10),
            delta=Fraction(6, 10),
            gamma=Fraction(8, 10),
            target_lambda=0.01,
        )
        with pytest.raises(InfeasibleParametersError):
            build_sampler_family(strict, 16, seed=0, degree_schedule=(4, 6))

    def test_intersection_bound(self):
        fam = build_sampler_family(PARAMS, 256, seed=3, degree_schedule=(8,))
        d = intersection_degree(fam)
        assert d <= fam.set_size**2

    def test_intersection_degree_matches_pairwise_count(self):
        # 600 sets span three row blocks of the overlap computation
        rng = np.random.default_rng(5)
        sets = [tuple(sorted(rng.choice(900, 3, replace=False).tolist())) for _ in range(600)]
        fam = SamplerFamily(900, sets, PARAMS)
        expected = max(
            sum(1 for j, t in enumerate(sets) if j != i and set(s) & set(t))
            for i, s in enumerate(sets)
        )
        assert intersection_degree(fam) == expected

    def test_intersection_degree_computed_once_per_family(self, monkeypatch):
        rng = np.random.default_rng(6)
        sets = [tuple(sorted(rng.choice(300, 4, replace=False).tolist())) for _ in range(300)]
        fam = SamplerFamily(300, sets, PARAMS)
        built = []
        real = SamplerFamily.incidence

        def counting(self):
            built.append(1)
            return real(self)

        monkeypatch.setattr(SamplerFamily, "incidence", counting)
        first = intersection_degree(fam)
        assert len(built) == 1
        assert intersection_degree(fam) == first
        assert len(built) == 1

    def test_family_invariants_enforced(self):
        for sets, msg in (
            ([(0, 1), (1, 1)], "repeated elements"),
            ([(0, 1), (2,)], "one cardinality"),
            ([(0, 1), (1, 4)], "outside the ground set"),
            ([(0, 1), (-1, 2)], "outside the ground set"),
        ):
            with pytest.raises(GapforgeError, match=msg):
                SamplerFamily(4, sets, PARAMS)

    def test_sets_are_sorted_read_only_rows(self):
        fam = SamplerFamily(4, [(3, 0), (2, 1)], PARAMS)
        assert fam.sets.tolist() == [[0, 3], [1, 2]]
        assert not fam.sets.flags.writeable
        assert fam.incidence().tolist() == [[1, 0, 0, 1], [0, 1, 1, 0]]
        assert fam == SamplerFamily(4, [(0, 3), (1, 2)], PARAMS)
        assert fam != SamplerFamily(4, [(0, 3), (1, 3)], PARAMS)


def _reference_search(params, N, seed, degree_schedule=None):
    """(degree, lambda) the expander search picks when every degree is solved
    to 1e-8 with no early stop, or None when no degree qualifies."""
    schedule = [
        d for d in (degree_schedule or DEFAULT_DEGREE_SCHEDULE)
        if 3 <= d <= N - 1 and (N * d) % 2 == 0
    ]
    if degree_schedule is None and N - 1 not in schedule:
        schedule.append(N - 1)
    for D in schedule:
        lam = second_eigenvalue(build_expander(N, D, derive_seed(seed, D)), 1e-8)
        if lam <= params.target_lambda:
            return D, lam
    return None


def _params(target: float) -> SamplerParams:
    return SamplerParams(PARAMS.epsilon, PARAMS.delta, PARAMS.gamma, target)


class TestEarlyRejection:
    """Early rejection of failing degrees picks the degree, and the bit-exact
    lambda, that full solves of every degree pick."""

    @pytest.mark.parametrize(
        "N, seed, target, schedule",
        [
            (128, 9, 0.5, None),
            (256, 21, 0.3, None),
            (256, 21, 0.97, None),
            (12, 4, 0.1, None),  # only the appended complete graph qualifies
            (10, 1, 0.2, None),
            (64, 3, 0.45, (8, 12, 16, 24)),
        ],
    )
    def test_same_degree_and_lambda_as_full_solves(self, N, seed, target, schedule):
        params = _params(target)
        want = _reference_search(params, N, seed, schedule)
        assert want is not None
        for build in (build_full_family, build_sampler_family):
            fam = build(params, N, seed, schedule)
            assert (fam.degree, fam.measured_lambda) == want

    def test_target_between_adjacent_degrees(self):
        N, seed = 64, 3
        lams = {
            D: second_eigenvalue(build_expander(N, D, derive_seed(seed, D)), 1e-8)
            for D in (24, 32)
        }
        assert lams[32] < lams[24]
        params = _params((lams[24] + lams[32]) / 2)
        want = _reference_search(params, N, seed)
        assert want == (32, lams[32])
        fam = build_full_family(params, N, seed)
        assert (fam.degree, fam.measured_lambda) == want

    def test_no_qualifying_degree_still_raises(self):
        params = _params(0.05)
        assert _reference_search(params, 64, 3, (4, 8, 16)) is None
        with pytest.raises(InfeasibleParametersError):
            build_full_family(params, 64, 3, (4, 8, 16))


class TestCertification:
    def test_all_zeros_no_deviation(self):
        fam = build_sampler_family(PARAMS, 32, seed=2)
        rep = certify_sampler(fam, [("zeros", [0] * 32)])
        row = rep.strings[0]
        assert row.deviation_fraction == 0 and row.deviation_ok

    def test_all_ones_no_low_samples(self):
        fam = build_sampler_family(PARAMS, 32, seed=2)
        rep = certify_sampler(fam, [("ones", [1] * 32)])
        row = rep.strings[0]
        assert row.eta == 0 and row.low_fraction == 0 and row.eta_budget_ok

    def test_high_mean_budget(self):
        fam = build_sampler_family(PARAMS, 256, seed=4, degree_schedule=(48,))
        bits = np.ones(256, dtype=int)
        bits[:12] = 0  # eta = 3/64 < (1-gamma)/2
        rep = certify_sampler(fam, [("clustered", bits.tolist())])
        row = rep.strings[0]
        assert row.eta == Fraction(12, 256)
        assert row.eta_budget_ok and row.mixing_ok

    def test_adversarial_corpus_certifies(self):
        fam = build_sampler_family(PARAMS, 256, seed=11, degree_schedule=(48,))
        rep = certify_sampler(fam, adversarial_corpus(fam, seed=1))
        assert rep.passed

    def test_rerun_gives_identical_report(self):
        fam = build_sampler_family(PARAMS, 64, seed=6)
        corpus = adversarial_corpus(fam, seed=2)
        assert certify_sampler(fam, corpus) == certify_sampler(fam, corpus)

    def test_counts_match_per_set_fractions(self, monkeypatch):
        fam = build_sampler_family(PARAMS, 256, seed=11, degree_schedule=(48,))
        corpus = adversarial_corpus(fam, seed=1)
        built = []
        real = SamplerFamily.incidence

        def counting(self):
            built.append(1)
            return real(self)

        monkeypatch.setattr(SamplerFamily, "incidence", counting)
        rep = certify_sampler(fam, corpus)
        assert len(built) == 1
        eps, gamma = PARAMS.epsilon, PARAMS.gamma
        high_mean = 0
        for row, (label, bits) in zip(rep.strings, corpus):
            mean = Fraction(sum(bits), len(bits))
            ones = [sum(bits[p] for p in s) for s in fam.sets.tolist()]
            dev = sum(abs(Fraction(o, fam.set_size) - mean) > eps for o in ones)
            assert row.label == label and row.mean == mean
            assert row.deviation_fraction == Fraction(dev, len(ones))
            if row.low_fraction is not None:
                high_mean += 1
                low = sum(Fraction(o, fam.set_size) < gamma for o in ones)
                assert row.low_fraction == Fraction(low, len(ones))
        assert high_mean > 0

    def test_length_mismatch(self):
        fam = build_sampler_family(PARAMS, 32, seed=2)
        with pytest.raises(GapforgeError):
            certify_sampler(fam, [("bad", [1] * 31)])


class TestMixingBound:
    def test_vanishes_with_lambda(self):
        assert mixing_bound(0.0, Fraction(8, 10), Fraction(1, 25)) == 0.0

    def test_arithmetic_example(self):
        val = mixing_bound(0.1, Fraction(8, 10), Fraction(1, 25))
        assert val == pytest.approx(0.04)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            mixing_bound(0.1, Fraction(8, 10), Fraction(1, 10))  # eta too large
        with pytest.raises(ValueError):
            mixing_bound(1.5, Fraction(8, 10), Fraction(1, 25))

    def test_measured_low_fraction_within_bound(self):
        fam = build_sampler_family(PARAMS, 512, seed=13, degree_schedule=(48,))
        corpus = adversarial_corpus(fam, seed=3)
        rep = certify_sampler(fam, corpus)
        rows = [r for r in rep.strings if r.mixing_ok is not None]
        assert rows, "corpus must exercise the high-mean regime"
        assert all(r.mixing_ok for r in rows)
