"""Gap reductions: balancing, thresholds, one-sided soundness, drivers."""

import itertools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gapforge import gapeth
from gapforge.csp import (
    Clause,
    CspInstance,
    clause_values,
    csp_to_3sat,
    disjunction,
    satisfied_fraction,
)
from gapforge.errors import GapforgeError, MalformedInstanceError, ShapeMismatchError
from gapforge.gapeth import (
    _BATCH_COLUMNS,
    _BATCH_MAX_COLUMNS,
    ReductionParams,
    _balance_cutoffs,
    _distinct_columns,
    _extremal_sums,
    _gather_maxima,
    _multiplicities,
    _pattern_sat_matrix,
    _sweep_report,
    _threshold_clause,
    _threshold_clauses,
    canonical_no_instance,
    check_balanced,
    one_sided_sweep,
    reduce_one_sided,
    reduce_two_sided,
    reduction_family,
    reduction_family_params,
    sample_list,
    solve_driver,
)
from gapforge.oracle import brute_force_opt, is_satisfiable
from gapforge.sampler import SamplerFamily
from gapforge.util import derive_seed, floor_frac, rng_from, threshold_count

from conftest import list_instance, random_3sat, unit_pair_instance
from test_oracle import random_table_instance


def small_params(**kw) -> ReductionParams:
    defaults = dict(s=Fraction(1, 2), epsilon=Fraction(1, 4), k=16, t=4, seed=0)
    defaults.update(kw)
    return ReductionParams(**defaults)


def _set_counts(samples, M):
    """Per-set sums of the rows of M: the multiplicities of samples times M."""
    return _multiplicities(samples, M.shape[0]) @ M


def reference_two_sided_sweep(base, p, trials, columns=lambda M: M):
    """Exact output optima of the two-sided reduction over seeded trials, as
    a SweepReport: trial i reproduces reduce_two_sided at seed
    derive_seed(p.seed, i), and its optimum is the per-trial max over
    columns(M) of the pattern matrix, all 2^n columns by default."""
    n, m = base.num_vars, base.num_clauses
    M = columns(_pattern_sat_matrix(base))
    thr_count = threshold_count(p.threshold, p.k)
    sat_counts = []
    for trial in range(trials):
        seed = derive_seed(derive_seed(p.seed, trial), 0x25ED)
        draws = rng_from(seed).integers(0, m, size=(n, p.k))
        sat = _set_counts(draws, M) >= float(thr_count)
        sat_counts.append(int(sat.sum(axis=0, dtype=np.int64).max()))
    return _sweep_report(sat_counts, n, balanced=trials)


def reference_one_sided_sweep(base, p, fam, trials):
    """one_sided_sweep over all 2^n pattern columns, with the balance check
    compared in Fractions: the reference for the distinct-column reduction
    and the integer balance cut-offs."""
    m = base.num_clauses
    L_len = p.t * m
    M = _pattern_sat_matrix(base)
    thr_count = threshold_count(p.threshold, fam.set_size)
    heavy_size = floor_frac(p.s * m)
    light_size = floor_frac(p.s * (1 + p.epsilon) * m)
    heavy_bound = p.s * (1 + p.epsilon / 3) * L_len
    light_bound = p.s * (1 + 2 * p.epsilon / 3) * L_len
    balanced_trials = 0
    sat_counts = []
    for trial in range(trials):
        seed = derive_seed(derive_seed(p.seed, trial), 0x1157)
        entries = rng_from(seed).integers(0, m, size=L_len)
        heavy_sum, light_sum = _extremal_sums(
            np.bincount(entries, minlength=m), heavy_size, light_size
        )
        if not (Fraction(heavy_sum) <= heavy_bound and Fraction(light_sum) >= light_bound):
            sat_counts.append(L_len // 2)
        else:
            balanced_trials += 1
            sat = _set_counts(entries[fam.sets], M) >= float(thr_count)
            sat_counts.append(int(sat.sum(axis=0, dtype=np.int64).max()))
    return _sweep_report(sat_counts, L_len, balanced_trials)


SWEEP_BASES = ["unit-pair-n8", "mixed-block-n8", "random-3sat-n8", "unit-pair-n12"]


def sweep_bases(no_bases) -> dict:
    """unit-pair, mixed-block and random 3SAT bases at n=8 (m=48), and the
    n=12 unit-pair base of test_failure_frequency_falls_with_k."""
    return {
        "unit-pair-n8": no_bases[1][0],
        "mixed-block-n8": no_bases[3][0],
        "random-3sat-n8": random_3sat(8, 48, 0),
        "unit-pair-n12": unit_pair_instance(12, 48, (0,)),
    }


class TestParams:
    def test_validation(self):
        with pytest.raises(GapforgeError):
            ReductionParams(s=Fraction(3, 4), epsilon=Fraction(1, 2), k=8, t=2, seed=0)
        with pytest.raises(GapforgeError):
            ReductionParams(s=Fraction(1, 2), epsilon=Fraction(1, 4), k=0, t=2, seed=0)

    def test_k_condition(self, red_params):
        assert red_params.k_condition_value == Fraction(256, 9 * 64)
        assert red_params.k_condition_ok
        assert not small_params(k=2).k_condition_ok


class TestLists:
    def test_sample_determinism(self):
        base = random_3sat(6, 12, 1)
        p = small_params(seed=9)
        assert np.array_equal(sample_list(base, p), sample_list(base, p))
        assert not np.array_equal(sample_list(base, p), sample_list(base, replace(p, seed=10)))

    def test_exact_repeat_balanced(self):
        # the 12 base clauses, each listed t = 3 times
        p = small_params(epsilon=Fraction(1, 3), t=3)
        rep = check_balanced(np.tile(np.arange(12), 3), 12, p)
        assert rep.balanced and not rep.floored

    def test_concentrated_list_unbalanced(self):
        p = small_params(t=3)
        rep = check_balanced(np.zeros(36, dtype=np.int64), 12, p)
        assert not rep.balanced and not rep.heavy_ok

    def test_flooring_flagged(self):
        p = small_params(s=Fraction(1, 3), epsilon=Fraction(1, 4), t=3)
        rep = check_balanced(np.tile(np.arange(10), 3), 10, p)
        assert rep.floored

    def test_extremal_sums_match_subset_enumeration(self):
        # the sorted-count shortcut equals brute force over all subsets
        base = random_3sat(5, 6, 3)
        p = small_params(s=Fraction(1, 2), epsilon=Fraction(1, 3), t=2, seed=4)
        m = base.num_clauses
        entries = sample_list(base, p)
        rep = check_balanced(entries, m, p)
        counts = np.bincount(entries, minlength=m)
        heavy = max(
            sum(counts[list(sub)]) for sub in itertools.combinations(range(m), rep.heavy_size)
        )
        light = min(
            sum(counts[list(sub)]) for sub in itertools.combinations(range(m), rep.light_size)
        )
        assert rep.heavy_sum == heavy
        assert rep.light_sum == light

    def test_extremal_sums_match_subset_enumeration_with_ties(self):
        # the sorted-count sums equal brute force over all subsets, on counts
        # with many ties
        for seed in range(20):
            counts = rng_from(seed).integers(0, 4, size=12)

            def subset_sums(size):
                subsets = itertools.combinations(range(12), size)
                return [int(counts[list(sub)].sum()) for sub in subsets]

            for heavy_size, light_size in ((0, 0), (3, 7), (5, 12), (12, 1)):
                want = (max(subset_sums(heavy_size)), min(subset_sums(light_size)))
                assert _extremal_sums(counts, heavy_size, light_size) == want

    @pytest.mark.parametrize(
        "s_, eps, m, t",
        [("3/4", "1/4", 48, 32), ("1/2", "1/4", 12, 3), ("1/3", "1/4", 10, 3), ("1/2", "1/3", 6, 2)],
    )
    def test_integer_cutoffs_match_fraction_bounds(self, s_, eps, m, t):
        p = small_params(s=Fraction(s_), epsilon=Fraction(eps), t=t)
        cut = _balance_cutoffs(p, m, t * m)
        for total in range(t * m + 1):
            assert (total <= cut.heavy_max) == (Fraction(total) <= cut.heavy_bound)
            assert (total >= cut.light_min) == (Fraction(total) >= cut.light_bound)


class TestCanonicalNo:
    @pytest.mark.parametrize("m", [2, 7, 48, 1536])
    def test_optimum_at_most_half(self, m):
        inst = canonical_no_instance(m)
        assert inst.num_clauses == m
        assert brute_force_opt(inst).optimum <= Fraction(1, 2)


class TestTwoSided:
    def test_satisfiable_base_all_thresholds_met(self):
        base = CspInstance(3, tuple(disjunction([(0, True)]) for _ in range(8)))
        p = small_params(k=8)
        out, rep = reduce_two_sided(base, p)
        assert out.num_clauses == base.num_vars
        witness = (1, 0, 0)
        assert satisfied_fraction(out, witness) == 1

    def test_never_satisfiable_base_yields_dead_thresholds(self):
        base = CspInstance(3, tuple(Clause((0, 1), 0) for _ in range(8)))
        p = small_params(k=8)
        out, _ = reduce_two_sided(base, p)
        assert brute_force_opt(out).optimum == 0

    def test_zero_variable_base_refused(self):
        # one output clause per variable: an empty output would accept the
        # 48 contradictions on every trial; a base with variables but no
        # clauses has nothing to sample
        p = small_params(k=8)
        for base in (CspInstance(0, (Clause((), 0),) * 48), CspInstance(3, ())):
            with pytest.raises(MalformedInstanceError, match="needs variables and clauses"):
                reduce_two_sided(base, p)
            with pytest.raises(MalformedInstanceError, match="needs variables and clauses"):
                solve_driver(base, p, 4, subroutine=is_satisfiable, reduction="two-sided")
        # a base with neither keeps its empty output
        assert reduce_two_sided(CspInstance(0, ()), p)[0].num_clauses == 0

    @pytest.mark.parametrize("n", [12, 17])
    def test_clauses_match_threshold_reference(self, n):
        # n=12 reads each table off the full-pattern count matrix; n=17 is
        # above that path's cut-off
        base = random_3sat(n, 64, n)
        p = small_params(k=6, seed=n)
        out, _ = reduce_two_sided(base, p)
        draws = rng_from(derive_seed(p.seed, 0x25ED)).integers(0, 64, size=(n, p.k))
        thr = threshold_count(p.threshold, p.k)
        assert any(c.arity < n for c in out.clauses)
        for clause, row in zip(out.clauses, draws, strict=True):
            assert clause == _threshold_clause(base, row.tolist(), thr)

    def test_failure_frequency_falls_with_k(self):
        # NO base at optimum exactly s: the chance the output looks half
        # satisfiable shrinks as the sample size grows
        base = unit_pair_instance(12, 48, (0,))
        freqs = {}
        for k in (8, 48):
            p = ReductionParams(
                s=Fraction(1, 2), epsilon=Fraction(1, 4), k=k, t=1, seed=77
            )
            sweep = reference_two_sided_sweep(base, p, trials=1500)
            freqs[k] = sweep.optima_above_half / sweep.trials
        assert freqs[48] < freqs[8]

    def test_sweep_matches_object_path(self):
        cases = [
            # optima exactly 1/2 on some trials, above 1/2 on others
            (unit_pair_instance(8, 24, (0, 2)), 12),
            # every trial fully satisfiable
            (CspInstance(3, tuple(disjunction([(0, True)]) for _ in range(8))), 8),
        ]
        trials = 8
        for base, k in cases:
            p = ReductionParams(s=Fraction(1, 2), epsilon=Fraction(1, 4), k=k, t=1, seed=5)
            sweep = reference_two_sided_sweep(base, p, trials)
            opts = [
                brute_force_opt(
                    reduce_two_sided(base, replace(p, seed=derive_seed(p.seed, t)))[0]
                ).optimum
                for t in range(trials)
            ]
            best = max(opts)
            assert sweep.trials == sweep.balanced_trials == trials
            assert sweep.max_optimum == best
            assert sweep.optima_above_half == sum(o > Fraction(1, 2) for o in opts)
            assert sweep.optima_at_one == sum(o == 1 for o in opts)
            assert sweep.worst_trial == (opts.index(best) if best > 0 else -1)


class TestDistinctColumns:
    @pytest.mark.parametrize("which", SWEEP_BASES)
    def test_two_sided_sweep_matches_all_columns(self, which, no_bases):
        # the two-sided optima over the distinct columns equal those over all
        base = sweep_bases(no_bases)[which]
        for k in (8, 48):
            p = ReductionParams(
                s=Fraction(1, 2), epsilon=Fraction(1, 4), k=k, t=1, seed=77
            )
            trials = 100 if base.num_vars > 8 else 300
            got = reference_two_sided_sweep(base, p, trials, _distinct_columns)
            assert got == reference_two_sided_sweep(base, p, trials)

    @pytest.mark.parametrize("which", SWEEP_BASES)
    def test_one_sided_sweep_matches_all_columns(self, which, red_params, red_family, no_bases):
        base = sweep_bases(no_bases)[which]
        trials = 12 if base.num_vars > 8 else 60
        for seed in (red_params.seed, 0xE55):
            p = replace(red_params, seed=seed)
            got = one_sided_sweep(base, p, red_family, trials)
            assert got == reference_one_sided_sweep(base, p, red_family, trials)

    def test_satisfiable_trials_keep_their_worst_trial(self, red_params, red_family, yes_bases):
        # optima reach 1 on some trials, so the max and its first trial are
        # both exercised on the 247 distinct columns of the first YES base
        base = yes_bases[0][0]
        d = _distinct_columns(_pattern_sat_matrix(base)).shape[1]
        assert d == 247 > _BATCH_MAX_COLUMNS  # counted one trial at a time
        p = replace(red_params, seed=0xE55)
        got = one_sided_sweep(base, p, red_family, 100)
        assert got.optima_at_one > 0
        assert got == reference_one_sided_sweep(base, p, red_family, 100)

    def test_no_bases_have_few_distinct_columns(self, no_bases):
        # a base on u variables has at most 2^u distinct columns of its 2^n
        counts = []
        for base, _ in no_bases:
            used = {v for c in base.clauses for v in c.scope}
            M = _pattern_sat_matrix(base)
            distinct = _distinct_columns(M)
            assert M.shape == (base.num_clauses, 1 << base.num_vars)
            assert distinct.shape[0] == base.num_clauses
            assert distinct.shape[1] <= 1 << len(used)
            # every column of M is one of the kept columns
            assert np.unique(np.concatenate([distinct, M], axis=1), axis=1).shape == distinct.shape
            counts.append(distinct.shape[1])
        assert counts == [2, 8, 8, 16]
        assert max(counts) <= _BATCH_MAX_COLUMNS  # counted in batches


def satisfiable_four_variable_base() -> CspInstance:
    """48 three-literal clauses over variables 0-3 of 8, each satisfied by
    x = (1, 0, 1, 1, 0, 0, 0, 0)."""
    x = (1, 0, 1, 1)
    rng = rng_from(0x5A7)
    clauses = []
    for _ in range(48):
        vs = [int(v) for v in rng.choice(4, 3, replace=False)]
        signs = [bool(b) for b in rng.integers(0, 2, 3)]
        if all(sign != bool(x[v]) for v, sign in zip(vs, signs)):
            signs[0] = bool(x[vs[0]])
        clauses.append(disjunction(list(zip(vs, signs))))
    return CspInstance(8, tuple(clauses))


def straddling_bases() -> dict:
    """Bases whose balanced trials have optima on both sides of 1/2: at the
    reduction's threshold of 54 of 64, the per-set counts of their best
    patterns straddle the threshold. d -> base with d distinct columns."""
    units = [disjunction([(0, True)])] * 40 + [disjunction([(0, False)])] * 8
    rng = rng_from(derive_seed(0x57D, 0))
    pairs = []
    for _ in range(48):
        vs = [int(v) for v in rng.choice(4, 2, replace=False)]
        pairs.append(disjunction([(v, bool(b)) for v, b in zip(vs, rng.integers(0, 2, 2))]))
    return {2: CspInstance(8, tuple(units)), 16: CspInstance(8, tuple(pairs))}


class TestBatchedSweep:
    """one_sided_sweep's batched gather kernel, which counts the balanced
    trials of bases with at most _BATCH_MAX_COLUMNS distinct columns."""

    @pytest.mark.parametrize("d", [2, 16])
    def test_matches_reference_over_batches(self, d, red_params, red_family):
        base = straddling_bases()[d]
        assert _distinct_columns(_pattern_sat_matrix(base)).shape[1] == d <= _BATCH_MAX_COLUMNS
        batch = _BATCH_COLUMNS // d
        p = replace(red_params, seed=0xBA7)
        got = one_sided_sweep(base, p, red_family, 3 * batch)
        # two full batches and a partial trailing one
        assert 2 * batch < got.balanced_trials < 3 * batch
        assert 0 < got.optima_above_half < got.balanced_trials
        assert got == reference_one_sided_sweep(base, p, red_family, 3 * batch)

    def test_kernel_matches_per_trial_counts(self, red_family):
        # every trial's maximum
        base = straddling_bases()[16]
        M = _distinct_columns(_pattern_sat_matrix(base))
        rng = rng_from(0xB10C)
        lists = rng.integers(0, 48, size=(1536, 5))
        got = _gather_maxima(red_family.sets, M[lists].astype(np.uint8), 54)
        want = [
            int((_set_counts(lists[:, i][red_family.sets], M) >= 54).sum(axis=0).max())
            for i in range(5)
        ]
        assert got.tolist() == want
        assert len(set(want)) > 1

    def test_sets_wider_than_255(self, red_params):
        # 42 of 48 clauses hold at x0 = 1, so most of the 300-position sets
        # count past 255 there, and the threshold of 254 still splits them
        base = CspInstance(
            8, (disjunction([(0, True)]),) * 42 + (disjunction([(0, False)]),) * 6
        )
        p = replace(red_params, t=24, seed=5)
        rng = rng_from(0x3D)
        sets = [rng.choice(1152, 300, replace=False) for _ in range(1152)]
        fam = SamplerFamily(1152, sets, reduction_family_params(p))
        assert threshold_count(p.threshold, fam.set_size) == 254
        got = one_sided_sweep(base, p, fam, 40)
        assert 0 < got.optima_above_half and got.max_optimum < 1
        assert got == reference_one_sided_sweep(base, p, fam, 40)

    def test_incidence_never_built(self, monkeypatch, red_params, red_family, no_bases, yes_bases):
        def refuse(self):
            raise AssertionError("one_sided_sweep built the incidence matrix")

        monkeypatch.setattr(SamplerFamily, "incidence", refuse)
        # the batched (d = 2) and the per-trial (d = 247) paths
        for base in (no_bases[0][0], yes_bases[0][0]):
            assert one_sided_sweep(base, red_params, red_family, 8).balanced_trials > 0

    def test_zero_trials(self, red_params, red_family, no_bases):
        base = no_bases[0][0]
        got = one_sided_sweep(base, red_params, red_family, 0)
        assert (got.trials, got.balanced_trials, got.worst_trial) == (0, 0, -1)
        assert got == reference_one_sided_sweep(base, red_params, red_family, 0)

    def test_satisfiable_base_keeps_first_maximizing_trial(self, red_params, red_family):
        base = satisfiable_four_variable_base()
        assert brute_force_opt(base).optimum == 1
        d = _distinct_columns(_pattern_sat_matrix(base)).shape[1]
        assert d <= _BATCH_MAX_COLUMNS
        batch = _BATCH_COLUMNS // d
        # trial 0 of this master seed draws an unbalanced list, so the first
        # of the trials at optimum 1, in every batch, is trial 1
        p = replace(red_params, seed=derive_seed(0x5A7, 4))
        got = one_sided_sweep(base, p, red_family, 3 * batch)
        assert got.balanced_trials > 2 * batch
        assert got.optima_at_one == got.balanced_trials
        assert got.worst_trial == 1
        assert got == reference_one_sided_sweep(base, p, red_family, 3 * batch)


class TestOneSided:
    def test_family_validation(self, red_params, red_family):
        base = random_3sat(8, 48, 0)
        wrong = replace(red_params, k=32)
        with pytest.raises(ShapeMismatchError):
            reduce_one_sided(base, wrong, red_family)

    def test_unbalanced_rejection_flag(self, red_params, red_family, no_bases):
        base = no_bases[0][0]
        # walk seeds until one draws an unbalanced list
        for offset in range(200):
            pt = replace(red_params, seed=derive_seed(0xBAD, offset))
            entries = sample_list(base, pt)
            if not check_balanced(entries, base.num_clauses, pt).balanced:
                inst, rep = reduce_one_sided(base, pt, red_family)
                assert rep.rejected_unbalanced
                assert brute_force_opt(inst).optimum <= Fraction(1, 2)
                return
        pytest.skip("no unbalanced draw in the walk")

    def test_satisfiable_base_fully_satisfiable_output(self, red_params, red_family):
        base = CspInstance(8, tuple(disjunction([(0, True)]) for _ in range(48)))
        inst, rep = reduce_one_sided(base, red_params, red_family)
        assert not rep.rejected_unbalanced
        assert satisfied_fraction(inst, (1, 0, 0, 0, 0, 0, 0, 0)) == 1

    def test_count_blocks_keep_the_clauses(self, red_params, red_family, monkeypatch):
        # at n=8 the 1536 sets are one count-matrix block by default; five
        # rows per block leave a partial last block of one row
        assert 1536 << 8 <= gapeth._COUNT_BLOCK_ENTRIES
        base = random_3sat(8, 48, 0)
        whole, rep = reduce_one_sided(base, red_params, red_family)
        assert not rep.rejected_unbalanced
        monkeypatch.setattr(gapeth, "_COUNT_BLOCK_ENTRIES", 5 << 8)
        assert reduce_one_sided(base, red_params, red_family)[0] == whole

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_scope_groups_match_threshold_reference(self, monkeypatch, n, k):
        # six base clauses of one to three variables: the rows fall into
        # several scope groups and repeat tables. Thresholds 0 and k + 1
        # give tautologies and contradictions; seven rows per block split
        # the groups across blocks
        base = random_table_instance(n, 6, [1, 2, 3], seed=n)
        samples = rng_from(derive_seed(n, k)).integers(0, 6, size=(40, k))
        for thr in sorted({0, 1, k, k + 1}):
            out = _threshold_clauses(base, samples, thr)
            # one block: equal clauses are one object
            assert len({id(c) for c in out}) == len(set(out))
            for clause, row in zip(out, samples, strict=True):
                assert clause == _threshold_clause(base, row.tolist(), thr)
            with monkeypatch.context() as mp:
                mp.setattr(gapeth, "_COUNT_BLOCK_ENTRIES", 7 << n)
                assert _threshold_clauses(base, samples, thr) == out

    @pytest.mark.parametrize("n", [0, 1, 5, 8, 16])
    def test_pattern_matrix_matches_clause_values(self, n):
        # arities 0 to 8 (capped at n) over unsorted random scopes, against
        # clause_values with variable v read from pattern bit n - 1 - v
        base = random_table_instance(n, 27, list(range(9)), seed=n)
        patterns = np.arange(1 << n, dtype=np.int64)
        bit_of = {v: n - 1 - v for v in range(n)}
        M = _pattern_sat_matrix(base)
        assert M.dtype == np.float32 and M.shape == (27, 1 << n)
        for row, clause in zip(M, base.clauses, strict=True):
            assert np.array_equal(row, clause_values(clause, patterns, bit_of))

    @pytest.mark.parametrize("n", [6, 14, 15, 16])
    def test_mixed_scopes_match_threshold_reference(self, n):
        # clause 0 has no variables and clauses 1 and 2 together cover all
        # n, so a block holds empty, partial and full scopes at once; at
        # n = 14, 15, 16 blocks are 64, 32 and 16 rows, so 80 rows span two
        # to five blocks
        half = n // 2
        order = rng_from(n).permutation(n).tolist()
        tables = rng_from(n).integers(1 << 62, size=2).tolist()
        clauses = [
            Clause((), 1),
            Clause(tuple(order[:half]), tables[0] % (1 << (1 << half))),
            Clause(tuple(order[half:]), tables[1] % (1 << (1 << (n - half)))),
            disjunction([(order[0], True), (order[-1], False)]),
        ]
        base = CspInstance(n, tuple(clauses))
        rng = rng_from(derive_seed(n, 7))
        samples = np.where(rng.random((80, 3)) < 0.5, 0, rng.integers(0, 4, size=(80, 3)))
        scopes = {len(_threshold_clause(base, row.tolist(), 0).scope) for row in samples}
        assert {0, n} < scopes
        for thr in (0, 1, 2, 3):
            out = _threshold_clauses(base, samples, thr)
            for clause, row in zip(out, samples, strict=True):
                assert clause == _threshold_clause(base, row.tolist(), thr)

    def test_lll_report_fields(self, red_params, red_family, no_bases):
        _, rep = reduce_one_sided(no_bases[0][0], red_params, red_family)
        assert rep.intersection_degree <= red_family.set_size**2
        assert 0 < rep.per_clause_failure_estimate < 1
        assert rep.lll_value == pytest.approx(
            rep.per_clause_failure_estimate
            * np.e
            * (rep.intersection_degree + 1)
        )

    def test_balancedness_transfer_exact(self, red_params, no_bases, yes_bases):
        # balanced lists keep the optimum inside the stated translation
        for base, rep in no_bases[:2]:
            pt = replace(red_params, seed=1)
            entries = sample_list(base, pt)
            bal = check_balanced(entries, base.num_clauses, pt)
            if not bal.balanced:
                continue
            opt = brute_force_opt(list_instance(base, entries)).optimum
            assert opt <= red_params.s * (1 + red_params.epsilon / 3)
        for base, rep in yes_bases[:2]:
            pt = replace(red_params, seed=2)
            entries = sample_list(base, pt)
            bal = check_balanced(entries, base.num_clauses, pt)
            if not bal.balanced:
                continue
            opt = brute_force_opt(list_instance(base, entries)).optimum
            assert opt >= red_params.s * (1 + 2 * red_params.epsilon / 3)

    @pytest.mark.parametrize("which", ["random-3sat", "unit-pair", "units"])
    def test_clauses_match_threshold_reference(self, which, red_params, red_family, no_bases):
        # random 3SAT sets cover every variable; the unit-pair NO base and the
        # satisfiable units on three variables leave the other five out. The
        # NO base yields constant tables only, so the units base checks the
        # row order of partial-scope tables.
        base = {
            "random-3sat": random_3sat(8, 48, 0),
            "unit-pair": no_bases[1][0],
            "units": CspInstance(
                8, tuple(disjunction([((0, 3, 5)[i % 3], True)]) for i in range(48))
            ),
        }[which]
        for offset in range(50):
            pt = replace(red_params, seed=derive_seed(0xC1A, offset))
            entries = sample_list(base, pt)
            if check_balanced(entries, base.num_clauses, pt).balanced:
                break
        else:
            pytest.fail("no balanced draw in the walk")
        inst, rep = reduce_one_sided(base, pt, red_family)
        assert not rep.rejected_unbalanced
        thr = threshold_count(pt.threshold, red_family.set_size)
        full = sum(c.arity == base.num_vars for c in inst.clauses)
        assert full == (len(inst.clauses) if which == "random-3sat" else 0)
        live = sum(0 < c.table < (1 << c.num_rows) - 1 for c in inst.clauses)
        assert (live > 0) == (which != "unit-pair")
        for clause, s in zip(inst.clauses, red_family.sets):
            sampled = entries[s]
            assert clause == _threshold_clause(base, sampled, thr)

    def test_sweep_cross_validates_object_path(self, red_params, red_family, no_bases):
        base = no_bases[1][0]
        sweep = one_sided_sweep(base, red_params, red_family, trials=5)
        max_obj = Fraction(0)
        for trial in range(5):
            pt = replace(red_params, seed=derive_seed(red_params.seed, trial))
            inst, _ = reduce_one_sided(base, pt, red_family)
            max_obj = max(max_obj, brute_force_opt(inst, cap=16).optimum)
        assert sweep.max_optimum == max_obj


class TestDriver:
    def test_zero_trials_is_no(self, red_params, red_family, yes_bases):
        rep = solve_driver(
            yes_bases[0][0], red_params, 0, subroutine=is_satisfiable, fam=red_family
        )
        assert not rep.answer and rep.trials_run == 0

    def test_no_base_never_yes(self, red_params, red_family, no_bases):
        rep = solve_driver(
            no_bases[0][0],
            red_params,
            8,
            subroutine=lambda inst: is_satisfiable(inst, cap=16),
            fam=red_family,
        )
        assert not rep.answer
        assert set(rep.outcomes) <= {"n", "u"}

    def test_yes_base_found_within_budget(self, red_params, red_family, yes_bases):
        rep = solve_driver(
            yes_bases[0][0],
            red_params,
            24,
            subroutine=lambda inst: is_satisfiable(inst, cap=16),
            fam=red_family,
        )
        assert rep.answer and rep.yes_trial is not None

    def test_one_sided_needs_a_family(self, red_params, no_bases):
        with pytest.raises(GapforgeError, match="sampler family"):
            solve_driver(no_bases[0][0], red_params, 1, subroutine=is_satisfiable)

    def test_zero_variable_contradictions_never_yes(self, red_params, red_family):
        # 48 empty-scope contradictions: optimum 0, so no trial may answer YES
        base = CspInstance(0, (Clause((), 0),) * 48)
        rep = solve_driver(
            base, red_params, 8, subroutine=is_satisfiable, fam=red_family
        )
        assert not rep.answer and rep.trials_run == 8

    def test_subroutine_failure_carries_trial(self, red_params, red_family, no_bases):
        def broken(inst):
            raise RuntimeError("boom")

        with pytest.raises(GapforgeError, match="trial 0"):
            solve_driver(no_bases[0][0], red_params, 2, subroutine=broken, fam=red_family)

    def test_two_sided_driver_smoke(self):
        base = CspInstance(3, tuple(disjunction([(0, True)]) for _ in range(8)))
        p = small_params(k=8, t=1, seed=3)
        rep = solve_driver(
            base, p, 4, subroutine=lambda i: is_satisfiable(i, cap=16), reduction="two-sided"
        )
        assert rep.answer

    def test_convert_to_3sat_path(self):
        # tiny enough that the converted instance stays brute-forceable
        base = CspInstance(3, tuple(disjunction([(0, True)]) for _ in range(4)))
        p = small_params(k=2, t=1, seed=3)
        rep = solve_driver(
            base,
            p,
            2,
            subroutine=lambda i: is_satisfiable(csp_to_3sat(i)[0], cap=24),
            reduction="two-sided",
        )
        assert rep.answer

    def test_driver_determinism(self, red_params, red_family, yes_bases):
        a = solve_driver(
            yes_bases[1][0], red_params, 6,
            subroutine=lambda i: is_satisfiable(i, cap=16), fam=red_family,
        )
        b = solve_driver(
            yes_bases[1][0], red_params, 6,
            subroutine=lambda i: is_satisfiable(i, cap=16), fam=red_family,
        )
        assert a == b
