"""Ground-truth oracle behavior, tail-bound formulas, estimators."""

import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gapforge import oracle
from gapforge.csp import Clause, CspInstance, disjunction, satisfied_fraction
from gapforge.errors import ResourceCapError
from gapforge.gapeth import reduce_one_sided
from gapforge.oracle import (
    _count_blocks,
    brute_force_opt,
    chernoff_tail,
    clause_sat_matrix,
    estimate,
    exhaustive_layer_check,
    is_satisfiable,
    lll_condition,
    satisfied_counts_vector,
)
from gapforge.util import derive_seed, rng_from

from conftest import random_3sat, unit_pair_instance
from test_csp import all_sign_patterns


class TestBruteForce:
    def test_all_sign_patterns(self):
        rep = brute_force_opt(all_sign_patterns())
        assert rep.optimum == Fraction(7, 8)
        assert rep.enumeration_size == 8

    def test_single_clause(self):
        inst = CspInstance(3, (disjunction([(0, True), (1, True), (2, True)]),))
        assert brute_force_opt(inst).optimum == 1

    def test_zero_variable_degenerate(self):
        rep = brute_force_opt(CspInstance(0, ()))
        assert rep.degenerate and rep.optimum == 1

    def test_zero_variables_with_clauses(self):
        contradiction, tautology = Clause((), 0), Clause((), 1)
        rep = brute_force_opt(CspInstance(0, (contradiction, tautology)))
        assert not rep.degenerate and rep.optimum == Fraction(1, 2)
        assert rep.enumeration_size == 1 and rep.argmax == ()
        assert not is_satisfiable(CspInstance(0, (contradiction,) * 48))
        assert is_satisfiable(CspInstance(0, (tautology,) * 3))

    def test_cap(self):
        inst = CspInstance(30, (disjunction([(0, True)]),))
        with pytest.raises(ResourceCapError):
            brute_force_opt(inst, cap=24)

    def test_argmax_ties_break_low(self):
        inst = unit_pair_instance(2, 4, (0,))
        rep = brute_force_opt(inst)
        assert rep.argmax == (0, 0)  # assignment 0 already achieves 1/2

    def test_agrees_with_satisfied_fraction_spot_checks(self):
        rng = rng_from(17)
        for i in range(5):
            inst = random_3sat(8, 20, i)
            rep = brute_force_opt(inst)
            assert satisfied_fraction(inst, rep.argmax) == rep.optimum
            for _ in range(20):
                bits = tuple(int(b) for b in rng.integers(0, 2, 8))
                assert satisfied_fraction(inst, bits) <= rep.optimum

    def test_is_satisfiable(self):
        assert is_satisfiable(random_3sat(6, 5, 2))
        assert not is_satisfiable(unit_pair_instance(2, 4, (0,)))

    def test_counts_match_clause_sat_matrix(self):
        rng = rng_from(23)
        for n, m, seed in ((3, 1, 0), (6, 20, 1), (10, 64, 2), (12, 40, 3)):
            inst = random_3sat(n, m, seed)
            words = rng.integers(0, 1 << n, size=300).astype(np.uint64)
            for assignments in (np.arange(1 << n, dtype=np.uint64), words):
                counts = satisfied_counts_vector(inst, assignments)
                want = clause_sat_matrix(inst, assignments).sum(axis=0)
                assert counts.dtype == np.int64
                assert np.array_equal(counts, want)
        inst = unit_pair_instance(4, 12, (0, 1))
        block = np.arange(16, dtype=np.uint64)
        assert np.array_equal(
            satisfied_counts_vector(inst, block),
            clause_sat_matrix(inst, block).sum(axis=0),
        )


    def test_multi_block_sweep_matches_one_block(self):
        # 2^17 assignments span several sweep blocks; ties break low across
        # blocks as within one
        inst = random_3sat(17, 60, 8)
        counts = satisfied_counts_vector(inst, np.arange(1 << 17, dtype=np.uint64))
        rep = brute_force_opt(inst)
        j = int(np.argmax(counts))
        assert rep.optimum == Fraction(int(counts[j]), 60)
        assert rep.argmax == tuple((j >> v) & 1 for v in range(17))
        assert is_satisfiable(inst) == bool(counts[j] == 60)


def random_table_instance(n, m, arities, seed):
    """m clauses with random truth tables, arity cycling through arities
    (capped at n), over random scopes of distinct variables."""
    rng = rng_from(seed)
    clauses = []
    for i in range(m):
        k = min(arities[i % len(arities)], n)
        scope = tuple(int(v) for v in rng.choice(n, k, replace=False))
        table = int.from_bytes(rng.bytes(((1 << k) + 7) // 8), "little")
        clauses.append(Clause(scope, table & ((1 << (1 << k)) - 1)))
    return CspInstance(n, tuple(clauses))


def assert_kernel_matches_reference(inst, cap=24):
    """The split-product sweep against clause_sat_matrix over all 2^n
    assignments: the counts block by block, the optimum with its lowest
    argmax, and satisfiability."""
    n, m = inst.num_vars, inst.num_clauses
    want = clause_sat_matrix(inst, np.arange(1 << n, dtype=np.uint64)).sum(axis=0)
    starts, parts = zip(*_count_blocks(inst, cap))
    assert all(c.dtype == np.int64 and c.size <= oracle._CHUNK for c in parts)
    assert list(starts) == list(np.cumsum([0] + [c.size for c in parts[:-1]]))
    assert np.array_equal(np.concatenate(parts), want)
    rep = brute_force_opt(inst, cap)
    j = int(np.argmax(want))
    assert rep.optimum == Fraction(int(want[j]), m)
    assert rep.argmax == tuple((j >> v) & 1 for v in range(n))
    assert is_satisfiable(inst, cap) == bool(want[j] == m)
    return want


class TestSplitKernel:
    """The split-product counts of _count_blocks, checked against the
    clause-by-clause reference clause_sat_matrix."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 17])
    def test_mixed_arities(self, n):
        inst = random_table_instance(n, 40, list(range(9)), seed=n)
        assert_kernel_matches_reference(inst)

    def test_clauses_wholly_on_one_side(self):
        # n = 10 splits at h = 5: variables 0-4 are the lo side, 5-9 the hi
        rng = rng_from(31)
        clauses = []
        for side in (range(0, 5), range(5, 10)):
            for k in (1, 2, 3, 5):
                scope = tuple(int(v) for v in rng.choice(list(side), k, replace=False))
                clauses.append(Clause(scope, int(rng.integers(1, (1 << (1 << k)) - 1))))
        assert_kernel_matches_reference(CspInstance(10, tuple(clauses)))

    def test_ties_break_low(self):
        # every odd x is optimal, so the argmax is x = 1
        odd = CspInstance(9, (Clause((0,), 0b10), Clause((8,), 0b10), Clause((8,), 0b01)))
        counts = assert_kernel_matches_reference(odd)
        assert (counts == 2).sum() == 256 and brute_force_opt(odd).argmax[:2] == (1, 0)
        # the optimum needs x16 = 1 and x3 = 0: the first maximizer 2^16 lies
        # in the third block, and 2^15 - 1 later ones tie with it
        top = CspInstance(17, (Clause((16,), 0b10),) * 3 + (Clause((3, 16), 0b0110),))
        counts = assert_kernel_matches_reference(top)
        assert (counts == 4).sum() == 1 << 15
        assert brute_force_opt(top).argmax == (0,) * 16 + (1,)
        # unit pairs: every assignment ties at 1/2
        assert_kernel_matches_reference(unit_pair_instance(6, 12, (0, 2, 5)))

    def test_one_sided_outputs(self, red_params, red_family, no_bases, yes_bases):
        # a NO base's output is 1536 copies of one clause, counted once
        # with weight 1536
        bases = [inst for inst, _ in no_bases + yes_bases[:1]]
        balanced_no = 0
        for i, base in enumerate(bases):
            for trial in range(2):
                p = replace(red_params, seed=derive_seed(red_params.seed, i, trial))
                out, rep = reduce_one_sided(base, p, red_family)
                if i < len(no_bases) and not rep.rejected_unbalanced:
                    balanced_no += 1
                    assert out.num_clauses == 1536 and len(set(out.clauses)) == 1
                assert_kernel_matches_reference(out, cap=16)
        assert balanced_no > 0

    def test_repeated_clauses_weighted_by_copies(self):
        # 500 copies each of three clauses, alone and shuffled among 60
        # random tables
        rnd = random_table_instance(10, 63, [1, 2, 3, 4], seed=4)
        for extra in ((), rnd.clauses[3:]):
            clauses = rnd.clauses[:3] * 500 + extra
            order = rng_from(len(extra)).permutation(len(clauses))
            inst = CspInstance(10, tuple(clauses[i] for i in order))
            assert_kernel_matches_reference(inst)

    def test_arity_classes_match_value_counts(self):
        # copies counted by object, then merged by value, against a Counter
        # keyed by (scope, table): shared copies, equal but unshared copies,
        # and both mixed, shuffled
        base = random_table_instance(9, 30, [0, 1, 2, 3, 7, 9], seed=5)
        pool = base.clauses[:12]
        for mode in ("shared", "unshared", "mixed"):
            clauses = []
            for i in range(400):
                c = pool[i % len(pool)]
                fresh = mode == "unshared" or (mode == "mixed" and i % 3 == 0)
                clauses.append(Clause(c.scope, c.table) if fresh else c)
            order = rng_from(len(mode)).permutation(len(clauses))
            clauses = [clauses[i] for i in order] + list(base.clauses[12:])
            want: dict[int, list] = {}
            for (scope, table), copies in Counter((c.scope, c.table) for c in clauses).items():
                want.setdefault(len(scope), []).append((scope, table, copies))
            got = oracle._arity_classes(clauses)
            assert [sc.shape[1] for sc, _, _ in got] == sorted(want)
            for (scopes, tables, copies), k in zip(got, sorted(want)):
                assert [(tuple(sc), int.from_bytes(tb.tobytes(), "little"), cp)
                        for sc, tb, cp in zip(scopes.tolist(), tables, copies.tolist())] == want[k]

    def test_pairs_numbered_in_key_order(self):
        # B row cols[r, j] is the rank of the bit offset j * stride + a of
        # clause j at hi word r among the offsets that occur
        for n in (0, 1, 5, 11):
            inst = random_table_instance(n, 40, list(range(9)), seed=n)
            h = (n + 1) // 2
            hi = np.arange(1 << (n - h), dtype=np.int64) << h
            lo = np.arange(1 << h, dtype=np.int64)
            for scopes, tables, _ in oracle._arity_classes(inst.clauses):
                stride = 8 * tables.shape[1]
                keys = np.arange(scopes.shape[0]) * stride + oracle._table_index(scopes, hi).T
                pairs, want = np.unique(keys, return_inverse=True)
                cols, B = oracle._split_terms(scopes, tables, hi, lo)
                assert np.array_equal(cols, want.reshape(keys.shape))
                assert B.shape == (pairs.size, lo.size)

    @pytest.mark.parametrize(
        "n, arities, chunk",
        [(17, [1, 3, 8], 1 << 15), (6, [0, 3, 6], 1 << 15), (9, [9], 1 << 15),
         (14, [1], 1 << 5)],
    )
    def test_large_instances_swept_clause_by_clause(self, monkeypatch, n, arities, chunk):
        # the product runs while B (term rows x 2^h) and the clause x 2^(n - h)
        # hi-side indices both fit in _TERM_ENTRIES; one entry less and the
        # clause-by-clause sweep counts instead. The indices bind only once h
        # is clamped by the block size, as at n = 14 in blocks of 2^5
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        inst = random_table_instance(n, 24, arities, seed=9)
        h = min((n + 1) // 2, chunk.bit_length() - 1)
        pairs = sum(1 << sum(v >= h for v in cl.scope) for cl in inst.clauses)
        need = max(pairs << h, inst.num_clauses << (n - h))
        calls = []
        split_terms = oracle._split_terms

        def recording(*args):
            calls.append(args[0].shape[0])
            return split_terms(*args)

        monkeypatch.setattr(oracle, "_split_terms", recording)
        monkeypatch.setattr(oracle, "_TERM_ENTRIES", need)
        assert_kernel_matches_reference(inst)
        # the three sweeps split each distinct clause once
        assert sum(calls) == 3 * len({(c.scope, c.table) for c in inst.clauses})
        calls.clear()
        monkeypatch.setattr(oracle, "_TERM_ENTRIES", need - 1)
        assert_kernel_matches_reference(inst)
        assert calls == []


class TestLayerCheck:
    def test_identity_wiring_fails_with_witness(self):
        w = 10
        rows = [(i,) for i in range(w)]
        rep = exhaustive_layer_check(
            rows, Fraction(1, 2), w, Fraction(7, 10), Fraction(6, 10)
        )
        assert not rep.passed
        assert rep.witness is not None
        assert sum(rep.witness) <= 7  # violating string respects the mean bound

    def test_full_fan_in_theta_08_passes(self):
        w = 10
        rows = [tuple(range(w))] * 5
        rep = exhaustive_layer_check(
            rows, Fraction(4, 5), w, Fraction(7, 10), Fraction(6, 10)
        )
        assert rep.passed
        assert rep.worst_output_count == 0  # 0.7 < 0.8 means nobody fires

    def test_same_inputs_low_theta_caught(self):
        w = 10
        shared = tuple(range(w))
        rep = exhaustive_layer_check(
            [shared] * 5, Fraction(1, 2), w, Fraction(7, 10), Fraction(6, 10)
        )
        assert not rep.passed and rep.worst_output_count == 5

    def test_width_cap(self):
        with pytest.raises(ResourceCapError):
            exhaustive_layer_check(
                [(0,)], Fraction(1, 2), 23, Fraction(7, 10), Fraction(6, 10)
            )

    def test_strings_checked_counts_mean_bound(self):
        w = 8
        rep = exhaustive_layer_check(
            [tuple(range(w))], Fraction(4, 5), w, Fraction(7, 10), Fraction(6, 10)
        )
        expected = sum(math.comb(w, k) for k in range(0, 5 + 1))  # popcount <= 5
        assert rep.strings_checked == expected


class TestChernoff:
    def test_closed_form_example(self):
        # exp(-d^2 mu n / 2) at d = 1, mu = 1/2, n = 8
        assert chernoff_tail(Fraction(1, 2), Fraction(1), 8) == pytest.approx(math.exp(-2))

    def test_small_delta_near_one(self):
        val = chernoff_tail(Fraction(1, 2), Fraction(1, 10**6), 10)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_monotone_decreasing_in_n(self):
        vals = [
            chernoff_tail(Fraction(1, 2), Fraction(1, 2), n)
            for n in (4, 8, 16, 32)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_range_checked(self):
        half = Fraction(1, 2)
        for mu, delta in ((-half, half), (3 * half, half), (half, 0), (half, 2)):
            with pytest.raises(ValueError):
                chernoff_tail(mu, Fraction(delta), 10)


class TestLLL:
    def test_zero(self):
        assert lll_condition(0.0, 5) == (0.0, True)

    def test_boundary(self):
        d = 7
        value, ok = lll_condition(1.0 / (math.e * (d + 1)), d)
        assert value == pytest.approx(1.0)
        assert ok

    def test_violated(self):
        value, ok = lll_condition(0.5, 10)
        assert value == pytest.approx(0.5 * math.e * 11)
        assert not ok


class TestEstimate:
    def test_constant_true(self):
        rep = estimate(lambda seed: True, 100, 0)
        assert rep.frequency == 1 and rep.wilson_high == 1.0

    def test_constant_false(self):
        rep = estimate(lambda seed: False, 100, 0)
        assert rep.frequency == 0

    def test_fair_coin_interval(self):
        rep = estimate(lambda seed: rng_from(seed).integers(0, 2) == 1, 10_000, 5)
        assert rep.wilson_low <= 0.5 <= rep.wilson_high

    def test_rerun_gives_identical_result(self):
        event = lambda seed: rng_from(seed).random() < 0.3
        a = estimate(event, 500, 9)
        assert a == estimate(event, 500, 9)
        assert a.successes == sum(event(derive_seed(9, i)) for i in range(500))
