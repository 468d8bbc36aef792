"""Instance semantics, formats, and the 3SAT conversion."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import gapforge.csp as csp_mod
from gapforge.csp import (
    Clause,
    CspInstance,
    clause_values,
    csp_to_3sat,
    disjunction,
    evaluate_clause,
    parse_dimacs,
    parse_gcsp,
    parse_instance,
    satisfied_fraction,
    serialize,
    table_from_bits,
)
from gapforge.errors import MalformedInstanceError, ParseError, ResourceCapError
from gapforge.oracle import brute_force_opt
from gapforge.util import rng_from

from conftest import random_3sat


def all_sign_patterns(vars3=(0, 1, 2)) -> CspInstance:
    clauses = []
    for pattern in range(8):
        lits = [(vars3[i], bool((pattern >> i) & 1)) for i in range(3)]
        clauses.append(disjunction(lits))
    return CspInstance(max(vars3) + 1, tuple(clauses))


def reference_as_literals(c: Clause):
    """as_literals read off the falsifying_rows list: the reference for the
    bit arithmetic that finds the single falsifying row."""
    zeros = c.falsifying_rows()
    if len(zeros) != 1 or c.arity == 0:
        return None
    row = zeros[0]
    return tuple(
        (v, ((row >> (c.arity - 1 - i)) & 1) == 0) for i, v in enumerate(c.scope)
    )


class TestClauseEvaluation:
    def test_disjunction_true_literal(self):
        c = disjunction([(0, True), (1, True), (2, True)])
        assert evaluate_clause(c, (1, 0, 0)) == 1

    def test_all_literals_false(self):
        c = disjunction([(0, False), (1, False), (2, False)])
        assert evaluate_clause(c, (1, 1, 1)) == 0

    def test_truth_table_row_indexing(self):
        # scoped bits (0,1,1) read entry 3: scope[0] is the most significant
        table = 1 << 3
        c = Clause((0, 1, 2), table)
        assert evaluate_clause(c, (0, 1, 1)) == 1
        assert evaluate_clause(c, (1, 1, 0)) == 0

    def test_vectorized_values_match_scalar_reference(self):
        rng = rng_from(4)
        words = np.arange(1 << 5, dtype=np.uint64)
        for _ in range(20):
            arity = int(rng.integers(0, 5))
            scope = tuple(int(v) for v in rng.choice(5, arity, replace=False))
            c = Clause(scope, int(rng.integers(0, 1 << (1 << arity))))
            want = [
                evaluate_clause(c, [(a >> v) & 1 for v in range(5)]) for a in range(32)
            ]
            assert clause_values(c, words).tolist() == want
            # variable v read from bit 4 - v instead: the same values at the
            # bit-reversed words
            reversed_words = [int(format(a, "05b")[::-1], 2) for a in range(32)]
            flipped = clause_values(c, words, {v: 4 - v for v in range(5)})
            assert flipped[reversed_words].tolist() == want

    def test_table_from_bits_inverts_table_bits(self):
        for arity, table in ((0, 0), (0, 1), (2, 0b1000), (4, 0xBEEF), (8, (1 << 256) - 3)):
            c = Clause(tuple(range(arity)), table)
            assert table_from_bits(np.array(c.table_bits(), dtype=bool)) == table

    @pytest.mark.parametrize("arity", [0, 1, 2, 3])
    def test_as_literals_matches_reference_on_every_table(self, arity):
        scope = tuple(range(5, 5 - arity, -1))
        disjunctions = 0
        for table in range(1 << (1 << arity)):
            c = Clause(scope, table)
            lits = c.as_literals()
            assert lits == reference_as_literals(c)
            if lits is not None:
                disjunctions += 1
                assert all(type(pos) is bool for _, pos in lits)
                assert disjunction(lits) == c
        # one disjunction per sign pattern, and none without literals
        assert disjunctions == (1 << arity if arity else 0)

    def test_out_of_range_variable(self):
        c = disjunction([(5, True)])
        with pytest.raises(MalformedInstanceError):
            evaluate_clause(c, (1, 0))

    def test_repeated_scope_rejected(self):
        with pytest.raises(MalformedInstanceError):
            Clause((1, 1), 0b1010)


class TestInstanceChecks:
    def test_shared_bad_clause_refused(self):
        # the range and width checks see each distinct object once; a bad
        # clause still fails when it is one object shared by many positions
        good, bad = disjunction([(0, True)]), Clause((2, 7, 1), 0b1)
        for clauses in ((bad,) * 5, (good, bad) * 300, (good,) * 9 + (bad,)):
            with pytest.raises(MalformedInstanceError, match="^variable 7 out of range for 3 "):
                CspInstance(3, clauses)
            with pytest.raises(MalformedInstanceError, match="^declared width 2 below max "):
                CspInstance(8, clauses, width=2)
            assert CspInstance(8, clauses).width == 3

    def test_first_bad_variable_named(self):
        # the first clause out of range, and its first variable out of range
        first, later = Clause((1, 9, 6), 0b1), Clause((8,), 0b1)
        clauses = (disjunction([(0, True)]), first, later, first)
        with pytest.raises(MalformedInstanceError, match="^variable 9 out of range for 5 vars$"):
            CspInstance(5, clauses)
        with pytest.raises(MalformedInstanceError, match="^variable 8 out of range for 5 vars$"):
            CspInstance(5, clauses[2:])
        assert CspInstance(10, clauses).width == 3

    def test_shared_copies_by_identity(self):
        a, b = disjunction([(0, True)]), disjunction([(1, False)])
        twin = Clause(a.scope, a.table)  # equal to a, but another object
        first, copies = csp_mod.shared_copies((b, a, b, twin, a, a))
        assert first == [0, 1, 3] and copies == [2, 3, 1]
        assert csp_mod.shared_copies(()) == ([], [])


class TestSatisfiedFraction:
    def test_degenerate_empty_clause_list(self):
        inst = CspInstance(3, ())
        assert inst.degenerate
        assert satisfied_fraction(inst, (0, 1, 0)) == 1

    def test_zero_variables_with_clauses_not_degenerate(self):
        # gcsp 0 2 0 with a contradiction and a tautology: the one empty
        # assignment satisfies half the clauses
        inst = parse_gcsp("gcsp 0 2 0\n0 0\n0 1\n")
        assert not inst.degenerate
        assert satisfied_fraction(inst, ()) == Fraction(1, 2)

    def test_counting(self):
        inst = CspInstance(
            2,
            (
                disjunction([(0, True)]),
                disjunction([(0, True)]),
                disjunction([(1, True)]),
                disjunction([(1, False)]),
            ),
        )
        assert satisfied_fraction(inst, (1, 0)) == Fraction(3, 4)

    def test_all_sign_patterns_best_is_seven_eighths(self):
        inst = all_sign_patterns()
        best = max(
            satisfied_fraction(inst, bits)
            for bits in itertools.product((0, 1), repeat=3)
        )
        assert best == Fraction(7, 8)
        assert brute_force_opt(inst).optimum == Fraction(7, 8)

    def test_length_mismatch(self):
        inst = all_sign_patterns()
        with pytest.raises(MalformedInstanceError):
            satisfied_fraction(inst, (0, 1))


class TestDimacs:
    def test_basic(self):
        inst = parse_dimacs("p cnf 3 1\n1 -2 3 0\n")
        assert inst.num_vars == 3 and inst.num_clauses == 1 and inst.width == 3
        assert inst.clauses[0].as_literals() == ((0, True), (1, False), (2, True))

    def test_comment_and_degenerate(self):
        inst = parse_dimacs("c comment\np cnf 1 0\n")
        assert inst.num_vars == 1 and inst.num_clauses == 0
        assert inst.degenerate

    def test_literal_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse_dimacs("p cnf 2 1\n3 0\n")
        assert err.value.line == 2

    def test_unterminated_clause(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n1 -2\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse_dimacs("p dnf 2 1\n1 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 2\n1 0\n")

    def test_multiline_clause(self):
        inst = parse_dimacs("p cnf 3 1\n1\n-2 3 0\n")
        assert inst.clauses[0].as_literals() == ((0, True), (1, False), (2, True))

    def test_second_header(self):
        with pytest.raises(ParseError) as err:
            parse_dimacs("p cnf 3 1\n1 2 0\np cnf 5 2\n4 5 0\n")
        assert err.value.line == 3


class TestSerialization:
    def test_3sat_round_trip_bit_identical(self):
        inst = parse_dimacs("p cnf 3 2\n1 -2 3 0\n-1 2 0\n")
        text = serialize(inst)
        assert parse_instance(text) == inst
        assert serialize(parse_instance(text)) == text

    def test_wide_table_uses_native_format(self):
        c = Clause((0, 1, 2, 3, 4), (1 << 32) - 2)
        inst = CspInstance(5, (c,))
        text = serialize(inst)
        assert text.startswith("gcsp 5 1 5")
        assert parse_gcsp(text) == inst

    def test_empty_instance_header_only(self):
        inst = CspInstance(4, ())
        text = serialize(inst)
        assert parse_instance(text) == inst

    def test_gcsp_errors(self):
        with pytest.raises(ParseError):
            parse_gcsp("gcsp 2 1\n")
        with pytest.raises(ParseError):
            parse_gcsp("gcsp 2 1 3\n1 5 3\n")  # variable out of range

    @pytest.mark.parametrize(
        "text", ["gcsp -1 0 0\n", "gcsp 2 -1 0\n", "gcsp 2 1 -5\n1 0 2\n"]
    )
    def test_gcsp_negative_header_counts(self, text):
        with pytest.raises(ParseError) as err:
            parse_gcsp(text)
        assert err.value.line == 1

    def test_gcsp_width_below_clause_arity(self):
        with pytest.raises(ParseError, match="declared width 1 below max clause arity 2") as err:
            parse_gcsp("gcsp 2 1 1\n2 0 1 8\n")
        assert err.value.line == 1

    def test_round_trip_random_corpus(self):
        rng = rng_from(99)
        for i in range(20):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 12))
            if rng.integers(0, 2):
                inst = random_3sat(max(n, 3), m, int(rng.integers(0, 2**31)))
            else:
                clauses = []
                for _ in range(m):
                    k = int(rng.integers(1, min(4, n) + 1))
                    scope = tuple(
                        int(v) for v in rng.choice(n, k, replace=False)
                    )
                    table = int(rng.integers(0, 1 << (1 << k)))
                    clauses.append(Clause(scope, table))
                inst = CspInstance(n, tuple(clauses))
            assert parse_instance(serialize(inst)) == inst

    def test_monotonicity_of_added_clause(self):
        inst = random_3sat(5, 8, 3)
        a = (1, 0, 1, 1, 0)
        before = satisfied_fraction(inst, a)
        extra = disjunction([(0, False), (2, False), (3, False)])  # false under a
        grown = CspInstance(5, inst.clauses + (extra,))
        assert satisfied_fraction(grown, a) < before


def false_clause_among_others() -> CspInstance:
    """A false clause without variables, a width-2 and a unit disjunction."""
    return CspInstance(
        2,
        (Clause((), 0), disjunction([(0, True), (1, True)]), disjunction([(0, False)])),
    )


class TestCspTo3Sat:
    def test_width3_disjunction_identity(self):
        inst = random_3sat(4, 6, 11)
        out, report = csp_to_3sat(inst)
        assert out.clauses[: inst.num_clauses] == inst.clauses
        assert report.expansion_ratio == 1

    def test_width2_padding_equisatisfiable(self):
        inst = CspInstance(2, (disjunction([(0, True), (1, False)]),))
        out, report = csp_to_3sat(inst)
        assert out.width == 3
        assert out.num_vars <= 2 + 1 * (1 << 2) * 2
        # brute force over <= 2^4 assignments on both sides
        assert brute_force_opt(inst).optimum == 1
        assert brute_force_opt(out).optimum == 1
        # forcing the falsifying pattern keeps at least one output clause false
        forced = CspInstance(
            out.num_vars,
            out.clauses
            + (disjunction([(0, False)]), disjunction([(1, True)])),
        )
        assert brute_force_opt(forced).optimum < 1

    def test_width4_xor_equisatisfiable(self):
        table = 0
        for row in range(16):
            if bin(row).count("1") % 2 == 1:
                table |= 1 << row
        inst = CspInstance(4, (Clause((0, 1, 2, 3), table),))
        out, _ = csp_to_3sat(inst)
        assert (brute_force_opt(inst).optimum == 1) == (
            brute_force_opt(out).optimum == 1
        )
        contradiction = CspInstance(4, (Clause((0, 1), 0),))
        out2, _ = csp_to_3sat(contradiction)
        assert brute_force_opt(out2).optimum < 1

    def test_gap_fidelity_small_instances(self):
        rng = rng_from(5)
        for i in range(8):
            n = int(rng.integers(3, 6))
            clauses = []
            for _ in range(int(rng.integers(2, 5))):
                k = int(rng.integers(1, 5))
                k = min(k, n)
                scope = tuple(int(v) for v in rng.choice(n, k, replace=False))
                table = int(rng.integers(0, 1 << (1 << k)))
                clauses.append(Clause(scope, table))
            inst = CspInstance(n, tuple(clauses))
            out, _ = csp_to_3sat(inst)
            assert (brute_force_opt(inst).optimum == 1) == (
                brute_force_opt(out).optimum == 1
            )

    def test_soundness_translation_bound(self):
        # every output assignment restricts within the reported loss factor
        parity = CspInstance(
            3,
            (
                Clause((0, 1, 2), 0b10010110),  # parity
                disjunction([(0, True), (1, True)]),
                disjunction([(2, False)]),
            ),
        )
        for inst in (parity, false_clause_among_others()):
            out, report = csp_to_3sat(inst)
            ratio = report.expansion_ratio
            for a_out in range(1 << out.num_vars):
                bits_out = tuple((a_out >> v) & 1 for v in range(out.num_vars))
                frac_out = satisfied_fraction(out, bits_out)
                frac_in = satisfied_fraction(inst, bits_out[: inst.num_vars])
                assert 1 - frac_in <= (1 - frac_out) * ratio

    def test_false_arity_zero_clause(self):
        # the empty disjunction becomes all 8 sign patterns over 3 fresh
        # variables, so every assignment falsifies exactly one of them
        out, report = csp_to_3sat(CspInstance(1, (Clause((), 0),)))
        assert (out.num_vars, out.num_clauses, report.max_block) == (4, 8, 8)
        assert brute_force_opt(out).optimum == Fraction(7, 8)
        # among ordinary clauses: 8 + 2 + 4 output clauses, of which only one
        # of the 8 must fail
        inst = false_clause_among_others()
        assert brute_force_opt(inst).optimum == Fraction(2, 3)
        assert brute_force_opt(csp_to_3sat(inst)[0]).optimum == Fraction(13, 14)

    def test_variable_budget(self):
        inst = CspInstance(4, (Clause((0, 1, 2, 3), 0x0001),))
        out, report = csp_to_3sat(inst)
        w = 4
        assert out.num_vars <= inst.num_vars + inst.num_clauses * (1 << w) * w

    def test_table_cap(self, monkeypatch):
        monkeypatch.setattr(csp_mod, "DEFAULT_TABLE_CAP", 8)
        inst = CspInstance(5, (Clause(tuple(range(5)), 1),))
        with pytest.raises(ResourceCapError):
            csp_to_3sat(inst)
