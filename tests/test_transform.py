"""The proof-system transform: checks, accounting, adversaries, export."""

import importlib
from fractions import Fraction

import numpy as np
import pytest

from gapforge.circuit import (
    build_deterministic,
    build_randomized,
    certify_goodness,
    evaluate,
)
from gapforge.csp import CspInstance, disjunction, evaluate_clause
from gapforge.errors import (
    MissingCertificateError,
    ResourceCapError,
    ShapeMismatchError,
)
from gapforge.oracle import brute_force_opt, clause_sat_matrix
from gapforge.transform import (
    AdversaryReport,
    ProofString,
    acceptance_probability,
    exhaustive_adversary,
    export_checks_csp,
    greedy_adversary,
    honest_proof,
    proof_from_int,
    run_check,
    transform,
)

from conftest import random_3sat, unit_pair_instance

# the package's transform() function shadows its module as an attribute
transform_mod = importlib.import_module("gapforge.transform")


def reference_adversary(ts) -> AdversaryReport:
    """Reference for exhaustive_adversary: every proof integer in blocks of
    2^20, each check evaluated bit by bit, the first maximum kept."""
    bits = ts.proof_length
    m = ts.base.num_clauses
    widths = ts.layer_widths()
    d = ts.circuit.depth
    n = ts.base.num_vars
    offsets = [ts.layer_offset(i) for i in range(d + 1)]
    best_count, best_proof = -1, 0
    chunk = 1 << 20
    total = 1 << bits
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        block = np.arange(lo, hi, dtype=np.uint64)
        x_as_int = block & np.uint64((1 << n) - 1)
        clause_sat = clause_sat_matrix(ts.base, x_as_int)  # m x chunk
        layer_bits = []
        for i in range(d + 1):
            mat = np.empty((widths[i], block.size), dtype=np.uint8)
            for g in range(widths[i]):
                mat[g] = (block >> np.uint64(offsets[i] + g)) & np.uint64(1)
            layer_bits.append(mat)
        accept_count = np.zeros(block.size, dtype=np.int32)
        recomputed = []
        for i in range(1, d + 1):
            idx = ts.circuit.layers[i - 1]
            sums = layer_bits[i - 1][idx].sum(axis=1, dtype=np.int16)
            recomputed.append((sums >= ts.circuit.fire_count(i)).astype(np.uint8))
        for j in range(m):
            ok = clause_sat[j] == layer_bits[0][j]
            for i in range(1, d + 1):
                g = j % widths[i]
                ok = ok & (recomputed[i - 1][g] == layer_bits[i][g])
            ok = ok & (layer_bits[d][j % widths[d]] == 1)
            accept_count += ok
        k = int(np.argmax(accept_count))
        if int(accept_count[k]) > best_count:
            best_count = int(accept_count[k])
            best_proof = lo + k
    return AdversaryReport(
        value=Fraction(best_count, m),
        witness=proof_from_int(ts, best_proof),
        proofs_enumerated=total,
    )


@pytest.fixture(scope="module")
def sat_system(det_circuits):
    """Fully satisfiable base with the certified m=16 circuit."""
    inst = random_3sat(4, 16, 5)
    rep = brute_force_opt(inst)
    assert rep.optimum == 1
    c, cert = det_circuits[16]
    return transform(inst, c, certificate=cert), rep


@pytest.fixture(scope="module")
def low_system(det_circuits):
    """Optimum-1/2 base with the certified m=8 circuit."""
    inst = unit_pair_instance(2, 8, (0,))
    c, cert = det_circuits[8]
    return transform(inst, c, certificate=cert)


class TestTransform:
    def test_m_mismatch(self, det_circuits):
        c, cert = det_circuits[16]
        with pytest.raises(ShapeMismatchError):
            transform(unit_pair_instance(2, 8), c, certificate=cert)

    def test_missing_certificate(self, det_circuits):
        c, _ = det_circuits[16]
        inst = random_3sat(4, 16, 5)
        with pytest.raises(MissingCertificateError):
            transform(inst, c)
        ts = transform(inst, c, waive_certificate=True)
        assert ts.certificate_waived

    def test_certificate_digest_checked(self, det_circuits):
        c16, cert16 = det_circuits[16]
        c8, _ = det_circuits[8]
        with pytest.raises(MissingCertificateError):
            transform(unit_pair_instance(2, 8), c8, certificate=cert16)

    def test_accounting_proof_length(self, det_circuits):
        inst = random_3sat(10, 16, 7)
        c, cert = det_circuits[16]
        ts = transform(inst, c, certificate=cert)
        assert ts.accounting.proof_length == 10 + 31  # n + 2m - 1
        assert ts.accounting.randomness_strings == 16
        assert ts.accounting.randomness_bits == 4

    def test_per_check_query_bound(self, det_circuits):
        inst = random_3sat(6, 32, 9)
        c, cert = det_circuits[32]
        ts = transform(inst, c, certificate=cert)
        d = c.depth
        fan_ins = [idx.shape[1] for idx in c.layers]
        for j, q in enumerate(ts.accounting.per_check_queries):
            chk = ts.check(j)
            assert q == len(chk.transcript)
            assert q <= inst.clauses[j].arity + sum(fan_ins) + d + 1

    def test_uniform_gate_coverage(self, det_circuits):
        inst = random_3sat(6, 32, 9)
        c, cert = det_circuits[32]
        ts = transform(inst, c, certificate=cert)
        widths = ts.layer_widths()
        for i in range(1, c.depth + 1):
            hits = {}
            for j in range(32):
                _, g = next(r for r in ts.check(j).gate_refs if r[0] == i)
                hits[g] = hits.get(g, 0) + 1
            assert all(count == 2**i for count in hits.values())
            assert len(hits) == widths[i]

    def test_randomized_variant_accounting(self):
        inst = random_3sat(6, 256, 1)
        c = build_randomized(256, f=8, seed=2)
        ts = transform(inst, c, waive_certificate=True)
        d = c.depth
        assert d == 3
        for j, q in enumerate(ts.accounting.per_check_queries):
            assert q <= inst.clauses[j].arity + 8 * d + d + 1


class TestHonestProof:
    def test_satisfying_assignment_all_ones(self, sat_system):
        ts, rep = sat_system
        proof = honest_proof(ts, rep.argmax)
        assert all(all(l) for l in proof.layers)
        assert all(run_check(ts, j, proof).accepted for j in range(16))
        assert acceptance_probability(ts, proof) == 1

    def test_nine_tenths_top_bit_one(self, det_circuits, completeness_corpus):
        inst, rep = completeness_corpus[0]
        c, cert = det_circuits[inst.num_clauses]
        ts = transform(inst, c, certificate=cert)
        proof = honest_proof(ts, rep.argmax)
        assert proof.layers[-1] == (1,)

    def test_low_optimum_top_bit_zero(self, low_system):
        ts = low_system
        rep = brute_force_opt(ts.base)
        assert rep.optimum <= Fraction(6, 10)
        proof = honest_proof(ts, rep.argmax)
        assert proof.layers[-1] == (0,)


class TestRunCheck:
    def test_top_bit_zero_rejects_everywhere(self, sat_system):
        ts, rep = sat_system
        proof = honest_proof(ts, rep.argmax)
        broken = ProofString(
            x=proof.x, layers=proof.layers[:-1] + ((0,),)
        )
        for j in range(16):
            res = run_check(ts, j, broken)
            assert not res.accepted

    def test_corrupt_gate_rejected_on_duplication_fiber(self, sat_system):
        ts, rep = sat_system
        proof = honest_proof(ts, rep.argmax)
        w1 = len(proof.layers[1])
        g = 3
        flipped = list(proof.layers[1])
        flipped[g] ^= 1
        broken = ProofString(
            x=proof.x,
            layers=(proof.layers[0], tuple(flipped)) + proof.layers[2:],
        )
        rejected = {j for j in range(16) if not run_check(ts, j, broken).accepted}
        fiber = {j for j in range(16) if j % w1 == g}
        assert fiber <= rejected
        assert len(fiber) == 2  # 2^1 duplicated checks at layer 1

    def test_transcript_positions(self, sat_system):
        ts, rep = sat_system
        proof = honest_proof(ts, rep.argmax)
        res = run_check(ts, 5, proof)
        assert res.transcript == ts.check(5).transcript
        assert all(0 <= p < ts.proof_length for p in res.transcript)

    def test_shape_mismatch(self, sat_system):
        ts, _ = sat_system
        with pytest.raises(ShapeMismatchError):
            run_check(ts, 0, ProofString(x=(0,), layers=((0,),)))

    @staticmethod
    def failing_conjuncts(ts, j, proof) -> list:
        """Reference: the names of check j's failing conjuncts, in order,
        each recomputed position by position from the check's gate refs."""
        circ, layers = ts.circuit, proof.layers
        failed = []
        if evaluate_clause(ts.base.clauses[j], proof.x) != layers[0][j]:
            failed.append("clause-vs-layer0")
        for i, g in ts.check(j).gate_refs:
            ones = sum(layers[i - 1][p] for p in circ.layers[i - 1][g].tolist())
            if int(ones >= circ.fire_count(i)) != layers[i][g]:
                failed.append(f"gate-layer{i}")
        if layers[-1][j % len(layers[-1])] != 1:
            failed.append("top-bit")
        return failed

    def test_failed_conjunct_names_the_first_failure(self, sat_system):
        ts, rep = sat_system
        honest = honest_proof(ts, rep.argmax).layers
        x, d, j = rep.argmax, ts.circuit.depth, 5

        def proof(layers):
            return ProofString(x=tuple(x), layers=tuple(map(tuple, layers)))

        def off_path_zeroed(i):
            # layer i zeroed except the bit check j reads there
            return [b if p == j % len(honest[i]) else 0 for p, b in enumerate(honest[i])]

        # layer 0 flipped at j, honest gate bits recomputed above it
        l0 = list(honest[0])
        l0[j] ^= 1
        cases = [(proof([l0, *evaluate(ts.circuit, l0)]), ["clause-vs-layer0"])]
        # the path gate of layer i reads a zeroed layer below but claims 1
        for i in range(1, d + 1):
            layers = [*honest[: i - 1], off_path_zeroed(i - 1), *honest[i:]]
            cases.append((proof(layers), [f"gate-layer{i}"]))
        # a zero top bit that the zeroed layer below recomputes
        cases.append((proof([*honest[: d - 1], off_path_zeroed(d - 1), (0,)]), ["top-bit"]))
        # a zero top bit over the honest layers fails its gate first
        cases.append((proof([*honest[:d], (0,)]), [f"gate-layer{d}", "top-bit"]))
        for broken, want in cases:
            assert self.failing_conjuncts(ts, j, broken) == want
            res = run_check(ts, j, broken)
            assert not res.accepted and res.failed_conjunct == want[0]
        assert run_check(ts, j, proof(honest)).failed_conjunct is None


class TestAcceptanceProbability:
    def test_adversarial_layer_flip_caps_acceptance(self, sat_system):
        ts, rep = sat_system
        proof = honest_proof(ts, rep.argmax)
        # flip a >= 1/10 fraction of layer-0 bits against their recomputation
        flips = -(-16 // 10)
        l0 = list(proof.layers[0])
        for i in range(flips):
            l0[i] ^= 1
        broken = ProofString(x=proof.x, layers=(tuple(l0),) + proof.layers[1:])
        assert acceptance_probability(ts, broken) <= Fraction(9, 10)

    def test_all_zero_proof_on_unsatisfied_clause(self, low_system):
        ts = low_system
        zero = proof_from_int(ts, 0)
        assert acceptance_probability(ts, zero) < 1


class TestAdversaries:
    def test_satisfiable_base_reaches_one(self, low_system, det_circuits, sat_system):
        inst = unit_pair_instance(3, 4, (0,))
        sat = CspInstance(2, tuple(disjunction([(0, True)]) for _ in range(4)))
        c, cert = det_circuits[4]
        ts = transform(sat, c, certificate=cert)
        rep = exhaustive_adversary(ts)
        assert rep.value == 1

    def test_low_optimum_soundness(self, low_system):
        rep = exhaustive_adversary(low_system)
        assert rep.value <= Fraction(9, 10)
        # witness actually achieves the reported value
        assert acceptance_probability(low_system, rep.witness) == rep.value

    def test_cap(self, det_circuits):
        inst = random_3sat(12, 16, 3)
        c, cert = det_circuits[16]
        ts = transform(inst, c, certificate=cert)
        with pytest.raises(ResourceCapError):
            exhaustive_adversary(ts, cap=24)

    def test_single_flip_never_beats_perfect(self, sat_system):
        ts, rep = sat_system
        proof = honest_proof(ts, rep.argmax)
        assert acceptance_probability(ts, proof) == 1
        value = proof.to_int()
        for b in range(0, ts.proof_length, 7):
            flipped = proof_from_int(ts, value ^ (1 << b))
            assert acceptance_probability(ts, flipped) <= 1

    def test_soundness_at_28_bits(self, det_circuits):
        inst = unit_pair_instance(13, 8, (0, 5, 9))
        assert brute_force_opt(inst).optimum <= Fraction(6, 10)
        c, cert = det_circuits[8]
        ts = transform(inst, c, certificate=cert)
        assert ts.proof_length == 28
        rep = exhaustive_adversary(ts, cap=28)
        assert rep.value <= Fraction(9, 10)
        assert rep.proofs_enumerated == 1 << 28
        assert acceptance_probability(ts, rep.witness) == rep.value

    def test_greedy_below_exhaustive_and_deterministic(self, low_system):
        ex = exhaustive_adversary(low_system)
        g1, p1 = greedy_adversary(low_system, restarts=4, seed=3)
        g2, p2 = greedy_adversary(low_system, restarts=4, seed=3)
        assert g1 <= ex.value
        assert (g1, p1) == (g2, p2)


def _det_system(base, m=8):
    return transform(base, build_deterministic(m, seed=0), waive_certificate=True)


# name -> transformed system; proof bits = n + 2m - 1 on a det circuit
KERNEL_SYSTEMS = {
    # the golden adversary.json input: 17 proof bits
    "golden-17": lambda: _det_system(unit_pair_instance(2, 8, (0,))),
    # the cli_commands NO input shape: 24 bits, 16 blocks of gate bits
    "no-24": lambda: _det_system(unit_pair_instance(9, 8, (0, 4))),
    "3sat-20": lambda: _det_system(random_3sat(5, 8, 21)),
    "3sat-22": lambda: _det_system(random_3sat(7, 8, 22)),
    # every proof with x_0 = 1 and honest gate bits accepts: many tie at 1
    "sat-ties": lambda: _det_system(
        CspInstance(4, tuple(disjunction([(0, True)]) for _ in range(8)))
    ),
    # multiset wiring, fan-in 3, two layers: 5 + 8 + 6 = 19 bits
    "randomized": lambda: transform(
        random_3sat(5, 8, 4), build_randomized(8, f=3, seed=1), waive_certificate=True
    ),
    # 2^9 assignments, 7 gate bits: 16 bits
    "m4-3sat": lambda: _det_system(random_3sat(9, 4, 5), m=4),
    # the lowest maximizing assignment is 256; every x >= 256 ties with it
    "m4-late-ties": lambda: _det_system(
        CspInstance(9, tuple(disjunction([(8, True)]) for _ in range(4))), m=4
    ),
}


def _same_as_reference(ts):
    got = exhaustive_adversary(ts)
    want = reference_adversary(ts)
    assert (got.value, got.witness, got.proofs_enumerated) == (
        want.value, want.witness, want.proofs_enumerated
    )
    return got


class TestAdversaryKernel:
    """exhaustive_adversary against the bit-by-bit reference enumerator."""

    @pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS))
    def test_matches_reference(self, name):
        _same_as_reference(KERNEL_SYSTEMS[name]())

    def test_tie_break_lowest_proof(self):
        rep = exhaustive_adversary(KERNEL_SYSTEMS["sat-ties"]())
        assert rep.value == 1
        assert rep.witness.x == (1, 0, 0, 0)

    @pytest.mark.parametrize(
        "name, entries",
        [
            # 31 gate-bit rows per block, the last block partial
            ("golden-17", 1000),
            ("sat-ties", 1000),
            ("randomized", 1000),
            # one row per block, scored over all 512 assignments at once
            ("m4-3sat", 100),
            ("m4-late-ties", 100),
        ],
    )
    def test_small_blocks_match_reference(self, monkeypatch, name, entries):
        monkeypatch.setattr(transform_mod, "_BLOCK_ENTRIES", entries)
        rep = _same_as_reference(KERNEL_SYSTEMS[name]())
        if name == "m4-late-ties":
            assert rep.value == 1
            assert rep.witness.x == tuple(int(v == 8) for v in range(9))


class TestExport:
    def test_export_round_trips_through_oracle(self, det_circuits):
        # optimum of the exported check-CSP equals the exhaustive adversary max
        sat = CspInstance(2, tuple(disjunction([(0, True)]) for _ in range(4)))
        c, cert = det_circuits[4]
        ts = transform(sat, c, certificate=cert)
        exported = export_checks_csp(ts)
        assert exported.num_vars == ts.proof_length
        assert exported.num_clauses == 4
        adv = exhaustive_adversary(ts)
        assert brute_force_opt(exported).optimum == adv.value

    def test_export_cap(self, det_circuits, monkeypatch):
        monkeypatch.setattr(transform_mod, "DEFAULT_TABLE_CAP", 1 << 10)
        inst = random_3sat(4, 16, 5)
        c, cert = det_circuits[16]
        ts = transform(inst, c, certificate=cert)
        with pytest.raises(ResourceCapError):
            export_checks_csp(ts)
