"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single ACCEPTANCE line; run with -rA (or -s) to see them
all. The heavyweight fixtures (certified circuits, the reduction family) are
session-scoped and shared with the unit tests.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from gapforge.circuit import (
    DEFAULT_SCHEME,
    auto_fan_in,
    build_deterministic,
    build_randomized,
    certify_goodness,
    completeness_inputs,
    evaluate,
    parse_circuit,
    seed_failure_event,
    serialize_circuit,
)
from gapforge.csp import evaluate_clause, parse_instance, serialize
from gapforge.gapeth import (
    check_balanced,
    one_sided_sweep,
    reduce_one_sided,
    sample_list,
    solve_driver,
)
from gapforge.oracle import (
    brute_force_opt,
    estimate,
    exhaustive_layer_check,
    is_satisfiable,
)
from gapforge.sampler import (
    SamplerParams,
    adversarial_corpus,
    build_expander,
    build_sampler_family,
    certify_sampler,
    second_eigenvalue,
    second_eigenvalue_dense,
)
from gapforge.transform import (
    acceptance_probability,
    exhaustive_adversary,
    honest_proof,
    transform,
)
from gapforge.util import derive_seed

from conftest import layer_means, list_instance

NINE_TENTHS = Fraction(9, 10)
SIX_TENTHS = Fraction(6, 10)


def test_criterion_01_perfect_completeness(det_circuits, completeness_corpus):
    """Honest proofs of >= 9/10-satisfiable bases accept with probability 1."""
    assert len(completeness_corpus) >= 50
    checked = 0
    for inst, rep in completeness_corpus:
        assert rep.optimum >= NINE_TENTHS
        circuit, cert = det_circuits[inst.num_clauses]
        ts = transform(inst, circuit, certificate=cert)
        proof = honest_proof(ts, rep.argmax)
        assert acceptance_probability(ts, proof) == 1
        checked += 1
    print(f"ACCEPTANCE 1: PASS - honest acceptance exactly 1 on {checked} instances")


def test_criterion_02_soundness_by_exhaustion(det_circuits, soundness_corpus):
    """Exhaustive adversaries on <= 6/10-satisfiable bases stay <= 9/10."""
    assert len(soundness_corpus) >= 20
    worst = Fraction(0)
    for inst, rep in soundness_corpus:
        assert rep.optimum <= SIX_TENTHS
        circuit, cert = det_circuits[inst.num_clauses]
        ts = transform(inst, circuit, certificate=cert)
        assert ts.proof_length <= 24
        adv = exhaustive_adversary(ts)
        assert adv.value <= NINE_TENTHS
        worst = max(worst, adv.value)
    print(
        f"ACCEPTANCE 2: PASS - exhaustive max acceptance {worst} <= 9/10 "
        f"on {len(soundness_corpus)} instances"
    )


def test_criterion_03_layer_damping(det_circuits):
    """Exhaustive damping holds on every certified layer of width <= 20, and
    the two independent enumerators agree layer by layer."""
    layers_checked = 0
    disagreements = 0
    for m, (circuit, cert) in sorted(det_circuits.items()):
        for layer_idx in range(1, circuit.depth + 1):
            w_in = circuit.width_in(layer_idx)
            if w_in > 20:
                continue
            oracle_rep = exhaustive_layer_check(
                circuit.layers[layer_idx - 1],
                circuit.theta,
                w_in,
                DEFAULT_SCHEME.mean_in,
                DEFAULT_SCHEME.mean_out,
            )
            verdict = cert.layers[layer_idx - 1]
            assert verdict.mode == "exhaustive"
            assert oracle_rep.passed and verdict.passed
            if (
                oracle_rep.passed != verdict.passed
                or oracle_rep.worst_output_count != verdict.worst_output_count
            ):
                disagreements += 1
            layers_checked += 1
    assert disagreements == 0
    print(
        f"ACCEPTANCE 3: PASS - {layers_checked} layers of width <= 20 damp "
        f"exhaustively, zero cross-validation disagreements"
    )


def test_criterion_04_completeness_growth(det_circuits, completeness_corpus):
    """Layer means grow as >= 1 - 2^-i/10 for every >= 9/10-mean input."""
    inputs_checked = 0
    for inst, rep in completeness_corpus:
        circuit, _ = det_circuits[inst.num_clauses]
        ts_input = [evaluate_clause(c, rep.argmax) for c in inst.clauses]
        if Fraction(sum(ts_input), len(ts_input)) < NINE_TENTHS:
            continue
        for i, mean in enumerate(layer_means(evaluate(circuit, ts_input)), start=1):
            assert mean >= 1 - Fraction(1, 10 * 2**i)
        inputs_checked += 1
    # synthetic worst-budget inputs, random and clustered placements
    for m, (circuit, _) in sorted(det_circuits.items()):
        for bits in completeness_inputs(m, NINE_TENTHS, derive_seed(0x904, m)):
            for i, mean in enumerate(layer_means(evaluate(circuit, bits)), start=1):
                assert mean >= 1 - Fraction(1, 10 * 2**i)
            inputs_checked += 1
    assert inputs_checked >= 50
    print(
        f"ACCEPTANCE 4: PASS - per-layer growth inequality exact on "
        f"{inputs_checked} high-mean inputs"
    )


@pytest.fixture(scope="session")
def tuned_randomized():
    circuit, cert = auto_fan_in(1024, master_seed=2026)
    assert circuit.fan_in <= 64 and cert.passed
    return circuit.fan_in, cert


def test_criterion_05_randomized_completeness(tuned_randomized):
    """Seed-failure rate of honest completeness at m=1024 within 1/m^(1/4)."""
    f, _ = tuned_randomized
    target = 1.0 / (1024.0**0.25)
    rep = estimate(
        seed_failure_event(1024, f, DEFAULT_SCHEME),
        trials=200,
        master_seed=derive_seed(0x5EED, 5),
    )
    assert rep.wilson_low <= target
    print(
        f"ACCEPTANCE 5: PASS - f={f}, {rep.successes}/200 seed failures, "
        f"Wilson99 [{rep.wilson_low:.4f}, {rep.wilson_high:.4f}] vs target {target:.4f}"
    )


def test_criterion_06_accounting(det_circuits, completeness_corpus):
    """Proof length, query transcripts, and randomness checked per transform."""
    systems = 0
    for inst, rep in completeness_corpus:
        m = inst.num_clauses
        circuit, cert = det_circuits[m]
        ts = transform(inst, circuit, certificate=cert)
        assert ts.accounting.proof_length == inst.num_vars + 2 * m - 1
        assert ts.accounting.randomness_strings == m
        assert ts.accounting.randomness_bits == m.bit_length() - 1
        d = circuit.depth
        fan_ins = [idx.shape[1] for idx in circuit.layers]
        for j, q in enumerate(ts.accounting.per_check_queries):
            assert q <= inst.clauses[j].arity + sum(fan_ins) + d + 1
        systems += 1
    # randomized variant accounting: extra queries <= f*d + d + 1
    from conftest import random_3sat

    base = random_3sat(6, 256, 3)
    rc = build_randomized(256, f=8, seed=1)
    ts = transform(base, rc, waive_certificate=True)
    for j, q in enumerate(ts.accounting.per_check_queries):
        assert q <= base.clauses[j].arity + 8 * rc.depth + rc.depth + 1
    systems += 1
    print(f"ACCEPTANCE 6: PASS - accounting exact on {systems} transforms")


def test_criterion_07_sampler_certification():
    """Families at N in {256, 512, 1024} pass the adversarial corpus with the
    mixing-lemma line; the eigensolver matches dense below N=64."""
    params = SamplerParams(
        epsilon=Fraction(1, 10),
        delta=Fraction(6, 10),
        gamma=Fraction(8, 10),
        target_lambda=0.31,
    )
    lambdas = {}
    for N in (256, 512, 1024):
        fam = build_sampler_family(params, N, seed=derive_seed(0x5A, N))
        corpus = adversarial_corpus(fam, seed=derive_seed(0xC0B, N))
        rep = certify_sampler(fam, corpus)
        assert rep.passed
        assert all(r.deviation_fraction <= params.delta for r in rep.strings)
        high = [r for r in rep.strings if r.eta is not None and r.eta > 0]
        assert high, "corpus must include high-mean strings"
        for r in high:
            assert r.low_fraction <= r.eta / 2
            assert r.mixing_ok
        lambdas[N] = fam.measured_lambda
    for N, D, seed in ((16, 5, 0), (32, 9, 1), (48, 13, 2), (64, 17, 3)):
        g = build_expander(N, D, seed)
        assert abs(second_eigenvalue(g, 1e-8) - second_eigenvalue_dense(g)) < 1e-6
    lam_str = ", ".join(f"N={N}: {lam:.3f}" for N, lam in lambdas.items())
    print(f"ACCEPTANCE 7: PASS - certified families ({lam_str}); power==dense<=1e-6")


NO_TRIALS_TOTAL = 100_000


def test_criterion_08_one_sided_reduction(red_params, red_family, no_bases, yes_bases):
    """>= 1e5 NO trials with zero optima above 1/2; YES frequency positive and
    the driver lands YES for >= 99% of master seeds."""
    assert red_params.k_condition_ok
    fam_report = certify_sampler(
        red_family, adversarial_corpus(red_family, seed=0xF00)
    )
    assert fam_report.passed
    per_base = NO_TRIALS_TOTAL // len(no_bases)
    total = 0
    for idx, (base, rep) in enumerate(no_bases):
        assert rep.optimum <= red_params.s
        p = replace(red_params, seed=derive_seed(red_params.seed, idx))
        sweep = one_sided_sweep(base, p, red_family, trials=per_base)
        assert sweep.optima_above_half == 0
        assert sweep.max_optimum <= Fraction(1, 2)
        total += sweep.trials
    assert total >= NO_TRIALS_TOTAL
    # spot cross-validation of the sweep against the object-level reduction
    base0, _ = no_bases[0]
    p0 = replace(red_params, seed=derive_seed(red_params.seed, 0))
    for trial in (0, 1, per_base - 1):
        pt = replace(p0, seed=derive_seed(p0.seed, trial))
        inst, _ = reduce_one_sided(base0, pt, red_family)
        assert brute_force_opt(inst, cap=16).optimum <= Fraction(1, 2)
    # YES side: measured single-trial frequency, then the driver
    yes_base, yes_rep = yes_bases[0]
    assert yes_rep.optimum >= red_params.s * (1 + red_params.epsilon)
    probe = one_sided_sweep(
        yes_base, replace(red_params, seed=0xE55), red_family, trials=2000
    )
    yes_freq = probe.optima_at_one / probe.trials
    assert yes_freq > 0
    masters = 100
    hits = 0
    for i in range(masters):
        p = replace(red_params, seed=derive_seed(0xD21, i))
        driver = solve_driver(
            yes_base,
            p,
            trials=24,
            subroutine=lambda inst: is_satisfiable(inst, cap=16),
            fam=red_family,
        )
        hits += driver.answer
    assert hits >= int(0.99 * masters)
    print(
        f"ACCEPTANCE 8: PASS - {total} NO trials all <= 1/2; YES freq "
        f"{yes_freq:.3f}; driver {hits}/{masters} masters"
    )


def test_criterion_09_balanced_list_fidelity(red_params, no_bases, yes_bases):
    """Whenever the list balances, the list instance's exact optimum obeys the
    stated completeness/soundness translation."""
    checked = 0
    soundness_cap = red_params.s * (1 + red_params.epsilon / 3)
    completeness_floor = red_params.s * (1 + 2 * red_params.epsilon / 3)
    for which, pool in (("no", no_bases), ("yes", yes_bases)):
        for b_idx, (base, rep) in enumerate(pool):
            for offset in range(3):
                p = replace(red_params, seed=derive_seed(0xBA1, b_idx, offset))
                entries = sample_list(base, p)
                if not check_balanced(entries, base.num_clauses, p).balanced:
                    continue
                opt = brute_force_opt(list_instance(base, entries), cap=16).optimum
                if which == "no":
                    assert opt <= soundness_cap
                else:
                    assert opt >= completeness_floor
                checked += 1
    assert checked >= 10
    print(f"ACCEPTANCE 9: PASS - translation exact on {checked} balanced lists")


def test_criterion_10_determinism_and_round_trips(
    tmp_path, det_circuits, completeness_corpus, soundness_corpus
):
    """Byte-identical reports across reruns; structural round-trips everywhere."""
    # instance round-trips across the whole corpus
    count = 0
    for inst, _ in list(completeness_corpus) + list(soundness_corpus):
        assert parse_instance(serialize(inst)) == inst
        count += 1
    # circuit round-trips
    for m, (circuit, _) in det_circuits.items():
        assert parse_circuit(serialize_circuit(circuit)) == circuit
        count += 1
    # CLI byte-determinism: two identical runs give identical outputs
    from gapforge.cli import main as cli_main

    cnf = tmp_path / "det.cnf"
    cnf.write_text(serialize(completeness_corpus[0][0]))
    blobs = []
    for run in range(2):
        report = tmp_path / f"r{run}.json"
        circ = tmp_path / f"c{run}.rcirc"
        code = cli_main([
            "transform", "--input", str(cnf), "--certify", "--seed", "11",
            "--out-circuit", str(circ), "--report", str(report),
        ])
        assert code == 0
        cert_report = tmp_path / f"cert{run}.json"
        assert cli_main([
            "certify", "--circuit", str(circ), "--seed", "11",
            "--report", str(cert_report),
        ]) == 0
        oracle_report = tmp_path / f"o{run}.json"
        assert cli_main([
            "oracle", "--input", str(cnf), "--report", str(oracle_report),
        ]) == 0
        blobs.append(
            (report.read_bytes(), circ.read_bytes(),
             cert_report.read_bytes(), oracle_report.read_bytes())
        )
    assert blobs[0] == blobs[1]
    print(
        f"ACCEPTANCE 10: PASS - {count} round-trips exact; reports "
        f"byte-identical across reruns"
    )
