"""Circuit construction, evaluation, goodness certification, serialization."""

import hashlib
import json
import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from gapforge.circuit import (
    DEFAULT_SCHEME,
    GoodnessCertificate,
    RobustCircuit,
    ThresholdScheme,
    auto_fan_in,
    build_deterministic,
    build_randomized,
    certify_goodness,
    circuit_digest,
    completeness_inputs,
    evaluate,
    fire,
    parse_circuit,
    randomized_depth,
    seed_failure_event,
    serialize_circuit,
    worst_case_degree,
)
import gapforge.circuit as circuit_mod
from gapforge.errors import GapforgeError, InfeasibleParametersError, ParseError
from gapforge.oracle import estimate, exhaustive_layer_check
from gapforge.sampler import second_eigenvalue, swap_climb
from gapforge.util import derive_seed, floor_frac, frac_str, rng_from, threshold_count

from conftest import layer_means, shared_input_circuit


class TestScheme:
    def test_default_constants(self):
        s = DEFAULT_SCHEME
        assert s.theta == Fraction(4, 5)
        assert s.mean_in == Fraction(7, 10)
        assert s.mean_out == Fraction(6, 10)
        assert s.new_soundness == Fraction(9, 10)

    def test_general_gap(self):
        s = ThresholdScheme(Fraction(4, 5), Fraction(1, 2))
        assert s.slack == Fraction(1, 10)
        assert s.mean_in == Fraction(6, 10)
        assert s.theta == Fraction(7, 10)

    def test_invalid(self):
        with pytest.raises(ValueError):
            ThresholdScheme(Fraction(1, 2), Fraction(3, 4))


class TestDeterministicBuild:
    def test_m16_structure(self):
        c = build_deterministic(16, seed=0)
        assert c.widths() == [8, 4, 2, 1]
        assert c.total_gates() == 15
        assert c.total_gates() + c.m == 2 * 16 - 1
        assert c.theta == Fraction(4, 5)  # the threshold of every gate
        assert len(c.layers[-1]) == 1  # single top gate

    def test_non_power_of_two_widths(self):
        c = build_deterministic(48, seed=1)
        assert c.widths() == [24, 12, 6, 3, 2, 1]

    def test_too_small(self):
        with pytest.raises(InfeasibleParametersError):
            build_deterministic(1)

    def test_worst_case_degree_bounds(self):
        # chosen degree admits no firing gate on <=7/10 inputs and no dying
        # gate on >=9/10 inputs
        for w in (16, 32, 64, 100):
            D = worst_case_degree(w, DEFAULT_SCHEME)
            fire = threshold_count(Fraction(4, 5), D)
            assert min(D, (7 * w) // 10) < fire
            assert D - fire >= w // 10

    def test_worst_case_degree_matches_fraction_form(self):
        def reference(width, scheme, fire):
            max_ones = floor_frac(scheme.mean_in * width)
            zero_budget = floor_frac((1 - scheme.completeness) * width)
            for D in range(3, width):
                if (width * D) % 2 == 0 and min(D, max_ones) < fire[D] <= D - zero_budget:
                    return D
            return None

        for scheme in (DEFAULT_SCHEME, ThresholdScheme(Fraction(4, 5), Fraction(1, 2))):
            fire = [threshold_count(scheme.theta, D) for D in range(1025)]
            for w in range(9, 1025):
                want = reference(w, scheme, fire)
                if want is None:
                    with pytest.raises(InfeasibleParametersError):
                        worst_case_degree(w, scheme)
                else:
                    assert worst_case_degree(w, scheme) == want

    def test_wiring_metadata(self):
        c = build_deterministic(32, seed=2)
        assert len(c.lambda_bounds) == c.depth
        assert c.lambda_bounds[0] is not None and c.lambda_bounds[-1] is None
        for layer, lam in enumerate(c.lambda_bounds, start=1):
            w, degree = c.width_in(layer), c.layers[layer - 1].shape[1]
            if w > circuit_mod.DEGENERATE_CUTOFF:
                # the trace bound of a simple D-regular graph on w vertices
                assert lam == math.sqrt(Fraction(w, degree) - 1)
            else:
                assert lam is None and degree == w  # full fan-in
        assert parse_circuit(serialize_circuit(c)).lambda_bounds == ()
        assert build_randomized(32, f=4, seed=2).lambda_bounds == ()


def _count_solves(monkeypatch) -> list:
    """Record the result of every second_eigenvalue call build_deterministic
    makes."""
    solved = []

    def counting(*args, **kwargs):
        solved.append(second_eigenvalue(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(circuit_mod, "second_eigenvalue", counting)
    return solved


class TestLayerLambda:
    @pytest.mark.parametrize("m", [64, 1024])
    def test_default_params_solve_nothing(self, monkeypatch, m):
        solved = _count_solves(monkeypatch)
        c = build_deterministic(m, seed=0)
        assert solved == []
        bounds = [lam for lam in c.lambda_bounds if lam is not None]
        assert circuit_mod.TARGET_LAMBDA == 0.97
        assert bounds and all(b <= 0.97 for b in bounds)

    def test_bound_above_target_falls_back_to_solve(self, monkeypatch):
        solved = _count_solves(monkeypatch)
        default = build_deterministic(64, seed=0)
        monkeypatch.setattr(circuit_mod, "TARGET_LAMBDA", 0.3)
        c = build_deterministic(64, seed=0)
        bounds = [lam for lam in c.lambda_bounds if lam is not None]
        assert len(bounds) == 3  # widths 64, 32, 16; 8 is full fan-in
        assert bounds == solved
        assert all(lam <= 0.3 for lam in solved)
        # the same wiring as at the default target: only the lambda record differs
        assert c == default

    def test_solved_lambda_above_target_raises(self, monkeypatch):
        solved = _count_solves(monkeypatch)
        monkeypatch.setattr(circuit_mod, "TARGET_LAMBDA", 0.01)
        with pytest.raises(
            InfeasibleParametersError,
            match=r"layer 1: lambda 0\.\d{4} above target 0\.01 at width 64",
        ):
            build_deterministic(64, seed=0)
        assert len(solved) == 1


class TestRandomizedBuild:
    def test_m256_structure(self):
        c = build_randomized(256, f=8, seed=0)
        assert c.depth == 3
        assert c.widths() == [128, 64, 32]

    def test_depth_schedule(self):
        assert randomized_depth(4) == 1
        assert randomized_depth(16) == 2
        assert randomized_depth(256) == 3
        assert randomized_depth(1024) == 4

    def test_multiset_inputs(self):
        c = build_randomized(64, f=12, seed=3)
        assert all(idx.shape[1] == 12 for idx in c.layers)
        has_duplicate = any(
            len(set(row)) < len(row) for idx in c.layers for row in idx.tolist()
        )
        assert has_duplicate  # replacement sampling repeats eventually

    def test_determinism(self):
        assert build_randomized(64, 8, seed=5) == build_randomized(64, 8, seed=5)
        assert build_randomized(64, 8, seed=5) != build_randomized(64, 8, seed=6)


class TestEvaluate:
    def test_all_ones_and_zeros(self):
        c = build_deterministic(16, seed=0)
        assert all(all(l) for l in evaluate(c, [1] * 16))
        assert not any(any(l) for l in evaluate(c, [0] * 16))

    def test_completeness_growth_inequality(self):
        for m, seed in ((16, 0), (32, 1), (64, 2)):
            c = build_deterministic(m, seed=seed)
            bits = np.ones(m, dtype=int)
            bits[: m - threshold_count(Fraction(9, 10), m)] = 0
            layers = evaluate(c, bits.tolist())
            for i, mean in enumerate(layer_means(layers), start=1):
                assert mean >= 1 - Fraction(1, 10 * 2**i)

    def test_shape_mismatch(self):
        c = build_deterministic(8, seed=0)
        with pytest.raises(GapforgeError):
            evaluate(c, [1] * 7)


class TestConstructionChecks:
    def test_inputs_outside_the_previous_layer_refused(self):
        ok = [[(0, 1, 2, 3)] * 4, [(0, 1, 2, 3)] * 2, [(0, 1)]]
        _custom_circuit(ok, 8)
        for layer, row, w_in in (
            (1, (0, 1, 2, 8), 8),
            (1, (-1, 0, 1, 2), 8),
            (2, (0, 1, 2, 4), 4),
            (3, (-1, 0), 2),
        ):
            layers = [list(gates) for gates in ok]
            layers[layer - 1][-1] = row
            with pytest.raises(
                GapforgeError,
                match=f"layer {layer}: gate input outside previous layer of width {w_in}",
            ):
                _custom_circuit(layers, 8)

    def test_gate_count_and_depth_must_match_the_widths(self):
        with pytest.raises(GapforgeError, match="layer 2 has 3 gates, not 2"):
            _custom_circuit([[(0, 1, 2, 3)] * 4, [(0, 1)] * 3, [(0, 1)]], 8)
        # the depth is the layer count, so it cannot disagree with it
        c = _custom_circuit([[(0, 1, 2, 3)] * 4, [(0, 1)] * 2], 8)
        assert c.depth == 2 and c.widths() == [4, 2]

    @pytest.mark.parametrize("m, layers", [(4, []), (0, [[(0,)]]), (-5, [[(0,)]])])
    def test_circuit_without_inputs_or_layers_refused(self, m, layers):
        with pytest.raises(GapforgeError, match="at least one input and one layer"):
            _custom_circuit(layers, m)

    def test_fan_in_is_the_one_gate_width_of_a_randomized_circuit(self):
        uniform = [[(0, 1)] * 4, [(0, 1)] * 2, [(0, 1)]]
        mixed = [[(0, 1, 2, 3)] * 4, [(0, 1)] * 2, [(0, 1)]]
        assert _custom_circuit(uniform, 8, variant="randomized").fan_in == 2
        assert _custom_circuit(uniform, 8).fan_in is None  # deterministic
        c = _custom_circuit(mixed, 8, variant="randomized")
        assert c.fan_in is None
        assert parse_circuit(serialize_circuit(c)).fan_in is None


def _custom_circuit(layers, m, variant="deterministic"):
    return RobustCircuit(
        m=m,
        variant=variant,
        layers=tuple(tuple(layer) for layer in layers),
        scheme=DEFAULT_SCHEME,
    )


def reference_worst_statistical(idx, thr, w_in, in_cap, trials, seed):
    """Reference for circuit._worst_statistical: the same seeded strings,
    each scored by its own product in a loop, the first string with the most
    fired gates kept as the start of the same greedy climb."""
    mult = circuit_mod._gate_multiplicity(idx, w_in)
    rng = rng_from(seed)
    strings = []
    for _ in range(max(1, trials - 4)):
        vec = np.zeros(w_in, dtype=np.int16)
        vec[rng.permutation(w_in)[:in_cap]] = 1
        strings.append(vec)
    for block_start in (0, w_in - in_cap, (w_in - in_cap) // 2):
        vec = np.zeros(w_in, dtype=np.int16)
        vec[block_start : block_start + in_cap] = 1
        strings.append(vec)
    worst, witness_vec = -1, strings[0]
    for vec in strings:
        fired = int(((vec @ mult) >= thr).sum())
        if fired > worst:
            worst, witness_vec = fired, vec
    g_best, g_vec = swap_climb(
        mult, thr, witness_vec, below=False, seed=derive_seed(seed, 0xA77), rounds=400
    )
    if g_best > worst:
        worst, witness_vec = g_best, g_vec
    witness = sum(int(b) << i for i, b in enumerate(witness_vec))
    return worst, witness, len(strings) + 1


def _statistical_layers(c: RobustCircuit):
    """(idx, thr, w_in, in_cap) of every layer too wide to enumerate."""
    for layer in range(1, c.depth + 1):
        w_in = c.width_in(layer)
        if w_in > circuit_mod.EXHAUSTIVE_CAP:
            in_cap = floor_frac(c.scheme.mean_in * w_in)
            yield c.layers[layer - 1], c.fire_count(layer), w_in, in_cap


class TestGoodness:
    @pytest.mark.parametrize("f", [8, 15, 32])
    def test_one_product_scoring_matches_loop_on_rand_layers(self, f):
        checked = 0
        for seed in (0, 1):
            c = build_randomized(1024, f, seed)
            for layer_args in _statistical_layers(c):
                for trials in (5, 48, 64):
                    args = (*layer_args, trials, derive_seed(seed, trials))
                    got = circuit_mod._worst_statistical(*args)
                    assert got == reference_worst_statistical(*args)
                    checked += 1
        assert checked == 2 * 4 * 3  # four statistical layers per circuit

    def test_one_product_scoring_matches_loop_on_det_layers(self):
        c = build_deterministic(256, seed=5)
        layers = list(_statistical_layers(c))
        assert len(layers) == 4  # widths 256, 128, 64, 32
        for i, layer_args in enumerate(layers):
            args = (*layer_args, 64, derive_seed(5, i))
            assert circuit_mod._worst_statistical(*args) == reference_worst_statistical(*args)

    def test_deterministic_circuits_pass(self, det_circuits):
        for m, (c, cert) in det_circuits.items():
            assert cert.passed

    def test_exhaustive_counts(self):
        c = build_deterministic(16, seed=0)
        cert = certify_goodness(c, exhaustive_cap=18)
        assert all(v.mode == "exhaustive" for v in cert.layers)
        assert cert.layers[0].strings_checked == sum(
            __import__("math").comb(16, k) for k in range(0, 11 + 1)
        )

    def test_bad_layer_caught_with_witness(self):
        # every layer-1 gate reads the same inputs, so a 7/10 string fires all
        cert = certify_goodness(shared_input_circuit())
        assert not cert.passed
        assert not cert.layers[0].passed and cert.layers[0].worst_output_count == 5
        assert cert.layers[0].witness is not None
        witness = int(cert.layers[0].witness, 16)
        assert bin(witness).count("1") <= 7

    def test_gate_multiplicity_matches_loop(self):
        from gapforge.circuit import _gate_multiplicity

        idx = build_randomized(64, f=12, seed=3).layers[0]
        ref = np.zeros((64, idx.shape[0]), dtype=np.int16)
        for g, row in enumerate(idx.tolist()):
            for p in row:
                ref[p, g] += 1
        assert np.array_equal(_gate_multiplicity(idx, 64), ref)

    def test_statistical_mode_records_trials(self):
        c = build_randomized(64, f=16, seed=11)
        cert = certify_goodness(c, exhaustive_cap=18, trials=32, seed=4)
        stat = [v for v in cert.layers if v.mode == "statistical"]
        assert stat and all(v.strings_checked >= 32 for v in stat)

    def test_cross_validates_with_oracle(self):
        c = build_deterministic(32, seed=7)
        cert = certify_goodness(c, exhaustive_cap=18)
        for layer_idx in range(1, c.depth + 1):
            w_in = c.width_in(layer_idx)
            if w_in > 18:
                continue
            rep = exhaustive_layer_check(
                c.layers[layer_idx - 1], c.theta, w_in, Fraction(7, 10), Fraction(6, 10)
            )
            verdict = cert.layers[layer_idx - 1]
            assert rep.passed == verdict.passed
            assert rep.worst_output_count == verdict.worst_output_count


def reference_auto_fan_in(m, master_seed, scheme=DEFAULT_SCHEME):
    """auto_fan_in in its former order: certify every fan-in, and estimate
    the seed-failure rate over all PROBE_SEEDS wirings of each that passes."""
    target = 1.0 / (m ** 0.25)
    for f in range(2, circuit_mod.FAN_IN_CAP + 1):
        c = build_randomized(m, f, master_seed, scheme)
        cert = certify_goodness(c, seed=master_seed)
        if not cert.passed:
            continue
        rate = estimate(
            seed_failure_event(m, f, scheme),
            trials=circuit_mod.PROBE_SEEDS,
            master_seed=derive_seed(master_seed, f, 2),
        )
        if float(rate.frequency) <= target:
            return c, cert
    raise InfeasibleParametersError(f"no fan-in passes at m={m}")


class TestAutoFanIn:
    @pytest.mark.parametrize("seed", [0, 6])
    def test_ships_the_circuit_it_certified(self, seed):
        c, cert = auto_fan_in(256, seed, exhaustive_cap=16, trials=40)
        assert cert.passed
        assert cert.circuit_digest == circuit_digest(c)
        assert c == build_randomized(256, c.fan_in, seed)
        assert cert == certify_goodness(c, exhaustive_cap=16, trials=40, seed=seed)
        assert (cert.exhaustive_cap, cert.trials, cert.seed) == (16, 40, seed)

    @pytest.mark.parametrize("m", [64, 1024])
    def test_probe_first_picks_what_certify_first_picked(self, m):
        for seed in range(3):
            c, cert = auto_fan_in(m, seed)
            ref_c, ref_cert = reference_auto_fan_in(m, seed)
            assert c.fan_in == ref_c.fan_in
            assert circuit_digest(c) == circuit_digest(ref_c)
            assert cert.to_doc() == ref_cert.to_doc()

    def test_certifies_only_fan_ins_that_pass_the_probe(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].fan_in)
            return certify_goodness(*args, **kwargs)

        monkeypatch.setattr(circuit_mod, "certify_goodness", counting)
        c, cert = auto_fan_in(1024, 0)
        assert cert.passed and calls[-1] == c.fan_in == 15
        assert len(calls) <= 2


class TestCertificateCodec:
    @pytest.fixture(scope="class")
    def certs(self):
        return {
            "det-pass": certify_goodness(build_deterministic(64, seed=3)),
            "det-fail": certify_goodness(shared_input_circuit()),
            "rand-pass": certify_goodness(build_randomized(64, f=32, seed=0)),
            "rand-fail": certify_goodness(build_randomized(64, f=4, seed=0)),
        }

    def test_cases_pass_and_fail_with_a_witness(self, certs):
        for name, cert in certs.items():
            assert cert.passed == name.endswith("pass")
            assert any(v.witness for v in cert.layers) == (not cert.passed)

    def test_doc_keys_are_the_fields(self, certs):
        for cert in certs.values():
            doc = cert.to_doc()
            assert set(doc) == {f.name for f in fields(cert)} | {"schema"}
            assert doc["schema"] == "gapforge-certificate/1"
            for verdict, vdoc in zip(cert.layers, doc["layers"], strict=True):
                assert set(vdoc) == {f.name for f in fields(verdict)}
                assert vdoc["worst_output_mean"] == (
                    f"{verdict.worst_output_mean.numerator}/"
                    f"{verdict.worst_output_mean.denominator}"
                )

    def test_from_doc_inverts_to_doc(self, certs):
        for cert in certs.values():
            assert GoodnessCertificate.from_doc(cert.to_doc()) == cert
            text = json.dumps(cert.to_doc())
            assert GoodnessCertificate.from_doc(json.loads(text)) == cert

    def test_malformed_docs_are_parse_errors(self, certs):
        doc = certs["det-pass"].to_doc()
        layer = dict(doc["layers"][0])
        del layer["witness"]
        cases = [
            ([doc], "GoodnessCertificate: expected an object, got list"),
            ({k: v for k, v in doc.items() if k != "circuit_digest"},
             "GoodnessCertificate: missing key 'circuit_digest'"),
            ({**doc, "mean_in": "3/0"}, "GoodnessCertificate.mean_in: zero denominator"),
            ({**doc, "mean_out": None}, "GoodnessCertificate.mean_out: "),
            ({**doc, "layers": [layer]}, "LayerVerdict: missing key 'witness'"),
            ({**doc, "layers": ["x"]}, "LayerVerdict: expected an object, got str"),
            ({**doc, "layers": doc["layers"][0]},
             "GoodnessCertificate.layers: expected a list, got dict"),
            ({**doc, "passed": "false"},
             "GoodnessCertificate.passed: expected bool, got str"),
            ({**doc, "passed": 1}, "GoodnessCertificate.passed: expected bool, got int"),
            ({**doc, "trials": True}, "GoodnessCertificate.trials: expected int, got bool"),
            ({**doc, "seed": "0"}, "GoodnessCertificate.seed: expected int, got str"),
            ({**doc, "circuit_digest": None},
             "GoodnessCertificate.circuit_digest: expected str, got NoneType"),
            ({**doc, "layers": [{**doc["layers"][0], "witness": 5}]},
             "LayerVerdict.witness: expected str or None, got int"),
            ({**doc, "schema": "something-else/9"},
             "GoodnessCertificate: schema 'something-else/9' is not "
             "'gapforge-certificate/1'"),
            ({k: v for k, v in doc.items() if k != "schema"},
             "GoodnessCertificate: schema None is not 'gapforge-certificate/1'"),
        ]
        for bad, message in cases:
            with pytest.raises(ParseError) as info:
                GoodnessCertificate.from_doc(bad)
            assert str(info.value).startswith(message)


class TestRandomizedCompleteness:
    def test_seed_failure_event_smoke(self):
        event = seed_failure_event(64, 16, DEFAULT_SCHEME)
        rep = estimate(event, trials=40, master_seed=0)
        assert float(rep.frequency) <= 0.5  # loose health check at small m

    def test_completeness_inputs_budget(self):
        inputs = completeness_inputs(64, Fraction(9, 10), seed=3)
        assert inputs.shape == (2, 64)
        assert (inputs.sum(axis=1) == threshold_count(Fraction(9, 10), 64)).all()

    def test_probe_agrees_with_evaluate(self):
        m, scheme, outcomes = 1024, DEFAULT_SCHEME, set()
        for f in (4, 15):  # every wiring below fails at f = 4 and passes at 15
            event = seed_failure_event(m, f, scheme)
            for seed in range(16):
                c = build_randomized(m, f, seed, scheme)
                rows = completeness_inputs(m, scheme.completeness, derive_seed(seed, 1))
                want = any(0 in evaluate(c, row)[-1] for row in rows)
                assert event(seed) == want
                outcomes.add(want)
        assert outcomes == {True, False}

    def test_probe_fires_what_build_randomized_wires(self):
        # the probe draws its layers without building a circuit; firing the
        # built circuit's sorted layers must give the same verdict
        m, scheme, outcomes = 256, DEFAULT_SCHEME, set()
        for f in range(2, 17):
            event = seed_failure_event(m, f, scheme)
            for i in range(48):
                seed = derive_seed(0x9B0B, f, i)
                c = build_randomized(m, f, seed, scheme)
                top = completeness_inputs(m, scheme.completeness, derive_seed(seed, 1))
                for layer in range(1, c.depth + 1):
                    top = fire(c.layers[layer - 1], c.fire_count(layer), top)
                want = not top.all()
                assert event(seed) == want, (f, i)
                outcomes.add(want)
        assert outcomes == {True, False}


def _joined_rcirc(c: RobustCircuit) -> str:
    """serialize_circuit as it was before its token-table gather: one
    " ".join per gate row."""
    text = serialize_circuit(c)
    lines = [text[: text.index("\n")]]
    for idx in c.layers:
        lines.extend(" ".join(str(p) for p in row) for row in idx.tolist())
    return "\n".join(lines) + "\n"


class TestSerialization:
    GAP = ThresholdScheme(Fraction(19, 20), Fraction(1, 2))

    CASES = {
        # input widths on both sides of a change in token length
        **{f"w{m}": (lambda m=m: build_randomized(m, 3, seed=m)) for m in (10, 11, 100, 101)},
        **{f"w{m}": (lambda m=m: build_randomized(m, 5, seed=m)) for m in (999, 1000, 1001)},
        "fan-in-1": lambda: build_randomized(300, 1, seed=3),
        "rcirc2-det": lambda: build_deterministic(16, seed=0, scheme=TestSerialization.GAP),
        "rcirc2-rand": lambda: build_randomized(128, 4, seed=5, scheme=TestSerialization.GAP),
        "det-1024": lambda: build_deterministic(1024, seed=1),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_token_gather_matches_per_row_join(self, case):
        c = self.CASES[case]()
        text = serialize_circuit(c)
        assert text == _joined_rcirc(c)
        assert text.startswith("rcirc/2 " if "rcirc2" in case else "rcirc ")
        assert parse_circuit(text) == c
        if case == "det-1024":  # layer 1 spans more than one gather block
            assert c.layers[0].size > circuit_mod._SERIAL_BLOCK

    @pytest.mark.parametrize("block", [1, 2, 7, 64])
    def test_block_boundaries_do_not_show(self, monkeypatch, block):
        # blocks narrower than a row, splitting rows, and a few rows each
        monkeypatch.setattr(circuit_mod, "_SERIAL_BLOCK", block)
        for c in (build_randomized(100, 3, seed=1), build_deterministic(64, seed=2)):
            text = serialize_circuit(c)
            assert text == _joined_rcirc(c)
            assert parse_circuit(text) == c

    def test_digest_serializes_once(self, monkeypatch):
        c = build_deterministic(64, seed=4)
        want = hashlib.sha256(serialize_circuit(c).encode()).hexdigest()
        calls = []

        def counting(circ):
            calls.append(circ)
            return serialize_circuit(circ)

        monkeypatch.setattr(circuit_mod, "serialize_circuit", counting)
        assert circuit_digest(c) == want
        assert circuit_digest(c) == want
        assert certify_goodness(c, exhaustive_cap=4, trials=8).circuit_digest == want
        assert len(calls) == 1
        assert c.rcirc_text == serialize_circuit(c)

    def test_round_trip_deterministic(self):
        c = build_deterministic(32, seed=9)
        assert parse_circuit(serialize_circuit(c)) == c

    def test_round_trip_randomized(self):
        c = build_randomized(64, f=7, seed=1)
        parsed = parse_circuit(serialize_circuit(c))
        assert parsed == c
        assert parsed.fan_in == 7

    def test_layers_are_sorted_read_only_arrays(self):
        c = build_randomized(64, f=7, seed=1)
        for idx, w in zip(c.layers, c.widths()):
            assert idx.shape == (w, 7)
            assert (np.diff(idx, axis=1) >= 0).all()
            with pytest.raises(ValueError):
                idx[0, 0] = 0

    def test_round_trip_keeps_certificate(self):
        built = (build_deterministic(64, seed=3), build_randomized(64, f=7, seed=1))
        for c in built + (shared_input_circuit(),):
            parsed = parse_circuit(serialize_circuit(c))
            assert parsed == c
            for kwargs in ({}, {"exhaustive_cap": 4, "trials": 16}):
                assert (
                    certify_goodness(parsed, seed=2, **kwargs).to_doc()
                    == certify_goodness(c, seed=2, **kwargs).to_doc()
                )

    def test_mixed_fan_in_layer_rejected(self):
        text = serialize_circuit(build_randomized(16, f=3, seed=0))
        lines = text.splitlines()
        lines[2] += " 0"  # second gate of layer 1 gets a fourth input
        with pytest.raises(ParseError, match="line 3"):
            parse_circuit("\n".join(lines) + "\n")

    def test_header_and_gate_errors(self):
        c = build_deterministic(8, seed=0)
        text = serialize_circuit(c)
        lines = text.splitlines()

        def with_lines(**edits):
            out = list(lines)
            for k, v in edits.items():
                out[int(k[1:])] = v
            return "\n".join(out) + "\n"

        # (text, line, message) for each ParseError kind; a line lists gate
        # faults in the order they are reported: a bad token, then an input
        # out of range, then a fan-in mismatch
        cases = [
            ("", 1, "missing rcirc header"),
            ("circ 8 3\n", 1, "missing rcirc header"),
            ("rcirc 8 3\n", 1, "malformed rcirc header"),
            (text.replace("deterministic", "determ", 1), 1, "malformed rcirc header"),
            (text.replace("rcirc 8 3", "rcirc 8 x", 1), 1, "malformed rcirc header"),
            # a zero denominator, not ZeroDivisionError
            (text.replace("deterministic 4/5", "deterministic 1/0", 1), 1,
             "malformed rcirc header"),
            (text.replace("rcirc 8 3", "rcirc 8 4", 1), 1,
             "expected 8 gate lines, found 7"),
            (with_lines(l1="0 1 999"), 2,
             "gate input outside previous layer of width 8"),
            (with_lines(l2="0 1 -1 3 4 5 6 7"), 3,
             "gate input outside previous layer of width 8"),
            (with_lines(l1="0 1 2 3 4 5 6 99999999999999999999"), 2,
             "gate input outside previous layer of width 8"),
            (with_lines(l2="0 x 2"), 3, "bad gate line"),
            (with_lines(l1="0 1 2 3 4 5 6 0x1"), 2, "bad gate line"),
            (with_lines(l2="0 1 2 3 4 5 6 99 x"), 3, "bad gate line"),
            (with_lines(l2="0 1 2 3 4 5 6 99 7"), 3,
             "gate input outside previous layer of width 8"),
            (with_lines(l2="0 1"), 3, "gate fan-in 2 differs from its layer's 8"),
            (with_lines(l6="0 1 5"), 7, "gate input outside previous layer of width 4"),
            # faults on two lines: the first one is reported
            (with_lines(l3="0 1 2 3 4 5 6 9", l5="0 y"), 4,
             "gate input outside previous layer of width 8"),
            (with_lines(l2="0 1", l5="0 y"), 3, "gate fan-in 2 differs from its layer's 8"),
            (with_lines(l5="0 y", l6="0 1 9"), 6, "bad gate line"),
        ]
        for bad, line, message in cases:
            with pytest.raises(ParseError) as info:
                parse_circuit(bad)
            assert (info.value.line, str(info.value)) == (line, f"line {line}: {message}")
        # int() spellings are read as they always were
        for token in ("+3", "٣", "-0", "00"):
            parsed = parse_circuit(with_lines(l1="0 1 2 3 4 5 6 " + token))
            assert parsed.layers[0].shape == (4, 8)

    @pytest.mark.parametrize(
        "block, w_in",
        [
            (["0 1 +3", "-0 1 2"], 8),
            (["0 1 1_0", "0 1 2"], 16),
            (["0 1 ٣", "0 1 2"], 8),
            (["0 1 2", "0 1 1.0"], 8),
            (["0 1 2", "0 1 1e3"], 8),
            (["0 1 0x1", "0 1 2"], 8),
            (["0 1 2", "0 1 #"], 8),
            (["0 1 2", "1 2 # 3"], 8),
            (["0 1 2", "0 1 99999999999999999999"], 8),
            (["0\t1\t2", "0 \t 1  2"], 8),
            (["0     1 2", "3  4    5"], 8),
            (["0 1 2", "3", "4 5"], 8),  # six tokens, as in 3 gates of fan-in 2
            (["0 1", "2 3 4", "5", "6 7"], 8),  # eight tokens, as in 4 gates of fan-in 2
            (["0 1 2", "0 1 9"], 8),
            (["0 -1 2", "0 1 2"], 8),
            (["0 1 2", "0 1 9", "0 y"], 8),
        ],
    )
    def test_bulk_reader_matches_the_scanner(self, block, w_in):
        lines = ["rcirc"] + block

        def outcome(read):
            try:
                return np.asarray(read(lines, 1, len(block), w_in), dtype=np.int64).tolist()
            except ParseError as exc:
                return exc.line, str(exc)

        assert outcome(circuit_mod._gate_rows) == outcome(circuit_mod._scan_gate_lines)

    def test_bulk_reader_reads_written_text_without_the_scanner(self, monkeypatch):
        scanned = []
        monkeypatch.setattr(
            circuit_mod, "_scan_gate_lines", lambda *args: scanned.append(args)
        )
        for c in (build_deterministic(256, seed=1), build_randomized(256, f=9, seed=1)):
            assert parse_circuit(serialize_circuit(c)) == c
        assert scanned == []

    def test_rcirc2_round_trip_keeps_scheme(self):
        scheme = ThresholdScheme(Fraction(4, 5), Fraction(1, 2))
        c = build_deterministic(64, seed=1, scheme=scheme)
        text = serialize_circuit(c)
        assert text.splitlines()[0] == "rcirc/2 64 6 deterministic 7/10 4/5 1/2"
        parsed = parse_circuit(text)
        assert parsed == c and parsed.scheme == scheme
        assert serialize_circuit(parsed) == text
        want = certify_goodness(c, seed=3).to_doc()
        assert want["passed"] and want["mean_in"] == "3/5"
        assert certify_goodness(parsed, seed=3).to_doc() == want
        with pytest.raises(ParseError, match="line 1: malformed rcirc header"):
            parse_circuit(text.replace("4/5 1/2", "1/2 4/5", 1))  # s >= c

    def test_equality_compares_scheme(self):
        c = build_deterministic(16, seed=0)
        other = ThresholdScheme(Fraction(4, 5), Fraction(1, 2))
        assert c == build_deterministic(16, seed=0)
        assert c != replace(c, scheme=other)

    def test_default_scheme_keeps_v1_header(self):
        for c in (build_deterministic(16, seed=0), build_randomized(16, f=3, seed=0)):
            assert serialize_circuit(c).startswith(f"rcirc 16 {c.depth} ")
            assert parse_circuit(serialize_circuit(c)).scheme == DEFAULT_SCHEME

    @pytest.mark.parametrize(
        "header, scheme_theta",
        [
            ("rcirc 4 1 deterministic {}", "4/5"),  # v1 means the default scheme
            ("rcirc/2 4 1 deterministic {} 9/10 3/10", "7/10"),
        ],
        ids=["v1", "rcirc2"],
    )
    def test_theta_off_its_scheme_refused(self, header, scheme_theta):
        gates = "\n0 1 2 3\n0 1 2 3\n"
        parsed = parse_circuit(header.format(scheme_theta) + gates)
        assert frac_str(parsed.theta) == scheme_theta
        with pytest.raises(ParseError, match="^line 1: malformed rcirc header$"):
            parse_circuit(header.format("1/2") + gates)

    @pytest.mark.parametrize("token", ["rcircus", "rcirc/1", "rcirc/3", "rcirc/9"])
    def test_unknown_header_token_refused(self, token):
        text = serialize_circuit(build_deterministic(8, seed=0))
        assert text.startswith("rcirc 8 3 deterministic 4/5\n")
        with pytest.raises(ParseError, match="^line 1: malformed rcirc header$"):
            parse_circuit(text.replace("rcirc", token, 1))

    @pytest.mark.parametrize("depth", [2, 10**7])
    def test_depth_over_the_line_count_refused_before_any_width(self, monkeypatch, depth):
        # every layer has at least one gate line
        monkeypatch.setattr(
            circuit_mod, "width_at", lambda m, i: pytest.fail("a width was computed")
        )
        with pytest.raises(ParseError) as info:
            parse_circuit(f"rcirc 4 {depth} deterministic 4/5\n0 1 2 3\n")
        assert str(info.value) == f"line 1: expected at least {depth} gate lines, found 1"
