"""Command-line behavior: exit codes, report determinism, error mapping."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

import gapforge.circuit as circuit_mod
from gapforge.circuit import DEFAULT_SCHEME, RobustCircuit, serialize_circuit
from gapforge.cli import main
from gapforge.csp import CspInstance, disjunction, serialize

from conftest import random_3sat, unit_pair_instance


@pytest.fixture(scope="module")
def toy_cnf(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "toy16.cnf"
    path.write_text(serialize(random_3sat(4, 16, 5)))
    return str(path)


@pytest.fixture(scope="module")
def no48_cnf(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "no48.cnf"
    path.write_text(serialize(unit_pair_instance(8, 48, (0,))))
    return str(path)


def run(args):
    return main(args)


class TestTransformCommand:
    def test_certify_inline(self, toy_cnf, tmp_path):
        report = tmp_path / "t.json"
        circ = tmp_path / "c.rcirc"
        code = run([
            "transform", "--input", toy_cnf, "--certify", "--seed", "3",
            "--out-circuit", str(circ), "--report", str(report),
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["accounting"]["proof_length"] == 4 + 31
        assert doc["accounting"]["randomness_strings"] == 16
        assert doc["certificate"]["passed"]
        assert circ.exists()

    def test_missing_certificate_is_usage_error(self, toy_cnf, tmp_path):
        code = run(["transform", "--input", toy_cnf, "--seed", "3"])
        assert code == 2

    def test_waive_cert(self, toy_cnf, tmp_path):
        report = tmp_path / "t.json"
        code = run([
            "transform", "--input", toy_cnf, "--waive-cert", "--seed", "3",
            "--report", str(report),
        ])
        assert code == 0
        assert json.loads(report.read_text())["certificate_waived"]

    def test_randomized_variant_report(self, tmp_path):
        cnf = tmp_path / "m256.cnf"
        cnf.write_text(serialize(random_3sat(6, 256, 1)))
        report = tmp_path / "r.json"
        code = run([
            "transform", "--input", str(cnf), "--variant", "rand", "--fanin", "8",
            "--waive-cert", "--seed", "1", "--report", str(report),
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["depth"] == 3 and doc["fan_in"] == 8
        # extra queries per check: f*d + d + 1 over the base width
        assert doc["accounting"]["max_queries"] <= 3 + 8 * 3 + 3 + 1

    def test_auto_fan_in_ships_its_certified_circuit(self, tmp_path, monkeypatch):
        # seed 6 at m=1024: a probe wiring certified, the shipped one failed
        cnf = tmp_path / "m1024.cnf"
        cnf.write_text(serialize(random_3sat(32, 1024, 3)))
        certified = []

        def recording(c, *args, **kwargs):
            certified.append(circuit_mod.circuit_digest(c))
            return certify(c, *args, **kwargs)

        certify = circuit_mod.certify_goodness
        monkeypatch.setattr(circuit_mod, "certify_goodness", recording)
        report, circ = tmp_path / "r.json", tmp_path / "r.rcirc"
        code = run([
            "transform", "--input", str(cnf), "--variant", "rand", "--certify",
            "--seed", "6", "--out-circuit", str(circ), "--report", str(report),
        ])
        assert code == 0
        cert = json.loads(report.read_text())["certificate"]
        shipped = hashlib.sha256(circ.read_bytes()).hexdigest()
        assert cert["passed"] and cert["circuit_digest"] == shipped
        # one certification per fan-in tried, the shipped circuit's last
        assert len(set(certified)) == len(certified) and certified[-1] == shipped

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 2 1\n3 0\n")
        assert run(["transform", "--input", str(bad), "--waive-cert"]) == 2


class TestCertifyCommand:
    def test_round_trip_certify(self, toy_cnf, tmp_path):
        circ = tmp_path / "c.rcirc"
        run([
            "transform", "--input", toy_cnf, "--certify", "--seed", "3",
            "--out-circuit", str(circ), "--report", str(tmp_path / "t.json"),
        ])
        report = tmp_path / "cert.json"
        code = run([
            "certify", "--circuit", str(circ), "--seed", "3",
            "--report", str(report),
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["certificate"]["passed"]
        assert any("passed" in r for r in doc["sampler_reports"])


class TestOracleCommand:
    def test_report(self, no48_cnf, tmp_path):
        report = tmp_path / "o.json"
        assert run(["oracle", "--input", no48_cnf, "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["result"]["optimum"] == "1/2"

    def test_zero_variable_optimum(self, tmp_path):
        # a contradiction and a tautology over no variables: optimum 1/2
        gcsp = tmp_path / "zero.gcsp"
        gcsp.write_text("gcsp 0 2 0\n0 0\n0 1\n")
        report = tmp_path / "o.json"
        assert run(["oracle", "--input", str(gcsp), "--report", str(report)]) == 0
        result = json.loads(report.read_text())["result"]
        assert result["optimum"] == "1/2" and not result["degenerate"]

    @pytest.mark.parametrize(
        "name, text",
        [
            ("neg-vars.gcsp", "gcsp -1 0 0\n"),
            ("neg-width.gcsp", "gcsp 2 1 -5\n1 0 2\n"),
            ("two-headers.cnf", "p cnf 3 1\n1 2 0\np cnf 5 2\n4 5 0\n"),
        ],
    )
    def test_malformed_header_exit_code(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        report = tmp_path / "o.json"
        assert run(["oracle", "--input", str(path), "--report", str(report)]) == 2
        assert not report.exists()

    def test_cap_exit_code(self, tmp_path):
        cnf = tmp_path / "wide.cnf"
        cnf.write_text(serialize(random_3sat(26, 10, 1)))
        assert run(["oracle", "--input", str(cnf), "--cap", "24"]) == 3


class TestGapReduceCommand:
    def test_dry_run(self, no48_cnf, tmp_path):
        report = tmp_path / "g.json"
        code = run([
            "gap-reduce", "--input", no48_cnf, "--mode", "one-sided",
            "--seed", "1", "--dry-run", "--report", str(report),
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        assert "balance" in doc["dry_run"]
        assert "lll_value" in doc["dry_run"]
        assert doc["params"]["k_condition_ok"]

    def test_no_base_verdict_no(self, no48_cnf, tmp_path):
        report = tmp_path / "g.json"
        code = run([
            "gap-reduce", "--input", no48_cnf, "--mode", "one-sided",
            "--seed", "1", "--trials", "3", "--cap", "16",
            "--report", str(report),
        ])
        assert code == 0
        assert json.loads(report.read_text())["driver"]["answer"] == "NO"

    def test_zero_variable_contradictions_verdict_no(self, tmp_path):
        # 48 empty-scope contradictions have optimum 0: a NO input under the
        # default one-sided parameters, so no trial may answer YES
        gcsp = tmp_path / "zero48.gcsp"
        gcsp.write_text("gcsp 0 48 0\n" + "0 0\n" * 48)
        report = tmp_path / "g.json"
        code = run([
            "gap-reduce", "--input", str(gcsp), "--seed", "0", "--trials", "8",
            "--report", str(report),
        ])
        assert code == 0
        driver = json.loads(report.read_text())["driver"]
        assert driver["answer"] == "NO" and driver["trials_run"] == 8

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_zero_variable_two_sided_refused(self, tmp_path, dry_run, capsys):
        # the two-sided reduction has no output clauses without variables, so
        # it refuses the base instead of answering YES on every trial
        gcsp = tmp_path / "zero48.gcsp"
        gcsp.write_text("gcsp 0 48 0\n" + "0 0\n" * 48)
        report = tmp_path / "g.json"
        code = run([
            "gap-reduce", "--input", str(gcsp), "--mode", "two-sided", "--seed", "0",
            "--report", str(report),
        ] + ["--dry-run"] * dry_run)
        assert code == 2 and not report.exists()
        assert "needs variables" in capsys.readouterr().err


class TestDeterminism:
    def test_transform_outputs_byte_identical_across_reruns(self, toy_cnf, tmp_path):
        outs = []
        for i in range(2):
            report = tmp_path / f"t{i}.json"
            circ = tmp_path / f"c{i}.rcirc"
            code = run([
                "transform", "--input", toy_cnf, "--certify", "--seed", "7",
                "--out-circuit", str(circ), "--report", str(report),
            ])
            assert code == 0
            outs.append((report.read_bytes(), circ.read_bytes()))
        assert outs[0] == outs[1]

    def test_certify_reports_byte_identical(self, toy_cnf, tmp_path):
        circ = tmp_path / "c.rcirc"
        run([
            "transform", "--input", toy_cnf, "--certify", "--seed", "7",
            "--out-circuit", str(circ), "--report", str(tmp_path / "_.json"),
        ])
        blobs = []
        for i in range(2):
            report = tmp_path / f"cert{i}.json"
            assert run([
                "certify", "--circuit", str(circ), "--seed", "7",
                "--report", str(report),
            ]) == 0
            blobs.append(report.read_bytes())
        assert blobs[0] == blobs[1]


def _shared_input_circuit(scheme):
    """Every gate reads its whole previous layer at theta 1/2, so a 7/10
    input fires every gate of layer 1."""
    m = 10
    widths = [5, 3, 2, 1]
    layers = [[tuple(range(m))] * widths[0]]
    for prev_w, w in zip(widths, widths[1:]):
        layers.append([tuple(range(prev_w))] * w)
    return RobustCircuit(
        m=m, depth=4, theta=Fraction(1, 2), variant="deterministic",
        layers=tuple(layers), scheme=scheme,
    )


class TestVerifiedFailure:
    def test_bad_circuit_exits_one_with_witness(self, tmp_path):
        # the file carries the default scheme in an rcirc/2 header
        bad = _shared_input_circuit(DEFAULT_SCHEME)
        path = tmp_path / "bad.rcirc"
        path.write_text(serialize_circuit(bad))
        report = tmp_path / "cert.json"
        code = run([
            "certify", "--circuit", str(path), "--seed", "0",
            "--report", str(report),
        ])
        assert code == 1
        doc = json.loads(report.read_text())
        assert not doc["certificate"]["passed"]
        assert any(v["witness"] for v in doc["certificate"]["layers"])

    def test_rcirc2_scheme_certified(self, tmp_path):
        from gapforge.circuit import ThresholdScheme, build_deterministic

        scheme = ThresholdScheme(Fraction(4, 5), Fraction(1, 2))
        path = tmp_path / "s.rcirc"
        path.write_text(serialize_circuit(build_deterministic(16, seed=0, scheme=scheme)))
        report = tmp_path / "cert.json"
        assert run(["certify", "--circuit", str(path), "--report", str(report)]) == 0
        cert = json.loads(report.read_text())["certificate"]
        assert (cert["mean_in"], cert["mean_out"]) == ("3/5", "1/2")

    def test_unknown_scheme_refused(self, tmp_path, capsys):
        path = tmp_path / "bare.rcirc"
        path.write_text(serialize_circuit(_shared_input_circuit(None)))
        report = tmp_path / "cert.json"
        code = run([
            "certify", "--circuit", str(path), "--seed", "0",
            "--report", str(report),
        ])
        assert code == 2
        assert not report.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gapforge: ")
        assert "no (c, s) scheme" in err[0]


class TestAdversaryFlag:
    def test_exhaustive_adversary_in_report(self, tmp_path):
        cnf = tmp_path / "low.cnf"
        cnf.write_text(serialize(unit_pair_instance(2, 8, (0,))))
        report = tmp_path / "t.json"
        code = run([
            "transform", "--input", str(cnf), "--certify", "--seed", "0",
            "--adversary", "exhaustive", "--report", str(report),
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        num, den = map(int, doc["soundness"]["max_acceptance"].split("/"))
        assert num / den <= 0.9

    def test_adversary_cap_exit_three(self, toy_cnf, tmp_path):
        code = run([
            "transform", "--input", toy_cnf, "--certify", "--seed", "0",
            "--adversary", "exhaustive", "--adversary-cap", "10",
        ])
        assert code == 3

    def test_greedy_adversary_labeled(self, toy_cnf, tmp_path):
        report = tmp_path / "t.json"
        code = run([
            "transform", "--input", toy_cnf, "--certify", "--seed", "0",
            "--adversary", "greedy", "--report", str(report),
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["soundness"]["mode"] == "greedy-lower-bound"
        assert doc["soundness"]["analytical_bound"] == "9/10"


class TestEnvSeed:
    def test_gapforge_seed_fallback(self, toy_cnf, tmp_path, monkeypatch):
        monkeypatch.setenv("GAPFORGE_SEED", "7")
        report = tmp_path / "env.json"
        code = run([
            "transform", "--input", toy_cnf, "--waive-cert",
            "--report", str(report),
        ])
        assert code == 0
        assert json.loads(report.read_text())["seed"] == 7


class TestMalformedNumbers:
    """Malformed numeric input is a usage error (exit 2) reported on stderr,
    never a traceback."""

    @pytest.mark.parametrize(
        "command, env_seed, bad",
        [
            (["gap-reduce", "--s", "abc"], None, "'abc'"),
            (["gap-reduce", "--s", "1/0"], None, "'1/0'"),
            (["gap-reduce", "--s", "3/2"], None, "s must lie in (0, 1)"),
            (["transform", "--waive-cert"], "xyz", "GAPFORGE_SEED"),
        ],
    )
    def test_exit_two_with_message(
        self, toy_cnf, monkeypatch, capsys, command, env_seed, bad
    ):
        if env_seed is None:
            monkeypatch.delenv("GAPFORGE_SEED", raising=False)
        else:
            monkeypatch.setenv("GAPFORGE_SEED", env_seed)
        assert run([*command, "--input", toy_cnf]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("gapforge") and bad in err[-1]
        assert not any("Traceback" in line for line in err)
