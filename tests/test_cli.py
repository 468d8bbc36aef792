"""Command-line behavior: exit codes, report determinism, error mapping."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

import gapforge.circuit as circuit_mod
from gapforge.circuit import serialize_circuit
from gapforge.cli import main
from gapforge.csp import CspInstance, disjunction, serialize

from conftest import random_3sat, shared_input_circuit, unit_pair_instance


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

    def test_fanin_refused_for_the_deterministic_variant(self, toy_cnf, tmp_path, capsys):
        report = tmp_path / "t.json"
        code = run([
            "transform", "--input", toy_cnf, "--variant", "det", "--fanin", "8",
            "--waive-cert", "--report", str(report),
        ])
        assert code == 2 and not report.exists()
        assert "--fanin applies only to --variant rand" in capsys.readouterr().err

    def test_trials_below_one_refused(self, tmp_path, capsys):
        cnf = tmp_path / "m64.cnf"
        cnf.write_text(serialize(random_3sat(6, 64, 1)))
        report = tmp_path / "t.json"
        code = run([
            "transform", "--input", str(cnf), "--variant", "rand", "--certify",
            "--trials", "-3", "--report", str(report),
        ])
        assert code == 2 and not report.exists()
        assert "trials must be at least 1, got -3" in capsys.readouterr().err


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

    @pytest.mark.parametrize("trials", [-5, 0])
    def test_trials_below_one_refused(self, tmp_path, capsys, trials):
        # layers 1 and 2 of the m=64 circuit are wider than the exhaustive cap
        path = tmp_path / "det64.rcirc"
        path.write_text(serialize_circuit(circuit_mod.build_deterministic(64, seed=0)))
        report = tmp_path / "cert.json"
        code = run([
            "certify", "--circuit", str(path), "--trials", str(trials),
            "--report", str(report),
        ])
        assert code == 2 and not report.exists()
        assert f"trials must be at least 1, got {trials}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "rcirc 4 0 deterministic 4/5\n",  # no layers, so no verdicts
            "rcirc 0 2 deterministic 4/5\n0\n0\n",
            "rcirc -5 1 deterministic 4/5\n0\n",
        ],
        ids=["depth-0", "m-0", "m-negative"],
    )
    def test_circuit_without_inputs_or_layers_refused(self, tmp_path, capsys, text):
        path = tmp_path / "empty.rcirc"
        path.write_text(text)
        report = tmp_path / "cert.json"
        assert run(["certify", "--circuit", str(path), "--report", str(report)]) == 2
        assert not report.exists()
        assert "line 1: malformed rcirc header" in capsys.readouterr().err


class TestCertificateFile:
    @pytest.fixture
    def issued(self, toy_cnf, tmp_path):
        """The transform --certify report at seed 3, and the certificate
        certify --out-cert wrote for the circuit that transform wrote."""
        report, circ, cert = (tmp_path / n for n in ("t.json", "c.rcirc", "cert.json"))
        assert run([
            "transform", "--input", toy_cnf, "--certify", "--seed", "3",
            "--out-circuit", str(circ), "--report", str(report),
        ]) == 0
        assert run([
            "certify", "--circuit", str(circ), "--seed", "3", "--out-cert", str(cert),
            "--report", str(tmp_path / "certify.json"),
        ]) == 0
        return report.read_bytes(), json.loads(cert.read_text())

    def _transform(self, toy_cnf, tmp_path, cert_text, seed="3"):
        path = tmp_path / "given.json"
        path.write_text(cert_text)
        report = tmp_path / "given-report.json"
        code = run([
            "transform", "--input", toy_cnf, "--cert", str(path), "--seed", seed,
            "--report", str(report),
        ])
        return code, report

    def test_round_trip_reproduces_the_certify_report(self, toy_cnf, tmp_path, issued):
        certified, doc = issued
        code, report = self._transform(toy_cnf, tmp_path, json.dumps(doc))
        assert code == 0 and report.read_bytes() == certified

    def test_other_circuit_refused(self, toy_cnf, tmp_path, issued, capsys):
        code, report = self._transform(toy_cnf, tmp_path, json.dumps(issued[1]), seed="4")
        assert code == 2 and not report.exists()
        assert "different circuit" in capsys.readouterr().err

    def test_failing_certificate_refused(self, toy_cnf, tmp_path, issued, capsys):
        doc = {**issued[1], "passed": False}
        code, report = self._transform(toy_cnf, tmp_path, json.dumps(doc))
        assert code == 2 and not report.exists()
        assert "verdict is fail" in capsys.readouterr().err

    def test_malformed_file_is_a_parse_error(self, toy_cnf, tmp_path, issued, capsys):
        doc = issued[1]
        no_digest = {k: v for k, v in doc.items() if k != "circuit_digest"}
        for text in (
            "not json",
            json.dumps(no_digest),
            json.dumps({**doc, "mean_in": "3/0"}),
            json.dumps([doc]),
        ):
            code, report = self._transform(toy_cnf, tmp_path, text)
            assert code == 2 and not report.exists()
            assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: {
                **doc,
                "mean_in": "1/100",
                "mean_out": "99/100",
                "layers": [{**v, "passed": False} for v in doc["layers"]],
            }, "certificate bounds are not the circuit scheme's"),
            (lambda doc: {**doc, "mean_out": "7/10"},
             "certificate bounds are not the circuit scheme's"),
            (lambda doc: {**doc, "layers": doc["layers"][1:]},
             "certificate layers contradict its passing verdict"),
            (lambda doc: {
                **doc, "layers": [{**doc["layers"][0], "passed": False}, *doc["layers"][1:]]
            }, "certificate layers contradict its passing verdict"),
        ],
        ids=["bounds-and-layers", "other-mean-out", "missing-layer", "failing-layer"],
    )
    def test_self_contradicting_certificate_refused(
        self, toy_cnf, tmp_path, issued, capsys, edit, message
    ):
        doc = edit(issued[1])
        assert doc["passed"] is True
        code, report = self._transform(toy_cnf, tmp_path, json.dumps(doc))
        assert code == 2 and not report.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: {**doc, "passed": "false"},
             "GoodnessCertificate.passed: expected bool, got str"),
            (lambda doc: {**doc, "schema": "something-else/9"},
             "GoodnessCertificate: schema 'something-else/9' is not"),
            (lambda doc: {**doc, "layers": doc["layers"][0]},
             "GoodnessCertificate.layers: expected a list, got dict"),
        ],
        ids=["passed-as-string", "foreign-schema", "layers-as-object"],
    )
    def test_mistyped_certificate_is_a_parse_error(
        self, toy_cnf, tmp_path, issued, capsys, edit, message
    ):
        code, report = self._transform(toy_cnf, tmp_path, json.dumps(edit(issued[1])))
        assert code == 2 and not report.exists()
        assert message in capsys.readouterr().err


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

    def test_width_below_arity_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "narrow.gcsp"
        path.write_text("gcsp 2 1 1\n2 0 1 8\n")
        assert run(["oracle", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            "gapforge: parse error: line 1: declared width 1 below max clause arity 2\n"
        )

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
        # it refuses the base instead of answering YES on every trial; a base
        # with variables but no clauses has nothing to sample
        bases = {"zero48.gcsp": "gcsp 0 48 0\n" + "0 0\n" * 48, "empty3.cnf": "p cnf 3 0\n"}
        for name, text in bases.items():
            path = tmp_path / name
            path.write_text(text)
            report = tmp_path / "g.json"
            code = run([
                "gap-reduce", "--input", str(path), "--mode", "two-sided", "--seed", "0",
                "--report", str(report),
            ] + ["--dry-run"] * dry_run)
            assert code == 2 and not report.exists()
            assert "needs variables and clauses" in capsys.readouterr().err


    @pytest.mark.parametrize("dry_run", [False, True])
    def test_one_sided_names_a_short_list(self, tmp_path, dry_run, capsys):
        # the list has t * m positions and the family needs at least 4
        bases = {
            ("p cnf 3 0\n", "32"): "0 positions (t * m): the base has no clauses",
            ("p cnf 3 1\n1 2 0\n", "2"): "2 positions (t * m): its family needs at least 4",
        }
        for (text, t), message in bases.items():
            path = tmp_path / "short.cnf"
            path.write_text(text)
            report = tmp_path / "g.json"
            code = run([
                "gap-reduce", "--input", str(path), "--t", t, "--seed", "0",
                "--report", str(report),
            ] + ["--dry-run"] * dry_run)
            assert code == 2 and not report.exists()
            assert message in capsys.readouterr().err

    def test_resource_cap_inside_the_driver_exits_three(self, tmp_path, capsys):
        # the two-sided output keeps the base's 25 variables, one above the
        # oracle's cap, though every clause reads only variables 1-4
        cnf = tmp_path / "wide.cnf"
        cnf.write_text("p cnf 25 8\n" + "1 2 0\n-1 3 0\n2 -4 0\n1 4 0\n" * 2)
        code = run([
            "gap-reduce", "--input", str(cnf), "--mode", "two-sided", "--trials", "2",
            "--seed", "0", "--report", str(tmp_path / "g.json"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "resource cap: subroutine failed on trial 0" in err
        assert "exceeds enumeration cap 24" in err

    @pytest.mark.parametrize("mode", ["one-sided", "two-sided"])
    def test_negative_trial_count_refused(self, no48_cnf, tmp_path, capsys, mode):
        report = tmp_path / "g.json"
        code = run([
            "gap-reduce", "--input", no48_cnf, "--mode", mode, "--trials", "-3",
            "--seed", "0", "--report", str(report),
        ])
        assert code == 2 and not report.exists()
        assert "trial count must not be negative, got -3" in capsys.readouterr().err


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


class TestVerifiedFailure:
    def test_bad_circuit_exits_one_with_witness(self, tmp_path):
        bad = shared_input_circuit()
        path = tmp_path / "bad.rcirc"
        path.write_text(serialize_circuit(bad))
        assert path.read_text().startswith("rcirc 10 4 deterministic 4/5\n")
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
        text = serialize_circuit(shared_input_circuit())
        for header in (
            "rcirc 10 4 deterministic 1/2",  # a v1 header means theta 4/5
            "rcirc/2 10 4 deterministic 1/2 9/10 3/10",  # the scheme's theta is 7/10
        ):
            path = tmp_path / "bare.rcirc"
            path.write_text(text.replace("rcirc 10 4 deterministic 4/5", header, 1))
            report = tmp_path / "cert.json"
            code = run([
                "certify", "--circuit", str(path), "--seed", "0",
                "--report", str(report),
            ])
            assert code == 2
            assert not report.exists()
            err = capsys.readouterr().err.splitlines()
            assert err == ["gapforge: parse error: line 1: malformed rcirc header"]


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
