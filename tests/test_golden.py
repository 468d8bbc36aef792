"""Golden outputs: sha256 of the reports and circuit file of a fixed CLI
command set, of a deterministic circuit at m=1024 and its certificate, of
two sampler families, of one expander per construction branch and the
repr of their second eigenvalues, of one-sided sweep reports, of one
serialized 3SAT instance and of two serialized two-sided reductions. A
refactor that keeps behaviour keeps every hash; a declared correctness fix
that changes an output updates its hash here."""

import hashlib
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from gapforge import gapeth
from gapforge.circuit import build_deterministic, certify_goodness, serialize_circuit
from gapforge.cli import main
from gapforge.csp import serialize
from gapforge.gapeth import (
    ReductionParams,
    one_sided_sweep,
    reduce_two_sided,
)
from gapforge.sampler import (
    SamplerParams,
    build_expander,
    build_sampler_family,
    second_eigenvalue,
)
from gapforge.util import derive_seed

from conftest import random_3sat, unit_pair_instance

# name -> (exit code, sha256 of the written file)
GOLDEN = {
    "det.json": (
        0, "9b22dada9819f2caf02c97605ce077881c7aa5ef3d0ff2a911e8d69e60b52d04"
    ),
    "det.rcirc": (
        0, "32ad4b0030c8afd01cf2ef06b0db8712f7d83947a3e1b775afee11757e5664c1"
    ),
    "certify.json": (
        0, "6175fd0aa9f50f65bf404e02e5f3611f3fe322e0a30387fe7681a1e7253757f9"
    ),
    "rand.json": (
        0, "14b6b8a3d12974d693068a5c02520472a5f24e71e75258dd1c8a78a1f0814c85"
    ),
    "rand1024.json": (
        0, "36303e3f6a2714a62d62567dfeab48272cc710597cf9fb4bc886ff6da00db623"
    ),
    "adversary.json": (
        0, "fc7e8a38f0b3fb5a65ada5fa44c4446f9386378941d706d0239a3d98bb2d8848"
    ),
    "dry_run.json": (
        0, "4c048634cb55c148ea1ef0ed332f4bac12187477316c64767d2e15b63805e206"
    ),
    "greedy.json": (
        0, "a44f8cb199ce368435cb95e6473b1744895c2a72960e7cc253ff3d97bb5752fd"
    ),
    "two_sided_dry_run.json": (
        0, "99e7516cf01a784026c2492a6f32c001962a15131ab38873f42b0c664db62a4d"
    ),
    "two_sided_driver.json": (
        0, "7b98562be4ba46b667561b2757403ff6f827c8c584039cd20166490373148ba4"
    ),
    "one_sided_driver.json": (
        0, "f58fcaa388b65acbfee85599b8775edce0156029cedf2b1ff37c730827eca43b"
    ),
}


def golden_outputs(wd) -> dict[str, tuple[int, str]]:
    """Run the fixed command set in directory wd; (exit code, sha256) per
    output file."""
    inputs = {
        "m64.cnf": random_3sat(8, 64, 11),
        "m256.cnf": random_3sat(6, 256, 1),
        "m1024.cnf": random_3sat(32, 1024, 3),
        "pair.cnf": unit_pair_instance(2, 8, (0,)),
        "no48.cnf": unit_pair_instance(8, 48, (0,)),
    }
    for name, inst in inputs.items():
        (wd / name).write_text(serialize(inst))
    commands = {
        # the 64- and 32-wide layers are certified statistically, so the
        # greedy climb runs
        "det.json": [
            "transform", "--input", "m64.cnf", "--variant", "det", "--certify",
            "--out-circuit", "det.rcirc",
        ],
        # builds the adversarial corpus for every layer
        "certify.json": ["certify", "--circuit", "det.rcirc"],
        "rand.json": [
            "transform", "--input", "m256.cnf", "--variant", "rand",
            "--fanin", "8", "--certify",
        ],
        # auto_fan_in picks f=15 at seed 0 and ships the circuit it certified
        "rand1024.json": [
            "transform", "--input", "m1024.cnf", "--variant", "rand", "--certify",
        ],
        # 2 + 8 + 7 = 17 proof bits
        "adversary.json": [
            "transform", "--input", "pair.cnf", "--certify",
            "--adversary", "exhaustive",
        ],
        "dry_run.json": [
            "gap-reduce", "--input", "no48.cnf", "--k", "32", "--t", "4",
            "--dry-run",
        ],
        "greedy.json": [
            "transform", "--input", "pair.cnf", "--certify",
            "--adversary", "greedy",
        ],
        "two_sided_dry_run.json": [
            "gap-reduce", "--input", "no48.cnf", "--mode", "two-sided",
            "--k", "32", "--t", "4", "--dry-run",
        ],
        # every trial's output is unsatisfiable: eight full oracle sweeps
        "two_sided_driver.json": [
            "gap-reduce", "--input", "no48.cnf", "--mode", "two-sided",
            "--k", "16", "--trials", "8",
        ],
        # trial 0 draws a balanced list and its output is satisfiable
        "one_sided_driver.json": [
            "gap-reduce", "--input", "m64.cnf", "--k", "32", "--t", "16",
            "--trials", "4",
        ],
    }
    out = {}
    for name, argv in commands.items():
        argv = [str(wd / a) if a.endswith((".cnf", ".rcirc")) else a for a in argv]
        code = main(argv + ["--seed", "0", "--report", str(wd / name)])
        out[name] = (code, hashlib.sha256((wd / name).read_bytes()).hexdigest())
        if name == "det.json":
            digest = hashlib.sha256((wd / "det.rcirc").read_bytes()).hexdigest()
            out["det.rcirc"] = (code, digest)
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(outputs, name):
    assert outputs[name] == GOLDEN[name]


# sha256 of serialize_circuit and of the certificate JSON (as certify
# --out-cert writes it) for build_deterministic(1024, seed=0): seven sampler
# layers of degrees 896 down to 14, then three full fan-in layers
GOLDEN_DET_1024 = (
    "52527640c53a5a62964a044112b336f80ae0d90f5cce090dcb19517e6e89657c",
    "8c89fa248b9101bd721e93c2068c02c58a9d44d6cd648cb61ff03888dc2aab90",
)


def test_det_1024_matches_golden():
    c = build_deterministic(1024, seed=0)
    cert = json.dumps(certify_goodness(c).to_doc(), sort_keys=True, indent=2) + "\n"
    assert (
        hashlib.sha256(serialize_circuit(c).encode()).hexdigest(),
        hashlib.sha256(cert.encode()).hexdigest(),
    ) == GOLDEN_DET_1024


# family -> (degree, repr(measured_lambda), sha256 of the ground size and
# params line followed by the int64 bytes of the sets array)
GOLDEN_FAMILIES = {
    # eight degrees below 64 fail the 0.25 target
    "reduction": (
        64, "0.2436363031409573",
        "9299cc7214e90d1b228e9146e33f4a151e321532fda140f1e49ce64f2ffed29e",
    ),
    "halved-256": (
        4, "0.8579825376679474",
        "aac3186e93da89a17a37c31e2ee0c97a642feb107ba0bc2de7ab126d443ea4f6",
    ),
}


def family_pin(fam) -> tuple[int, str, str]:
    digest = hashlib.sha256(f"{fam.ground_size} {fam.params}\n".encode())
    digest.update(fam.sets.tobytes())
    return fam.degree, repr(fam.measured_lambda), digest.hexdigest()


def test_reduction_family_matches_golden(red_family):
    assert family_pin(red_family) == GOLDEN_FAMILIES["reduction"]


def test_halved_family_matches_golden():
    params = SamplerParams(Fraction(1, 4), Fraction(1, 4), Fraction(3, 4))
    fam = build_sampler_family(params, 256, seed=5)
    assert family_pin(fam) == GOLDEN_FAMILIES["halved-256"]


# name -> (N, D, seed, sha256 of build_expander(N, D, seed).adjacency bytes),
# at least one graph per construction branch of build_expander
GOLDEN_EXPANDERS = {
    # complement of a perfect matching (built degree 1)
    "matching-complement": (
        12, 10, 3, "dccd2e580836b017ecb85e44c1da8d9af3c9f26dfd199f5812e4b26e96ff1622",
    ),
    # complement of a Hamiltonian cycle (built degree 2)
    "cycle-complement": (
        11, 8, 5, "6531442ddee8ddc95ed1fb035381ae7d8c57e300d497b4fac053fc33d9def828",
    ),
    "pairing": (
        64, 8, 7, "036d04a54566576910c6bbf39d8a5754a73c0682da67c1527301c3b6024d185b",
    ),
    # the first attempt is rejected (disconnected or bipartite)
    "pairing-restart": (
        8, 3, 1, "3dceb7e32d9c299dda5e532c3848b8ceab7aad1fa298d4a4425c3060fbcec981",
    ),
    # the reduction family's accepted degree
    "pairing-reduction": (
        1536, 64, derive_seed(1, 64),
        "5b6c66a92c8eae522643d9d45a1778075232cf3b5325ae3bc57e51c81c02b1f3",
    ),
    "pairing-complement": (
        40, 34, 2, "d057cd72de09f0d911e670d91abd66e08ac5ec31be23d03ab02e0735cc6983d7",
    ),
    # a det-circuit layer's width and worst-case degree at m=1024
    "pairing-complement-det": (
        1024, 896, 11, "4d8c80456a6b95e3cf6149c76698e2631601a59435076c445502c0af7968d548",
    ),
    "circulant-swap": (
        40, 12, 4, "e3302a15f2f890e91ae4a8a0be97ac95d33800ee219b2d05b4c93af32998e6f6",
    ),
    "complete": (
        8, 7, 0, "ff84d69bdab174aa759ba8a80a6712948d675c1b07e6b89672d7293a9609a04e",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EXPANDERS))
def test_expander_matches_golden(name):
    N, D, seed, want = GOLDEN_EXPANDERS[name]
    adj = build_expander(N, D, seed).adjacency
    assert hashlib.sha256(adj.tobytes()).hexdigest() == want


# (N, D, seed, stop_above) -> repr(second_eigenvalue(build_expander(N, D,
# seed), tol=1e-8, stop_above=stop_above)); the last solve is a rejected
# degree of the reduction family's search, cut short by its early stop
GOLDEN_LAMBDAS = {
    (64, 8, 7, None): "0.6179112093722119",
    (40, 12, 4, None): "0.49112084799290917",
    (512, 16, 9, None): "0.47257795549462833",
    (1536, 32, derive_seed(1, 32), 0.25): "0.28175860315663426",
}


@pytest.mark.parametrize("key", list(GOLDEN_LAMBDAS))
def test_second_eigenvalue_matches_golden(key):
    N, D, seed, stop_above = key
    lam = second_eigenvalue(build_expander(N, D, seed), tol=1e-8, stop_above=stop_above)
    assert repr(lam) == GOLDEN_LAMBDAS[key]


def doc_digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# sweep -> sha256 of its report doc: 300 one-sided trials over the reduction
# family on each NO base and the first YES base (master seed derived from the
# base's position)
GOLDEN_SWEEPS = {
    "one-sided-no0": (
        "ea3f140f46f680a954aa14dc9a3343ead6196d388197644a0d150c821595f9f5"
    ),
    "one-sided-no1": (
        "329a8921ec87f90a010c643579fd1cfd6833055b7fcc66cdf080bb77286f6516"
    ),
    "one-sided-no2": (
        "c00c5e992236448b2e3b5c5fc0914404cb39be60d3043fe58d8c5e6cd566c5df"
    ),
    "one-sided-no3": (
        "c777bc4904e69569a0a34235eb6e8b42f5208892baf5252380fabdaa78326cd0"
    ),
    "one-sided-yes0": (
        "a56bb0406cbf066db44b3a190fb9276e9a7372fe4e22bf08ed3fd0f3affd229e"
    ),
}


def test_sweeps_match_golden(red_params, red_family, no_bases, yes_bases):
    bases = {f"no{i}": base for i, (base, _) in enumerate(no_bases)}
    bases["yes0"] = yes_bases[0][0]
    out = {}
    for i, (name, base) in enumerate(bases.items()):
        p = replace(red_params, seed=derive_seed(red_params.seed, i))
        doc = one_sided_sweep(base, p, red_family, trials=300).to_doc()
        out[f"one-sided-{name}"] = doc_digest(doc)
    assert out == GOLDEN_SWEEPS


# sha256 of serialize(random_3sat(32, 1024, 3)), the m=1024 DIMACS input
GOLDEN_SERIALIZED_3SAT = (
    "c25beb88c53d78540a82169ff9c901392780398712630f8691f0ff05d8d8e297"
)


def test_serialized_3sat_matches_golden():
    text = serialize(random_3sat(32, 1024, 3))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SERIALIZED_3SAT


# n -> sha256 of serialize(reduce_two_sided(random_3sat(n, 64, n), p)) at k=6:
# at n=12 each clause's table is read off the full-pattern count matrix, at
# n=17 it is built from its own scope
GOLDEN_TWO_SIDED = {
    12: "9136c5565dcea07bd917292ad2e528484a4fdad4d5042d4d952ede96c50974bf",
    17: "432d86f2e5dc622a41ce6e9106cb55147b542540c8baa0ca256daafe09283363",
}


def two_sided_digest(n: int) -> str:
    p = ReductionParams(s=Fraction(1, 2), epsilon=Fraction(1, 4), k=6, t=1, seed=n)
    inst, _ = reduce_two_sided(random_3sat(n, 64, n), p)
    return hashlib.sha256(serialize(inst).encode()).hexdigest()


@pytest.mark.parametrize("n", sorted(GOLDEN_TWO_SIDED))
def test_two_sided_reduction_matches_golden(n):
    assert two_sided_digest(n) == GOLDEN_TWO_SIDED[n]


@pytest.mark.parametrize("block_rows", [1, 5])
def test_two_sided_reduction_matches_golden_in_count_blocks(block_rows, monkeypatch):
    # the 12 output clauses at n=12 in count-matrix blocks of one row, or of
    # five with a partial last block
    monkeypatch.setattr(gapeth, "_COUNT_BLOCK_ENTRIES", block_rows << 12)
    assert two_sided_digest(12) == GOLDEN_TWO_SIDED[12]
