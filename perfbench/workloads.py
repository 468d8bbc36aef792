"""The benchmark's workloads: inputs made from the workload seed, set-up,
one operation, and the checks on each operation's output.

The program is reached only through gapforge's public functions and
``gapforge.cli.main``; every input it sees is generated here from the seed.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from gapforge import cli, csp, gapeth, oracle, sampler
from gapforge.util import derive_seed, rng_from

# one-sided reduction scale of criterion 08 and `gap-reduce --mode one-sided`
S, EPS, K, T = Fraction(3, 4), Fraction(1, 4), 64, 32
BASE_VARS, BASE_CLAUSES = 8, 48
LIST_LENGTH = T * BASE_CLAUSES  # 1536 positions covered by the family
DRIVER_CAP = 16
# the trial count of criterion 08's YES probe (tests/test_acceptance.py); its
# NO sweeps run 25 000 trials per base
SWEEP_TRIALS = 2000
ADVERSARY_LIMIT = Fraction(9, 10)
N_BASES = 5  # four NO bases and one YES base


@dataclass
class OpResult:
    outputs: dict[str, bytes]  # output name -> bytes whose sha256 is checked
    problems: list[str] = field(default_factory=list)  # failed invariants
    descriptors: dict[str, object] = field(default_factory=dict)
    command_s: dict[str, float] = field(default_factory=dict)
    trials: int = 0
    balanced: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], dict]  # made from the seed, not timed
    setup: Callable[[dict, int, Path], dict]  # the program's set-up, timed
    op: Callable[[dict, int, int], OpResult]
    setup_reps: int
    cycle: int  # a run's op count is a multiple of this
    record_ops: int  # ops whose digests are shipped per seed
    # run once after the timed ops, untraced: (descriptors, failed checks)
    check: Callable[[dict], tuple[dict, list[str]]] | None = None


def doc_bytes(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# instance generators (the same constructions as tests/conftest.py)
# ---------------------------------------------------------------------------


def random_3sat(n: int, m: int, seed: int) -> csp.CspInstance:
    rng = rng_from(seed)
    clauses = []
    for _ in range(m):
        vs = rng.choice(n, 3, replace=False)
        signs = rng.integers(0, 2, 3)
        clauses.append(csp.disjunction([(int(v), bool(s)) for v, s in zip(vs, signs)]))
    return csp.CspInstance(n, tuple(clauses))


def unit_pair_instance(n: int, m: int, pair_vars: tuple) -> csp.CspInstance:
    """Optimum exactly 1/2: complementary unit pairs cycled over pair_vars."""
    clauses = []
    for i in range(m // 2):
        v = pair_vars[i % len(pair_vars)]
        clauses.append(csp.disjunction([(v, True)]))
        clauses.append(csp.disjunction([(v, False)]))
    return csp.CspInstance(n, tuple(clauses))


def reduction_bases() -> list[tuple[csp.CspInstance, bool]]:
    """The four oracle-verified NO bases (optimum <= s) of tests/conftest.py
    and its first YES base (optimum >= s(1+eps) = 15/16), as (instance,
    is_no). They do not depend on the workload seed, so every run spends its
    ops on the same bases. The YES base sits second so that short runs
    reach it."""
    n, m = BASE_VARS, BASE_CLAUSES
    bases = [unit_pair_instance(n, m, (0,)), unit_pair_instance(n, m, (0, 3, 5))]
    rng = rng_from(0xB0)
    for _ in range(2):
        # pairs plus an all-sign block: optimum strictly between 1/2 and 3/4
        clauses = list(unit_pair_instance(n, m - 8, (1, 6)).clauses)
        block_vars = [int(v) for v in rng.choice(n, 3, replace=False)]
        for pattern in range(8):
            clauses.append(
                csp.disjunction([(block_vars[i], bool((pattern >> i) & 1)) for i in range(3)])
            )
        bases.append(csp.CspInstance(n, tuple(clauses)))
    out = []
    for inst in bases:
        if oracle.brute_force_opt(inst).optimum > S:
            raise RuntimeError("generated NO base has optimum above s")
        out.append((inst, True))
    for i in range(256):
        inst = random_3sat(n, m, derive_seed(0xE5, i))
        if oracle.brute_force_opt(inst).optimum >= S * (1 + EPS):
            out.insert(1, (inst, False))
            return out
    raise RuntimeError("no YES base found in the seed walk")


def reduction_params(seed: int) -> gapeth.ReductionParams:
    return gapeth.ReductionParams(s=S, epsilon=EPS, k=K, t=T, seed=seed)


def reduction_inputs(seed: int) -> dict:
    return {"bases": reduction_bases()}


def setup_reduction(inputs: dict, seed: int, workdir: Path) -> dict:
    """The expander-sampler family over the 1536 list positions, which every
    `gap-reduce --mode one-sided` call builds."""
    fam = gapeth.reduction_family(reduction_params(seed), LIST_LENGTH, seed)
    return {
        "bases": inputs["bases"],
        "fam": fam,
        "descriptors": {
            "family.degree": fam.degree,
            "family.lambda": round(fam.measured_lambda, 9),
        },
    }


def _op_input(state: dict, seed: int, i: int):
    base, is_no = state["bases"][i % len(state["bases"])]
    return base, is_no, reduction_params(derive_seed(seed, i))


def driver_op(state: dict, seed: int, i: int) -> OpResult:
    """One solver-driver trial with the brute-force satisfiability oracle."""
    base, is_no, p_i = _op_input(state, seed, i)
    rep = gapeth.solve_driver(
        base,
        p_i,
        trials=1,
        subroutine=lambda inst: oracle.is_satisfiable(inst, cap=DRIVER_CAP),
        fam=state["fam"],
    )
    doc = rep.to_doc()
    res = OpResult(outputs={"report": doc_bytes(doc)}, trials=1)
    res.balanced = int(doc["outcomes"] != "u")
    res.descriptors["outcomes"] = doc["outcomes"]
    if is_no and rep.answer:
        res.problems.append("a NO base came back YES")
    return res


def reference_intersection_degree(fam) -> int:
    """The most other sets any set of the family meets, counted from
    ``fam.sets`` without the program's incidence matrix or matmul: set j
    meets set i when some element of i lies in j."""
    member = np.zeros((len(fam.sets), fam.ground_size), dtype=bool)
    for j, s in enumerate(fam.sets):
        member[j, list(s)] = True
    return max(int(member[:, list(s)].any(axis=1).sum()) - 1 for s in fam.sets)


def check_driver(state: dict) -> tuple[dict, list[str]]:
    """The intersection degree every driver trial computes and whose value
    only reaches the report the driver drops, checked against an
    independent count."""
    got = sampler.intersection_degree(state["fam"])
    want = reference_intersection_degree(state["fam"])
    problems = [] if got == want else [f"intersection_degree {got}, independent count {want}"]
    return {"family.intersection_degree": got}, problems


def sweep_op(state: dict, seed: int, i: int) -> OpResult:
    """One vectorized sweep of SWEEP_TRIALS one-sided trials."""
    base, is_no, p_i = _op_input(state, seed, i)
    rep = gapeth.one_sided_sweep(base, p_i, state["fam"], SWEEP_TRIALS)
    doc = rep.to_doc()
    res = OpResult(outputs={"report": doc_bytes(doc)}, trials=rep.trials)
    res.balanced = rep.balanced_trials
    if is_no and rep.optima_above_half != 0:
        res.problems.append(f"sweep on a NO base has optima_above_half={rep.optima_above_half}")
    return res


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

COMMANDS = ("transform_det", "certify", "transform_rand", "adversary", "oracle")
# The commands' own seed is the CLI default, the same on every workload seed,
# because circuit construction cost varies with it by about 20% between seeds.
# The transform, certify and adversary reports depend only on the shape of
# their instance, so the workload seed reaches only the oracle command's input.
CLI_SEED = 0


def cli_inputs(seed: int) -> dict:
    """A random 3SAT instance with m=1024, an oracle-verified NO instance
    with 24 proof bits (n=9, m=8), and an instance with n=20, m=96 for the
    oracle."""
    wide = random_3sat(32, 1024, derive_seed(seed, 0xA))
    rng = rng_from(derive_seed(seed, 0xD))
    pair_vars = tuple(int(v) for v in rng.choice(9, int(rng.integers(1, 4)), replace=False))
    no = unit_pair_instance(9, 8, pair_vars)
    if oracle.brute_force_opt(no).optimum > Fraction(6, 10):
        raise RuntimeError("generated NO instance has optimum above 6/10")
    small = random_3sat(20, 96, derive_seed(seed, 0xE))
    return {"wide": wide, "no": no, "small": small}


def setup_cli(inputs: dict, seed: int, workdir: Path) -> dict:
    """The command set's input files, written with csp.serialize and read
    back with csp.parse_instance."""
    paths, parsed = {}, {}
    for name, inst in inputs.items():
        paths[name] = workdir / f"{name}.cnf"
        paths[name].write_text(csp.serialize(inst))
        parsed[name] = csp.parse_instance(paths[name].read_bytes())
    return {"paths": paths, "workdir": workdir, "descriptors": {}, "inputs": inputs,
            "parsed": parsed}


def check_cli(state: dict) -> tuple[dict, list[str]]:
    """Each input file parses back to the instance written."""
    return {}, [
        f"{name}.cnf does not parse back to the instance written"
        for name, inst in state["inputs"].items()
        if state["parsed"][name] != inst
    ]


def _argv(name: str, state: dict) -> list[str]:
    inp, wd = state["paths"], state["workdir"]
    report = ["--report", str(wd / f"{name}.json")]
    seeded = report + ["--seed", str(CLI_SEED)]
    return {
        "transform_det": [
            "transform", "--input", str(inp["wide"]), "--variant", "det", "--certify",
            "--out-circuit", str(wd / "det.rcirc"),
        ] + seeded,
        "certify": ["certify", "--circuit", str(wd / "det.rcirc")] + seeded,
        "transform_rand": [
            "transform", "--input", str(inp["wide"]), "--variant", "rand", "--certify",
        ] + seeded,
        "adversary": [
            "transform", "--input", str(inp["no"]), "--certify", "--adversary", "exhaustive",
        ] + seeded,
        "oracle": ["oracle", "--input", str(inp["small"])] + report,
    }[name]


def _layer_modes(cert: dict) -> str:
    return " ".join(f"{v['mode']}:{v['strings_checked']}" for v in cert["layers"])


def cli_op(state: dict, seed: int, i: int) -> OpResult:
    """The fixed command set through gapforge.cli.main, in process; every
    command must exit 0 with a passing certificate."""
    wd = state["workdir"]
    (wd / "det.rcirc").unlink(missing_ok=True)
    res = OpResult(outputs={})
    docs = {}
    for name in COMMANDS:
        report = wd / f"{name}.json"
        report.unlink(missing_ok=True)
        t0 = time.perf_counter()
        rc = cli.main(_argv(name, state))
        res.command_s[name] = time.perf_counter() - t0
        if rc != 0:
            res.problems.append(f"{name} exited {rc}")
            continue
        raw = report.read_bytes()
        res.outputs[f"{name}.report"] = raw
        docs[name] = json.loads(raw)
    if (wd / "det.rcirc").exists():
        res.outputs["transform_det.rcirc"] = (wd / "det.rcirc").read_bytes()
    for name in ("transform_det", "certify", "transform_rand", "adversary"):
        if name in docs and not docs[name]["certificate"]["passed"]:
            res.problems.append(f"{name} certificate did not pass")
    if "adversary" in docs:
        value = Fraction(docs["adversary"]["soundness"]["max_acceptance"])
        if value > ADVERSARY_LIMIT:
            res.problems.append(f"adversary max_acceptance {value} > {ADVERSARY_LIMIT}")
        res.descriptors["proofs_enumerated"] = 1 << docs["adversary"]["accounting"]["proof_length"]
    if "transform_rand" in docs:
        res.descriptors["auto_fan_in"] = docs["transform_rand"]["fan_in"]
        res.descriptors["rand.layers"] = _layer_modes(docs["transform_rand"]["certificate"])
    if "transform_det" in docs:
        res.descriptors["det.layers"] = _layer_modes(docs["transform_det"]["certificate"])
    return res


WORKLOADS = {
    w.name: w
    for w in (
        # A driver trial takes 3-4.5 s and varies by about 15% from trial to
        # trial on a shared 2-core host; ten trials, two per base, keep the
        # median steady.
        Workload("one_sided_driver", reduction_inputs, setup_reduction, driver_op,
                 setup_reps=1, cycle=2 * N_BASES, record_ops=6, check=check_driver),
        Workload("one_sided_sweep", reduction_inputs, setup_reduction, sweep_op,
                 setup_reps=1, cycle=N_BASES, record_ops=N_BASES),
        # a set-up takes about 12 ms; 400 of them span about 5 s, which keeps
        # the median steady on a host whose speed changes every few seconds
        Workload("cli_commands", cli_inputs, setup_cli, cli_op, setup_reps=400, cycle=1,
                 record_ops=1, check=check_cli),
    )
}
