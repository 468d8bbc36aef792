"""Command-line pipeline: transform, certify, oracle, gap-reduce.

Every command is deterministic given its inputs and seed: reports embed the
seed and effective parameters, carry a schema version, and never include
wall-clock times, so reruns are byte-identical.

Exit codes: 0 success/pass, 1 verified failure (with witness in the report),
2 usage or parse error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import circuit as circuit_mod
from . import csp, gapeth, oracle, sampler
from .errors import GapforgeError, ParseError, ResourceCapError
from .transform import (
    DEFAULT_ADVERSARY_CAP,
    export_checks_csp,
    exhaustive_adversary,
    greedy_adversary,
    transform,
)
from .util import frac_str, parse_frac

SCHEMA = "gapforge-report/1"

EXIT_OK = 0
EXIT_VERIFIED_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _emit(doc: dict, path: str | None):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _load_instance(path: str) -> csp.CspInstance:
    return csp.parse_instance(Path(path).read_text())


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GAPFORGE_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise GapforgeError(f"GAPFORGE_SEED must be an integer, got {env!r}") from None


def fraction(text: str) -> Fraction:
    """argparse type for rationals such as 3/4, named for argparse's "invalid
    fraction value" message; unlike Fraction it rejects 1/0 with ValueError."""
    return parse_frac(text)


def _certificate_reports(c: circuit_mod.RobustCircuit, seed: int) -> list[dict]:
    """Per-layer sampler reports over the wiring viewed as set families.

    Randomized layers are multisets and are skipped (goodness verdicts cover
    them). The families are explicit lists with no spectral data, so no
    report carries the mixing line.
    """
    docs = []
    s = c.scheme
    params = sampler.SamplerParams(epsilon=s.slack, delta=s.soundness, gamma=s.theta)
    for layer in range(1, c.depth + 1):
        idx = c.layers[layer - 1]
        if (idx[:, 1:] == idx[:, :-1]).any():  # rows are sorted: a repeat
            docs.append({"layer": layer, "skipped": "multiset wiring"})
            continue
        fam = sampler.SamplerFamily(c.width_in(layer), idx, params)
        corpus = sampler.adversarial_corpus(fam, seed)
        rep = sampler.certify_sampler(fam, corpus)
        doc = rep.to_doc()
        doc["layer"] = layer
        docs.append(doc)
    return docs


def cmd_transform(args) -> int:
    seed = _seed(args)
    base = _load_instance(args.input)
    m = base.num_clauses
    found = None  # auto_fan_in's certificate of the circuit it returns
    if args.variant == "det":
        if args.fanin is not None:
            raise GapforgeError("--fanin applies only to --variant rand")
        circ = circuit_mod.build_deterministic(m, seed=seed)
    elif args.fanin is None:
        circ, found = circuit_mod.auto_fan_in(
            m, seed, exhaustive_cap=args.exhaustive_cap, trials=args.trials
        )
    else:
        circ = circuit_mod.build_randomized(m, args.fanin, seed)
    cert = None
    if args.cert:
        try:
            doc = json.loads(Path(args.cert).read_text())
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ParseError(f"{args.cert}: {exc}") from None
        cert = circuit_mod.GoodnessCertificate.from_doc(doc)
    elif args.certify:
        cert = found
        if cert is None:
            cert = circuit_mod.certify_goodness(
                circ, exhaustive_cap=args.exhaustive_cap, trials=args.trials, seed=seed
            )
        if not cert.passed:
            _emit(
                {
                    "schema": SCHEMA,
                    "command": "transform",
                    "seed": seed,
                    "error": "goodness certification failed",
                    "certificate": cert.to_doc(),
                },
                args.report,
            )
            return EXIT_VERIFIED_FAIL
    elif not args.waive_cert:
        raise GapforgeError(
            "no certificate: pass --cert FILE, --certify, or --waive-cert"
        )
    ts = transform(
        base, circ, certificate=cert, waive_certificate=cert is None
    )
    if args.out_circuit:
        Path(args.out_circuit).write_text(circ.rcirc_text)
    if args.export_checks:
        exported = export_checks_csp(ts)
        Path(args.export_checks).write_text(csp.serialize(exported))
    doc = {
        "schema": SCHEMA,
        "command": "transform",
        "seed": seed,
        "input": {
            "vars": base.num_vars,
            "clauses": base.num_clauses,
            "width": base.width,
        },
        "variant": args.variant,
        "fan_in": circ.fan_in,
        "depth": circ.depth,
        "widths": circ.widths(),
        "accounting": ts.accounting.to_doc(),
        "certificate": None if cert is None else cert.to_doc(),
        "certificate_waived": cert is None,
    }
    if args.adversary == "exhaustive":
        adv = exhaustive_adversary(ts, cap=args.adversary_cap)
        doc["soundness"] = {
            "mode": "exhaustive",
            "max_acceptance": frac_str(adv.value),
        }
    elif args.adversary == "greedy":
        val, _ = greedy_adversary(ts, seed=seed)
        doc["soundness"] = {
            "mode": "greedy-lower-bound",
            "greedy_acceptance": frac_str(val),
            "analytical_bound": frac_str(circ.scheme.new_soundness),
        }
    _emit(doc, args.report)
    return EXIT_OK


def cmd_certify(args) -> int:
    seed = _seed(args)
    circ = circuit_mod.parse_circuit(Path(args.circuit).read_text())
    cert = circuit_mod.certify_goodness(
        circ, exhaustive_cap=args.exhaustive_cap, trials=args.trials, seed=seed
    )
    doc = {
        "schema": SCHEMA,
        "command": "certify",
        "seed": seed,
        "certificate": cert.to_doc(),
        "sampler_reports": _certificate_reports(circ, seed),
    }
    if args.out_cert:
        _emit(cert.to_doc(), args.out_cert)
    _emit(doc, args.report)
    return EXIT_OK if cert.passed else EXIT_VERIFIED_FAIL


def cmd_oracle(args) -> int:
    base = _load_instance(args.input)
    rep = oracle.brute_force_opt(base, cap=args.cap)
    doc = {
        "schema": SCHEMA,
        "command": "oracle",
        "input": {"vars": base.num_vars, "clauses": base.num_clauses},
        "result": rep.to_doc(),
    }
    _emit(doc, args.report)
    return EXIT_OK


def cmd_gap_reduce(args) -> int:
    seed = _seed(args)
    base = _load_instance(args.input)
    p = gapeth.ReductionParams(
        s=args.s,
        epsilon=args.eps,
        k=args.k,
        t=args.t,
        seed=seed,
    )
    doc = {
        "schema": SCHEMA,
        "command": "gap-reduce",
        "seed": seed,
        "mode": args.mode,
        "params": {
            "s": frac_str(p.s),
            "epsilon": frac_str(p.epsilon),
            "k": p.k,
            "t": p.t,
            "k_condition_value": frac_str(p.k_condition_value),
            "k_condition_ok": p.k_condition_ok,
        },
    }
    fam = None
    if args.mode == "one-sided":
        fam = gapeth.reduction_family(p, p.t * base.num_clauses, seed)
    if not args.dry_run:
        doc["driver"] = gapeth.solve_driver(
            base,
            p,
            args.trials,
            subroutine=lambda inst: oracle.is_satisfiable(inst, cap=args.cap),
            reduction=args.mode,
            fam=fam,
        ).to_doc()
    elif args.mode == "two-sided":
        doc["dry_run"] = gapeth.reduce_two_sided(base, p)[1].to_doc()
    else:
        balance = gapeth.check_balanced(gapeth.sample_list(base, p), base.num_clauses, p)
        d, p_est, lll_value, lll_ok = gapeth._lll_numbers(p, fam)
        doc["dry_run"] = {
            "balance": balance.to_doc(),
            "intersection_degree": d,
            "per_clause_failure_estimate": p_est,
            "lll_value": lll_value,
            "lll_ok": lll_ok,
        }
    _emit(doc, args.report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gapforge", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (falls back to GAPFORGE_SEED, then 0)")
        p.add_argument("--report", type=str, default=None,
                       help="write the JSON report here instead of stdout")

    p = sub.add_parser("transform", help="wrap an instance into the perfectly complete system")
    p.add_argument("--input", required=True)
    p.add_argument("--variant", choices=("det", "rand"), default="det")
    p.add_argument("--fanin", type=int, default=None)
    p.add_argument("--cert", type=str, default=None, help="goodness certificate file")
    p.add_argument("--certify", action="store_true", help="certify in-process")
    p.add_argument("--waive-cert", action="store_true")
    p.add_argument("--exhaustive-cap", type=int, default=circuit_mod.EXHAUSTIVE_CAP)
    p.add_argument("--trials", type=int, default=circuit_mod.CERT_TRIALS)
    p.add_argument("--adversary", choices=("none", "exhaustive", "greedy"),
                   default="none", help="also bound the transformed soundness")
    p.add_argument("--adversary-cap", type=int, default=DEFAULT_ADVERSARY_CAP)
    p.add_argument("--out-circuit", type=str, default=None)
    p.add_argument("--export-checks", type=str, default=None)
    common(p)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("certify", help="goodness certificate + sampler reports for a circuit file")
    p.add_argument("--circuit", required=True)
    p.add_argument("--exhaustive-cap", type=int, default=circuit_mod.EXHAUSTIVE_CAP)
    p.add_argument("--trials", type=int, default=circuit_mod.CERT_TRIALS)
    p.add_argument("--out-cert", type=str, default=None)
    common(p)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("oracle", help="brute-force optimum of an instance")
    p.add_argument("--input", required=True)
    p.add_argument("--cap", type=int, default=oracle.DEFAULT_ASSIGNMENT_CAP)
    common(p)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("gap-reduce", help="run a gap reduction / solver driver")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("one-sided", "two-sided"), default="one-sided")
    p.add_argument("--s", type=fraction, default="3/4")
    p.add_argument("--eps", type=fraction, default="1/4")
    p.add_argument("--k", type=int, default=64)
    p.add_argument("--t", type=int, default=32)
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--cap", type=int, default=oracle.DEFAULT_ASSIGNMENT_CAP)
    p.add_argument("--dry-run", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_gap_reduce)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"gapforge: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapError as exc:
        print(f"gapforge: resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except GapforgeError as exc:
        print(f"gapforge: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"gapforge: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
