"""Shared corpus generators and expensive session fixtures."""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

import numpy as np
import pytest

from gapforge import sampler
from gapforge.circuit import (
    DEFAULT_SCHEME,
    RobustCircuit,
    build_deterministic,
    certify_goodness,
)
from gapforge.csp import Clause, CspInstance, disjunction
from gapforge.gapeth import ReductionParams, reduction_family
from gapforge.oracle import brute_force_opt
from gapforge.util import derive_seed, rng_from

NINE_TENTHS = Fraction(9, 10)
SIX_TENTHS = Fraction(6, 10)


def random_3sat(n: int, m: int, seed: int) -> CspInstance:
    rng = rng_from(seed)
    clauses = []
    for _ in range(m):
        vs = rng.choice(n, 3, replace=False)
        signs = rng.integers(0, 2, 3)
        clauses.append(
            disjunction([(int(v), bool(s)) for v, s in zip(vs, signs)])
        )
    return CspInstance(n, tuple(clauses))


def unit_pair_instance(n: int, m: int, pair_vars: tuple = (0,)) -> CspInstance:
    """Optimum exactly 1/2: complementary unit pairs cycled over pair_vars."""
    assert m % 2 == 0
    clauses = []
    for i in range(m // 2):
        v = pair_vars[i % len(pair_vars)]
        clauses.append(disjunction([(v, True)]))
        clauses.append(disjunction([(v, False)]))
    return CspInstance(n, tuple(clauses))


def list_instance(base: CspInstance, entries: np.ndarray) -> CspInstance:
    """The CSP whose clause list is the sampled list (repeats kept)."""
    return CspInstance(
        base.num_vars,
        tuple(base.clauses[j] for j in entries),
        base.width,
    )


def pairing_graph_reference(
    N: int, D: int, rng: np.random.Generator
) -> np.ndarray | None:
    """sampler._pairing_graph as it was before its copy-count table: every
    sweep recounts all edge keys with np.unique. Kept to cross-check the
    table's incremental updates; reads sampler._REPAIR_SWEEPS at call time."""
    stubs = np.repeat(np.arange(N, dtype=np.int64), D)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    for _ in range(sampler._REPAIR_SWEEPS):
        u, v = pairs[:, 0], pairs[:, 1]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        _, edge, copies = np.unique(lo * N + hi, return_inverse=True, return_counts=True)
        bad = np.flatnonzero((u == v) | (copies[edge] > 1))
        if bad.size == 0:
            return pairs
        partners = rng.integers(0, pairs.shape[0], size=bad.size)
        for i, j in zip(bad, partners):
            pairs[i, 1], pairs[j, 1] = pairs[j, 1], pairs[i, 1]
    return None


def layer_means(layer_strings: Sequence[Sequence[int]]) -> list[Fraction]:
    return [Fraction(int(sum(s)), len(s)) for s in layer_strings]


def shared_input_circuit() -> RobustCircuit:
    """m = 10 at the default scheme, every layer-1 gate reading positions 0-4
    (fire count 4): the 7/10 string with ones at 0-6 fires all 5 gates, over
    out_cap 3, so layer 1 fails its damping check. The layers above read
    their whole previous layer."""
    widths = [5, 3, 2, 1]
    layers = [(tuple(range(5)),) * widths[0]]
    for prev_w, w in zip(widths, widths[1:]):
        layers.append((tuple(range(prev_w)),) * w)
    return RobustCircuit(
        m=10, variant="deterministic", layers=tuple(layers), scheme=DEFAULT_SCHEME
    )


def high_optimum_instance(n: int, m: int, seed: int) -> tuple:
    """Instance with brute-force optimum >= 9/10, found by a deterministic
    seed walk; mixes fully satisfiable draws with close-to-0.9 ones by
    planting complementary pairs into random 3SAT."""
    for offset in range(64):
        s = derive_seed(seed, offset)
        rng = rng_from(s)
        planted_pairs = int(rng.integers(0, max(1, m // 12)))
        body = random_3sat(n, m - 2 * planted_pairs, derive_seed(s, 1))
        clauses = list(body.clauses)
        for i in range(planted_pairs):
            v = int(rng.integers(0, n))
            clauses.append(disjunction([(v, True)]))
            clauses.append(disjunction([(v, False)]))
        inst = CspInstance(n, tuple(clauses))
        rep = brute_force_opt(inst)
        if rep.optimum >= NINE_TENTHS:
            return inst, rep
    raise AssertionError("no high-optimum instance found in the seed walk")


def low_optimum_instance(n: int, m: int, seed: int) -> tuple:
    """Instance with brute-force optimum <= 6/10: unit pairs over a few
    variables, occasionally salted with one random clause."""
    for offset in range(64):
        s = derive_seed(seed, offset)
        rng = rng_from(s)
        k_vars = int(rng.integers(1, min(3, n) + 1))
        pair_vars = tuple(int(v) for v in rng.choice(n, k_vars, replace=False))
        inst = unit_pair_instance(n, m, pair_vars)
        rep = brute_force_opt(inst)
        if rep.optimum <= SIX_TENTHS:
            return inst, rep
    raise AssertionError("no low-optimum instance found in the seed walk")


@pytest.fixture(scope="session")
def det_circuits():
    """Certified deterministic circuits keyed by m."""
    out = {}
    for m in (4, 8, 16, 32, 64):
        c = build_deterministic(m, seed=derive_seed(0xC1BC, m))
        cert = certify_goodness(c, seed=derive_seed(0xCE57, m))
        assert cert.passed, f"m={m} circuit failed certification"
        out[m] = (c, cert)
    return out


@pytest.fixture(scope="session")
def completeness_corpus():
    """>= 50 instances with optimum >= 9/10, 17 per m in {16, 32, 64}."""
    corpus = []
    for m in (16, 32, 64):
        n = {16: 6, 32: 10, 64: 12}[m]
        for i in range(17):
            inst, rep = high_optimum_instance(n, m, derive_seed(0xC0, m, i))
            corpus.append((inst, rep))
    return corpus


@pytest.fixture(scope="session")
def soundness_corpus():
    """>= 20 tiny instances with optimum <= 6/10 and proof length <= 24."""
    corpus = []
    for i in range(12):
        inst, rep = low_optimum_instance(3, 8, derive_seed(0x50, 8, i))
        corpus.append((inst, rep))
    for i in range(8):
        inst, rep = low_optimum_instance(2, 4, derive_seed(0x50, 4, i))
        corpus.append((inst, rep))
    return corpus


REDUCTION_SEED = 20260809


@pytest.fixture(scope="session")
def red_params():
    return ReductionParams(
        s=Fraction(3, 4), epsilon=Fraction(1, 4), k=64, t=32, seed=REDUCTION_SEED
    )


@pytest.fixture(scope="session")
def red_family(red_params):
    """Full expander-sampler family over the 1536 list positions (n=8, m=48)."""
    return reduction_family(red_params, red_params.t * 48, seed=77)


@pytest.fixture(scope="session")
def no_bases():
    """Oracle-verified NO bases for the one-sided reduction (n=8, m=48)."""
    bases = [unit_pair_instance(8, 48, (0,)), unit_pair_instance(8, 48, (0, 3, 5))]
    rng = rng_from(0xB0)
    for salt in range(2):
        # pairs plus an all-sign block: optimum strictly between 1/2 and 3/4
        clauses = list(unit_pair_instance(8, 40, (1, 6)).clauses)
        base_vars = [int(v) for v in rng.choice(8, 3, replace=False)]
        for pattern in range(8):
            lits = [
                (base_vars[i], bool((pattern >> i) & 1)) for i in range(3)
            ]
            clauses.append(disjunction(lits))
        bases.append(CspInstance(8, tuple(clauses)))
    out = []
    for inst in bases:
        rep = brute_force_opt(inst)
        assert rep.optimum <= Fraction(3, 4)
        out.append((inst, rep))
    return out


@pytest.fixture(scope="session")
def yes_bases():
    """Oracle-verified YES bases: optimum >= s(1+eps) = 15/16 (n=8, m=48)."""
    out = []
    i = 0
    while len(out) < 3:
        inst = random_3sat(8, 48, derive_seed(0xE5, i))
        rep = brute_force_opt(inst)
        if rep.optimum >= Fraction(15, 16):
            out.append((inst, rep))
        i += 1
    return out
