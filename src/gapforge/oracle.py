"""Independent ground truth: exhaustive optima, layer sweeps, tail bounds,
and seeded statistical estimation.

Everything here is exact (rational counts over full enumerations) or a pure
formula; nothing in this module depends on the constructions it is used to
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .csp import CspInstance, clause_values
from .errors import ResourceCapError
from .util import derive_seed, floor_frac, frac_str, threshold_count, wilson_interval

DEFAULT_ASSIGNMENT_CAP = 24
LAYER_WIDTH_CAP = 22
# assignments per sweep block: each per-gate temporary of the layer sweep (at
# most 8 bytes per assignment, 256 KB) stays in cache, and is_satisfiable
# stops after the first block that holds a satisfying assignment
_CHUNK = 1 << 15
# bound on the split product's kept arrays: B (term rows x 2^h, 16 MB of
# float32) and the clause x 2^(n - h) hi-side indices; larger instances are
# swept clause by clause
_TERM_ENTRIES = 1 << 22


@dataclass(frozen=True)
class OracleReport:
    """Exact optimum of an instance with a witness assignment."""

    optimum: Fraction
    argmax: tuple
    enumeration_size: int
    degenerate: bool

    def to_doc(self) -> dict:
        return {
            "optimum": frac_str(self.optimum),
            "argmax": "".join(map(str, self.argmax)),
            "enumeration_size": self.enumeration_size,
            "degenerate": self.degenerate,
        }


def clause_sat_matrix(inst: CspInstance, assignments: np.ndarray) -> np.ndarray:
    """Rows: clauses, columns: assignment integers (bit v = variable v).

    Built clause by clause, independently of the split-product kernel behind
    brute_force_opt and is_satisfiable: the tests check the kernel's counts
    against its column sums. The exhaustive adversary also reads it."""
    out = np.empty((inst.num_clauses, assignments.size), dtype=np.uint8)
    for row, clause in enumerate(inst.clauses):
        out[row] = clause_values(clause, assignments)
    return out


def satisfied_counts_vector(inst: CspInstance, assignments: np.ndarray) -> np.ndarray:
    """Number of satisfied clauses for each assignment integer, accumulated
    clause by clause without the clause x assignment matrix.

    The clause-by-clause reference the split-product kernel behind
    brute_force_opt and is_satisfiable is checked against, and the sweep of
    instances too large for that kernel's kept arrays (see _count_blocks)."""
    counts = np.zeros(assignments.size, dtype=np.int64)
    for clause in inst.clauses:
        counts += clause_values(clause, assignments)
    return counts


def _table_index(scopes: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(clauses x words) table index of each clause (row of scopes, scope[0]
    the most significant bit) on each assignment integer, one scope position
    at a time."""
    idx = np.zeros((scopes.shape[0], words.size), dtype=np.int64)
    for i in range(scopes.shape[1]):
        idx = (idx << 1) | ((words >> scopes[:, i : i + 1]) & 1)
    return idx


def _arity_classes(clauses: Sequence) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per clause arity k, in increasing order: the scopes (c x k) and the
    tables (c x bytes), each packed little-endian so that T_j[a] is bit a of
    row j."""
    by_arity: dict[int, list] = {}
    for clause in clauses:
        by_arity.setdefault(clause.arity, []).append(clause)
    out = []
    for k, group in sorted(by_arity.items()):
        c, nbytes = len(group), ((1 << k) + 7) // 8
        raw = b"".join(cl.table.to_bytes(nbytes, "little") for cl in group)
        scopes = np.array([cl.scope for cl in group], dtype=np.int64).reshape(c, k)
        out.append((scopes, np.frombuffer(raw, np.uint8).reshape(c, nbytes)))
    return out


def _split_terms(
    scopes: np.ndarray, tables: np.ndarray, hi_words: np.ndarray, lo_words: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The split-product factors of one arity class (see _arity_classes) for
    assignments hi + lo over the given hi words (multiples of 2^h) and lo
    words (below 2^h).

    A clause's table index on hi + lo is a + b, with a its index on hi and b
    its index on lo. Row (j, a) of B is T_j[a + b(lo)] over lo, for the pairs
    (j, a) that occur; cols[r, j] is the B row of clause j at hi word r, so
    the counts at hi word r are sum_j B[cols[r, j]]."""
    c, stride = tables.shape[0], 8 * tables.shape[1]
    # the bit offset j * stride + a of T_j[a] names the pair (j, a)
    keys = (np.arange(c, dtype=np.int64) * stride)[:, None] + _table_index(scopes, hi_words)
    pairs, cols = np.unique(keys.T, return_inverse=True)
    lo_index = _table_index(scopes, lo_words)
    packed = tables.ravel()
    B = np.empty((pairs.size, lo_words.size), dtype=np.float32)
    # _CHUNK entries at a time, so that the int64 bit offsets stay small
    step = max(1, _CHUNK // lo_words.size)
    for r in range(0, pairs.size, step):
        bit = lo_index[pairs[r : r + step] // stride] + pairs[r : r + step, None]
        B[r : r + step] = (packed[bit >> 3] >> (bit & 7).astype(np.uint8)) & 1
    return cols.reshape(hi_words.size, c), B


def _count_blocks(inst: CspInstance, cap: int) -> Iterator[tuple[int, np.ndarray]]:
    """Raise now if 2^n exceeds the cap; otherwise the sweep over all 2^n
    assignments as (first assignment, int64 satisfied counts) per block of at
    most _CHUNK, in x order, computed only as it is iterated.

    Assignment x splits as hi * 2^h + lo, the lo side holding variables 0 to
    h - 1. The counts of a block of hi rows are one product A @ B per arity
    (see _split_terms), for the one-hot A[hi, (j, a)] = [clause j reads
    a on hi] built per block, and row-major order of A @ B is x order. B and
    the hi-side indices are built once and kept, so the product is taken
    only while B and the clause x 2^(n - h) indices each have at most
    _TERM_ENTRIES entries; larger instances are counted block by block with
    satisfied_counts_vector, in O(_CHUNK) memory. The product thus runs only
    while num_clauses << (n - h) <= _TERM_ENTRIES = 2^22, so its float32
    sums of at most num_clauses 0/1 terms are exact (below 2^24)."""
    if inst.num_vars > cap:
        raise ResourceCapError(
            f"{inst.num_vars} variables exceeds enumeration cap {cap}"
        )

    def blocks():
        n = inst.num_vars
        h = min((n + 1) // 2, _CHUNK.bit_length() - 1)
        classes = _arity_classes(inst.clauses)
        num_pairs = sum(int((1 << (sc >= h).sum(axis=1)).sum()) for sc, _ in classes)
        if max(num_pairs << h, max(inst.num_clauses, 1) << (n - h)) > _TERM_ENTRIES:
            total = 1 << n
            for x0 in range(0, total, _CHUNK):
                block = np.arange(x0, min(x0 + _CHUNK, total), dtype=np.uint64)
                yield x0, satisfied_counts_vector(inst, block)
            return
        rows = min(_CHUNK >> h, 1 << (n - h))
        lo_words = np.arange(1 << h, dtype=np.int64)
        hi_words = np.arange(1 << (n - h), dtype=np.int64) << h
        terms = [_split_terms(*c, hi_words, lo_words) for c in classes]
        for r0 in range(0, hi_words.size, rows):
            block = hi_words[r0 : r0 + rows]
            acc = np.zeros((block.size, lo_words.size), dtype=np.float32)
            for cols, B in terms:
                A = np.zeros((block.size, B.shape[0]), dtype=np.float32)
                np.put_along_axis(A, cols[r0 : r0 + rows], 1.0, axis=1)
                acc += A @ B
            yield r0 << h, acc.ravel().astype(np.int64)

    return blocks()


def brute_force_opt(inst: CspInstance, cap: int = DEFAULT_ASSIGNMENT_CAP) -> OracleReport:
    """Exact maximum satisfied fraction over all 2^n assignments.

    Ties break toward the lowest assignment integer (variable 0 = LSB).
    """
    blocks = _count_blocks(inst, cap)
    if inst.degenerate:
        return OracleReport(
            optimum=Fraction(1),
            argmax=tuple([0] * inst.num_vars),
            enumeration_size=0,
            degenerate=True,
        )
    best_count = -1
    best_assignment = 0
    for lo, counts in blocks:
        j = int(np.argmax(counts))
        if counts[j] > best_count:
            best_count = int(counts[j])
            best_assignment = lo + j
    bits = tuple((best_assignment >> v) & 1 for v in range(inst.num_vars))
    return OracleReport(
        optimum=Fraction(best_count, inst.num_clauses),
        argmax=bits,
        enumeration_size=1 << inst.num_vars,
        degenerate=False,
    )


def is_satisfiable(inst: CspInstance, cap: int = DEFAULT_ASSIGNMENT_CAP) -> bool:
    """Whether some assignment satisfies every clause; stops at the first
    block that holds one."""
    blocks = _count_blocks(inst, cap)
    m = inst.num_clauses
    return inst.degenerate or any((counts == m).any() for _, counts in blocks)


@dataclass(frozen=True)
class LayerCheckReport:
    passed: bool
    width: int
    num_gates: int
    strings_checked: int
    worst_output_count: int
    worst_output_mean: Fraction
    witness: tuple | None


def exhaustive_layer_check(
    rows: Sequence[Sequence[int]],
    theta: Fraction,
    width: int,
    mean_in: Fraction,
    mean_out: Fraction,
    cap: int = LAYER_WIDTH_CAP,
) -> LayerCheckReport:
    """Sweep every width-bit string with mean <= mean_in through one layer of
    threshold gates and confirm the output mean never exceeds mean_out.

    Row g lists gate g's input positions (multiset entries repeated); a gate
    fires when the mean of its inputs is at least theta. The sweep extracts
    bits straight from assignment integers, deliberately not sharing code
    with the circuit module's own enumerator so the two can cross-validate.
    """
    if width > cap:
        raise ResourceCapError(f"layer width {width} exceeds cap {cap}")
    in_cap = floor_frac(mean_in * width)
    out_cap = floor_frac(mean_out * len(rows))
    thresholds = [threshold_count(theta, len(row)) for row in rows]
    worst_count = -1
    worst_string = None
    checked = 0
    total = 1 << width
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        block = np.arange(lo, hi, dtype=np.uint64)
        mask = np.bitwise_count(block) <= in_cap
        if not mask.any():
            continue
        sel = block[mask]
        checked += sel.size
        fired = np.zeros(sel.size, dtype=np.int16)
        for row, thr in zip(rows, thresholds):
            ones = np.zeros(sel.size, dtype=np.int16)
            for p in row:
                ones += ((sel >> np.uint64(p)) & np.uint64(1)).astype(np.int16)
            fired += ones >= thr
        j = int(np.argmax(fired))
        if int(fired[j]) > worst_count:
            worst_count = int(fired[j])
            worst_string = int(sel[j])
    if worst_string is None:
        raise ValueError("no strings below the input-mean bound")
    witness_bits = tuple((worst_string >> i) & 1 for i in range(width))
    passed = worst_count <= out_cap
    return LayerCheckReport(
        passed=passed,
        width=width,
        num_gates=len(rows),
        strings_checked=checked,
        worst_output_count=worst_count,
        worst_output_mean=Fraction(worst_count, len(rows)),
        witness=None if passed else witness_bits,
    )


def chernoff_tail(kind: str, mu: Fraction, delta: Fraction, n: int) -> float:
    """Right-hand side of the multiplicative tail bounds used in reports.

    kind "bound-1-upper": exp(-d^2 mu n / 3), for 0 < d <= 1
    kind "bound-1-lower": exp(-d^2 mu n / 2), for 0 < d <= 1
    kind "bound-2":       (e^d / (1+d)^(1+d))^(mu n), for d >= 2

    These are reporting aids only; measurements never defer to them.
    """
    mu_f, d = float(mu), float(delta)
    if not (0 <= mu_f <= 1):
        raise ValueError("mu must lie in [0, 1]")
    if kind in ("bound-1-upper", "bound-1-lower"):
        if not (0 < d <= 1):
            raise ValueError(f"{kind} requires 0 < delta <= 1, got {d}")
        divisor = 3.0 if kind == "bound-1-upper" else 2.0
        return math.exp(-d * d * mu_f * n / divisor)
    if kind == "bound-2":
        if d < 2:
            raise ValueError(f"bound-2 requires delta >= 2, got {d}")
        return math.exp(mu_f * n * (d - (1 + d) * math.log1p(d)))
    raise ValueError(f"unknown bound kind {kind!r}")


def lll_condition(p: float, d: int) -> tuple[float, bool]:
    """Value of p*e*(d+1) and whether it is at most 1."""
    if not (0 <= p <= 1):
        raise ValueError("p must lie in [0, 1]")
    value = p * math.e * (d + 1)
    return value, value <= 1


@dataclass(frozen=True)
class EstimateReport:
    successes: int
    trials: int
    frequency: Fraction
    wilson_low: float
    wilson_high: float
    master_seed: int


def estimate(
    event: Callable[[int], bool],
    trials: int,
    master_seed: int,
) -> EstimateReport:
    """Empirical frequency of a seeded event with a 99% Wilson interval.

    Trial i runs event(derive_seed(master_seed, i)).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    successes = sum(1 for i in range(trials) if event(derive_seed(master_seed, i)))
    low, high = wilson_interval(successes, trials)
    return EstimateReport(
        successes=successes,
        trials=trials,
        frequency=Fraction(successes, trials),
        wilson_low=low,
        wilson_high=high,
        master_seed=master_seed,
    )
