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
# assignments per sweep block: each per-clause or per-gate temporary (at most
# 8 bytes per assignment, 256 KB) stays in cache; at n=20, m=96 the count
# sweep took about 4x longer with blocks of 2^20
_CHUNK = 1 << 15


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
    """Rows: clauses, columns: assignment integers (bit v = variable v)."""
    out = np.empty((inst.num_clauses, assignments.size), dtype=np.uint8)
    for row, clause in enumerate(inst.clauses):
        out[row] = clause_values(clause, assignments)
    return out


def satisfied_counts_vector(inst: CspInstance, assignments: np.ndarray) -> np.ndarray:
    """Number of satisfied clauses for each assignment integer, accumulated
    clause by clause without the clause x assignment matrix."""
    counts = np.zeros(assignments.size, dtype=np.int64)
    for clause in inst.clauses:
        counts += clause_values(clause, assignments)
    return counts


def _count_blocks(inst: CspInstance, cap: int) -> Iterator[tuple[int, np.ndarray]]:
    """Raise now if 2^n exceeds the cap; otherwise the sweep over all 2^n
    assignments as (first assignment, satisfied counts) per block of _CHUNK,
    computed only as it is iterated."""
    if inst.num_vars > cap:
        raise ResourceCapError(
            f"{inst.num_vars} variables exceeds enumeration cap {cap}"
        )
    total = 1 << inst.num_vars

    def blocks():
        for lo in range(0, total, _CHUNK):
            block = np.arange(lo, min(lo + _CHUNK, total), dtype=np.uint64)
            yield lo, satisfied_counts_vector(inst, block)

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
