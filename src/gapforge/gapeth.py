"""Randomized reductions from gapped MAX 3SAT to perfectly-complete CSPs, and
the repeated-trial solver drivers built on them.

The two-sided reduction draws, per output clause, a uniform multiset of base
clauses and thresholds their satisfied fraction. The one-sided reduction
first samples a clause list, rejects it unless its occurrence counts are
balanced over every extremal clause subset (rejection yields a fixed NO
instance), and then thresholds over the sets of an expander-sampler family on
the list positions; a NO input can then never map to a YES-looking output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .csp import (
    DEFAULT_TABLE_CAP,
    Clause,
    CspInstance,
    clause_values,
    table_from_bits,
)
from .errors import (
    GapforgeError,
    InfeasibleParametersError,
    MalformedInstanceError,
    ResourceCapError,
    ShapeMismatchError,
)
from .oracle import _packed_tables, _table_index, chernoff_tail, lll_condition
from .sampler import (
    TARGET_LAMBDA,
    SamplerFamily,
    SamplerParams,
    build_full_family,
    intersection_degree,
)
from .util import Report, ceil_frac, derive_seed, floor_frac, rng_from, threshold_count

# entries in one block of _threshold_clauses' count matrix (4 MB of float32);
# the one-sided reduction at n = 8 over 1536 sets is one block
_COUNT_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class ReductionParams:
    """Gap (s, epsilon), sample scale k, list multiplier t, and master seed.

    The analysis regime normalizes epsilon below 1/100; desk-scale runs keep
    the raw gap because the sampler parameters it implies are unattainable at
    enumerable sizes."""

    s: Fraction
    epsilon: Fraction
    k: int
    t: int
    seed: int

    def __post_init__(self):
        if not (0 < self.s < 1):
            raise GapforgeError("s must lie in (0, 1)")
        if not (0 < self.epsilon):
            raise GapforgeError("epsilon must be positive")
        if self.s * (1 + self.epsilon) > 1:
            raise GapforgeError("s(1+epsilon) must not exceed 1")
        if self.k < 1 or self.t < 1:
            raise GapforgeError("k and t must be positive")

    @property
    def threshold(self) -> Fraction:
        return self.s * (1 + self.epsilon / 2)

    @property
    def k_condition_value(self) -> Fraction:
        return 1 / (self.s**2 * self.epsilon**2 * self.k)

    @property
    def k_condition_ok(self) -> bool:
        return self.k_condition_value <= Fraction(1, 2)


def _list_draw(seed: int, m: int, L: int) -> np.ndarray:
    """The L base-clause indices of the one-sided list drawn at seed."""
    return rng_from(derive_seed(seed, 0x1157)).integers(0, m, size=L)


def sample_list(base: CspInstance, p: ReductionParams) -> np.ndarray:
    """The t * m base-clause indices of the list, an int64 array, sampled
    with repetition; deterministic for a fixed seed."""
    m = base.num_clauses
    return _list_draw(p.seed, m, p.t * m)


@dataclass(frozen=True)
class BalanceReport(Report):
    balanced: bool
    heavy_ok: bool
    light_ok: bool
    heavy_size: int
    light_size: int
    heavy_sum: int
    light_sum: int
    heavy_bound: Fraction
    light_bound: Fraction
    floored: bool


def _extremal_sums(counts: np.ndarray, heavy_size: int, light_size: int) -> tuple[int, int]:
    """The occurrence-count sums of the heavy_size heaviest and the
    light_size lightest clauses. They do not depend on how ties break, so
    one sort of the counts gives both."""
    ordered = np.sort(counts)
    return int(ordered[counts.size - heavy_size :].sum()), int(ordered[:light_size].sum())


@dataclass(frozen=True)
class _BalanceCutoffs:
    """Extremal subset sizes and list-share bounds of the balance check, with
    the integer cut-offs that decide it: occurrence sums are integers, so
    sum <= heavy_bound iff sum <= heavy_max, and sum >= light_bound iff
    sum >= light_min."""

    heavy_size: int
    light_size: int
    heavy_bound: Fraction
    light_bound: Fraction
    heavy_max: int
    light_min: int
    floored: bool

    def verdict(self, counts: np.ndarray) -> tuple[int, int, bool, bool]:
        """(heavy_sum, light_sum, heavy_ok, light_ok) of the occurrence counts:
        the list is balanced iff both flags hold."""
        heavy_sum, light_sum = _extremal_sums(counts, self.heavy_size, self.light_size)
        return heavy_sum, light_sum, heavy_sum <= self.heavy_max, light_sum >= self.light_min


def _balance_cutoffs(p: ReductionParams, m: int, L: int) -> _BalanceCutoffs:
    """The heaviest size-(s*m) subset may hold at most s(1+eps/3) of the
    length-L list; the lightest size-(s(1+eps)*m) subset must hold at least
    s(1+2eps/3). Non-integral subset sizes are floored and flagged."""
    heavy_size_frac = p.s * m
    light_size_frac = p.s * (1 + p.epsilon) * m
    heavy_size = floor_frac(heavy_size_frac)
    light_size = floor_frac(light_size_frac)
    heavy_bound = p.s * (1 + p.epsilon / 3) * L
    light_bound = p.s * (1 + 2 * p.epsilon / 3) * L
    return _BalanceCutoffs(
        heavy_size=heavy_size,
        light_size=light_size,
        heavy_bound=heavy_bound,
        light_bound=light_bound,
        heavy_max=floor_frac(heavy_bound),
        light_min=ceil_frac(light_bound),
        floored=(heavy_size != heavy_size_frac) or (light_size != light_size_frac),
    )


def check_balanced(entries: np.ndarray, m: int, p: ReductionParams) -> BalanceReport:
    """Exact extremal-subset check of the list entries over m base clauses,
    via sorted occurrence counts, against the cut-offs of _balance_cutoffs."""
    cut = _balance_cutoffs(p, m, entries.size)
    heavy_sum, light_sum, heavy_ok, light_ok = cut.verdict(np.bincount(entries, minlength=m))
    return BalanceReport(
        balanced=heavy_ok and light_ok,
        heavy_ok=heavy_ok,
        light_ok=light_ok,
        heavy_size=cut.heavy_size,
        light_size=cut.light_size,
        heavy_sum=heavy_sum,
        light_sum=light_sum,
        heavy_bound=cut.heavy_bound,
        light_bound=cut.light_bound,
        floored=cut.floored,
    )


def canonical_no_instance(num_clauses: int) -> CspInstance:
    """Fixed rejection output with brute-force optimum exactly <= 1/2:
    complementary unit pairs on one fresh variable, plus one unsatisfiable
    clause when the clause count is odd."""
    pos = Clause((0,), 0b10)   # satisfied iff x0 = 1
    neg = Clause((0,), 0b01)   # satisfied iff x0 = 0
    never = Clause((0,), 0b00)
    clauses = []
    for i in range(num_clauses // 2):
        clauses.extend((pos, neg))
    if num_clauses % 2:
        clauses.append(never)
    return CspInstance(1, tuple(clauses))


def _threshold_clause(
    base: CspInstance,
    sampled: Sequence[int],
    thr_count: int,
) -> Clause:
    """Clause satisfied iff at least thr_count of the sampled base clauses
    (with multiplicity) hold; scope is the union of their variables."""
    mult = np.bincount(np.asarray(sampled, dtype=np.int64), minlength=base.num_clauses)
    used = np.flatnonzero(mult)
    scope = tuple(sorted({v for j in used for v in base.clauses[j].scope}))
    w = len(scope)
    if (1 << w) > DEFAULT_TABLE_CAP:
        raise ResourceCapError(
            f"threshold clause scope of {w} variables exceeds table cap {DEFAULT_TABLE_CAP}"
        )
    patterns = np.arange(1 << w, dtype=np.int64)
    bit_of = {v: w - 1 - i for i, v in enumerate(scope)}
    sums = np.zeros(patterns.size, dtype=np.int64)
    for j in used:
        sums += mult[j] * clause_values(base.clauses[j], patterns, bit_of)
    return Clause(scope=scope, table=table_from_bits(sums >= thr_count))


def _pattern_sat_matrix(base: CspInstance) -> np.ndarray:
    """Float32 clause-by-pattern satisfaction matrix over all 2^n full-scope
    table patterns (variable 0 is the most significant pattern bit).

    Built per arity class k with oracle's table-index kernel, in chunks of
    at most _COUNT_BLOCK_ENTRIES entries, on patterns of the smallest
    unsigned type that holds 2^n - 1 (a quarter of int64's memory traffic
    at n = 16), as one take from the chunk's unpacked 2^k-bit tables."""
    n = base.num_vars
    patterns = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
    M = np.empty((base.num_clauses, patterns.size), dtype=np.float32)
    by_arity: dict[int, list[int]] = {}
    for j, c in enumerate(base.clauses):
        by_arity.setdefault(c.arity, []).append(j)
    rows = max(1, _COUNT_BLOCK_ENTRIES >> n)
    for k, js in by_arity.items():
        clauses = [base.clauses[j] for j in js]
        scopes = np.array([c.scope for c in clauses], np.int64).reshape(len(js), k)
        bits = (n - 1 - scopes).astype(patterns.dtype)
        tables = _packed_tables([c.table for c in clauses], k)
        for lo in range(0, len(js), rows):
            chunk = tables[lo : lo + rows]
            flat = np.unpackbits(chunk, axis=1, count=1 << k, bitorder="little").ravel()
            start = (np.arange(chunk.shape[0], dtype=np.int64) << k)[:, None]
            M[js[lo : lo + rows]] = flat[_table_index(bits[lo : lo + rows], patterns) + start]
    return M


def _distinct_columns(M: np.ndarray) -> np.ndarray:
    """The distinct columns of M, for sweeps that only need a per-trial max
    over patterns: equal columns give equal set counts, so the max over the
    distinct columns is the max over all of them."""
    return np.ascontiguousarray(np.unique(M, axis=1))


def _multiplicities(samples: np.ndarray, m: int) -> np.ndarray:
    """The (r, m) multiplicity matrix of samples, whose row i lists the base
    clauses set i drew (with repeats), in float32, which is exact for these
    integer counts."""
    r = samples.shape[0]
    flat = (samples + m * np.arange(r)[:, None]).ravel()
    return np.bincount(flat, minlength=r * m).reshape(r, m).astype(np.float32)


def _threshold_clauses(base: CspInstance, samples: np.ndarray, thr_count: int) -> tuple:
    """The _threshold_clause of every row of samples, each row listing the
    base clauses one output clause drew (with repeats).

    For n <= 16 the tables come from the (m x 2^n) pattern matrix M. Rows
    of samples are taken in blocks of at most _COUNT_BLOCK_ENTRIES entries
    of a full count matrix (one row when 2^n alone is larger), so memory
    does not grow with the number of output clauses. A block's rows are
    grouped by scope code, the pattern bits of their scope, computed from
    the block's multiplicity matrix mult as mult @ var_incidence. A
    threshold clause never reads variables outside its scope, so its table
    is its count row at the 2^|scope| scoped patterns, those that are 0
    outside the scope; taken in increasing order, they are the table rows.
    So each group counts only those columns, mult[group] @ M[:, scoped]:
    2 to 16 columns, not 256, for the one-sided outputs of scopes of 1 to 4
    variables on an 8-variable base. A full scope reads M in place:
    gathering all of its columns would copy M in every block, and at
    n = 16, where a block holds 16 rows, that copy takes about five times
    as long as the product. The group's tables are packed to bytes, and
    rows with equal bytes share one Clause.
    """
    n = base.num_vars
    if n > 16:
        return tuple(_threshold_clause(base, row, thr_count) for row in samples)
    m = base.num_clauses
    M = _pattern_sat_matrix(base)
    scopes = [c.scope for c in base.clauses]
    var_incidence = np.zeros((m, n), dtype=np.float32)
    clause_of = np.repeat(np.arange(m), list(map(len, scopes)))
    var_incidence[clause_of, [v for scope in scopes for v in scope]] = 1
    full = (1 << n) - 1
    patterns = np.arange(1 << n, dtype=np.int64)
    pattern_bits = 1 << (n - 1 - np.arange(n, dtype=np.int64))
    rows = max(1, _COUNT_BLOCK_ENTRIES >> n)
    out: list = [None] * samples.shape[0]
    for lo in range(0, samples.shape[0], rows):
        mult = _multiplicities(samples[lo : lo + rows], m)
        codes = (mult @ var_incidence > 0) @ pattern_bits
        for code in np.unique(codes).tolist():
            group = np.flatnonzero(codes == code)
            scoped = M if code == full else M[:, (patterns & ~code) == 0]
            sat = mult[group] @ scoped >= float(thr_count)
            packed = np.packbits(sat, axis=1, bitorder="little")
            keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()
            shared = dict.fromkeys(keys)
            scope = tuple(v for v in range(n) if code >> (n - 1 - v) & 1)
            for key in shared:
                shared[key] = Clause(scope=scope, table=int.from_bytes(key, "little"))
            for i, key in zip((group + lo).tolist(), keys):
                out[i] = shared[key]
    return tuple(out)


@dataclass(frozen=True)
class TwoSidedReport(Report):
    seed: int
    num_clauses: int
    sample_size: int
    threshold: Fraction

    def to_doc(self) -> dict:
        return {"reduction": "two-sided", **super().to_doc()}


def _two_sided_draws(seed: int, n: int, m: int, k: int) -> np.ndarray:
    """The (n, k) base-clause samples of the two-sided reduction at seed."""
    return rng_from(derive_seed(seed, 0x25ED)).integers(0, m, size=(n, k))


def _check_two_sided_base(base: CspInstance) -> None:
    """Refuse a base with clauses but no variables, or with variables but no
    clauses. The reduction makes one output clause per variable, so without
    variables its output would be empty and accepted whatever the base's
    optimum; without clauses there are none to sample."""
    if (base.num_vars == 0) != (base.num_clauses == 0):
        raise MalformedInstanceError(
            f"the two-sided reduction needs variables and clauses; the base has "
            f"{base.num_vars} variables and {base.num_clauses} clauses"
        )


def reduce_two_sided(
    base: CspInstance, p: ReductionParams
) -> tuple[CspInstance, TwoSidedReport]:
    """One threshold clause per variable, each over k uniform samples (with
    replacement) of the base clauses.

    Accepts any truth-table base (the threshold machinery never looks inside
    clauses), though the intended inputs are bounded-width SAT instances.
    """
    _check_two_sided_base(base)
    n = base.num_vars
    draws = _two_sided_draws(p.seed, n, base.num_clauses, p.k)
    thr_count = threshold_count(p.threshold, p.k)
    inst = CspInstance(n, _threshold_clauses(base, draws, thr_count))
    return inst, TwoSidedReport(
        seed=p.seed,
        num_clauses=n,
        sample_size=p.k,
        threshold=p.threshold,
    )


def reduction_family_params(p: ReductionParams) -> SamplerParams:
    """The sampler parameters the one-sided reduction requires: deviation
    budget 1/(s^2 eps^2 k) at deviation s*eps.

    The spectral target comes from the walk-operator variance bound: on a
    graph with second eigenvalue lambda, at most a lambda^2/(4 eps^2) fraction
    of neighbor sets can deviate by more than eps on any string, so
    lambda <= 2 eps sqrt(delta) makes the deviation property unconditional.
    The implied degree is Theta(1/(delta eps^2)) = Theta(k).
    """
    delta = p.k_condition_value
    if not delta < 1:
        raise InfeasibleParametersError(
            f"sampler failure budget 1/(s^2 eps^2 k) = {delta} is not below 1; "
            "increase k"
        )
    eps = p.s * p.epsilon
    target = min(TARGET_LAMBDA, 2.0 * float(eps) * float(delta) ** 0.5)
    return SamplerParams(
        epsilon=eps, delta=delta, gamma=Fraction(1, 2), target_lambda=target
    )


def reduction_family(p: ReductionParams, list_length: int, seed: int) -> SamplerFamily:
    """Full expander-sampler family over the list_length = t * m positions,
    of which a family needs at least 4 (none when the base has no clauses)."""
    if list_length < 4:
        raise InfeasibleParametersError(
            f"the one-sided reduction's list has {list_length} positions (t * m): "
            + ("the base has no clauses" if list_length == 0 else "its family needs at least 4")
        )
    return build_full_family(reduction_family_params(p), list_length, seed)


def _validate_family(fam: SamplerFamily, p: ReductionParams, list_length: int):
    if fam.ground_size != list_length or len(fam.sets) != list_length:
        raise ShapeMismatchError(
            f"family must hold {list_length} sets over {list_length} positions, "
            f"got {len(fam.sets)} over {fam.ground_size}"
        )
    want = reduction_family_params(p)
    if fam.params.epsilon != want.epsilon or fam.params.delta != want.delta:
        raise ShapeMismatchError(
            "family parameters do not match the reduction: expected "
            f"(eps={want.epsilon}, delta={want.delta}), got "
            f"(eps={fam.params.epsilon}, delta={fam.params.delta})"
        )


@dataclass(frozen=True)
class OneSidedReport:
    balance: BalanceReport
    rejected_unbalanced: bool
    intersection_degree: int
    per_clause_failure_estimate: float
    lll_value: float
    lll_ok: bool


def _lll_numbers(p: ReductionParams, fam: SamplerFamily) -> tuple[int, float, float, bool]:
    d = intersection_degree(fam)
    mu = p.s * (1 + p.epsilon)
    rel = (p.epsilon / 2) / (1 + p.epsilon)
    p_est = chernoff_tail(mu, rel, fam.set_size)
    value, ok = lll_condition(p_est, d)
    return d, p_est, value, ok


def reduce_one_sided(
    base: CspInstance,
    p: ReductionParams,
    fam: SamplerFamily,
) -> tuple[CspInstance, OneSidedReport]:
    """Balanced-list reduction. Unbalanced lists are rejected in favor of the
    canonical NO instance (flagged in the report), so NO inputs can never
    produce an instance with optimum above 1/2."""
    entries = sample_list(base, p)
    L = entries.size
    _validate_family(fam, p, L)
    balance = check_balanced(entries, base.num_clauses, p)
    d, p_est, lll_value, lll_ok = _lll_numbers(p, fam)
    report = OneSidedReport(
        balance=balance,
        rejected_unbalanced=not balance.balanced,
        intersection_degree=d,
        per_clause_failure_estimate=p_est,
        lll_value=lll_value,
        lll_ok=lll_ok,
    )
    if not balance.balanced:
        return canonical_no_instance(L), report
    thr_count = threshold_count(p.threshold, fam.set_size)
    samples = entries[fam.sets]
    return CspInstance(base.num_vars, _threshold_clauses(base, samples, thr_count)), report


# ---------------------------------------------------------------------------
# solver drivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriverReport:
    answer: bool
    yes_trial: int | None
    trials_run: int
    trials_requested: int
    outcomes: tuple  # per-trial "Y" / "n" / "u" (unbalanced rejection)

    def to_doc(self) -> dict:
        return {
            "answer": "YES" if self.answer else "NO",
            "yes_trial": self.yes_trial,
            "trials_run": self.trials_run,
            "trials_requested": self.trials_requested,
            "outcomes": "".join(self.outcomes),
        }


def solve_driver(
    base: CspInstance,
    p: ReductionParams,
    trials: int,
    subroutine: Callable[[CspInstance], bool],
    reduction: str = "one-sided",
    fam: SamplerFamily | None = None,
) -> DriverReport:
    """Repeat the chosen reduction with per-trial seeds derived from
    (p.seed, trial index) and return YES iff any output is accepted by the
    perfect-completeness subroutine. The one-sided reduction needs fam, the
    reduction family over the p.t * m list positions.
    """
    if reduction not in ("one-sided", "two-sided"):
        raise ValueError(f"unknown reduction {reduction!r}")
    if reduction == "one-sided" and fam is None:
        raise GapforgeError("the one-sided reduction needs a sampler family")
    if trials < 0:
        raise GapforgeError(f"trial count must not be negative, got {trials}")
    outcomes = []
    for trial in range(trials):
        p_t = replace(p, seed=derive_seed(p.seed, trial))
        if reduction == "one-sided":
            inst, rep = reduce_one_sided(base, p_t, fam)
            rejected = rep.rejected_unbalanced
        else:
            inst, _ = reduce_two_sided(base, p_t)
            rejected = False
        try:
            verdict = subroutine(inst)
        except Exception as exc:
            # a resource cap keeps its class, so the CLI exits 3 on it
            kind = ResourceCapError if isinstance(exc, ResourceCapError) else GapforgeError
            raise kind(f"subroutine failed on trial {trial}: {exc}") from exc
        if verdict:
            outcomes.append("Y")
            return DriverReport(
                answer=True,
                yes_trial=trial,
                trials_run=trial + 1,
                trials_requested=trials,
                outcomes=tuple(outcomes),
            )
        outcomes.append("u" if rejected else "n")
    return DriverReport(
        answer=False,
        yes_trial=None,
        trials_run=trials,
        trials_requested=trials,
        outcomes=tuple(outcomes),
    )


# ---------------------------------------------------------------------------
# vectorized trial sweep (used by the statistical acceptance checks)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepReport(Report):
    trials: int
    balanced_trials: int
    max_optimum: Fraction
    optima_above_half: int
    optima_at_one: int
    worst_trial: int


def _sweep_report(sat_counts: Sequence[int], denominator: int, balanced: int) -> SweepReport:
    """Tally per-trial optima sat_counts[i] / denominator; the worst trial is
    the first to reach the largest positive optimum (-1 when none is)."""
    counts = np.asarray(sat_counts, dtype=np.int64)
    top = int(counts.max(initial=0))
    return SweepReport(
        trials=counts.size,
        balanced_trials=balanced,
        max_optimum=Fraction(top, denominator),
        optima_above_half=int((2 * counts > denominator).sum()),
        optima_at_one=int((counts == denominator).sum()),
        worst_trial=int(counts.argmax()) if top > 0 else -1,
    )


# one_sided_sweep counts balanced trials in batches when M has at most
# _BATCH_MAX_COLUMNS distinct columns, about _BATCH_COLUMNS columns of
# M[entries] per batch
_BATCH_MAX_COLUMNS = 20
_BATCH_COLUMNS = 512


def _gather_maxima(sets: np.ndarray, Y: np.ndarray, thr_count: int) -> np.ndarray:
    """Per trial, the most sets whose count reaches thr_count in any one
    column, for the (L x trials x d) uint8 stack Y of the trials' M[entries].

    A set's counts are the sum of the rows of Y at its C positions, added
    one position column of sets at a time in the smallest unsigned type
    that holds C, so they are exact."""
    L, trials, d = Y.shape
    Y = Y.reshape(L, trials * d)
    counts = np.zeros((sets.shape[0], trials * d), dtype=np.min_scalar_type(sets.shape[1]))
    for c in range(sets.shape[1]):
        counts += Y[sets[:, c]]
    return (counts >= thr_count).sum(axis=0).reshape(trials, d).max(axis=1)


def one_sided_sweep(
    base: CspInstance,
    p: ReductionParams,
    fam: SamplerFamily,
    trials: int,
) -> SweepReport:
    """Exact brute-force optimum of the one-sided reduction's output for many
    seeded trials, from per-set counts over the distinct columns of one
    pattern matrix M.

    A balanced trial's per-set counts are Inc @ E @ M, for the family's
    (L x L) 0/1 set-by-position incidence Inc, the trial's (L x m) one-hot
    list E and the (m x d) matrix M; Inc itself is never built. Which
    product comes first is a matrix-chain order choice. Inc @ E is the
    multiplicity matrix that _multiplicities bincounts from the trial's L * C
    draws, followed by one (L x m) @ (m x d) product, so its cost grows
    slowly with d. E @ M is just M[entries], and Inc @ M[entries] sums its
    rows at each set's C positions: L * C * d small-integer adds, with the
    columns of many trials side by side (_gather_maxima). Per trial on the
    criterion-08 family (L = 1536, C = 64, m = 48) on two cores, the gather
    took 0.03, 0.13, 0.26, 0.33, 0.77 and 4.1 ms at d = 2, 8, 16, 20, 48
    and 247, and the per-trial path 0.97, 0.76, 0.77, 0.76, 0.83 and
    1.33 ms. The two cross near d = 48 to 64; trials are batched up to
    _BATCH_MAX_COLUMNS = 20 columns and counted one by one above it, and no
    benchmarked base lies between 20 and 64. Each trial's optimum is
    written to its own slot, so the report does not depend on the path.

    Trial i reproduces reduce_one_sided with seed derive_seed(p.seed, i); the
    test suite cross-validates sampled trials against the object-level path.
    """
    if base.num_vars > 16:
        raise ResourceCapError("sweep enumerates 2^n columns; need n <= 16")
    m = base.num_clauses
    L_len = p.t * m
    _validate_family(fam, p, L_len)
    M = _distinct_columns(_pattern_sat_matrix(base))
    thr_count = threshold_count(p.threshold, fam.set_size)
    cut = _balance_cutoffs(p, m, L_len)
    d = M.shape[1]
    batch = max(1, _BATCH_COLUMNS // d) if d <= _BATCH_MAX_COLUMNS else 0
    if batch:
        # M[entries] of each queued trial, side by side
        stacked = np.empty((L_len, batch, d), dtype=np.uint8)
    else:
        # the multiplicities times M in a workspace reused by every trial:
        # fresh L * C and L * d arrays per trial fault in new pages (unless an
        # earlier large free raised malloc's trim threshold), doubling a
        # d = 247 trial
        flat = np.empty(fam.sets.shape, dtype=np.int64)
        row_off = m * np.arange(L_len)[:, None]
        mult = np.empty((L_len, m), dtype=np.float32)
        counts = np.empty((L_len, d), dtype=np.float32)
        sat = np.empty((L_len, d), dtype=bool)
    slots = []  # the queued trials
    # unbalanced trials keep the canonical NO instance's optimum; a negative
    # trial count runs none, as range does
    sat_counts = np.full(max(trials, 0), L_len // 2, dtype=np.int64)
    balanced_trials = 0
    for trial in range(trials):
        entries = _list_draw(derive_seed(p.seed, trial), m, L_len)
        _, _, heavy_ok, light_ok = cut.verdict(np.bincount(entries, minlength=m))
        balanced = heavy_ok and light_ok
        balanced_trials += balanced
        if balanced and not batch:
            np.add(entries.take(fam.sets, mode="clip", out=flat), row_off, out=flat)
            mult[:] = np.bincount(flat.ravel(), minlength=mult.size).reshape(mult.shape)
            np.greater_equal(np.matmul(mult, M, out=counts), thr_count, out=sat)
            sat_counts[trial] = sat.sum(axis=0, dtype=np.int64).max()
        elif balanced:
            stacked[:, len(slots)] = M[entries]
            slots.append(trial)
        if slots and (len(slots) == batch or trial == trials - 1):
            queued = stacked[:, : len(slots)]
            sat_counts[slots] = _gather_maxima(fam.sets, queued, thr_count)
            slots = []
    return _sweep_report(sat_counts, L_len, balanced_trials)
