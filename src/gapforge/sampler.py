"""Expander graphs, their spectral certification, and derived set families.

A family is the collection of neighbor sets of a regular graph whose
normalized second eigenvalue has been measured. Families never rely on
asymptotic constants: a family is considered usable only after
`certify_sampler` passes on an adversarial corpus, which checks

  property 1: the fraction of sets whose sample mean deviates from the
              string mean by more than epsilon is at most delta;
  property 2: for strings with zero-fraction eta < (1-gamma)/2, the fraction
              of sets with sample mean below gamma is at most eta/2, and is
              also compared against the mixing-lemma value
              (4 lambda^2 / (1-gamma)^2) * eta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import GapforgeError, InfeasibleParametersError, IterationCapError
from .util import (
    Report,
    ceil_frac,
    derive_seed,
    floor_frac,
    frac_str,
    rng_from,
    sorted_rows,
    threshold_count,
)

DEFAULT_DEGREE_SCHEDULE = (4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128)
_POWER_ITER_CAP = 5000
EXPANDER_RESTARTS = 64  # seeded attempts build_expander makes per (N, D)
_REPAIR_SWEEPS = 400  # swap-repair rounds per configuration-model draw
SWAP_CANDIDATES = 24  # swaps swap_climb tries per round before it stops
TARGET_LAMBDA = 0.97  # largest normalized second eigenvalue any family or layer may have


@dataclass(frozen=True)
class RegularGraph:
    """Undirected D-regular multigraph. adjacency is a read-only (N, D) int64
    array whose row v holds vertex v's neighbors in sorted order, repeats
    kept; __post_init__ builds it from any sequence of equal-length rows."""

    num_vertices: int
    degree: int
    adjacency: np.ndarray

    def __post_init__(self):
        N = self.num_vertices
        adj = sorted_rows(self.adjacency, "vertex without exactly D neighbor entries")
        if len(adj) != N:
            raise GapforgeError("adjacency length does not match vertex count")
        if adj.ndim != 2 or adj.shape[1] != self.degree:
            raise GapforgeError("vertex without exactly D neighbor entries")
        if adj.size and (adj[:, 0].min() < 0 or adj[:, -1].max() >= N):
            raise GapforgeError("neighbor entry outside the vertex set")
        object.__setattr__(self, "adjacency", adj)
        # symmetry of the edge multiset: the keys u*N+v of all entries (sorted,
        # as the rows are) equal the sorted keys v*N+u of their reverses
        u = np.arange(N, dtype=np.int64)[:, None]
        fwd = (u * N + adj).ravel()
        rev = np.sort((adj * N + u).ravel())
        bad = np.flatnonzero(fwd != rev)
        if bad.size:
            # the smaller key at the first difference has unequal counts
            key = int(min(fwd[bad[0]], rev[bad[0]]))
            raise GapforgeError(
                f"edge multiset not symmetric at ({key // N},{key % N})"
            )

    def __eq__(self, other):
        if not isinstance(other, RegularGraph):
            return NotImplemented
        return np.array_equal(self.adjacency, other.adjacency)  # shape is (N, D)

    def connected_non_bipartite(self) -> bool:
        """One level-synchronous BFS from vertex 0: the graph is connected iff
        every vertex gets a level, and then non-bipartite iff some edge joins
        two vertices on the same level (an odd cycle). An edge joins equal or
        adjacent levels, so comparing level parities is the same test with a
        bool (N, D) temporary instead of an int64 one."""
        adj = self.adjacency
        level = np.full(self.num_vertices, -1, dtype=np.int64)
        level[0] = 0
        frontier = np.zeros(1, dtype=np.int64)
        depth = 0
        while frontier.size:
            depth += 1
            reached = adj[frontier].ravel()
            level[reached[level[reached] < 0]] = depth
            frontier = np.flatnonzero(level == depth)
        odd = (level % 2).astype(bool)
        return bool((level >= 0).all() and (odd[adj] == odd[:, None]).any())


def _pairing_graph(N: int, D: int, rng: np.random.Generator) -> np.ndarray | None:
    """One configuration-model draw repaired to a simple D-regular graph (swaps
    only permute the second column): its (N*D/2, 2) edge list, or None."""
    stubs = np.repeat(np.arange(N, dtype=np.int64), D)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    for _ in range(_REPAIR_SWEEPS):
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


def _complement(adj: np.ndarray) -> np.ndarray:
    """Sorted neighbor rows of the complement of the simple graph adj."""
    N = len(adj)
    mask = np.zeros((N, N), dtype=bool)
    np.put_along_axis(mask, adj, True, axis=1)
    np.fill_diagonal(mask, True)
    return np.broadcast_to(np.arange(N), (N, N))[~mask].reshape(N, -1)


def _swapped_circulant(N: int, D: int, rng) -> list[list[int]]:
    """Neighbor rows of a circulant D-regular graph after 12*N*D tries of
    degree-preserving double-edge swaps that keep it simple. The swaps
    follow the sets' iteration order, so the graph is built in sets."""
    adj_sets = [set() for _ in range(N)]
    for v in range(N):
        for off in range(1, D // 2 + 1):
            adj_sets[v].add((v + off) % N)
            adj_sets[v].add((v - off) % N)
        if D % 2:
            adj_sets[v].add((v + N // 2) % N)
    edges = [[u, v] for u, s in enumerate(adj_sets) for v in s if u < v]
    M = len(edges)
    for _ in range(12 * N * D):
        i, j = int(rng.integers(M)), int(rng.integers(M))
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        if rng.integers(2):
            c, d = d, c
        if len({a, b, c, d}) < 4:
            continue
        if c in adj_sets[a] or d in adj_sets[b]:
            continue
        adj_sets[a].remove(b), adj_sets[b].remove(a)
        adj_sets[c].remove(d), adj_sets[d].remove(c)
        adj_sets[a].add(c), adj_sets[c].add(a)
        adj_sets[b].add(d), adj_sets[d].add(b)
        edges[i] = [a, c]
        edges[j] = [b, d]
    return [list(s) for s in adj_sets]


def build_expander(N: int, D: int, seed: int) -> RegularGraph:
    """Seeded connected non-bipartite simple D-regular graph on N vertices.

    Sparse degrees come from random stub pairing with local swap repair,
    directly or through the complement (the complete graph too); mid
    densities from a circulant randomized by double-edge swaps. Bipartite
    draws are resampled: their walk matrix has |eigenvalue| 1 and they are
    useless as samplers. Deterministic for a fixed seed; raises when the
    parameters are infeasible or all EXPANDER_RESTARTS attempts fail.
    """
    if D < 3:
        raise InfeasibleParametersError("degree must be at least 3")
    if D > N - 1:
        raise InfeasibleParametersError(f"degree {D} impossible on {N} vertices")
    if (N * D) % 2 != 0:
        raise InfeasibleParametersError(f"N*D must be even, got N={N} D={D}")
    use_complement = D > (N - 1) // 2
    build_deg = (N - 1 - D) if use_complement else D
    sparse = build_deg <= max(3, N // 4)
    for attempt in range(EXPANDER_RESTARTS):
        rng = rng_from(derive_seed(seed, N, D, attempt))
        if not sparse:
            graph = RegularGraph(N, D, _swapped_circulant(N, D, rng))
        else:
            if build_deg == 1:
                pairs = rng.permutation(N).reshape(-1, 2)
            elif build_deg == 2:
                perm = rng.permutation(N)
                pairs = np.stack([perm, np.roll(perm, -1)], axis=1)
            else:
                pairs = _pairing_graph(N, build_deg, rng)
                if pairs is None:
                    continue
            # row v: the far end of each edge end at v
            ends = np.argsort(pairs.ravel(), kind="stable")
            adj = pairs[:, ::-1].ravel()[ends].reshape(N, build_deg)
            graph = RegularGraph(N, D, _complement(adj) if use_complement else adj)
        if graph.connected_non_bipartite():
            return graph
    raise InfeasibleParametersError(
        f"no connected non-bipartite simple {D}-regular graph found on "
        f"{N} vertices after {EXPANDER_RESTARTS} restarts"
    )


def _neighbor_sum(M: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """M[adjacency].sum(axis=1), bit for bit, for an (N, b) block M with b >= 2
    and cols = adjacency.T: the D rows are added in the order that sum adds
    its middle axis, one adjacency column at a time, with no (N, D, b) temporary."""
    out = M.take(cols[0], axis=0)
    buf = np.empty_like(out)
    for c in cols[1:]:
        M.take(c, axis=0, out=buf, mode="clip")
        out += buf
    return out


def second_eigenvalue(
    g: RegularGraph, tol: float = 1e-8, stop_above: float | None = None
) -> float:
    """Normalized second-largest absolute eigenvalue of the walk matrix.

    Deflated block power iteration on the squared walk operator restricted to
    the complement of the all-ones eigenvector: squaring makes +/- pairs
    converge, the block rides out the near-degenerate cluster at the bulk
    edge of random regular graphs, and Rayleigh-Ritz extracts the top value.
    For the symmetric operator the Ritz residual bounds the eigenvalue error
    (Weyl), which certifies the +/- tol accuracy. Raises IterationCapError
    with the last estimate if the residual never gets there.

    With stop_above set, the solve ends as soon as sqrt(theta) exceeds
    stop_above + tol, where theta is the top Ritz value of the current
    orthonormal block, and returns that sqrt(theta). The return value is
    then a lower bound on lambda, not a converged estimate, and it lies
    above stop_above. The bound holds because the deflated squared walk
    operator is symmetric PSD: by Courant-Fischer its top Ritz value on any
    orthonormal block is at most lambda^2, and block power iteration on a
    PSD operator never lowers the top Ritz value, so the converged estimate
    would also lie above stop_above. A solve whose converged value is at
    most stop_above never meets the condition and returns bit for bit what
    it returns without stop_above.
    """
    N, D = g.num_vertices, g.degree
    b = max(2, min(8, N - 2))
    rng = rng_from(derive_seed(0xE16E, N, D))
    V = rng.standard_normal((N, b))

    def deflate(M: np.ndarray) -> np.ndarray:
        return M - M.mean(axis=0, keepdims=True)

    cols = np.ascontiguousarray(g.adjacency.T)

    def walk_sq(M: np.ndarray) -> np.ndarray:
        # a vector's neighbor sums run along a contiguous axis, which numpy
        # adds pairwise, so only a block goes through _neighbor_sum
        for _ in range(2):
            M = (M[g.adjacency].sum(axis=1) if M.ndim == 1 else _neighbor_sum(M, cols)) / D
        return deflate(M)

    V, _ = np.linalg.qr(deflate(V))
    theta = 0.0
    for _ in range(_POWER_ITER_CAP):
        Y = walk_sq(V)
        H = V.T @ Y
        H = (H + H.T) / 2
        vals, vecs = np.linalg.eigh(H)
        theta = float(vals[-1])
        lam = float(np.sqrt(max(theta, 0.0)))
        if stop_above is not None and lam > stop_above + tol:
            return lam
        top = V @ vecs[:, -1]
        resid = float(np.linalg.norm(walk_sq(top) - theta * top))
        if resid <= max(2.0 * tol * max(lam, tol), 1e-14):
            return lam
        V, _ = np.linalg.qr(deflate(Y))
    raise IterationCapError(
        "block power iteration did not converge", float(np.sqrt(max(theta, 0.0)))
    )


def trace_lambda_sq_bound(g: RegularGraph) -> Fraction:
    """tr(W^2) - 1 as an exact rational: an upper bound on lambda_i^2 for
    every walk-matrix eigenvalue except one copy of 1 (the trace method).

    W is symmetric, so tr(W^2) = sum_i lambda_i^2 = S / D^2, where S is the
    sum over ordered pairs (u, v) of mult(u, v)^2; dropping the eigenvalue 1
    of the all-ones vector leaves every other lambda_i^2 at most S / D^2 - 1.
    S is read off the run lengths of the keys u*N + v, which are sorted
    because the adjacency rows are, so repeated neighbors of a multigraph
    count. S >= D^2 by Cauchy-Schwarz on each row, so the value is never
    negative. A simple graph has S = N * D.
    """
    N, D = g.num_vertices, g.degree
    keys = (np.arange(N, dtype=np.int64)[:, None] * N + g.adjacency).ravel()
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    runs = np.diff(np.r_[starts, keys.size])
    S = int((runs * runs).sum())
    return Fraction(S - D * D, D * D)


def second_eigenvalue_dense(g: RegularGraph) -> float:
    """Dense eigendecomposition cross-check (small N only)."""
    N, D = g.num_vertices, g.degree
    W = np.zeros((N, N))
    np.add.at(W, (np.repeat(np.arange(N), D), g.adjacency.ravel()), 1.0 / D)
    vals = np.sort(np.abs(np.linalg.eigvalsh(W)))[::-1]
    return float(vals[1])


@dataclass(frozen=True)
class SamplerParams:
    """Deviation tolerance, failure budget, completeness threshold, and the
    spectral target a constructed family must meet."""

    epsilon: Fraction
    delta: Fraction
    gamma: Fraction
    target_lambda: float = TARGET_LAMBDA

    def __post_init__(self):
        for name in ("epsilon", "delta", "gamma"):
            x = getattr(self, name)
            if not (0 < x < 1):
                raise ValueError(f"{name} must lie in (0, 1), got {x}")
        if not (0 < self.target_lambda < 1):
            raise ValueError("target_lambda must lie in (0, 1)")


@dataclass(frozen=True)
class SamplerFamily:
    """A set family over [N]. sets is a read-only (num_sets, C) int64 array,
    one sorted row of distinct elements per set; __post_init__ builds it from
    any sequence of equal-length sets.

    Families built from an expander keep the neighbor sets of its first
    floor(N/2) vertices (build_sampler_family) or of all N (build_full_family,
    what the one-sided reduction consumes), with the graph's measured lambda
    and degree; a family built straight from its sets has neither.
    """

    ground_size: int
    sets: np.ndarray
    params: SamplerParams
    measured_lambda: float | None = None
    degree: int | None = None

    def __post_init__(self):
        sets = sorted_rows(self.sets, "sets must share one cardinality")
        if sets.size == 0:  # no sets, or only empty ones: still two axes
            sets = sets.reshape(len(sets), 0)
        if (sets[:, 1:] == sets[:, :-1]).any():
            raise GapforgeError("set with repeated elements")
        if sets.size and (sets[:, 0].min() < 0 or sets[:, -1].max() >= self.ground_size):
            raise GapforgeError("set element outside the ground set")
        object.__setattr__(self, "sets", sets)

    def __eq__(self, other):
        if not isinstance(other, SamplerFamily):
            return NotImplemented
        rest = ("ground_size", "params", "measured_lambda", "degree")
        return np.array_equal(self.sets, other.sets) and all(
            getattr(self, f) == getattr(other, f) for f in rest
        )

    @property
    def set_size(self) -> int:
        return self.sets.shape[1]

    def incidence(self) -> np.ndarray:
        mat = np.zeros((len(self.sets), self.ground_size), dtype=np.uint8)
        np.put_along_axis(mat, self.sets, 1, axis=1)
        return mat

    @cached_property
    def _intersection_degree(self) -> int:
        # only the int is kept: the incidence matrix is rebuilt per use so
        # that a family costs no more memory than its sets
        # float32 takes the BLAS path and is exact (overlaps are at most
        # set_size); 256-row blocks keep the overlap matrix small.
        inc = self.incidence().astype(np.float32)
        degree = 0
        for lo in range(0, inc.shape[0], 256):
            overlap = inc[lo : lo + 256] @ inc.T
            rows = np.arange(overlap.shape[0])
            overlap[rows, lo + rows] = 0
            degree = max(degree, int((overlap > 0).sum(axis=1).max()))
        return degree


def _search_expander(
    params: SamplerParams,
    N: int,
    seed: int,
    degree_schedule: Sequence[int] | None,
) -> tuple[RegularGraph, float]:
    if N < 4:
        raise InfeasibleParametersError("ground set must have at least 4 points")
    schedule = [
        d
        for d in (degree_schedule or DEFAULT_DEGREE_SCHEDULE)
        if 3 <= d <= N - 1 and (N * d) % 2 == 0
    ]
    if (degree_schedule is None) and (N - 1 not in schedule) and N - 1 >= 3:
        schedule.append(N - 1)
    last_error = None
    for D in schedule:
        try:
            graph = build_expander(N, D, derive_seed(seed, D))
        except InfeasibleParametersError as exc:
            last_error = exc
            continue
        # a degree whose Ritz lower bound clears the target is rejected as
        # soon as it does; an accepted degree runs its full solve
        lam = second_eigenvalue(graph, tol=1e-8, stop_above=params.target_lambda)
        if lam <= params.target_lambda:
            return graph, lam
    raise InfeasibleParametersError(
        f"no degree in {schedule} achieves lambda <= {params.target_lambda} "
        f"on {N} vertices ({last_error})"
    )


def build_sampler_family(
    params: SamplerParams,
    N: int,
    seed: int,
    degree_schedule: Sequence[int] | None = None,
) -> SamplerFamily:
    """Halved family: floor(N/2) neighbor sets of a verified expander."""
    graph, lam = _search_expander(params, N, seed, degree_schedule)
    return SamplerFamily(N, graph.adjacency[: N // 2], params, lam, graph.degree)


def build_full_family(
    params: SamplerParams,
    N: int,
    seed: int,
    degree_schedule: Sequence[int] | None = None,
) -> SamplerFamily:
    """Full family: all N neighbor sets (one per vertex)."""
    graph, lam = _search_expander(params, N, seed, degree_schedule)
    return SamplerFamily(N, graph.adjacency, params, lam, graph.degree)


def intersection_degree(fam: SamplerFamily) -> int:
    """Exact max number of other sets any set shares an element with;
    computed on the first call for a family and cached on it."""
    return fam._intersection_degree


def mixing_bound(lam: float, gamma: Fraction, eta: Fraction) -> float:
    """(4 lambda^2 / (1-gamma)^2) * eta, valid for eta < (1-gamma)/2."""
    if not (0 < float(gamma) < 1) or not (0 <= lam < 1):
        raise ValueError("lambda and gamma must lie in (0, 1)")
    if not eta < (1 - gamma) / 2:
        raise ValueError("eta must be below (1-gamma)/2")
    g = float(gamma)
    return (4.0 * lam * lam / ((1.0 - g) ** 2)) * float(eta)


@dataclass(frozen=True)
class StringReport(Report):
    label: str
    mean: Fraction
    deviation_fraction: Fraction
    deviation_ok: bool
    eta: Fraction | None
    low_fraction: Fraction | None
    eta_budget_ok: bool | None
    mixing_value: float | None
    mixing_ok: bool | None


@dataclass(frozen=True)
class SamplerReport:
    ground_size: int
    num_sets: int
    set_size: int
    params: SamplerParams
    measured_lambda: float | None
    strings: tuple[StringReport, ...]
    passed: bool

    def to_doc(self) -> dict:
        return {
            "ground_size": self.ground_size,
            "num_sets": self.num_sets,
            "set_size": self.set_size,
            "epsilon": frac_str(self.params.epsilon),
            "delta": frac_str(self.params.delta),
            "gamma": frac_str(self.params.gamma),
            "measured_lambda": self.measured_lambda,
            "strings": [s.to_doc() for s in self.strings],
            "passed": self.passed,
        }


def certify_sampler(
    fam: SamplerFamily, corpus: Sequence[tuple[str, Sequence[int]]]
) -> SamplerReport:
    """Exact per-string property checks over every set of the family, given a
    corpus of (label, bits) strings; all reported fractions are exact.

    One float32 product of the incidence matrix and the strings gives every
    set's count of ones (exact: no count exceeds the set size C). A count o
    deviates when |o/C - mean| > epsilon, that is when o > floor(C(mean +
    epsilon)) or o < ceil(C(mean - epsilon)), and is low when o/C < gamma,
    that is when o < ceil(C gamma); both are integer comparisons.

    `passed` is a check over the given corpus only (in practice the 13
    strings of adversarial_corpus): no counterexample found, not a proof."""
    N, num_sets, C = fam.ground_size, len(fam.sets), fam.set_size
    for label, bits in corpus:
        if len(bits) != N:
            raise GapforgeError(
                f"string {label!r} has {len(bits)} bits, ground set has {N}"
            )
    strings = np.array([bits for _, bits in corpus], dtype=np.int64).reshape(-1, N)
    ones = fam.incidence().astype(np.float32) @ strings.T.astype(np.float32)
    ones = ones.astype(np.int64)  # (sets x strings)
    eps, delta, gamma = fam.params.epsilon, fam.params.delta, fam.params.gamma
    eta_cut = (1 - gamma) / 2
    low_below = threshold_count(gamma, C)

    def check(s: int, label: str) -> StringReport:
        col = ones[:, s]
        mean = Fraction(int(strings[s].sum()), N)
        deviating = (col > floor_frac(C * (mean + eps))) | (col < ceil_frac(C * (mean - eps)))
        dev_frac = Fraction(int(deviating.sum()), num_sets)
        eta = 1 - mean
        row_eta = None
        low_frac = None
        budget_ok = None
        mix_val = None
        mix_ok = None
        if eta < eta_cut:
            row_eta = eta
            low = int((col < low_below).sum())
            low_frac = Fraction(low, num_sets)
            budget_ok = low_frac <= eta / 2
            if fam.measured_lambda is not None:
                mix_val = mixing_bound(fam.measured_lambda, gamma, eta) if eta > 0 else 0.0
                mix_ok = float(low_frac) <= mix_val or low == 0
        return StringReport(
            label=label,
            mean=mean,
            deviation_fraction=dev_frac,
            deviation_ok=dev_frac <= delta,
            eta=row_eta,
            low_fraction=low_frac,
            eta_budget_ok=budget_ok,
            mixing_value=mix_val,
            mixing_ok=mix_ok,
        )

    rows = tuple(check(s, label) for s, (label, _) in enumerate(corpus))
    passed = all(r.deviation_ok for r in rows) and all(
        r.eta_budget_ok for r in rows if r.eta_budget_ok is not None
    ) and all(r.mixing_ok for r in rows if r.mixing_ok is not None)
    return SamplerReport(
        ground_size=fam.ground_size,
        num_sets=num_sets,
        set_size=C,
        params=fam.params,
        measured_lambda=fam.measured_lambda,
        strings=rows,
        passed=passed,
    )


def swap_climb(
    by_pos: np.ndarray,
    thresholds: np.ndarray | int,
    start: np.ndarray,
    below: bool,
    seed: int,
    rounds: int,
) -> tuple[int, np.ndarray]:
    """Hill-climb one<->zero swaps at fixed popcount to maximize the number of
    rows whose count of ones is below (or at or above) its threshold.

    by_pos is a positions x rows count matrix (how often each position feeds
    each row); thresholds is one count per row, or one for all rows. Each
    round tries up to SWAP_CANDIDATES seeded (one, zero) pairs and keeps the
    first swap that raises the score; a round without one ends the climb.
    Returns (best score, string).
    """
    rng = rng_from(seed)
    vec = start.copy()
    counts = vec @ by_pos

    def score(c: np.ndarray) -> int:
        return int(((c < thresholds) if below else (c >= thresholds)).sum())

    best = score(counts)
    for _ in range(rounds):
        ones_pos = np.flatnonzero(vec == 1)
        zero_pos = np.flatnonzero(vec == 0)
        if not ones_pos.size or not zero_pos.size:
            break
        for _ in range(SWAP_CANDIDATES):
            p = int(ones_pos[rng.integers(ones_pos.size)])
            q = int(zero_pos[rng.integers(zero_pos.size)])
            trial = counts - by_pos[p] + by_pos[q]
            s = score(trial)
            if s > best:
                vec[p], vec[q] = 0, 1
                counts, best = trial, s
                break
        else:
            break
    return best, vec


def adversarial_corpus(
    fam: SamplerFamily, seed: int
) -> list[tuple[str, tuple[int, ...]]]:
    """Documented stress corpus: constants, alternating, random and clustered
    strings at several means, plus local-search worst cases for both
    properties."""
    N = fam.ground_size
    gamma = fam.params.gamma
    rng = rng_from(derive_seed(seed, N))
    corpus: list[tuple[str, tuple[int, ...]]] = [
        ("all-ones", tuple([1] * N)),
        ("all-zeros", tuple([0] * N)),
        ("alternating", tuple((i + 1) % 2 for i in range(N))),
    ]

    def at_popcount(k: int) -> np.ndarray:
        vec = np.zeros(N, dtype=np.int64)
        vec[rng.permutation(N)[:k]] = 1
        return vec

    eta_cut = (1 - gamma) / 2
    for frac_label, mean in (("half", Fraction(1, 2)), ("seven-tenths", Fraction(7, 10))):
        k = int(mean * N)
        corpus.append((f"random-{frac_label}", tuple(at_popcount(k).tolist())))
    for scale_label, scale in (("tight", Fraction(9, 10)), ("mid", Fraction(1, 2)), ("small", Fraction(1, 5))):
        eta = eta_cut * scale
        z = int(eta * N)
        vec = np.ones(N, dtype=np.int64)
        vec[:z] = 0
        corpus.append((f"clustered-zeros-{scale_label}", tuple(vec.tolist())))
        vec2 = np.ones(N, dtype=np.int64)
        vec2[rng.permutation(N)[:z]] = 0
        corpus.append((f"random-zeros-{scale_label}", tuple(vec2.tolist())))
    # worst-case search for property 1 around the deviation boundary
    C = fam.set_size
    if C:
        by_pos = np.ascontiguousarray(fam.incidence().T, dtype=np.int64)
        half = at_popcount(N // 2)
        dev_thr = threshold_count(Fraction(1, 2) + fam.params.epsilon, C)
        _, found = swap_climb(
            by_pos, dev_thr, half, below=False, seed=derive_seed(seed, 1), rounds=300
        )
        corpus.append(("search-deviation", tuple(found.tolist())))
        z = max(1, int(eta_cut * Fraction(4, 5) * N))
        start = np.ones(N, dtype=np.int64)
        start[rng.permutation(N)[:z]] = 0
        low_thr = threshold_count(gamma, C)
        _, found2 = swap_climb(
            by_pos, low_thr, start, below=True, seed=derive_seed(seed, 2), rounds=300
        )
        corpus.append(("search-low-sample", tuple(found2.tolist())))
    return corpus
