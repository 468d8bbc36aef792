"""Wrapping a base CSP into a perfectly complete proof system.

The new proof is the assignment followed by one claimed bit per circuit gate
(layer 0 is the m clause evaluations). The verifier draws j uniformly from
[m] and checks, for the duplicated gate j mod w_i of every layer, that the
claimed bit matches its recomputation from the claimed previous layer, that
the clause evaluation matches the claimed layer-0 bit, and that the claimed
top bit along this path is 1. Acceptance probabilities are exact rationals
obtained by running all m checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

import numpy as np

from .circuit import GoodnessCertificate, RobustCircuit, circuit_digest, evaluate, fire
from .csp import (
    DEFAULT_TABLE_CAP,
    Clause,
    CspInstance,
    clause_values,
    evaluate_clause,
    table_from_bits,
)
from .errors import (
    GapforgeError,
    MissingCertificateError,
    ResourceCapError,
    ShapeMismatchError,
)
from .oracle import clause_sat_matrix
from .util import derive_seed, rng_from

DEFAULT_ADVERSARY_CAP = 24
# entries in the exhaustive adversary's largest temporary (4 MB of float32);
# transform() builds its int64 position blocks at half as many entries
_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class ProofString:
    """Assignment bits plus claimed layer strings l_0..l_d."""

    x: tuple
    layers: tuple

    def to_int(self) -> int:
        bits = [*self.x, *(b for l in self.layers for b in l)]
        return sum(b << i for i, b in enumerate(bits))


@dataclass(frozen=True)
class Accounting:
    proof_length: int
    randomness_strings: int
    randomness_bits: int | None
    per_check_queries: tuple
    query_bound: int

    def to_doc(self) -> dict:
        return {
            "proof_length": self.proof_length,
            "randomness_strings": self.randomness_strings,
            "randomness_bits": self.randomness_bits,
            "max_queries": max(self.per_check_queries),
            "min_queries": min(self.per_check_queries),
            "query_bound": self.query_bound,
        }


@dataclass(frozen=True)
class VerifierCheck:
    gate_refs: tuple  # (layer, gate index) for layers 1..d
    transcript: tuple  # sorted distinct proof positions read


@dataclass
class TransformedSystem:
    """Immutable bundle of base instance, circuit, and the check family."""

    base: CspInstance
    circuit: RobustCircuit
    certificate: GoodnessCertificate | None
    certificate_waived: bool
    accounting: Accounting

    def __post_init__(self):
        # the proof layout: widths of layers 0..d, and the position of each
        # layer's first bit followed by the proof length
        self._widths = (self.circuit.m, *self.circuit.widths())
        self._offsets = tuple(accumulate(self._widths, initial=self.base.num_vars))

    @property
    def num_checks(self) -> int:
        return self.base.num_clauses

    def layer_widths(self) -> list[int]:
        return list(self._widths)

    def layer_offset(self, i: int) -> int:
        return self._offsets[i]

    @property
    def proof_length(self) -> int:
        return self._offsets[-1]

    def positions(self, j: np.ndarray) -> np.ndarray:
        """Row r lists the proof positions check j[r] reads, sorted with
        repeats kept: the clause's scope padded to the base's width with its
        claimed layer-0 bit, the claimed bit of every layer on its path, and
        each path gate's inputs."""
        widths, offsets, layers = self._widths, self._offsets, self.circuit.layers
        j = np.asarray(j, dtype=np.int64)
        col = self.base.width + 1
        pos = np.empty((j.size, col + sum(1 + idx.shape[1] for idx in layers)), np.int64)
        pos[:, :col] = (offsets[0] + j)[:, None]
        for r, jr in enumerate(j.tolist()):
            scope = self.base.clauses[jr].scope
            pos[r, : len(scope)] = scope
        for i, idx in enumerate(layers, start=1):
            g = j % widths[i]
            pos[:, col] = offsets[i] + g
            np.add(idx[g], offsets[i - 1], out=pos[:, col + 1 : col + 1 + idx.shape[1]])
            col += 1 + idx.shape[1]
        pos.sort(axis=1)
        return pos

    def check(self, j: int) -> VerifierCheck:
        refs = tuple((i, j % w) for i, w in enumerate(self._widths[1:], start=1))
        pos = self.positions(np.array([j]))[0]
        transcript = tuple(pos[np.r_[True, pos[1:] != pos[:-1]]].tolist())
        return VerifierCheck(gate_refs=refs, transcript=transcript)


def transform(
    base: CspInstance,
    circuit: RobustCircuit,
    certificate: GoodnessCertificate | None = None,
    waive_certificate: bool = False,
) -> TransformedSystem:
    """Build the check family and its accounting.

    Requires a passing goodness certificate for this exact circuit unless the
    caller explicitly waives it: one issued at the circuit scheme's bounds,
    with one verdict per layer, every one passing. Asserts the query bound
    on every check; the checks' positions are built in blocks of at most
    _BLOCK_ENTRIES / 2.
    """
    if circuit.m != base.num_clauses:
        raise ShapeMismatchError(
            f"circuit has m={circuit.m} but instance has {base.num_clauses} clauses"
        )
    if certificate is None:
        if not waive_certificate:
            raise MissingCertificateError(
                "no goodness certificate attached; pass waive_certificate=True to override"
            )
    else:
        if certificate.circuit_digest != circuit_digest(circuit):
            raise MissingCertificateError("certificate was issued for a different circuit")
        if not certificate.passed:
            raise MissingCertificateError("certificate verdict is fail")
        s = circuit.scheme
        if (certificate.mean_in, certificate.mean_out) != (s.mean_in, s.mean_out):
            raise MissingCertificateError("certificate bounds are not the circuit scheme's")
        verdicts = [v.passed for v in certificate.layers]
        if len(verdicts) != circuit.depth or not all(verdicts):
            raise MissingCertificateError("certificate layers contradict its passing verdict")
    ts = TransformedSystem(
        base=base,
        circuit=circuit,
        certificate=certificate,
        certificate_waived=certificate is None,
        accounting=Accounting(0, 0, None, (), 0),
    )
    m = base.num_clauses
    bound_extra = sum(idx.shape[1] for idx in circuit.layers) + circuit.depth + 1
    rows = max(1, _BLOCK_ENTRIES // (2 * (base.width + bound_extra)))
    queries = np.empty(m, dtype=np.int64)
    for lo in range(0, m, rows):
        pos = ts.positions(np.arange(lo, min(lo + rows, m)))
        queries[lo : lo + rows] = 1 + (pos[:, 1:] != pos[:, :-1]).sum(axis=1)
        del pos  # one block alive at a time
    over = queries > np.array([c.arity for c in base.clauses]) + bound_extra
    if over.any():
        j = int(over.argmax())
        raise GapforgeError(f"check {j} reads {queries[j]} positions, over the bound")
    r = m.bit_length() - 1 if m & (m - 1) == 0 else None
    ts.accounting = Accounting(
        proof_length=ts.proof_length,
        randomness_strings=m,
        randomness_bits=r,
        per_check_queries=tuple(queries.tolist()),
        query_bound=base.width + bound_extra,
    )
    return ts


def honest_proof(ts: TransformedSystem, assignment: Sequence[int]) -> ProofString:
    """Clause evaluations at layer 0, true gate outputs above."""
    if len(assignment) != ts.base.num_vars:
        raise ShapeMismatchError("assignment length does not match the instance")
    l0 = tuple(evaluate_clause(c, assignment) for c in ts.base.clauses)
    layers = (l0, *evaluate(ts.circuit, l0))
    return ProofString(x=tuple(int(b) for b in assignment), layers=layers)


def _validate_shape(ts: TransformedSystem, proof: ProofString):
    if len(proof.x) != ts.base.num_vars:
        raise ShapeMismatchError("proof assignment part has the wrong length")
    widths = ts.layer_widths()
    if len(proof.layers) != len(widths) or any(
        len(l) != w for l, w in zip(proof.layers, widths)
    ):
        raise ShapeMismatchError("proof layer strings do not match circuit widths")


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    transcript: tuple
    failed_conjunct: str | None


def _path_ok(ts: TransformedSystem, layer: list) -> np.ndarray:
    """(d + 1, rows, m) outcomes of every check's gate conjuncts at layers
    1..d, then its top-bit conjunct, for rows of claimed layer strings:
    layer[i] is a (rows x w_i) uint8 array. One fire per layer serves all
    m checks."""
    widths = ts.layer_widths()
    j = np.arange(ts.base.num_clauses)
    ok = np.empty((len(widths), layer[0].shape[0], j.size), dtype=bool)
    for i in range(1, len(widths)):
        g = j % widths[i]
        fired = fire(ts.circuit.layers[i - 1], ts.circuit.fire_count(i), layer[i - 1])
        ok[i - 1] = fired[:, g] == layer[i][:, g]
    ok[-1] = layer[-1][:, j % widths[-1]] == 1
    return ok


def _conjuncts(ts: TransformedSystem, proof: ProofString) -> np.ndarray:
    """(d + 2, m) outcomes of every check's conjuncts on one proof, in the
    order run_check reports them: the clause against its claimed layer-0
    bit, the path gate of layers 1..d, the top bit."""
    _validate_shape(ts, proof)
    clause = np.array([evaluate_clause(c, proof.x) for c in ts.base.clauses])
    layer = [np.asarray(l, dtype=np.uint8)[None, :] for l in proof.layers]
    return np.vstack((clause == layer[0][0], _path_ok(ts, layer)[:, 0]))


def run_check(ts: TransformedSystem, j: int, proof: ProofString) -> CheckResult:
    """Run verifier check j against a proof and name its first failing
    conjunct; the transcript lists every proof position the check reads
    regardless of where it fails."""
    ok = _conjuncts(ts, proof)[:, j]
    gates = [f"gate-layer{i}" for i in range(1, ts.circuit.depth + 1)]
    failed = None if ok.all() else ["clause-vs-layer0", *gates, "top-bit"][int(ok.argmin())]
    return CheckResult(failed is None, ts.check(j).transcript, failed)


def acceptance_probability(ts: TransformedSystem, proof: ProofString) -> Fraction:
    """Exact fraction of accepting checks under uniform j."""
    accepted = _conjuncts(ts, proof).all(axis=0)
    return Fraction(int(accepted.sum()), ts.base.num_clauses)


@dataclass(frozen=True)
class AdversaryReport:
    value: Fraction
    witness: ProofString
    proofs_enumerated: int


def proof_from_int(ts: TransformedSystem, value: int) -> ProofString:
    bits = [(value >> i) & 1 for i in range(ts.proof_length)]
    ends = ts._offsets
    layers = tuple(tuple(bits[a:b]) for a, b in zip(ends, ends[1:]))
    return ProofString(x=tuple(bits[: ends[0]]), layers=layers)


def exhaustive_adversary(
    ts: TransformedSystem, cap: int = DEFAULT_ADVERSARY_CAP
) -> AdversaryReport:
    """Exact max acceptance over all 2^bits proofs, with the lowest-valued
    maximizing proof as witness. Kept independent of export_checks_csp, whose
    brute-force optimum is the same value: each is the other's cross-check.

    A proof is the assignment x (its low n bits) and the gate bits L above
    it, so its integer is (L << n) | x. Check j accepts iff a_j(L) and
    c_j(x) = L0_j, where a_j(L) holds when every gate check and the top bit
    along j pass. Hence accept(x, L) = sum_j a_j (1 - L0_j) +
    sum_j a_j (2 L0_j - 1) c_j(x): for a block of gate-bit settings, one
    float32 product of the (block x m) coefficients by the (m x 2^n) clause
    matrix, built once. Every sum is an integer of magnitude at most m, so
    float32 is exact. Rows (L) ascend and columns (x) ascend within a row,
    and a later maximum replaces an earlier one only when strictly larger,
    which keeps the lowest maximizing proof integer. Besides the clause
    matrix, no array exceeds about _BLOCK_ENTRIES entries, or one row of
    2^n scores when that alone is larger.

    Timed at m=8 on the deterministic circuit (15 gate bits) with a NO
    base, in a loop of its own on a 2-core Intel Xeon machine (Python 3.11,
    numpy 2.4, two OpenBLAS threads): about 0.03 s at 24 proof bits (n=9),
    0.07 s at 26 and 0.2 s at 28. Inside a longer run each product has
    been seen to cost several ms more: 0.04 s at 24 bits in one traced
    cli_commands run, 0.13 s in an earlier one.
    """
    bits = ts.proof_length
    if bits > cap:
        raise ResourceCapError(f"{bits} proof bits exceeds adversary cap {cap}")
    m = ts.base.num_clauses
    n = ts.base.num_vars
    widths = ts.layer_widths()
    gate_bits = bits - n
    # layer i's bits sit at [starts[i], starts[i] + widths[i]) of L
    starts = np.concatenate(([0], np.cumsum(widths)))
    per_row = max(1 << n, gate_bits, *(idx.size for idx in ts.circuit.layers))
    rows = min(1 << gate_bits, max(1, _BLOCK_ENTRIES // per_row))
    clause_sat = clause_sat_matrix(ts.base, np.arange(1 << n, dtype=np.uint64))
    clause_sat = clause_sat.astype(np.float32)  # m x 2^n
    shifts = np.arange(gate_bits, dtype=np.uint64)
    best_count, best_proof = -1, 0
    for lo in range(0, 1 << gate_bits, rows):
        settings = np.arange(lo, min(lo + rows, 1 << gate_bits), dtype=np.uint64)
        lbits = ((settings[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
        layer = [lbits[:, starts[i] : starts[i + 1]] for i in range(len(widths))]
        ok = _path_ok(ts, layer).all(axis=0)
        l0 = layer[0] == 1
        coef = (ok * np.where(l0, 1, -1)).astype(np.float32)
        scores = coef @ clause_sat
        x = scores.argmax(axis=1)
        counts = scores[np.arange(settings.size), x].astype(np.int64)
        counts += (ok & ~l0).sum(axis=1)
        r = int(counts.argmax())
        if int(counts[r]) > best_count:
            best_count = int(counts[r])
            best_proof = ((lo + r) << n) | int(x[r])
    return AdversaryReport(
        value=Fraction(best_count, m),
        witness=proof_from_int(ts, best_proof),
        proofs_enumerated=1 << bits,
    )


def greedy_adversary(
    ts: TransformedSystem, restarts: int = 8, seed: int = 0
) -> tuple[Fraction, ProofString]:
    """Seeded hill climb over proof bits; a lower bound on the exhaustive max."""
    bits = ts.proof_length
    n = ts.base.num_vars
    all_layers_ones = ((1 << (bits - n)) - 1) << n
    best_val = Fraction(-1)
    best_proof = proof_from_int(ts, 0)
    for r in range(restarts):
        rng = rng_from(derive_seed(seed, r))
        if r == 0:
            value = all_layers_ones  # claimed-all-ones region, zero assignment
        elif r == 1:
            value = all_layers_ones | ((1 << n) - 1)
        else:
            value = int.from_bytes(rng.bytes((bits + 7) // 8), "little") & ((1 << bits) - 1)
        proof = proof_from_int(ts, value)
        current = acceptance_probability(ts, proof)
        for _ in range(64):  # sweeps until a local optimum
            improved = False
            for b in range(bits):
                cand = proof_from_int(ts, value ^ (1 << b))
                v = acceptance_probability(ts, cand)
                if v > current:
                    value ^= 1 << b
                    proof, current = cand, v
                    improved = True
            if not improved:
                break
        if current > best_val:
            best_val, best_proof = current, proof
    return best_val, best_proof


def export_checks_csp(ts: TransformedSystem) -> CspInstance:
    """The check family as a native truth-table CSP over the proof bits, so a
    transformed system can round-trip through the instance tooling. Its
    brute-force optimum is exhaustive_adversary's value: each is the other's
    independent cross-check."""
    clauses = []
    for j in range(ts.num_checks):
        chk = ts.check(j)
        w = len(chk.transcript)
        if (1 << w) > DEFAULT_TABLE_CAP:
            raise ResourceCapError(
                f"check {j} reads {w} positions; table would exceed cap {DEFAULT_TABLE_CAP}"
            )
        patterns = np.arange(1 << w, dtype=np.int64)
        # pattern bit for transcript column i sits at weight w-1-i (scope order)
        shift = {p: w - 1 - i for i, p in enumerate(chk.transcript)}

        def bit_of(position: int) -> np.ndarray:
            return (patterns >> shift[position]) & 1

        clause_val = clause_values(ts.base.clauses[j], patterns, shift)
        l0_pos = ts.layer_offset(0) + j
        ok = clause_val == bit_of(l0_pos)
        for i, g in chk.gate_refs:
            off_prev = ts.layer_offset(i - 1)
            ones = np.zeros(patterns.size, dtype=np.int64)
            for p in ts.circuit.layers[i - 1][g].tolist():
                ones += bit_of(off_prev + p)
            recomputed = ones >= ts.circuit.fire_count(i)
            claimed = bit_of(ts.layer_offset(i) + g) == 1
            ok &= recomputed == claimed
        top_pos = ts.layer_offset(ts.circuit.depth) + (j % ts.layer_widths()[-1])
        ok &= bit_of(top_pos) == 1
        clauses.append(Clause(scope=chk.transcript, table=table_from_bits(ok)))
    return CspInstance(num_vars=ts.proof_length, clauses=tuple(clauses))

