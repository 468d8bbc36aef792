"""Layered threshold circuits that boost near-satisfying inputs to all-ones
while damping far-from-satisfying ones.

Two wirings are built here. The deterministic variant halves the width per
layer down to a single gate and wires each gate to the neighbor set of a
verified expander on the previous layer. The randomized variant has
ceil(log2 log2 m) layers and wires every gate to a uniform multiset of f
positions (sampled with replacement).

Desk-scale degrees: the asymptotic constant-size neighbor sets behind the
construction exceed every width this tool can enumerate, so the default
deterministic policy picks, per layer, the smallest degree for which the
damping and growth properties hold for *every* input string (adversarial
damping: no gate can fire on a <= mean_in input; growth: no gate can die on a
>= completeness input). Those degrees are a constant fraction of the layer
width; certification remains the arbiter and records what was built.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import GapforgeError, InfeasibleParametersError, ParseError
from .sampler import (
    TARGET_LAMBDA,
    build_expander,
    second_eigenvalue,
    swap_climb,
    trace_lambda_sq_bound,
)
from .util import (
    Report,
    derive_seed,
    floor_frac,
    frac_str,
    parse_frac,
    report_from_doc,
    rng_from,
    sorted_rows,
    threshold_count,
)

LayerString = tuple  # 0/1 bits, one per gate of a layer

DEGENERATE_CUTOFF = 8  # widths at or below this get full fan-in layers
EXHAUSTIVE_CAP = 18
CERT_TRIALS = 64  # certify_goodness's seeded strings per statistical layer
FAN_IN_CAP = 64  # largest fan-in auto_fan_in tries
PROBE_SEEDS = 48  # wirings auto_fan_in draws to estimate the seed-failure rate
CERTIFICATE_SCHEMA = "gapforge-certificate/1"


@dataclass(frozen=True)
class ThresholdScheme:
    """Gate threshold and layer-mean bounds derived from a (c, s) gap.

    With agreement slack a = (c - s)/3: honest inputs keep mean >= c, damping
    applies below mean_in = s + a down to mean_out = s, the gate threshold
    sits midway between c and mean_in, and the transformed soundness is
    1 - a. At the default gap (9/10, 6/10) this reproduces the fixed
    constants theta = 4/5, mean_in = 7/10, mean_out = 6/10, soundness 9/10.
    """

    completeness: Fraction = Fraction(9, 10)
    soundness: Fraction = Fraction(6, 10)

    def __post_init__(self):
        if not (0 < self.soundness < self.completeness <= 1):
            raise ValueError("need 0 < s < c <= 1")

    @property
    def slack(self) -> Fraction:
        return (self.completeness - self.soundness) / 3

    @property
    def mean_in(self) -> Fraction:
        return self.soundness + self.slack

    @property
    def mean_out(self) -> Fraction:
        return self.soundness

    @cached_property
    def theta(self) -> Fraction:
        """(2c + s)/3, in (0, 1) because 0 < s < c <= 1; computed once, as
        every gate of every fired layer reads it."""
        return (self.completeness + self.mean_in) / 2

    @property
    def new_soundness(self) -> Fraction:
        return 1 - self.slack


DEFAULT_SCHEME = ThresholdScheme()


@dataclass
class RobustCircuit:
    """Immutable after construction; treat all fields as read-only.

    layers[i - 1] wires layer i: a read-only (gates, fan_in) int64 array whose
    row g holds gate g's sorted input positions in layer i - 1, multiset
    repeats kept. Every gate fires when the mean of its inputs is at least
    the scheme's theta; nothing else sets a threshold. Construction raises
    GapforgeError unless m >= 1, there is at least one layer, layer i has
    width_at(m, i) gates, and every input lies in [0, width_in(i)).

    lambda_bounds has one entry per layer for a build_deterministic circuit
    and is empty otherwise. For a sampler layer it is an upper bound on the
    expander's normalized second eigenvalue, at most the target: the trace
    bound sqrt(N/D - 1) when that clears the target, otherwise the value
    solved to 1e-8 by power iteration. It is None for a full fan-in layer.
    """

    m: int
    variant: str  # "deterministic" | "randomized"
    layers: tuple[np.ndarray, ...]
    scheme: ThresholdScheme
    lambda_bounds: tuple[float | None, ...] = ()

    def __post_init__(self):
        if self.m < 1 or not self.layers:
            raise GapforgeError("a circuit needs at least one input and one layer")
        self.layers = tuple(
            sorted_rows(rows, "gates in one layer differ in fan-in")
            for rows in self.layers
        )
        if any(idx.ndim != 2 or idx.shape[1] == 0 for idx in self.layers):
            raise GapforgeError("a layer needs gates with at least one input")
        for layer, idx in enumerate(self.layers, start=1):
            w, w_in = width_at(self.m, layer), self.width_in(layer)
            if idx.shape[0] != w:
                raise GapforgeError(
                    f"layer {layer} has {idx.shape[0]} gates, not {w}"
                )
            # rows are sorted: their first and last columns bound every input
            if idx[:, 0].min() < 0 or idx[:, -1].max() >= w_in:
                raise GapforgeError(
                    f"layer {layer}: gate input outside previous layer of width {w_in}"
                )

    def __eq__(self, other):
        if not isinstance(other, RobustCircuit):
            return NotImplemented
        return (
            self.m == other.m
            and self.variant == other.variant
            and self.scheme == other.scheme
            and len(self.layers) == len(other.layers)
            and all(np.array_equal(a, b) for a, b in zip(self.layers, other.layers))
        )

    @property
    def theta(self) -> Fraction:
        return self.scheme.theta

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def fan_in(self) -> int | None:
        """The one gate width of a randomized circuit; None for a
        deterministic circuit, or for layers that differ in fan-in."""
        sizes = {idx.shape[1] for idx in self.layers}
        return sizes.pop() if self.variant == "randomized" and len(sizes) == 1 else None

    def widths(self) -> list[int]:
        """Gate counts of layers 1..depth (layer 0 is the m inputs)."""
        return [width_at(self.m, i) for i in range(1, self.depth + 1)]

    def width_in(self, layer: int) -> int:
        """Input width feeding layer (1-based)."""
        return width_at(self.m, layer - 1)

    def total_gates(self) -> int:
        return sum(self.widths())

    def fire_count(self, layer: int) -> int:
        """Ones a gate of this layer (1-based) needs to fire."""
        return threshold_count(self.theta, self.layers[layer - 1].shape[1])

    @cached_property
    def rcirc_text(self) -> str:
        """serialize_circuit(self), computed once: the fields never change
        after construction, so neither does the text."""
        return serialize_circuit(self)


def width_at(m: int, i: int) -> int:
    return max(1, -(-m // (1 << i)))


def deterministic_depth(m: int) -> int:
    d = 0
    while width_at(m, d) > 1:
        d += 1
    return d


def randomized_depth(m: int) -> int:
    return max(1, math.ceil(round(math.log2(math.log2(m)), 12)))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def worst_case_degree(width: int, scheme: ThresholdScheme) -> int:
    """Smallest valid degree whose threshold gates can neither fire on any
    <= mean_in input nor die on any >= completeness input of this width."""
    max_ones = floor_frac(scheme.mean_in * width)
    zero_budget = floor_frac((1 - scheme.completeness) * width)
    num, den = scheme.theta.numerator, scheme.theta.denominator
    for D in range(3, width):
        if (width * D) % 2:
            continue
        fire = -(-num * D // den)  # threshold_count(theta, D) in integers
        if min(D, max_ones) < fire and D - fire >= zero_budget:
            return D
    raise InfeasibleParametersError(
        f"no worst-case-safe degree exists at width {width}"
    )


def build_deterministic(
    m: int,
    seed: int = 0,
    scheme: ThresholdScheme = DEFAULT_SCHEME,
) -> RobustCircuit:
    """Sampler-wired circuit with halving widths down to one top gate.

    Layer i+1's gate j reads the neighbor set of vertex j in an expander on
    the w_i previous-layer positions; widths at or below the degenerate
    cutoff fall back to full fan-in, where the scheme bounds hold outright.

    A sampler layer must have lambda <= TARGET_LAMBDA. The trace bound
    lambda^2 <= N/D - 1 decides that exactly in rationals; the degrees
    worst_case_degree picks keep it far below the target, so no eigenvalue
    is solved. Only when the bound exceeds the target is lambda solved to
    1e-8 by power iteration, and the layer is rejected if that value exceeds
    the target too. The circuit records that lambda bound per layer.
    """
    if m < 2:
        raise InfeasibleParametersError("need at least 2 inputs")
    depth = deterministic_depth(m)
    layers = []
    lambdas = []
    for i in range(1, depth + 1):
        w_in, w_out = width_at(m, i - 1), width_at(m, i)
        if w_in <= DEGENERATE_CUTOFF:
            layers.append(np.tile(np.arange(w_in), (w_out, 1)))
            lambdas.append(None)
        else:
            D = worst_case_degree(w_in, scheme)
            graph = build_expander(w_in, D, derive_seed(seed, i))
            lam_sq = trace_lambda_sq_bound(graph)
            if lam_sq <= Fraction(TARGET_LAMBDA) ** 2:
                lam = math.sqrt(lam_sq)
            else:
                lam = second_eigenvalue(graph, tol=1e-8)
                if lam > TARGET_LAMBDA:
                    raise InfeasibleParametersError(
                        f"layer {i}: lambda {lam:.4f} above target "
                        f"{TARGET_LAMBDA} at width {w_in}"
                    )
            layers.append(graph.adjacency[:w_out])
            lambdas.append(lam)
    return RobustCircuit(
        m=m,
        variant="deterministic",
        layers=tuple(layers),
        scheme=scheme,
        lambda_bounds=tuple(lambdas),
    )


def build_randomized(
    m: int,
    f: int,
    seed: int,
    scheme: ThresholdScheme = DEFAULT_SCHEME,
) -> RobustCircuit:
    """ceil(log2 log2 m) layers; every gate reads f positions drawn uniformly
    with replacement from the previous layer. Deterministic given the seed."""
    if m < 4:
        raise InfeasibleParametersError("need at least 4 inputs")
    if f < 1:
        raise InfeasibleParametersError("fan-in must be positive")
    depth = randomized_depth(m)
    layers = []
    for i in range(1, depth + 1):
        w_in, w_out = width_at(m, i - 1), width_at(m, i)
        rng = rng_from(derive_seed(seed, i))
        layers.append(rng.integers(0, w_in, size=(w_out, f)))
    return RobustCircuit(
        m=m, variant="randomized", layers=tuple(layers), scheme=scheme
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def fire(c: RobustCircuit, layer: int, below: np.ndarray) -> np.ndarray:
    """(rows x gates) uint8 outputs of a layer (1-based) on the rows of the
    layer below, a (rows x width_in(layer)) 0/1 array; evaluate, the
    completeness probe and the verifier all fire gates here."""
    ones = below.take(c.layers[layer - 1], axis=1).sum(axis=2)
    return (ones >= c.fire_count(layer)).astype(np.uint8)


def evaluate(c: RobustCircuit, input_bits: Sequence[int]) -> list[LayerString]:
    """Honest evaluation: all layer strings produced from the input bits."""
    if len(input_bits) != c.m:
        raise GapforgeError(
            f"input has {len(input_bits)} bits, circuit expects {c.m}"
        )
    current = np.asarray(input_bits, dtype=np.uint8)[None, :]
    out: list[LayerString] = []
    for layer in range(1, c.depth + 1):
        current = fire(c, layer, current)
        out.append(tuple(current[0].tolist()))
    return out


# ---------------------------------------------------------------------------
# goodness certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerVerdict(Report):
    layer: int
    width_in: int
    width_out: int
    mode: str  # "exhaustive" | "statistical"
    passed: bool
    strings_checked: int
    worst_output_count: int
    worst_output_mean: Fraction
    witness: str | None


@dataclass(frozen=True)
class GoodnessCertificate(Report):
    """Per-layer evidence that every <= mean_in input maps to a <= mean_out
    output: exhaustive where the input width permits, otherwise seeded
    adversarial strings plus greedy worst-case search."""

    circuit_digest: str
    mean_in: Fraction
    mean_out: Fraction
    exhaustive_cap: int
    trials: int
    seed: int
    layers: tuple[LayerVerdict, ...]
    passed: bool

    def to_doc(self) -> dict:
        return {"schema": CERTIFICATE_SCHEMA, **super().to_doc()}

    @staticmethod
    def from_doc(doc) -> "GoodnessCertificate":
        if isinstance(doc, dict) and doc.get("schema") != CERTIFICATE_SCHEMA:
            raise ParseError(
                f"GoodnessCertificate: schema {doc.get('schema')!r} is not "
                f"{CERTIFICATE_SCHEMA!r}"
            )
        return report_from_doc(GoodnessCertificate, doc, layers=LayerVerdict)


def circuit_digest(c: RobustCircuit) -> str:
    """sha256 of the circuit's .rcirc text, serialized once per circuit."""
    return hashlib.sha256(c.rcirc_text.encode()).hexdigest()


def _gate_multiplicity(idx: np.ndarray, w_in: int) -> np.ndarray:
    """(w_in x gates) count of each position among each gate's inputs."""
    gates = idx.shape[0]
    keys = (idx * gates + np.arange(gates)[:, None]).ravel()
    mult = np.bincount(keys, minlength=w_in * gates).reshape(w_in, gates)
    return mult.astype(np.int16)


def _worst_exhaustive(
    idx: np.ndarray, thr: int, w_in: int, in_cap: int
) -> tuple[int, int, int]:
    """(worst fired count, witness int, strings checked) over all strings with
    popcount <= in_cap; independent of the oracle's sweep, and scored by one
    multiplicity product per block, not fire's (strings x gates x fan_in)."""
    mult = _gate_multiplicity(idx, w_in)
    worst, witness, checked = -1, 0, 0
    chunk = 1 << 18
    for lo in range(0, 1 << w_in, chunk):
        hi = min(lo + chunk, 1 << w_in)
        block = np.arange(lo, hi, dtype=np.uint64)
        bits = ((block[:, None] >> np.arange(w_in, dtype=np.uint64)) & 1).astype(
            np.int16
        )
        mask = bits.sum(axis=1) <= in_cap
        if not mask.any():
            continue
        bits = bits[mask]
        sel = block[mask]
        checked += bits.shape[0]
        fired = (bits @ mult >= thr).sum(axis=1)
        j = int(np.argmax(fired))
        if int(fired[j]) > worst:
            worst, witness = int(fired[j]), int(sel[j])
    return worst, witness, checked


def _worst_statistical(
    idx: np.ndarray,
    thr: int,
    w_in: int,
    in_cap: int,
    trials: int,
    seed: int,
) -> tuple[int, int, int]:
    """(worst fired count, witness int, strings tested): seeded random strings
    at the extreme admissible popcount, clustered blocks, and greedy search.

    All strings are scored by one float32 product of the (strings x w_in)
    matrix and the multiplicity matrix, exact because no count exceeds the
    fan-in; the first string with the most fired gates seeds the climb. It
    scores with the multiplicity matrix swap_climb needs anyway, not fire."""
    mult = _gate_multiplicity(idx, w_in)
    rng = rng_from(seed)
    n_random = max(1, trials - 4)
    strings = np.zeros((n_random + 3, w_in), dtype=np.int16)
    for r in range(n_random):
        strings[r, rng.permutation(w_in)[:in_cap]] = 1
    for r, block_start in enumerate(
        (0, w_in - in_cap, (w_in - in_cap) // 2), start=n_random
    ):
        strings[r, block_start : block_start + in_cap] = 1
    product = strings.astype(np.float32) @ mult.astype(np.float32)
    fired = (product >= thr).sum(axis=1)
    first = int(fired.argmax())
    worst, witness_vec = int(fired[first]), strings[first]
    g_best, g_vec = swap_climb(
        mult, thr, witness_vec, below=False, seed=derive_seed(seed, 0xA77), rounds=400
    )
    if g_best > worst:
        worst, witness_vec = g_best, g_vec
    witness = sum(int(b) << i for i, b in enumerate(witness_vec))
    return worst, witness, strings.shape[0] + 1


def certify_goodness(
    c: RobustCircuit,
    exhaustive_cap: int = EXHAUSTIVE_CAP,
    trials: int = CERT_TRIALS,
    seed: int = 0,
) -> GoodnessCertificate:
    """Layer-by-layer damping certificate at the circuit scheme's mean_in and
    mean_out. Failures are verdicts, not errors; fewer than one trial raises
    GapforgeError."""
    if trials < 1:
        raise GapforgeError(f"trials must be at least 1, got {trials}")
    mi, mo = c.scheme.mean_in, c.scheme.mean_out
    verdicts = []
    for layer in range(1, c.depth + 1):
        idx, thr = c.layers[layer - 1], c.fire_count(layer)
        gates = idx.shape[0]
        w_in = c.width_in(layer)
        in_cap = floor_frac(mi * w_in)
        out_cap = floor_frac(mo * gates)
        if w_in <= exhaustive_cap:
            worst, witness, checked = _worst_exhaustive(idx, thr, w_in, in_cap)
            mode = "exhaustive"
        else:
            worst, witness, checked = _worst_statistical(
                idx, thr, w_in, in_cap, trials, derive_seed(seed, layer)
            )
            mode = "statistical"
        passed = worst <= out_cap
        verdicts.append(
            LayerVerdict(
                layer=layer,
                width_in=w_in,
                width_out=gates,
                mode=mode,
                passed=passed,
                strings_checked=checked,
                worst_output_count=worst,
                worst_output_mean=Fraction(worst, gates),
                witness=None if passed else format(witness, "x"),
            )
        )
    return GoodnessCertificate(
        circuit_digest=circuit_digest(c),
        mean_in=mi,
        mean_out=mo,
        exhaustive_cap=exhaustive_cap,
        trials=trials,
        seed=seed,
        layers=tuple(verdicts),
        passed=all(v.passed for v in verdicts),
    )


# ---------------------------------------------------------------------------
# randomized-variant tuning
# ---------------------------------------------------------------------------


def completeness_inputs(m: int, completeness: Fraction, seed: int) -> np.ndarray:
    """Worst admissible honest inputs, the rows of a (2 x m) uint8 array:
    zeros at the full budget, placed randomly, then clustered."""
    zeros = m - threshold_count(completeness, m)
    inputs = np.ones((2, m), dtype=np.uint8)
    inputs[0, rng_from(seed).permutation(m)[:zeros]] = 0
    inputs[1, :zeros] = 0
    return inputs


def seed_failure_event(
    m: int, f: int, scheme: ThresholdScheme
) -> Callable[[int], bool]:
    """Event: some full-budget honest input fails to reach an all-ones top
    layer on a freshly wired circuit; both inputs fire as one array."""

    def event(seed: int) -> bool:
        c = build_randomized(m, f, seed, scheme)
        current = completeness_inputs(m, scheme.completeness, derive_seed(seed, 1))
        for layer in range(1, c.depth + 1):
            current = fire(c, layer, current)
        return not current.all()

    return event


def auto_fan_in(
    m: int,
    master_seed: int,
    scheme: ThresholdScheme = DEFAULT_SCHEME,
    exhaustive_cap: int = EXHAUSTIVE_CAP,
    trials: int = CERT_TRIALS,
) -> tuple[RobustCircuit, GoodnessCertificate]:
    """The circuit build_randomized(m, f, master_seed, scheme) at the smallest
    fan-in f <= FAN_IN_CAP that certifies, with its passing certificate.

    A fan-in certifies when the empirical seed-failure rate of honest
    completeness over PROBE_SEEDS other wirings stays within the 1/m^(1/4)
    budget, and the damping verdicts pass on that very circuit
    (certify_goodness at exhaustive_cap, trials and master_seed). The probe
    runs first and stops as soon as its failures exceed the budget; only a
    fan-in that passes it is built and certified. Both checks are
    deterministic, so the order does not change which fan-in is returned."""
    target = 1.0 / (m ** 0.25)
    for f in range(2, FAN_IN_CAP + 1):
        event = seed_failure_event(m, f, scheme)
        probe_seed = derive_seed(master_seed, f, 2)
        failures = 0
        for i in range(PROBE_SEEDS):
            failures += event(derive_seed(probe_seed, i))
            if float(Fraction(failures, PROBE_SEEDS)) > target:
                break
        else:
            c = build_randomized(m, f, master_seed, scheme)
            cert = certify_goodness(c, exhaustive_cap, trials, seed=master_seed)
            if cert.passed:
                return c, cert
    raise InfeasibleParametersError(
        f"no fan-in <= {FAN_IN_CAP} passes certification at m={m}"
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialize_circuit(c: RobustCircuit) -> str:
    """The .rcirc text: a header, then one line of input positions per gate.

    The header is "rcirc m depth variant theta" for the default scheme, and
    "rcirc/2 m depth variant theta c s" otherwise, carrying the scheme's
    (c, s) gap. Both carry the scheme's theta.
    """
    fields = f"{c.m} {c.depth} {c.variant} {frac_str(c.theta)}"
    if c.scheme == DEFAULT_SCHEME:
        header = f"rcirc {fields}"
    else:
        s = c.scheme
        header = f"rcirc/2 {fields} {frac_str(s.completeness)} {frac_str(s.soundness)}"
    lines = [header]
    for layer, idx in enumerate(c.layers, start=1):
        # every input lies in [0, width_in), checked at construction; rows
        # are converted one at a time to keep the peak of a wide layer low
        name = [str(i) for i in range(c.width_in(layer))].__getitem__
        lines.extend(" ".join(map(name, row.tolist())) for row in idx)
    return "\n".join(lines) + "\n"


def _scan_gate_lines(lines: list[str], first: int, w: int, w_in: int) -> list:
    """Gate lines first..first + w - 1 one at a time, raising the ParseError
    of the first faulty line: a bad token, then an input out of range, then
    a fan-in that differs from the layer's first gate."""
    rows = []
    for cursor in range(first, first + w):
        try:
            inputs = [int(t) for t in lines[cursor].split()]
        except ValueError:
            raise ParseError("bad gate line", cursor + 1) from None
        if any(not (0 <= p < w_in) for p in inputs):
            raise ParseError(
                f"gate input outside previous layer of width {w_in}", cursor + 1
            )
        if rows and len(inputs) != len(rows[0]):
            raise ParseError(
                f"gate fan-in {len(inputs)} differs from its layer's "
                f"{len(rows[0])}",
                cursor + 1,
            )
        rows.append(inputs)
    return rows


def _gate_rows(lines: list[str], first: int, w: int, w_in: int) -> np.ndarray:
    """Gate lines first..first + w - 1 as one (w, fan_in) int64 array.

    np.loadtxt reads the block in bulk. It accepts no token that int()
    refuses, and reads every token it accepts to int()'s value. A token it
    refuses (some that int() reads among them, such as "1_0" or "٣"), a
    value beyond int64 or ragged rows fail the read; only then are the
    lines scanned one at a time with int(), which finds the first faulty
    line and its message."""
    try:
        rows = np.loadtxt(
            lines[first : first + w], dtype=np.int64, comments=None, ndmin=2
        )
    except (ValueError, OverflowError):
        return np.array(_scan_gate_lines(lines, first, w, w_in), dtype=np.int64)
    outside = ((rows < 0) | (rows >= w_in)).any(axis=1)
    if outside.any():
        raise ParseError(
            f"gate input outside previous layer of width {w_in}",
            first + int(outside.argmax()) + 1,
        )
    return rows


def parse_circuit(text: str) -> RobustCircuit:
    """Parse .rcirc text, v1 or rcirc/2. A v1 header means the default
    scheme; under either header, theta must be the scheme's. Line numbers
    count non-blank lines."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("rcirc"):
        raise ParseError("missing rcirc header", 1)
    toks = lines[0].split()
    v2 = toks[0] == "rcirc/2"
    if (
        toks[0] not in ("rcirc", "rcirc/2")
        or len(toks) != (7 if v2 else 5)
        or toks[3] not in ("deterministic", "randomized")
    ):
        raise ParseError("malformed rcirc header", 1)
    try:
        m, depth = int(toks[1]), int(toks[2])
        theta = parse_frac(toks[4])
        if v2:
            scheme = ThresholdScheme(parse_frac(toks[5]), parse_frac(toks[6]))
        else:
            scheme = DEFAULT_SCHEME
    except ValueError:
        raise ParseError("malformed rcirc header", 1) from None
    if m < 1 or depth < 1 or theta != scheme.theta:
        raise ParseError("malformed rcirc header", 1)
    if depth >= len(lines):  # every layer has at least one gate line
        raise ParseError(
            f"expected at least {depth} gate lines, found {len(lines) - 1}", 1
        )
    widths = [width_at(m, i) for i in range(1, depth + 1)]
    if len(lines) - 1 != sum(widths):
        raise ParseError(
            f"expected {sum(widths)} gate lines, found {len(lines) - 1}", 1
        )
    layers = []
    first = 1
    for layer_idx, w in enumerate(widths, start=1):
        layers.append(_gate_rows(lines, first, w, width_at(m, layer_idx - 1)))
        first += w
    return RobustCircuit(m=m, variant=toks[3], layers=tuple(layers), scheme=scheme)
