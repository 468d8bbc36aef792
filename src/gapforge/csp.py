"""CSP instances, assignments and instance formats.

Clauses are truth tables over an ordered scope of distinct variables, so any
width-q predicate can be evaluated as a black box; plain SAT disjunctions are
the special case of a table with exactly one falsifying row. Instances are
immutable and every operation here is a pure function.

Scoped pattern indexing: the bits of the scoped assignment form the table
index with scope[0] as the most significant bit, so scoped bits (0,1,1) read
table entry 3. The table is stored as an int whose bit j (LSB = entry 0) is
the predicate value on pattern j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import MalformedInstanceError, ParseError, ResourceCapError

Assignment = tuple  # 0/1 bits, one per variable

# refuse to materialize truth tables beyond this many entries
DEFAULT_TABLE_CAP = 1 << 22


@dataclass(frozen=True)
class Clause:
    """Truth-table clause over an ordered scope of distinct variables."""

    scope: tuple[int, ...]
    table: int

    def __post_init__(self):
        if len(set(self.scope)) != len(self.scope):
            raise MalformedInstanceError(f"clause scope has repeats: {self.scope}")
        if any(v < 0 for v in self.scope):
            raise MalformedInstanceError("negative variable index in scope")
        if not (0 <= self.table < (1 << self.num_rows)):
            raise MalformedInstanceError(
                f"table does not fit 2^{len(self.scope)} rows"
            )

    @property
    def arity(self) -> int:
        return len(self.scope)

    @property
    def num_rows(self) -> int:
        return 1 << len(self.scope)

    def table_bits(self) -> list[int]:
        return [(self.table >> j) & 1 for j in range(self.num_rows)]

    def falsifying_rows(self) -> list[int]:
        return [j for j in range(self.num_rows) if not (self.table >> j) & 1]

    def as_literals(self) -> tuple[tuple[int, bool], ...] | None:
        """Recover (variable, polarity) literals if this is a plain disjunction.

        A disjunction over k distinct literals falsifies exactly one scoped
        row; anything else (tautology, contradiction, XOR, ...) returns None.
        """
        zeros = ~self.table & ((1 << self.num_rows) - 1)
        if self.arity == 0 or zeros == 0 or zeros & (zeros - 1):
            return None
        row = zeros.bit_length() - 1
        k = self.arity
        return tuple(
            (v, not (row >> (k - 1 - i)) & 1) for i, v in enumerate(self.scope)
        )


def disjunction(literals: Sequence[tuple[int, bool]]) -> Clause:
    """Clause that is the OR of (variable, polarity) literals over distinct vars."""
    scope = tuple(v for v, _ in literals)
    k = len(scope)
    falsified = 0
    for i, (_, positive) in enumerate(literals):
        if not positive:
            falsified |= 1 << (k - 1 - i)
    table = ((1 << (1 << k)) - 1) & ~(1 << falsified)
    return Clause(scope, table)


def shared_copies(clauses: Sequence[Clause]) -> tuple[list[int], list[int]]:
    """The position of the first copy of each distinct clause object, in
    increasing order, and its number of copies. Objects are told apart by
    identity: the reductions' outputs share one Clause between equal rows."""
    ids = np.fromiter(map(id, clauses), np.uint64, len(clauses))
    _, first, copies = np.unique(ids, return_index=True, return_counts=True)
    order = np.argsort(first)
    return first[order].tolist(), copies[order].tolist()


@dataclass(frozen=True)
class CspInstance:
    """A MAX q-CSP instance: n variables and an ordered clause list."""

    num_vars: int
    clauses: tuple[Clause, ...]
    width: int = field(default=-1)

    def __post_init__(self):
        # each distinct clause object once, in first-occurrence order
        clauses = self.clauses
        scopes = [clauses[j].scope for j in shared_copies(clauses)[0]]
        max_arity = max(map(len, scopes), default=0)
        if self.width < 0:
            object.__setattr__(self, "width", max_arity)
        elif self.width < max_arity:
            raise MalformedInstanceError(
                f"declared width {self.width} below max clause arity {max_arity}"
            )
        if max(map(max, filter(None, scopes)), default=-1) >= self.num_vars:
            v = next(v for scope in scopes for v in scope if v >= self.num_vars)
            raise MalformedInstanceError(f"variable {v} out of range for {self.num_vars} vars")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @property
    def degenerate(self) -> bool:
        """No clauses, so satisfied_fraction is 1 by convention. An instance
        with clauses but no variables is not degenerate: its one (empty)
        assignment satisfies only its tautology clauses."""
        return self.num_clauses == 0


def evaluate_clause(clause: Clause, assignment: Sequence[int]) -> int:
    """Apply the clause predicate to the scoped bits of the assignment."""
    n = len(assignment)
    idx = 0
    for v in clause.scope:
        if v >= n:
            raise MalformedInstanceError(
                f"clause touches variable {v} but assignment has {n} bits"
            )
        idx = (idx << 1) | (assignment[v] & 1)
    return (clause.table >> idx) & 1


def clause_values(
    clause: Clause, words: np.ndarray, bit_of: Mapping[int, int] | None = None
) -> np.ndarray:
    """Vectorized evaluate_clause over packed assignments: the clause value
    (uint8) on every integer in words. Variable v is read from bit bit_of[v]
    of a word, or from bit v when bit_of is None."""
    idx = np.zeros(np.shape(words), dtype=np.int64)
    for v in clause.scope:
        b = v if bit_of is None else bit_of[v]
        idx = (idx << 1) | ((words >> b) & 1).astype(np.int64)
    return np.array(clause.table_bits(), dtype=np.uint8)[idx]


def table_from_bits(bits: np.ndarray) -> int:
    """Table int whose bit j is bits[j], the inverse of Clause.table_bits."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def satisfied_count(inst: CspInstance, assignment: Sequence[int]) -> int:
    if len(assignment) != inst.num_vars:
        raise MalformedInstanceError(
            f"assignment has {len(assignment)} bits, instance has {inst.num_vars} vars"
        )
    return sum(evaluate_clause(c, assignment) for c in inst.clauses)


def satisfied_fraction(inst: CspInstance, assignment: Sequence[int]) -> Fraction:
    """Exact fraction of satisfied clauses; 1 for degenerate clause-free instances."""
    if inst.num_clauses == 0:
        return Fraction(1)
    return Fraction(satisfied_count(inst, assignment), inst.num_clauses)


# ---------------------------------------------------------------------------
# instance formats
# ---------------------------------------------------------------------------


def _decode(text: str | bytes) -> str:
    if isinstance(text, bytes):
        return text.decode("utf-8")
    return text


def parse_dimacs(text: str | bytes) -> CspInstance:
    """Parse DIMACS CNF: 'p cnf <n> <m>' then 0-terminated clauses.

    'c' lines are comments; '%' ends the input (SATLIB convention). Variables
    are 1-based on disk and shifted to 0-based internally.
    """
    num_vars = None
    declared = None
    clauses: list[Clause] = []
    pending: list[int] = []
    pending_line = 0
    for lineno, raw in enumerate(_decode(text).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if num_vars is not None:
                raise ParseError("second 'p cnf' header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"malformed header {line!r}", lineno)
            try:
                num_vars, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"malformed header {line!r}", lineno) from None
            if num_vars < 0 or declared < 0:
                raise ParseError("negative counts in header", lineno)
            continue
        if num_vars is None:
            raise ParseError("clause before 'p cnf' header", lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"bad literal token {tok!r}", lineno) from None
            if lit == 0:
                if pending:
                    clauses.append(
                        disjunction([(abs(v) - 1, v > 0) for v in pending])
                    )
                    pending = []
                continue
            if abs(lit) > num_vars:
                raise ParseError(
                    f"literal {lit} exceeds declared variable count {num_vars}", lineno
                )
            if not pending:
                pending_line = lineno
            if abs(lit) - 1 in [abs(v) - 1 for v in pending]:
                raise ParseError(f"repeated variable in clause: {lit}", lineno)
            pending.append(lit)
    if pending:
        raise ParseError("unterminated clause at end of input", pending_line)
    if num_vars is None:
        raise ParseError("missing 'p cnf' header", 1)
    if declared != len(clauses):
        raise ParseError(
            f"header declares {declared} clauses, found {len(clauses)}", 1
        )
    return CspInstance(num_vars, tuple(clauses))


def parse_gcsp(text: str | bytes) -> CspInstance:
    """Parse the native format: 'gcsp <n> <m> <width>' then one clause per line
    as '<arity> <var...> <hex truth table>' with 0-based variables."""
    lines = [
        (no, ln.strip())
        for no, ln in enumerate(_decode(text).splitlines(), start=1)
        if ln.strip() and not ln.strip().startswith("c")
    ]
    if not lines:
        raise ParseError("empty document", 1)
    no, header = lines[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "gcsp":
        raise ParseError(f"malformed header {header!r}", no)
    try:
        n, m, width = int(parts[1]), int(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError(f"malformed header {header!r}", no) from None
    if min(n, m, width) < 0:
        raise ParseError("negative counts in header", no)
    body = lines[1:]
    if len(body) != m:
        raise ParseError(f"header declares {m} clauses, found {len(body)}", no)
    clauses = []
    for no, ln in body:
        toks = ln.split()
        try:
            arity = int(toks[0])
        except (ValueError, IndexError):
            raise ParseError("bad clause line", no) from None
        if len(toks) != arity + 2:
            raise ParseError(
                f"expected {arity} variables and a table, got {len(toks) - 1} fields", no
            )
        try:
            scope = tuple(int(t) for t in toks[1 : 1 + arity])
            table = int(toks[-1], 16)
        except ValueError:
            raise ParseError("bad clause line", no) from None
        for v in scope:
            if v >= n:
                raise ParseError(f"variable {v} exceeds declared count {n}", no)
        try:
            clauses.append(Clause(scope, table))
        except MalformedInstanceError as exc:
            raise ParseError(str(exc), no) from None
    try:
        return CspInstance(n, tuple(clauses), width)
    except MalformedInstanceError as exc:  # declared width below a clause's arity
        raise ParseError(str(exc), lines[0][0]) from None


def parse_instance(text: str | bytes) -> CspInstance:
    """Sniff the format (gcsp vs DIMACS) and parse."""
    stripped = _decode(text).lstrip()
    if stripped.startswith("gcsp"):
        return parse_gcsp(text)
    return parse_dimacs(text)


def serialize(inst: CspInstance) -> str:
    """Emit DIMACS for plain 3SAT instances, the native gcsp format otherwise.

    parse(serialize(inst)) is structurally equal to inst; clause order is kept.
    """
    if inst.width <= 3 and inst.width == max(
        (c.arity for c in inst.clauses), default=0
    ):
        out = [f"p cnf {inst.num_vars} {inst.num_clauses}"]
        for c in inst.clauses:
            lits = c.as_literals()
            if lits is None:
                break
            out.append(
                " ".join(str(v + 1 if pos else -(v + 1)) for v, pos in lits) + " 0"
            )
        else:
            return "\n".join(out) + "\n"
    out = [f"gcsp {inst.num_vars} {inst.num_clauses} {inst.width}"]
    for c in inst.clauses:
        digits = max(1, (c.num_rows + 3) // 4)
        out.append(
            " ".join([str(c.arity), *map(str, c.scope), format(c.table, f"0{digits}x")])
        )
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# conversion to 3SAT
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConversionReport:
    """Exact accounting of one csp_to_3sat run.

    expansion_ratio r = output clauses / input clauses. Any input-falsified
    clause forces at least one falsified output clause, so an output
    assignment satisfying >= 1 - g of output clauses restricts to one
    satisfying >= 1 - g*r of input clauses; if every input assignment
    falsifies >= gamma of clauses, output optimum <= 1 - gamma/r.
    """

    input_clauses: int
    output_clauses: int
    input_vars: int
    output_vars: int
    max_block: int

    @property
    def expansion_ratio(self) -> Fraction:
        if self.input_clauses == 0:
            return Fraction(1)
        return Fraction(self.output_clauses, self.input_clauses)


def _pad_to_width3(
    lits: list[tuple[int, bool]], fresh: list[int]
) -> list[tuple[tuple[int, bool], ...]]:
    """Standard widening/chaining of one disjunction to width-3 clauses.

    The produced block is satisfiable (with suitable fresh-variable values)
    iff the original disjunction is satisfied, and any assignment falsifying
    the original falsifies at least one block clause. The empty disjunction
    becomes the 8 sign patterns over 3 fresh variables, of which every
    assignment falsifies exactly one.
    """
    k = len(lits)
    if k == 0:
        vs = [fresh.pop() for _ in range(3)]
        return [
            tuple((v, bool((row >> i) & 1)) for i, v in enumerate(vs)) for row in range(8)
        ]
    if k == 3:
        return [tuple(lits)]
    if k == 2:
        y = fresh.pop()
        return [(*lits, (y, True)), (*lits, (y, False))]
    if k == 1:
        y, z = fresh.pop(), fresh.pop()
        return [
            (lits[0], (y, True), (z, True)),
            (lits[0], (y, True), (z, False)),
            (lits[0], (y, False), (z, True)),
            (lits[0], (y, False), (z, False)),
        ]
    # k >= 4: chain with k - 3 connectors
    chain = [fresh.pop() for _ in range(k - 3)]
    out = [(lits[0], lits[1], (chain[0], True))]
    for i in range(k - 4):
        out.append(((chain[i], False), lits[i + 2], (chain[i + 1], True)))
    out.append(((chain[-1], False), lits[k - 2], lits[k - 1]))
    return out


def csp_to_3sat(inst: CspInstance) -> tuple[CspInstance, ConversionReport]:
    """Per-clause expansion of a bounded-width CSP into 3SAT.

    Each clause's falsifying rows become blocking disjunctions over its scope,
    then every disjunction is widened/chained to exactly 3 distinct literals
    with fresh auxiliary variables. Width-3 disjunction clauses pass through
    unchanged. Satisfying assignments extend to the auxiliaries; the loss in
    the reverse direction is captured by the ConversionReport.
    """
    out: list[Clause] = []
    next_var = inst.num_vars
    max_block = 0
    for c in inst.clauses:
        if c.num_rows > DEFAULT_TABLE_CAP:
            raise ResourceCapError(
                f"clause table with 2^{c.arity} rows exceeds cap {DEFAULT_TABLE_CAP}"
            )
        lits = c.as_literals()
        if lits is not None and c.arity == 3:
            out.append(c)
            max_block = max(max_block, 1)
            continue
        rows = c.falsifying_rows()
        block: list[tuple[tuple[int, bool], ...]] = []
        if not rows:
            # tautology table: keep a satisfiable placeholder block
            fresh = [next_var, next_var + 1, next_var + 2]
            next_var += 3
            block.append(tuple((v, True) for v in fresh))
        for row in rows:
            blocking = [
                (v, ((row >> (c.arity - 1 - i)) & 1) == 0)
                for i, v in enumerate(c.scope)
            ]
            need = abs(len(blocking) - 3)
            fresh = list(range(next_var, next_var + need))[::-1]
            next_var += need
            block.extend(_pad_to_width3(blocking, fresh))
        out.extend(disjunction(bl) for bl in block)
        max_block = max(max_block, len(block))
    converted = CspInstance(next_var, tuple(out))
    report = ConversionReport(
        input_clauses=inst.num_clauses,
        output_clauses=converted.num_clauses,
        input_vars=inst.num_vars,
        output_vars=next_var,
        max_block=max_block,
    )
    return converted, report
