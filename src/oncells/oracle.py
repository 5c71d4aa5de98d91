"""Independent reference routes and whole-scheme verification.

Brute force recomputes values from the definition: multiply out Q * P^n one
factor of P at a time, reducing coefficients mod p after every step, then
sum or tally the coefficients.  The multiplication here is its own,
deliberately separate from the fast evaluation path, so the two sides of
every comparison stay independent.  It runs one kernel for any number of
variables and any p: a product is a dict of rows, each row one int that
holds the coefficients along one packed coordinate as fixed-width fields,
keyed by the other coordinates packed into a single int (_expand, _axes).
A step multiplies each row by each run of P's nearby terms, then reduces
every field of a row mod p at once (bytes.translate for 1-byte fields).
Each seed's product chain is expanded once per call, and a whole call
(brute_values, brute_histograms or verify_scheme) spends at most
poly.WORK_BUDGET term products before it raises LimitError.  The memoized
route evaluates the digit recurrence demand-driven, only for the states
each index n // p^k actually needs, as a second check on the fast path at
indices far beyond brute force.  Every check of a verification, the p = 2
run-length-transform check included, reports its first mismatch by one
rule (_first_failure).
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from math import gcd, lcm
from operator import mul, sub

from .genfun import RationalGF, gf_series
from .poly import ModPoly, _charge
from .scheme import Scheme
from .sequence import _packed_histograms, _prefix, sparse_terms, terms_prefix

# verify_scheme checks the sparse terms at k <= _SPARSE_COUNT against eval_at_memo,
# and the series up to k = 2m + _SPARSE_COUNT, past the 2m terms a fit uses.
_SPARSE_COUNT = 12

# P's terms in one row whose fields lie at most this many bits apart act as one multiplier
_CLUSTER_GAP = 32
_ORDER = sys.byteorder
# array typecodes by item size: the field widths a row may use, narrowest first
_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}


def _axes(poly: ModPoly) -> list[tuple[int, ...]]:
    """Rows of the integer matrix that takes exponent vectors to the coordinates rows pack.

    If poly's exponents minus its lowest are linearly independent, poly is
    a monomial times c0 + c1*X1 + ... + cr*Xr in monomials Xi, however thin
    its terms look in the variables.  Those differences, completed by unit
    vectors to a basis, become the axes: the matrix is that basis's inverse
    scaled to integers, and poly's powers pack as densely as those of
    1 + x + y + z.  Otherwise the axes are the variables.  Either matrix is
    invertible, so distinct monomials keep distinct coordinates, and
    linear, so multiplying monomials adds their coordinates.  One Gauss-Jordan
    pass over [differences | units | I] finds both: its pivot columns are the
    basis, a difference without one is dependent, and I becomes the inverse.
    """
    n = len(poly.vars)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if len(poly.terms) - 1 > n:  # more differences than variables are dependent
        return units
    exps = sorted(poly.terms)
    diffs = [tuple(map(sub, e, exps[0])) for e in exps[1:]]
    cols = diffs + units
    rows = [[Fraction(c[i]) for c in cols + units] for i in range(n)]  # I's columns are units
    r = 0
    for j in range(len(cols)):
        pivot = next((k for k in range(r, n) if rows[k][j]), None)
        if pivot is None:
            if j < len(diffs):
                return units
            continue
        rows[pivot], rows[r] = rows[r], [x / rows[pivot][j] for x in rows[pivot]]
        for k in range(n):
            if k != r and rows[k][j]:
                rows[k] = [a - rows[k][j] * b for a, b in zip(rows[k], rows[r])]
        r += 1
    scale = lcm(*(x.denominator for row in rows for x in row[len(cols) :]))
    return [tuple(int(x * scale) for x in row[len(cols) :]) for row in rows]


def _spans(terms: dict, n: int) -> list[int]:
    """Per coordinate, the highest minus the lowest of the n-coordinate keys of terms."""
    return [max(col) - min(col) for col in zip(*terms)] or [0] * n


def _columns(terms: dict, v: int) -> list[tuple[tuple[int, ...], int, int]]:
    """(other coordinates, coordinate v, coefficient) for each of the terms.

    With no coordinates at all, every term's coordinate v is 0.
    """
    return [(e[:v] + e[v + 1 :], e[v] if e else 0, c) for e, c in terms.items()]


def _field_ops(p: int, width: int) -> tuple[Callable, Callable]:
    """(reduce, tally) for rows of width-byte coefficient fields mod p.

    reduce takes rows of ints and returns rows of field sequences, every
    field reduced mod p, and the number of nonzero fields; rows left with
    none are dropped.  A field sequence is bytes for 1-byte fields, reduced
    by one translate, and an array of width-byte items otherwise; either
    sums with sum() and counts zeros with .count.  tally gives the rows'
    residue histogram, the count of each of 1 .. p-1.
    """
    residues = range(1, p)
    if width == 1:
        table = bytes(i % p for i in range(256))

        def fields(row: int):
            return row.to_bytes((row.bit_length() + 7) >> 3, _ORDER).translate(table)

        def tally(rows: dict) -> tuple[int, ...]:
            return tuple(map(b"".join(rows.values()).count, residues))

    else:
        code = _TYPECODES[width]
        bits = 8 * width

        def fields(row: int):
            raw = array(code, row.to_bytes(-(-row.bit_length() // bits) * width, _ORDER))
            return array(code, [c % p for c in raw])

        def tally(rows: dict) -> tuple[int, ...]:
            counts = Counter(array(code, b"".join(rows.values())))
            return tuple(map(counts.__getitem__, residues))

    def reduce(rows: dict) -> tuple[dict, int]:
        out = {}
        terms = 0
        for key, row in rows.items():
            f = fields(row)
            nonzero = len(f) - f.count(0)
            if nonzero:
                out[key] = f
                terms += nonzero
        return out, terms

    return reduce, tally


def _multiply(rows: dict, base: list, reduce: Callable) -> tuple[dict, int]:
    """One step of a chain: every row times every cluster of P, then reduced mod p.

    A cluster (key offset, shift, multiplier) of P's terms (_clusters) adds
    its key offset to the row's key and its shift, in bits, to the row's
    fields, and multiplies the row by the cluster's packed coefficients.
    """
    out: dict = {}
    get = out.get
    for key, f in rows.items():
        row = int.from_bytes(f, _ORDER)
        for offset, shift, c in base:
            k = key + offset
            out[k] = get(k, 0) + (row * c << shift)
    return reduce(out)


def _clusters(terms: Iterable[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Merge (key offset, shift, coefficient) terms of P into (key offset, shift, multiplier).

    Terms with one key offset whose shifts lie at most _CLUSTER_GAP bits
    apart share one multiplier, so a row meets them in one multiplication;
    terms further apart keep their own, so a lacunary P multiplies no long
    run of zero fields.
    """
    out = []
    for offset, shift, c in sorted(terms):
        if out and out[-1][0] == offset and shift - last <= _CLUSTER_GAP:
            first, multiplier = out[-1][1:]
            out[-1] = (offset, first, multiplier + (c << shift - first))
        else:
            out.append((offset, shift, c))
        last = shift
    return out


def _expand(poly: ModPoly, count: int) -> Callable[..., Iterator]:
    """A function chain(seed, histogram=False) over n = 0 .. count-1 of seed * poly^n.

    chain yields each product's coefficient sum, or with histogram its
    residue histogram.  Exponent vectors are read in the coordinates of
    _axes, and a product is a dict of rows.  The packed coordinate v is the
    one in which poly spans the widest range, walked in steps of the gcd g
    of poly's differences in v; a row holds the coefficients along v as
    fixed-width fields of one int, each field wide enough for the
    unreduced sum (p - 1) * coeff_sum(poly) of one step.  A row's key packs
    the other coordinates mixed-radix, one digit per coordinate, wider
    than its span anywhere in the chain, times g, plus the seed term's
    coordinate v mod g (counted from the seed's lowest), which no step
    changes.  Packing is linear, so keys add as coordinates do and no two
    rows of one product share a key, negative coordinates included.  Every
    chain draws on the same poly.WORK_BUDGET of term products, nonzero terms
    of the current product times len(poly) per step, charged before the
    step; spending past it raises LimitError.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    p = poly.p
    axes = _axes(poly)
    nvars = len(poly.vars)

    def coordinates(q: ModPoly) -> dict:
        return {tuple(sum(map(mul, row, e)) for row in axes): c for e, c in q.terms.items()}

    poly_terms = coordinates(poly)
    spans = _spans(poly_terms, nvars)
    v = spans.index(max(spans)) if spans else 0
    poly_cols = _columns(poly_terms, v)
    low = min((x for _, x, _ in poly_cols), default=0)
    stride = gcd(*(x - low for _, x, _ in poly_cols)) or 1
    poly_spans = spans[:v] + spans[v + 1 :]
    width = next(w for w in _TYPECODES if (p - 1) * sum(poly.terms.values()) < 256**w)
    bits = 8 * width
    reduce, tally = _field_ops(p, width)
    spent = 0

    def chain(seed: ModPoly, histogram: bool = False) -> Iterator:
        nonlocal spent
        if seed.p != p or seed.vars != poly.vars:
            raise ValueError("seed and polynomial must share modulus and variables")
        seed_terms = coordinates(seed)
        seed_spans = _spans(seed_terms, nvars)
        weights, weight = [], stride
        for seed_span, poly_span in zip(seed_spans[:v] + seed_spans[v + 1 :], poly_spans):
            weights.append(weight)
            weight *= seed_span + max(count - 1, 0) * poly_span + 1

        def key(rest: tuple[int, ...]) -> int:
            return sum(map(mul, rest, weights))

        base = _clusters(((key(rest), (x - low) // stride * bits, c) for rest, x, c in poly_cols))
        seed_cols = _columns(seed_terms, v)
        seed_low = min((x for _, x, _ in seed_cols), default=0)
        rows: dict = {}
        for rest, x, c in seed_cols:
            k = key(rest) + (x - seed_low) % stride
            rows[k] = rows.get(k, 0) + (c << (x - seed_low) // stride * bits)
        rows, terms = reduce(rows)
        for n in range(count):
            if n:
                spent = _charge(spent, terms * len(poly.terms), "brute force")
                rows, terms = _multiply(rows, base, reduce)
            if histogram:
                yield tally(rows)
            else:
                yield terms if p == 2 else sum(map(sum, rows.values()))

    return chain


def brute_values(poly: ModPoly, seed: ModPoly, count: int) -> list[int]:
    """Coefficient sums of seed * poly^n mod p for n = 0 .. count-1, by direct expansion."""
    return list(_expand(poly, count)(seed))


def brute_histograms(poly: ModPoly, seed: ModPoly, count: int) -> list[tuple[int, ...]]:
    """Residue histograms of seed * poly^n mod p for n = 0 .. count-1, by direct expansion."""
    return list(_expand(poly, count)(seed, histogram=True))


def eval_at_memo(scheme: Scheme, n: int) -> int:
    """Value at n from the digit multisets, evaluating only the states that are needed.

    Top-down, collect the states whose value is needed at each index
    n // p^k; then, bottom-up from the base values, compute exactly those.
    Kept separate from the digit steps in eval_at so the two cross-check.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    transitions = scheme.transitions
    levels = []
    needed = {1}
    while n:
        n, digit = divmod(n, scheme.p)
        levels.append((digit, needed))
        needed = {l for j in needed for l in transitions[j - 1][digit]}
    values = {j: scheme.base_scalar[j - 1] for j in needed}
    for digit, states in reversed(levels):
        values = {j: sum(values[l] for l in transitions[j - 1][digit]) for j in states}
    return values[1]


CheckResult = namedtuple(
    "CheckResult", "name passed informational counterexample", defaults=(False, None)
)


def _first_failure(name: str, cases: Iterable[tuple], informational: bool = False) -> CheckResult:
    """The first of the (where, expected, got) cases with expected != got fails the check."""
    for where, expected, got in cases:
        if expected != got:
            counterexample = {**where, "expected": expected, "got": got}
            return CheckResult(name, False, informational, counterexample)
    return CheckResult(name, True, informational)


class VerificationReport(namedtuple("VerificationReport", "scheme checks")):
    """Named check outcomes for one scheme; failing checks carry a counterexample."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c.passed or c.informational for c in self.checks)

    def to_dict(self) -> dict:
        return {"scheme": self.scheme, "ok": self.ok, "checks": [c._asdict() for c in self.checks]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def render_text(self) -> str:
        lines = [f"scheme: {self.scheme}"]
        for c in self.checks:
            if c.passed:
                status = "pass"
            elif c.informational:
                status = "info-fail"
            else:
                status = "FAIL"
            line = f"  {status:9s} {c.name}"
            if c.counterexample:
                detail = ", ".join(f"{k}={v}" for k, v in c.counterexample.items())
                line += f"  [{detail}]"
            lines.append(line)
        lines.append("result: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


def rlt_expand(sparse: list[int], n: int) -> int:
    """Run-length product: multiply sparse[L] over maximal runs of L ones in binary n.

    The empty product (n = 0) is 1.  Raises ValueError if a run is longer
    than the supplied sparse values cover.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    result = 1
    run = 0
    while n or run:
        if n & 1:
            run += 1
        elif run:
            if run >= len(sparse):
                raise ValueError(f"run of length {run} exceeds the {len(sparse)} supplied values")
            result *= sparse[run]
            run = 0
        n >>= 1
    return result


def rlt_check(scheme: Scheme, limit: int) -> CheckResult:
    """Informational check: do the values at n < limit equal rlt_expand of the sparse terms?

    Only meaningful in base 2; a failure is a property of the automaton, not
    an error, so it is reported (got is the product) rather than raised.
    """
    if scheme.p != 2:
        raise ValueError(f"run-length transform check requires p=2, got p={scheme.p}")
    sparse = sparse_terms(scheme, max(limit - 1, 0).bit_length() + 1)
    values = terms_prefix(scheme, limit)
    return _first_failure(
        "run_length_product",
        (({"n": n}, value, rlt_expand(sparse, n)) for n, value in enumerate(values)),
        informational=True,
    )


def verify_scheme(
    scheme: Scheme,
    n_max: int,
    gf: RationalGF | None = None,
    rlt_limit: int | None = None,
) -> VerificationReport:
    """Replay a scheme against the brute-force definition and report per-check results.

    Checks, in order: sequence and histogram values for state 1 on n < n_max;
    the per-state digit recurrence for n < n_max // p; the digit-0 fixed
    point of the base vector; the sparse terms at k <= 12 against
    eval_at_memo; series coefficients of an attached generating function,
    over 2m + 13 terms so that the check reads past the 2m' <= 2m terms a
    fit reads (m the state count, m' the class count of scheme.lumped);
    and (p = 2 only) rlt_check up to rlt_limit, n_max by default.
    Each check's counterexample is its first mismatch, in the order listed
    (_first_failure).  Each state's chain is expanded once, under one
    poly.WORK_BUDGET.  The fast side of the first two checks is one prefix per
    base column (terms_prefix, then one sequence._prefix over all p - 1
    residue columns packed into one int by sequence._packed_histograms),
    and like every fast route it steps scheme.lumped.  Brute force, the
    recurrence identity, the fixed point and eval_at_memo read the
    scheme's own transitions, so the checks also test the lumping.  Raises
    ValueError for n_max < 1, for a negative rlt_limit and for an
    rlt_limit when p != 2, LimitError before any expansion when n_max
    passes terms_prefix's state-value cap, and LimitError past WORK_BUDGET.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    p = scheme.p
    if rlt_limit is not None and p != 2:
        raise ValueError(f"the run-length check (rlt_limit) needs p = 2, got p = {p}")
    if rlt_limit is not None and rlt_limit < 0:
        raise ValueError(f"rlt_limit must be nonnegative, got {rlt_limit}")
    fast = terms_prefix(scheme, n_max)  # refuses past its cap before any expansion
    chain = _expand(scheme.poly, n_max)
    hist_table = list(chain(scheme.states[0], histogram=True))
    first = [sum(i * c for i, c in enumerate(h, 1)) for h in hist_table]
    tables = [first] + [list(chain(q)) for q in scheme.states[1:]]
    # n_max is bounded by poly.WORK_BUDGET and terms_prefix's count x m' cap,
    # so the residue columns take no further charge (histogram_prefix's
    # x (p - 1) would refuse checks whose brute force fits the budget)
    lumped = scheme.lumped
    col, unpack = _packed_histograms(lumped, n_max - 1)
    fast_h = list(map(unpack, _prefix(lumped, n_max, col)))
    base = list(scheme.base_scalar)
    sparse = sparse_terms(scheme, 2 * scheme.state_count + _SPARSE_COUNT)

    checks = [
        _first_failure(
            "scalar_vs_brute", (({"n": n}, tables[0][n], fast[n]) for n in range(n_max))
        ),
        _first_failure(
            "histogram_vs_brute",
            (({"n": n}, list(hist_table[n]), list(fast_h[n])) for n in range(n_max)),
        ),
        _first_failure(
            "recurrence_identity",
            (
                (
                    {"state": j + 1, "digit": i, "n": n},
                    tables[j][p * n + i],
                    sum(tables[l - 1][n] for l in row[i]),
                )
                for n in range(n_max // p)
                for j, row in enumerate(scheme.transitions)
                for i in range(p)
            ),
        ),
        _first_failure(
            "base_fixed_point",
            [({}, base, [sum(base[l - 1] for l in row[0]) for row in scheme.transitions])],
        ),
        _first_failure(
            "sparse_agreement",
            (({"k": k}, eval_at_memo(scheme, p**k - 1), sparse[k]) for k in range(_SPARSE_COUNT + 1)),
        ),
    ]
    if gf is not None:
        series = gf_series(gf, len(sparse))
        checks.append(
            _first_failure(
                "series_agreement", (({"k": k}, sparse[k], v) for k, v in enumerate(series))
            )
        )
    if p == 2:
        checks.append(rlt_check(scheme, rlt_limit if rlt_limit is not None else n_max))

    return VerificationReport(scheme=scheme.label(), checks=tuple(checks))
