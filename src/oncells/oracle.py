"""Independent reference routes and whole-scheme verification.

Brute force recomputes values from the definition: multiply out Q * P^n one
factor of P at a time, reducing coefficients mod p after every step, then
sum or tally the coefficients.  The multiplication here is its own plain
dict convolution, deliberately separate from the fast evaluation path, so
the two sides of every comparison stay independent; it runs one loop for
any number of variables, on exponent vectors packed into single ints.  Each
seed's product chain is expanded once per call, and a whole call
(brute_values, brute_histograms or verify_scheme) spends at most
WORK_BUDGET term products before it raises LimitError.  The memoized route
evaluates the digit recurrence demand-driven, only for the states each
index n // p^k actually needs, as a second check on the fast path at
indices far beyond brute force.  Every check of a verification, the p = 2
run-length-transform check included, reports its first mismatch by one
rule (_first_failure).
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .genfun import RationalGF, gf_series
from .poly import ModPoly
from .scheme import LimitError, Scheme
from .sequence import _prefix, eval_at, sparse_terms, terms_prefix

# Term products (len(current) * len(P) per multiply-reduce step) that one call
# of brute_values, brute_histograms or verify_scheme may spend on all its
# chains.  verify_scheme needs 7.8e6 for x^-1+x+y^-1+y mod 2 at n_max = 257
# (the largest check in the tests) and 5.5e6 for (1+x+x^2)(1+y+y^2)(1+z+z^2)
# -xyz mod 2 (m = 110) at 8; at 32 that scheme stops here after about 4 s
# on a 2-vCPU x86 VM.
WORK_BUDGET = 15 * 10**6

# verify_scheme checks the sparse terms at k <= _SPARSE_COUNT against eval_at, and
# the series up to k = 2m + _SPARSE_COUNT, past the 2m terms a fit uses.
_SPARSE_COUNT = 12


def _mul_mod(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    get = out.get
    for eb, cb in b.items():
        for ea, ca in a.items():
            e = ea + eb
            out[e] = get(e, 0) + ca * cb
    return {e: c for e, c in ((e, c % p) for e, c in out.items()) if c}


def _spans(poly: ModPoly) -> list[int]:
    """Per variable, the highest minus the lowest exponent in poly's terms."""
    return [max(col) - min(col) for col in zip(*poly.terms)] or [0] * len(poly.vars)


def _pack(poly: ModPoly, weights: list[int]) -> dict:
    """poly's terms keyed by the packed int sum(e[i] * weights[i]) of each exponent vector e."""
    return {sum(x * w for x, w in zip(e, weights)): c for e, c in poly.terms.items()}


def _expand(poly: ModPoly, seeds: Iterable[ModPoly], count: int) -> Iterator[Iterator[dict]]:
    """For each seed in turn, the term dicts of seed * poly^n for n = 0 .. count-1.

    Exponent vectors are packed into single ints, mixed-radix with one digit
    per variable.  Packing is linear, so keys add as exponents do, and each
    digit is wider than that variable's exponent span anywhere in the chain,
    so no two monomials of one product share a key, negative exponents
    included.  Each seed's chain is multiplied out once, and every chain
    draws on the same WORK_BUDGET of term products; spending past it raises
    LimitError.
    """
    p = poly.p
    poly_spans = _spans(poly)
    left = WORK_BUDGET

    def chain(seed: ModPoly) -> Iterator[dict]:
        nonlocal left
        if seed.p != p or seed.vars != poly.vars:
            raise ValueError("seed and polynomial must share modulus and variables")
        weights, weight = [], 1
        for seed_span, poly_span in zip(_spans(seed), poly_spans):
            weights.append(weight)
            weight *= seed_span + max(count - 1, 0) * poly_span + 1
        base = _pack(poly, weights)
        current = _pack(seed, weights)
        for n in range(count):
            if n:
                left -= len(current) * len(base)
                if left < 0:
                    raise LimitError(f"brute force exceeded {WORK_BUDGET} term products")
                current = _mul_mod(current, base, p)
            yield current

    return map(chain, seeds)


def _histogram(terms: dict, p: int) -> tuple[int, ...]:
    counts = [0] * (p - 1)
    for c in terms.values():
        counts[c - 1] += 1
    return tuple(counts)


def brute_values(poly: ModPoly, seed: ModPoly, count: int) -> list[int]:
    """Coefficient sums of seed * poly^n mod p for n = 0 .. count-1, by direct expansion."""
    (chain,) = _expand(poly, [seed], count)
    return [sum(t.values()) for t in chain]


def brute_histograms(poly: ModPoly, seed: ModPoly, count: int) -> list[tuple[int, ...]]:
    """Residue histograms of seed * poly^n mod p for n = 0 .. count-1, by direct expansion."""
    (chain,) = _expand(poly, [seed], count)
    return [_histogram(t, poly.p) for t in chain]


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
    point of the base vector; sparse terms against direct evaluation; series
    coefficients of an attached generating function, over 2m + 13 terms so
    that the check reads past the 2m terms a fit determines (m the state
    count); and (p = 2 only) rlt_check up to rlt_limit, n_max by default.
    Each check's counterexample is its first mismatch, in the order listed
    (_first_failure).  Each state's chain is expanded once, under one
    WORK_BUDGET.  The fast side of the first two checks is one prefix per
    base column (terms_prefix, then sequence._prefix on each residue
    column), and like every fast route it steps scheme.lumped.  Brute
    force, the recurrence identity and the fixed point read the scheme's
    own transitions, so the checks also test the lumping.  Raises
    ValueError for n_max < 1, for a negative rlt_limit and for an
    rlt_limit when p != 2, and LimitError past WORK_BUDGET or
    terms_prefix's state-value cap.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    p = scheme.p
    if rlt_limit is not None and p != 2:
        raise ValueError(f"the run-length check (rlt_limit) needs p = 2, got p = {p}")
    if rlt_limit is not None and rlt_limit < 0:
        raise ValueError(f"rlt_limit must be nonnegative, got {rlt_limit}")

    chains = _expand(scheme.poly, scheme.states, n_max)
    first, hist_table = zip(*((sum(t.values()), _histogram(t, p)) for t in next(chains)))
    tables = [first] + [[sum(t.values()) for t in chain] for chain in chains]
    fast = terms_prefix(scheme, n_max)
    # n_max is bounded by WORK_BUDGET and terms_prefix's count x m' cap, so the
    # residue columns take no further charge (histogram_prefix's x (p - 1) would
    # refuse checks whose brute force fits the budget)
    lumped = scheme.lumped
    fast_h = list(zip(*(_prefix(lumped, n_max, col) for col in zip(*lumped.base_histogram))))
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
            (({"k": k}, eval_at(scheme, p**k - 1), sparse[k]) for k in range(_SPARSE_COUNT + 1)),
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
