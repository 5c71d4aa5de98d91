"""Fast evaluation of scheme sequences at arbitrary-precision indices.

Writing n in base p as digits i0 (least significant) .. i_{T-1}, the value
vector a(n) of all states satisfies a_j(p*n + i) = sum of a_l(n) over the
digit-i multiset S_i(j), so a(n) is T digit steps from the base vector a(0),
taken from the most significant digit down.  One step with digit i reads
each transition multiset S_i(j) once; the multisets are the only
representation of the recurrence.  The sparse subsequence at n = p^k - 1 is
k top-digit steps; for p = 2 many schemes are further determined by it
through the run-length transform, checked here empirically.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .scheme import Scheme


def _digits(n: int, p: int) -> list[int]:
    """Base-p digits of n, least significant first; empty for n = 0."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    out = []
    while n:
        n, d = divmod(n, p)
        out.append(d)
    return out


def _step(scheme: Scheme, digit: int, vec: Sequence[int]) -> list[int]:
    """State vector at p*n + digit from the state vector at n."""
    return [sum(vec[l - 1] for l in row[digit]) for row in scheme.transitions]


def eval_at(scheme: Scheme, n: int) -> int:
    """Value of the sequence at n, in ceil(log_p n) digit steps."""
    vec = scheme.base_scalar
    for d in reversed(_digits(n, scheme.p)):
        vec = _step(scheme, d, vec)
    return vec[0]


def eval_histogram_at(scheme: Scheme, n: int) -> tuple[int, ...]:
    """Residue histogram at n: the digit steps of eval_at run on each residue column."""
    digits = _digits(n, scheme.p)[::-1]
    out = []
    for vec in zip(*scheme.base_histogram):
        for d in digits:
            vec = _step(scheme, d, vec)
        out.append(vec[0])
    return tuple(out)


def terms_prefix(scheme: Scheme, count: int) -> list[int]:
    """First `count` sequence values; each state vector is one step from that at n // p."""
    if count <= 0:
        return []
    vecs = [scheme.base_scalar]
    for n in range(1, count):
        rest, digit = divmod(n, scheme.p)
        vecs.append(_step(scheme, digit, vecs[rest]))
    return [v[0] for v in vecs]


def sparse_terms(scheme: Scheme, count: int) -> list[int]:
    """Values at n = p^k - 1 for k = 0..count: repeated top-digit steps."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    top = scheme.p - 1
    vec = scheme.base_scalar
    out = [vec[0]]
    for _ in range(count):
        vec = _step(scheme, top, vec)
        out.append(vec[0])
    return out


def rlt_expand(sparse: list[int], n: int) -> int:
    """Run-length product: multiply sparse[L] over maximal runs of L ones in binary n.

    The empty product (n = 0) is 1.  Raises ValueError if a run is longer
    than the supplied sparse values cover.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    result = 1
    run = 0
    while n:
        if n & 1:
            run += 1
        elif run:
            if run >= len(sparse):
                raise ValueError(f"run of length {run} exceeds the {len(sparse)} supplied values")
            result *= sparse[run]
            run = 0
        n >>= 1
    if run:
        if run >= len(sparse):
            raise ValueError(f"run of length {run} exceeds the {len(sparse)} supplied values")
        result *= sparse[run]
    return result


@dataclass(frozen=True)
class RltReport:
    """Outcome of a run-length-transform sweep; counterexample is (n, sequence, product)."""

    passed: bool
    checked: int
    counterexample: tuple[int, int, int] | None = None


def rlt_check(scheme: Scheme, limit: int) -> RltReport:
    """Test whether the sequence factors through the run-length transform for n < limit.

    Only meaningful in base 2; a failure is a property of the automaton, not
    an error, so it is reported rather than raised.
    """
    if scheme.p != 2:
        raise ValueError(f"run-length transform check requires p=2, got p={scheme.p}")
    if limit <= 0:
        return RltReport(passed=True, checked=0)
    max_run = (limit - 1).bit_length()
    sparse = sparse_terms(scheme, max_run + 1)
    values = terms_prefix(scheme, limit)
    for n, value in enumerate(values):
        product = rlt_expand(sparse, n)
        if product != value:
            return RltReport(passed=False, checked=n + 1, counterexample=(n, value, product))
    return RltReport(passed=True, checked=limit)
