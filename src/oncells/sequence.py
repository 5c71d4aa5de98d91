"""Fast evaluation of scheme sequences at arbitrary-precision indices.

Writing n in base p as digits i0 (least significant) .. i_{T-1}, the value
vector a(n) of all states satisfies a_j(p*n + i) = sum of a_l(n) over the
digit-i multiset S_i(j), so a(n) is T digit steps from the base vector a(0),
taken from the most significant digit down.  One step with digit i reads
each transition multiset S_i(j) once; the multisets are the only
representation of the recurrence.  Every route runs these steps on one base
column at a time: base_scalar for values, and each of the p - 1 columns of
base_histogram for residue histograms.  A single index walks its digits
(_walk); a prefix takes one step per index, from the vector at n // p
(_prefix).  The sparse subsequence at n = p^k - 1 is k top-digit steps.  A
prefix or sparse request larger than MAX_STATE_VALUES raises LimitError.
"""

from __future__ import annotations

from collections.abc import Sequence

from .scheme import LimitError, Scheme

# State values (count x m per base column, m the state count) that one
# terms_prefix, histogram_prefix or sparse_terms call may compute; a
# histogram prefix has p - 1 columns.  A sparse term also counts once more
# per 1024 bits of the largest state value, since those grow exponentially
# in k and a count cap alone would not bound their size.  At the cap,
# measured through the CLI on a 2-vCPU x86 VM: `terms` takes 2.7 s and
# 150 MiB for 1+x mod 2 (m = 1, count 10^6) and 1.2 s and 56 MiB for
# (1+x+x^2)(1+y+y^2)(1+z+z^2)-xyz mod 2 (m = 110, count 9090), and
# `terms --histogram` the same 1.2 s and 56 MiB there and 1.2 s and 17 MiB
# for 1+x+x^2 mod 11 (m = 110, 10 columns, count 909); the fastest-growing
# `sparse`, 1+x mod 2 with terms 2^k, stops near count 44,000 at 141 MiB.
MAX_STATE_VALUES = 10**6


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


def _check_count(scheme: Scheme, count: int) -> int:
    """What count state vectors leave of MAX_STATE_VALUES; LimitError if they exceed it."""
    left = MAX_STATE_VALUES - count * scheme.state_count
    if left < 0:
        raise LimitError(
            f"request needs {count * scheme.state_count} state values, "
            f"more than the {MAX_STATE_VALUES} allowed"
        )
    return left


def _walk(scheme: Scheme, n: int, vec: Sequence[int]) -> int:
    """State 1's value at n from the base column vec: one step per base-p digit of n."""
    for d in reversed(_digits(n, scheme.p)):
        vec = _step(scheme, d, vec)
    return vec[0]


def _prefix(scheme: Scheme, count: int, vec: Sequence[int]) -> list[int]:
    """State 1's values at n < count from the base column vec.

    Each state vector is one step from the state vector at n // p.
    """
    if count <= 0:
        return []
    vecs = [vec]
    for n in range(1, count):
        rest, digit = divmod(n, scheme.p)
        vecs.append(_step(scheme, digit, vecs[rest]))
    return [v[0] for v in vecs]


def eval_at(scheme: Scheme, n: int) -> int:
    """Value of the sequence at n, in ceil(log_p n) digit steps."""
    return _walk(scheme, n, scheme.base_scalar)


def eval_histogram_at(scheme: Scheme, n: int) -> tuple[int, ...]:
    """Residue histogram at n: the digit steps of eval_at run on each residue column."""
    return tuple(_walk(scheme, n, col) for col in zip(*scheme.base_histogram))


def terms_prefix(scheme: Scheme, count: int) -> list[int]:
    """Sequence values at n < count, one digit step each.

    Raises LimitError, before any step, when count x m passes MAX_STATE_VALUES.
    """
    _check_count(scheme, count)
    return _prefix(scheme, count, scheme.base_scalar)


def histogram_prefix(scheme: Scheme, count: int) -> list[tuple[int, ...]]:
    """Residue histograms at n < count: the prefix of terms_prefix on each residue column.

    Raises LimitError, before any step, when count x m x (p - 1) passes
    MAX_STATE_VALUES.
    """
    _check_count(scheme, count * (scheme.p - 1))
    return list(zip(*(_prefix(scheme, count, col) for col in zip(*scheme.base_histogram))))


def sparse_terms(scheme: Scheme, count: int) -> list[int]:
    """Values at n = p^k - 1 for k = 0..count: repeated top-digit steps.

    Raises LimitError, before any step, when count x m passes
    MAX_STATE_VALUES, and as soon as the terms' size does.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    left = _check_count(scheme, count)
    top = scheme.p - 1
    vec = scheme.base_scalar
    out = [vec[0]]
    for _ in range(count):
        vec = _step(scheme, top, vec)
        left -= len(vec) * (max(vec).bit_length() >> 10)
        if left < 0:
            raise LimitError(f"sparse terms need more than {MAX_STATE_VALUES} state values")
        out.append(vec[0])
    return out
