"""Fast evaluation of scheme sequences at arbitrary-precision indices.

Writing n in base p as digits i0 (least significant) .. i_{T-1}, the value
vector a(n) of all states satisfies a_j(p*n + i) = sum of a_l(n) over the
digit-i multiset S_i(j), so a(n) is T digit steps from the base vector a(0),
taken from the most significant digit down.  One step with digit i reads
each transition multiset S_i(j) once; the multisets are the only
representation of the recurrence.  Every public route steps scheme.lumped,
the quotient that merges states equal at every n, so a step reads one
multiset per class rather than per state.  A state vector carries a 0 in
slot 0 and state j's value in slot j, so the 1-based multiset entries index
it directly.  Every route runs these steps on one base column: base_scalar
for values, and for residue histograms the p - 1 columns of base_histogram
packed as fields of one int per state (_packed_histograms), so that one
step sums every column at once.  A single index walks its digits (_walk);
a prefix takes one step per index, from the vector at n // p (_prefix).  The sparse
subsequence at n = p^k - 1 is k top-digit steps.  A prefix or sparse
request whose vectors of scheme.lumped would hold more than MAX_STATE_VALUES
values raises LimitError.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import chain
from operator import lshift

from .poly import LimitError
from .scheme import Scheme

# State values (count x m' per base column, m' the class count of
# scheme.lumped, whose vectors are the ones stepped and kept) that one
# terms_prefix, histogram_prefix or sparse_terms call may compute; a
# histogram prefix has p - 1 columns.  A sparse term also counts m' more per
# 1024 bits of the largest state value, since those grow exponentially in k
# and a count cap alone would not bound their size.  At the cap, measured
# through the CLI on a 2-vCPU x86 VM: `terms` takes 2.7 s and 135 MiB for
# 1+x mod 2 (m' = 1, count 10^6) and 0.80 s and 62 MiB for
# (1+x+x^2)(1+y+y^2)(1+z+z^2)-xyz mod 2 (m = 110 lumped to 14, count
# 71428), and `terms --histogram` 0.87 s and 62 MiB there and 0.66 s and
# 17 MiB for 1+x+x^2 mod 11 (m = 110 lumped to 65, 10 columns, count 1538);
# the fastest-growing `sparse`, 1+x mod 2 with terms 2^k, stops near count
# 44,000 at 142 MiB.
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
    """State vector at p*n + digit from the state vector at n, both with 0 in slot 0."""
    get = vec.__getitem__
    return [0] + [sum(map(get, row[digit])) for row in scheme.transitions]


def _check_count(lumped: Scheme, count: int, columns: int = 1) -> int:
    """What count vectors of lumped on columns base columns leave of MAX_STATE_VALUES.

    Raises ValueError for a negative count and LimitError past the cap.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    needed = count * columns * lumped.state_count
    if needed > MAX_STATE_VALUES:
        raise LimitError(
            f"request needs {needed} state values, more than the {MAX_STATE_VALUES} allowed"
        )
    return MAX_STATE_VALUES - needed


def _walk(scheme: Scheme, n: int, col: Sequence[int]) -> int:
    """State 1's value at n from the base column col: one step per base-p digit of n."""
    vec = [0, *col]
    for d in reversed(_digits(n, scheme.p)):
        vec = _step(scheme, d, vec)
    return vec[1]


def _prefix(scheme: Scheme, count: int, col: Sequence[int]) -> list[int]:
    """State 1's values at n < count from the base column col.

    Each state vector is one step from the state vector at n // p.
    """
    if count <= 0:
        return []
    vecs = [[0, *col]]
    for n in range(1, count):
        rest, digit = divmod(n, scheme.p)
        vecs.append(_step(scheme, digit, vecs[rest]))
    return [v[1] for v in vecs]


def _packed_histograms(lumped: Scheme, top: int) -> tuple[list[int], Callable]:
    """(base column, unpack) that run all p - 1 residue columns of lumped as one.

    Each state's residue counts become fields of one int, so one _walk or
    _prefix over that column steps every column at once; unpack turns a
    value back into its p - 1 counts.  A value at n <= top is at most the
    largest base count times the largest multiset size to the power of the
    digit count of top, and each field is that bound's bit length wide, so
    sums never carry from one field into the next.
    """
    largest = max(1, max(map(len, chain.from_iterable(lumped.transitions))))
    bound = max(map(max, lumped.base_histogram)) * largest ** len(_digits(top, lumped.p))
    width = bound.bit_length()
    shifts = range(0, (lumped.p - 1) * width, width)
    mask = (1 << width) - 1
    col = [sum(map(lshift, h, shifts)) for h in lumped.base_histogram]

    def unpack(value: int) -> tuple[int, ...]:
        return tuple(value >> s & mask for s in shifts)

    return col, unpack


def eval_at(scheme: Scheme, n: int) -> int:
    """Value of the sequence at n, in ceil(log_p n) digit steps."""
    lumped = scheme.lumped
    return _walk(lumped, n, lumped.base_scalar)


def eval_histogram_at(scheme: Scheme, n: int) -> tuple[int, ...]:
    """Residue histogram at n: the digit steps of eval_at on the packed residue columns."""
    lumped = scheme.lumped
    col, unpack = _packed_histograms(lumped, n)
    return unpack(_walk(lumped, n, col))


def terms_prefix(scheme: Scheme, count: int) -> list[int]:
    """Sequence values at n < count, one digit step each.

    Raises ValueError for count < 0, and LimitError, before any step, when
    count x m' passes MAX_STATE_VALUES.
    """
    lumped = scheme.lumped
    _check_count(lumped, count)
    return _prefix(lumped, count, lumped.base_scalar)


def histogram_prefix(scheme: Scheme, count: int) -> list[tuple[int, ...]]:
    """Residue histograms at n < count: terms_prefix's prefix on the packed residue columns.

    Raises ValueError for count < 0, and LimitError, before any step, when
    count x m' x (p - 1) passes MAX_STATE_VALUES.
    """
    lumped = scheme.lumped
    _check_count(lumped, count, scheme.p - 1)
    col, unpack = _packed_histograms(lumped, max(count - 1, 0))
    return list(map(unpack, _prefix(lumped, count, col)))


def sparse_terms(scheme: Scheme, count: int) -> list[int]:
    """Values at n = p^k - 1 for k = 0..count: repeated top-digit steps.

    Raises ValueError for count < 0, LimitError, before any step, when
    count x m' passes MAX_STATE_VALUES, and LimitError as soon as the
    terms' size does.
    """
    lumped = scheme.lumped
    left = _check_count(lumped, count)
    top = scheme.p - 1
    vec = [0, *lumped.base_scalar]
    out = [vec[1]]
    for _ in range(count):
        vec = _step(lumped, top, vec)
        left -= lumped.state_count * (max(vec).bit_length() >> 10)
        if left < 0:
            raise LimitError(f"sparse terms need more than {MAX_STATE_VALUES} state values")
        out.append(vec[1])
    return out
