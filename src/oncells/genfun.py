"""Exact rational generating functions for the sparse subsequence.

With M the top-digit matrix (M[j][l] is how often l+1 occurs in the digit
p-1 multiset of state j+1) and c(0) the base vector, the values of state j
at n = p^k - 1 are e_j^T M^k c(0).  They obey the linear recurrence given
by the minimal polynomial of M, of order at most the state count m, so
their generating function is rational.  The same holds for the matrix of
the lumped scheme, so the order is at most its class count m' <= m.  One
algorithm finds it: Berlekamp-Massey returns the shortest linear
recurrence that generates a finite prefix, and a recurrence of order L
that generates 2L terms is the unique shortest one (Massey, IEEE Trans.
IT 15(1), 1969).  Fitting 2m' terms therefore proves the generating
function; fitting fewer gives it whenever the true order is at most half
the number of terms.  The fit comes out in
lowest terms: a common factor of numerator and denominator would give the
same series from a shorter recurrence, against the fit's minimality, so no
gcd step follows it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .poly import LimitError
from .scheme import Scheme
from .sequence import sparse_terms


class RationalGF(namedtuple("RationalGF", "num den rigorous")):
    """A reduced rational function num/den in one variable t.

    num and den are ascending integer coefficient tuples with no trailing
    zeros (num = (0,) for the zero function) and den(0) = 1.  Every fit is
    reduced, gcd(num, den) = 1 over the rationals, because it is the shortest
    recurrence; the constructor checks only the normalization.  rigorous
    records whether the object was fitted from enough terms to be forced.
    """

    __slots__ = ()

    def __new__(cls, num: tuple[int, ...], den: tuple[int, ...], rigorous: bool = True):
        if not den or den[0] != 1:
            raise ValueError(f"denominator must have constant term 1, got {den}")
        if len(den) > 1 and den[-1] == 0:
            raise ValueError("denominator has trailing zero coefficients")
        if num != (0,) and (not num or num[-1] == 0):
            raise ValueError(f"numerator not trimmed: {num}")
        return super().__new__(cls, num, den, rigorous)

    @classmethod
    def _make(cls, fields):  # _replace builds through here, so it checks too
        return cls(*fields)


def _trim(coeffs: list) -> list:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _fit(terms: list[int], rigorous: bool) -> RationalGF:
    """Berlekamp-Massey: the shortest linear recurrence generating `terms`, as num/den.

    conn is the connection polynomial (conn(0) = 1) of the current shortest
    recurrence, of order `length`; prev is conn as it was before the last
    order change, whose discrepancy prev_disc lies `shift` terms back.  The
    denominator is conn and the numerator is conn * terms below t^length;
    the pair is coprime because the recurrence is minimal.  Raises
    ValueError when a coefficient is not an integer.
    """
    conn, prev = [Fraction(1)], [Fraction(1)]
    length, shift, prev_disc = 0, 1, Fraction(1)
    for k in range(len(terms)):
        disc = sum(conn[j] * terms[k - j] for j in range(min(k + 1, len(conn))))
        if disc == 0:
            shift += 1
            continue
        new = conn + [Fraction(0)] * (len(prev) + shift - len(conn))
        factor = disc / prev_disc
        for j, b in enumerate(prev):
            new[j + shift] -= factor * b
        if 2 * length <= k:
            length, prev, prev_disc, shift = k + 1 - length, conn, disc, 1
        else:
            shift += 1
        conn = new
    num = _trim(
        [sum(conn[j] * terms[k - j] for j in range(min(k + 1, len(conn)))) for k in range(length)]
    )
    den = _trim(conn)
    if any(x.denominator != 1 for x in num + den):
        raise ValueError("cannot normalize to an integer fraction with den(0)=1")
    return RationalGF(
        num=tuple(int(x) for x in num) or (0,), den=tuple(int(x) for x in den), rigorous=rigorous
    )


def gf_prove(scheme: Scheme, budget: int | None = None) -> RationalGF:
    """Generating function of the values at n = p^k - 1, fitted to the first `budget` terms.

    Those values are e_1^T M^k c(0) for the top-digit matrix M of
    scheme.lumped, whose m' classes take the same values as the m states,
    so they obey the recurrence of the minimal polynomial of that M, of
    order at most m'.  The fit of the first 2m' terms, the default budget,
    is therefore the generating function itself, and the result is flagged
    rigorous exactly when budget >= 2m'.  A smaller budget gives it whenever
    budget is at least twice its order.  Raises ValueError for budget < 1,
    and LimitError when a fit of fewer than 2m' terms is not an integer
    fraction: too few terms, not a malformed request.
    """
    proof = 2 * scheme.lumped.state_count
    if budget is None:
        budget = proof
    if budget < 1:
        raise ValueError(f"term budget {budget} too small; need at least 1")
    terms = sparse_terms(scheme, budget - 1)
    try:
        return _fit(terms, rigorous=budget >= proof)
    except ValueError:
        if budget >= proof:
            raise
        raise LimitError(
            f"the first {budget} sparse terms fit no integer fraction; "
            f"a budget of 2m' = {proof} proves one"
        ) from None


def gf_series(gf: RationalGF, count: int) -> list[int]:
    """First `count` power-series coefficients, via the recurrence den induces."""
    num, den = gf.num, gf.den
    out: list[int] = []
    for k in range(count):
        acc = num[k] if k < len(num) else 0
        acc -= sum(den[j] * out[k - j] for j in range(1, min(k, len(den) - 1) + 1))
        out.append(acc)
    return out


def _poly_text(coeffs: tuple[int, ...], var: str = "t") -> str:
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            mono = str(abs(c))
        else:
            power = var if k == 1 else f"{var}^{k}"
            mono = power if abs(c) == 1 else f"{abs(c)}*{power}"
        if not parts:
            parts.append(f"-{mono}" if c < 0 else mono)
        else:
            parts.append(f"-{mono}" if c < 0 else f"+{mono}")
    return "".join(parts) if parts else "0"


def gf_to_text(gf: RationalGF) -> str:
    return f"({_poly_text(gf.num)})/({_poly_text(gf.den)})"


def gf_to_dict(gf: RationalGF) -> dict:
    return {"num": list(gf.num), "den": list(gf.den), "rigorous": gf.rigorous}
