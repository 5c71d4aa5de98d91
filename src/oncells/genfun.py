"""Exact rational generating functions for the sparse subsequence.

With M the top-digit matrix (M[j][l] is how often l+1 occurs in the digit
p-1 multiset of state j+1) and c(0) the base vector, the generating
functions f_j(t) of the values at n = p^k - 1 satisfy the linear system
(I - t*M) f = c(0).  Solving it exactly (Cramer's rule with fraction-free
Bareiss determinants over integer polynomials) proves f_1 rational with
denominator dividing det(I - t*M); alternatively f_1 can be fitted from
generated terms, which is provably correct once 2m+2 terms agree because
both numerator and denominator degrees are bounded by the state count m.

Univariate integer polynomials are plain ascending coefficient lists with
no trailing zeros; [] is the zero polynomial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .scheme import LimitError, Scheme
from .sequence import sparse_terms


@dataclass(frozen=True)
class RationalGF:
    """A reduced rational function num/den in one variable t.

    num and den are ascending integer coefficient tuples, gcd(num, den) = 1
    over the rationals, and den(0) = 1.  rigorous records whether the object
    was proved (solved exactly, or fitted with enough terms to be forced).
    """

    num: tuple[int, ...]
    den: tuple[int, ...]
    rigorous: bool = True

    def __post_init__(self):
        if not self.den or self.den[0] != 1:
            raise ValueError(f"denominator must have constant term 1, got {self.den}")
        if len(self.den) > 1 and self.den[-1] == 0:
            raise ValueError("denominator has trailing zero coefficients")
        if self.num != (0,) and (not self.num or self.num[-1] == 0):
            raise ValueError(f"numerator not trimmed: {self.num}")


def _trim(coeffs: list[int]) -> list[int]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _padd(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return _trim([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)])


def _psub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return _trim([(a[k] if k < len(a) else 0) - (b[k] if k < len(b) else 0) for k in range(n)])


def _pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _pdiv_exact(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient a/b in Z[t]; raises if the division is not exact."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    rem = list(a)
    quot = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for k in range(len(quot) - 1, -1, -1):
        top = rem[k + len(b) - 1]
        if top % lead:
            raise ArithmeticError("inexact polynomial division")
        q = top // lead
        quot[k] = q
        if q:
            for j, y in enumerate(b):
                rem[k + j] -= q * y
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return _trim(quot)


def _primitive_gcd(a: list[int], b: list[int]) -> list[int]:
    """GCD of integer polynomials, returned primitive with positive leading coefficient."""
    fa = [Fraction(x) for x in a]
    fb = [Fraction(x) for x in b]
    while fb:
        # fa mod fb over the rationals
        while len(fa) >= len(fb):
            factor = fa[-1] / fb[-1]
            shift = len(fa) - len(fb)
            fa = [
                x - factor * fb[k - shift] if k >= shift else x
                for k, x in enumerate(fa)
            ]
            while fa and fa[-1] == 0:
                fa.pop()
            if not fa:
                break
        fa, fb = fb, fa
    denom_lcm = 1
    for x in fa:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in fa]
    content = 0
    for x in ints:
        content = gcd(content, x)
    ints = [x // content for x in ints]
    if ints[-1] < 0:
        ints = [-x for x in ints]
    return ints


def make_gf(num, den, rigorous: bool = True) -> RationalGF:
    """Reduce and normalize num/den (integer or Fraction coefficients) to a RationalGF.

    The fraction is reduced over the rationals and scaled so den(0) = 1;
    normalizing an already normalized pair is a no-op.
    """
    num_f = [Fraction(x) for x in num]
    den_f = [Fraction(x) for x in den]
    while num_f and num_f[-1] == 0:
        num_f.pop()
    while den_f and den_f[-1] == 0:
        den_f.pop()
    if not den_f:
        raise ZeroDivisionError("zero denominator")
    scale = 1
    for x in num_f + den_f:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    num_i = _trim([int(x * scale) for x in num_f])
    den_i = _trim([int(x * scale) for x in den_f])
    if not num_i:
        return RationalGF(num=(0,), den=(1,), rigorous=rigorous)
    g = _primitive_gcd(num_i, den_i)
    if g != [1]:
        num_i = _pdiv_exact(num_i, g)
        den_i = _pdiv_exact(den_i, g)
    c0 = den_i[0]
    if c0 == 0:
        raise ValueError("denominator vanishes at t=0; no power series at the origin")
    if c0 != 1:
        num_q = [Fraction(x, c0) for x in num_i]
        den_q = [Fraction(x, c0) for x in den_i]
        if any(x.denominator != 1 for x in num_q + den_q):
            raise ValueError("cannot normalize to an integer fraction with den(0)=1")
        num_i = [int(x) for x in num_q]
        den_i = [int(x) for x in den_q]
    return RationalGF(num=tuple(num_i), den=tuple(den_i), rigorous=rigorous)


def _poly_matrix_det(mat: list[list[list[int]]]) -> list[int]:
    """Determinant of a matrix of integer polynomials by fraction-free elimination.

    One-step Bareiss: all intermediate entries stay in Z[t] because each
    division by the previous pivot is exact.
    """
    n = len(mat)
    work = [[list(e) for e in row] for row in mat]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not work[k][k]:
            for r in range(k + 1, n):
                if work[r][k]:
                    work[k], work[r] = work[r], work[k]
                    sign = -sign
                    break
            else:
                return []
        pivot = work[k][k]
        for i in range(k + 1, n):
            row = work[i]
            for j in range(k + 1, n):
                numer = _psub(_pmul(row[j], pivot), _pmul(row[k], work[k][j]))
                row[j] = _pdiv_exact(numer, prev)
            row[k] = []
        prev = pivot
    det = work[n - 1][n - 1]
    return det if sign == 1 else [-x for x in det]


def gf_prove(scheme: Scheme, state: int = 1, solve_limit: int = 64) -> RationalGF:
    """Solve (I - t*M) f = c(0) exactly and return the reduced f for the given state.

    Raises LimitError when the state count exceeds solve_limit; callers may
    fall back to gf_guess, which fits from terms instead of solving.
    """
    m = scheme.state_count
    if not 1 <= state <= m:
        raise ValueError(f"state {state} out of range 1..{m}")
    if m > solve_limit:
        raise LimitError(f"{m} states exceeds the exact-solve limit {solve_limit}")
    top = [row[scheme.p - 1] for row in scheme.transitions]
    system = [
        [_trim([1 if j == l else 0, -top[j].count(l + 1)]) for l in range(m)]
        for j in range(m)
    ]
    den = _poly_matrix_det(system)
    for j in range(m):
        system[j][state - 1] = _trim([scheme.base_scalar[j]])
    num = _poly_matrix_det(system)
    return make_gf(num, den, rigorous=True)


def _solve_fractions(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Exact Gaussian elimination; free variables are set to 0; None if inconsistent."""
    n_eq = len(rows)
    n_var = len(rows[0]) if n_eq else 0
    aug = [rows[i][:] + [rhs[i]] for i in range(n_eq)]
    pivot_cols: list[int] = []
    r = 0
    for col in range(n_var):
        pivot = next((i for i in range(r, n_eq) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(n_eq):
            if i != r and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivot_cols.append(col)
        r += 1
        if r == n_eq:
            break
    for i in range(r, n_eq):
        if aug[i][n_var] != 0:
            return None
    solution = [Fraction(0)] * n_var
    for i, col in enumerate(pivot_cols):
        solution[col] = aug[i][n_var]
    return solution


def gf_guess(scheme: Scheme, budget: int) -> RationalGF:
    """Fit the sparse-subsequence generating function from `budget` terms.

    Tries denominator degrees 0..m (m the state count) in order, solving the
    Hankel-windowed linear system for the denominator exactly and recovering
    the numerator by truncated multiplication, so the answer has minimal
    denominator degree.  The result is flagged rigorous when budget >= 2m+2,
    which pins the fraction uniquely given the degree bounds.
    """
    m = scheme.state_count
    if budget < m + 2:
        raise ValueError(f"term budget {budget} too small; need at least {m + 2}")
    c = [Fraction(v) for v in sparse_terms(scheme, budget - 1)]
    window = range(m + 1, budget)
    for d in range(m + 1):
        if d == 0:
            if any(c[k] != 0 for k in window):
                continue
            den_f = [Fraction(1)]
        else:
            rows = [[c[k - j] for j in range(1, d + 1)] for k in window]
            rhs = [-c[k] for k in window]
            tail = _solve_fractions(rows, rhs)
            if tail is None:
                continue
            den_f = [Fraction(1)] + tail
        num_f = [
            sum(den_f[j] * c[k - j] for j in range(min(d, k) + 1))
            for k in range(min(m + 1, budget))
        ]
        return make_gf(num_f, den_f, rigorous=budget >= 2 * m + 2)
    raise RuntimeError(
        f"no rational function with degrees <= {m} fits the first {budget} terms; "
        "the scheme is inconsistent"
    )


def gf_series(gf: RationalGF, count: int) -> list[int]:
    """First `count` power-series coefficients, via the recurrence den induces."""
    num, den = gf.num, gf.den
    out: list[int] = []
    for k in range(count):
        acc = num[k] if k < len(num) else 0
        acc -= sum(den[j] * out[k - j] for j in range(1, min(k, len(den) - 1) + 1))
        out.append(acc)
    return out


def gf_verify(gf: RationalGF, scheme: Scheme, count: int) -> bool:
    """True iff the first `count` series coefficients match the scheme's sparse terms."""
    if count <= 0:
        return True
    return gf_series(gf, count) == sparse_terms(scheme, count - 1)


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


def gf_to_json(gf: RationalGF) -> str:
    return json.dumps(gf_to_dict(gf)) + "\n"
