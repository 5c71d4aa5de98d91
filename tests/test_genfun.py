from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oncells import (
    LimitError,
    RationalGF,
    gf_prove,
    gf_series,
    gf_to_dict,
    gf_to_text,
    parse_poly,
    sparse_terms,
    synthesize,
)
from oncells.genfun import _fit, _trim

from strategies import random_polys

# The generating function of every bench corpus member: (name, expression,
# variables, p, num, den).
CORPUS_GF = [
    ("p2-univariate-linear", "1+x", ("x",), 2, (1,), (1, -2)),
    ("p2-univariate-quadratic", "1+x+x^2", ("x",), 2, (1, 2), (1, -1, -2)),
    ("p3-univariate-linear", "1+x", ("x",), 3, (1,), (1, -4, 3)),
    ("p3-univariate-quadratic", "1+x+x^2", ("x",), 3, (1, 3), (1, -3)),
    ("p2-bivariate-block", "1+x+y+x*y", ("x", "y"), 2, (1,), (1, -4)),
    ("p2-bivariate-cross", "x^-1+x+y^-1+y", ("x", "y"), 2, (1,), (1, -4)),
    ("c5", "1+x+x^2", ("x",), 5, (1, 11), (1, -5, -1, 5)),
    ("c7", "1+x+x^2", ("x",), 7, (1, 21), (1, -8, 7)),
    ("c11", "1+x+x^2", ("x",), 11, (1, 67, 22), (1, -11, -1, 11)),
    ("q5", "1+x+x^2+x^3", ("x",), 5, (1, 10), (1, -6, 5)),
    ("r6", "1+x+x^4+x^5+x^6", ("x",), 2, (1, 4, 6, -3, -2), (1, -1, -2, -1, 1, 2)),
    (
        "r8",
        "1+x+x^3+x^5+x^8",
        ("x",),
        2,
        (1, 3, 5, 5, -9, 5, 1, 5, -6),
        (1, -2, 0, 0, 0, 0, 0, 0, -1, 2),
    ),
    (
        "t3",
        "(1+x+x^2)*(1+y+y^2)*(1+z+z^2)-x*y*z",
        ("x", "y", "z"),
        2,
        (1, 6, -317, 1718, 5420, -59432, 61312, 428928, -887296, -260096, 737280),
        (1, -20, 79, 744, -5720, -3072, 101936, -127616, -563968, 1090560, 348160, -884736),
    ),
]


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


def _pgcd(a: list, b: list) -> list[Fraction]:
    """Monic gcd of two polynomials over the rationals, by Euclid's algorithm."""
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    while b:
        while len(a) >= len(b):  # a mod b
            factor, shift = a[-1] / b[-1], len(a) - len(b)
            a = _trim([x - factor * b[k - shift] if k >= shift else x for k, x in enumerate(a)])
        a, b = b, a
    return [x / a[-1] for x in a]


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


def _poly_matrix_det(mat: list[list[list[int]]]) -> list[int]:
    """Determinant of a matrix of integer polynomials by fraction-free elimination.

    One-step Bareiss: all intermediate entries stay in Z[t] because each
    division by the previous pivot is exact.  The reference for the
    denominator property, independent of the fit in gf_prove.
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


def _system_det(s) -> list[int]:
    """det(I - t*M) for the top-digit matrix M of scheme s."""
    m = s.state_count
    top = [row[s.p - 1] for row in s.transitions]
    system = [
        [_trim([1 if j == l else 0, -top[j].count(l + 1)]) for l in range(m)]
        for j in range(m)
    ]
    return _poly_matrix_det(system)


def test_gf_prove_toy(toy):
    gf = gf_prove(toy)
    assert gf.num == (1, 2)
    assert gf.den == (1, -1, -2)
    assert gf.rigorous
    assert gf_to_text(gf) == "(1+2*t)/(1-t-2*t^2)"


def test_gf_prove_base3(base3):
    gf = gf_prove(base3)
    assert gf.num == (1,)
    assert gf.den == (1, -4, 3)


def test_gf_guess_matches_prove(toy, base3):
    assert gf_prove(toy, 8) == gf_prove(toy)
    assert gf_prove(toy, 8).rigorous
    assert gf_prove(base3, 8) == gf_prove(base3)


def test_gf_guess_rigor_flag(toy):
    # the toy has m' = 2 classes: rigor needs 2m' = 4 terms, and a budget must be positive
    low = gf_prove(toy, 3)
    assert (low.num, low.den) == ((1,), (1, -3, 4))
    assert not low.rigorous
    assert gf_prove(toy, 4).rigorous
    with pytest.raises(ValueError):
        gf_prove(toy, 0)


def test_gf_guess_constant_sequence():
    s = synthesize(parse_poly("x^5", ("x",), 2))
    gf = gf_prove(s, 2 * s.state_count + 2)
    assert (gf.num, gf.den) == ((1,), (1, -1))


def test_gf_prove_equals_guess_corpus(corpus):
    for _, _, _, s in corpus:
        budget = 2 * s.state_count + 2
        assert gf_prove(s, budget) == gf_prove(s)


def test_gf_series():
    assert gf_series(RationalGF(num=(1, 2), den=(1, -1, -2)), 6) == [1, 3, 5, 11, 21, 43]
    assert gf_series(RationalGF(num=(1,), den=(1, -1)), 4) == [1, 1, 1, 1]
    assert gf_series(RationalGF(num=(1,), den=(1, -4, 3)), 4) == [1, 4, 13, 40]
    assert gf_series(RationalGF(num=(0,), den=(1,)), 3) == [0, 0, 0]


def test_gf_series_matches_sparse(corpus):
    for _, _, _, s in corpus:
        count = 2 * s.state_count + 4
        assert gf_series(gf_prove(s), count) == sparse_terms(s, count - 1)


def test_denominator_divides_system_determinant(corpus):
    for _, _, _, s in corpus:
        det = _system_det(s)
        gf = gf_prove(s)
        quotient = _pdiv_exact(det, list(gf.den))  # raises if not exact
        assert _pmul(quotient, list(gf.den)) == det


@pytest.mark.parametrize(
    "expr, vars, p, num, den", [row[1:] for row in CORPUS_GF], ids=[row[0] for row in CORPUS_GF]
)
def test_corpus_generating_functions_pinned(expr, vars, p, num, den):
    s = synthesize(parse_poly(expr, vars, p))
    proved = gf_prove(s)
    assert (proved.num, proved.den, proved.rigorous) == (num, den, True)
    assert gf_prove(s, 2 * s.state_count + 2) == proved


@settings(max_examples=40, deadline=None)
@given(random_polys())
def test_gf_prove_properties(poly):
    try:
        s = synthesize(poly, max_states=64)
    except LimitError:
        assume(False)
    m = s.state_count
    gf = gf_prove(s)
    assert gf_series(gf, 2 * m + 8) == sparse_terms(s, 2 * m + 7)
    assert len(gf.den) - 1 <= m
    det = _system_det(s)
    assert _pmul(_pdiv_exact(det, list(gf.den)), list(gf.den)) == det
    proof = 2 * s.lumped.state_count
    fit = gf_prove(s, proof)
    assert fit.rigorous and fit == gf_prove(s, 2 * m + 2)
    try:
        short = gf_prove(s, proof - 1)
    except LimitError as exc:  # the shortest recurrence of 2m' - 1 terms need not be integral
        assert "integer fraction" in str(exc)
    else:
        assert not short.rigorous


def test_corpus_fits_are_coprime():
    for name, _, _, _, num, den in CORPUS_GF:
        assert _pgcd(num, den) == [1], name


coefficients = st.lists(st.integers(-3, 3), max_size=4)


@settings(max_examples=100, deadline=None)
@given(coefficients, coefficients, coefficients, st.integers(0, 3))
def test_fit_is_in_lowest_terms(num, den_tail, common_tail, extra):
    # num/den times g/g with den(0) = g(0) = 1: the fit must strip g and any
    # factor num and den already shared
    num, den, g = _trim(num), _trim([1] + den_tail), _trim([1] + common_tail)
    if num:
        c = _pgcd(num, den)
        c = [x / c[0] for x in c]  # c(0) = 1; by Gauss's lemma c is integral
        assert all(x.denominator == 1 for x in c)
        c = [int(x) for x in c]
        reduced = RationalGF(num=tuple(_pdiv_exact(num, c)), den=tuple(_pdiv_exact(den, c)))
    else:
        reduced = RationalGF(num=(0,), den=(1,))
    order = max(len(reduced.den) - 1, len(reduced.num) if num else 0)
    count = 2 * order + extra
    unreduced = RationalGF(num=tuple(_pmul(num, g)) or (0,), den=tuple(_pmul(den, g)))
    terms = gf_series(unreduced, count)
    fitted = _fit(terms, rigorous=True)
    assert fitted == reduced
    assert gf_series(fitted, count) == terms


def test_fit_rejects_a_non_integer_recurrence():
    # 2, 1 is generated by t_k = t_{k-1} / 2
    with pytest.raises(ValueError, match=r"cannot normalize to an integer fraction with den\(0\)=1"):
        _fit([2, 1], rigorous=True)


def test_rationalgf_validation():
    with pytest.raises(ValueError):
        RationalGF(num=(1,), den=(2,))  # den(0) != 1
    with pytest.raises(ValueError):
        RationalGF(num=(1, 0), den=(1,))  # untrimmed numerator
    with pytest.raises(ValueError):
        RationalGF(num=(1,), den=(1, 0))  # untrimmed denominator
    with pytest.raises(ValueError):
        RationalGF(num=(1,), den=(1,))._replace(den=(2,))  # a copy is checked too


def test_gf_json_shape(toy):
    gf = gf_prove(toy)
    assert gf_to_dict(gf) == {"num": [1, 2], "den": [1, -1, -2], "rigorous": True}
