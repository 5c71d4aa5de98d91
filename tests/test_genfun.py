import pytest

from oncells import (
    LimitError,
    RationalGF,
    gf_guess,
    gf_prove,
    gf_series,
    gf_to_dict,
    gf_to_text,
    gf_verify,
    make_gf,
    parse_poly,
    sparse_terms,
    synthesize,
)
from oncells.genfun import _pdiv_exact, _pmul, _poly_matrix_det, _trim


def test_gf_prove_toy(toy):
    gf = gf_prove(toy)
    assert gf.num == (1, 2)
    assert gf.den == (1, -1, -2)
    assert gf.rigorous
    assert gf_to_text(gf) == "(1+2*t)/(1-t-2*t^2)"


def test_gf_prove_second_state(toy):
    gf = gf_prove(toy, state=2)
    assert gf.num == (2,)
    assert gf.den == (1, -1, -2)
    with pytest.raises(ValueError):
        gf_prove(toy, state=3)


def test_gf_prove_base3(base3):
    gf = gf_prove(base3)
    assert gf.num == (1,)
    assert gf.den == (1, -4, 3)


def test_gf_prove_solve_limit(toy):
    with pytest.raises(LimitError):
        gf_prove(toy, solve_limit=1)


def test_gf_guess_matches_prove(toy, base3):
    assert gf_guess(toy, 8) == gf_prove(toy)
    assert gf_guess(toy, 8).rigorous
    assert gf_guess(base3, 8) == gf_prove(base3)


def test_gf_guess_rigor_flag(toy):
    # minimum budget is m+2; rigor needs 2m+2
    low = gf_guess(toy, 5)
    assert (low.num, low.den) == ((1, 2), (1, -1, -2))
    assert not low.rigorous
    with pytest.raises(ValueError):
        gf_guess(toy, 3)


def test_gf_guess_constant_sequence():
    s = synthesize(parse_poly("x^5", ("x",), 2))
    gf = gf_guess(s, 2 * s.state_count + 2)
    assert (gf.num, gf.den) == ((1,), (1, -1))


def test_gf_prove_equals_guess_corpus(corpus):
    for _, _, _, s in corpus:
        budget = 2 * s.state_count + 2
        assert gf_guess(s, budget) == gf_prove(s)


def test_gf_series():
    assert gf_series(make_gf([1, 2], [1, -1, -2]), 6) == [1, 3, 5, 11, 21, 43]
    assert gf_series(make_gf([1], [1, -1]), 4) == [1, 1, 1, 1]
    assert gf_series(make_gf([1], [1, -4, 3]), 4) == [1, 4, 13, 40]
    assert gf_series(make_gf([0], [1]), 3) == [0, 0, 0]


def test_gf_series_matches_sparse(corpus):
    for _, _, _, s in corpus:
        count = 2 * s.state_count + 4
        assert gf_series(gf_prove(s), count) == sparse_terms(s, count - 1)


def test_gf_verify(toy):
    gf = gf_prove(toy)
    assert gf_verify(gf, toy, 20)
    perturbed = RationalGF(num=(1, 3), den=(1, -1, -2))
    assert not gf_verify(perturbed, toy, 5)
    assert gf_verify(gf, toy, 0)


def test_denominator_divides_system_determinant(corpus):
    for _, _, _, s in corpus:
        m = s.state_count
        top = [row[s.p - 1] for row in s.transitions]
        system = [
            [_trim([1 if j == l else 0, -top[j].count(l + 1)]) for l in range(m)]
            for j in range(m)
        ]
        det = _poly_matrix_det(system)
        gf = gf_prove(s)
        quotient = _pdiv_exact(det, list(gf.den))  # raises if not exact
        assert _pmul(quotient, list(gf.den)) == det


def test_make_gf_normalization():
    gf = make_gf([2, 4], [2])
    assert (gf.num, gf.den) == ((1, 2), (1,))
    reduced = make_gf([1, 1], [1, 2, 1])  # (1+t)/(1+t)^2
    assert (reduced.num, reduced.den) == ((1,), (1, 1))
    negated = make_gf([1], [-1, 1])  # scale so den(0) = 1
    assert (negated.num, negated.den) == ((-1,), (1, -1))
    zero = make_gf([0], [1, 5])
    assert (zero.num, zero.den) == ((0,), (1,))


def test_make_gf_is_idempotent(corpus):
    for _, _, _, s in corpus:
        gf = gf_prove(s)
        again = make_gf(gf.num, gf.den)
        assert (again.num, again.den) == (gf.num, gf.den)


def test_make_gf_rejects_degenerate():
    with pytest.raises(ZeroDivisionError):
        make_gf([1], [0])
    with pytest.raises(ValueError):
        make_gf([1], [0, 1])  # pole at t = 0


def test_rationalgf_validation():
    with pytest.raises(ValueError):
        RationalGF(num=(1,), den=(2,))  # den(0) != 1
    with pytest.raises(ValueError):
        RationalGF(num=(1, 0), den=(1,))  # untrimmed numerator
    with pytest.raises(ValueError):
        RationalGF(num=(1,), den=(1, 0))  # untrimmed denominator


def test_gf_json_shape(toy):
    gf = gf_prove(toy)
    assert gf_to_dict(gf) == {"num": [1, 2], "den": [1, -1, -2], "rigorous": True}
