import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oncells.poly as poly_module
from oncells import LimitError, ModPoly, ParseError, ensure_prime, parse_poly
from strategies import combine, power, product, random_polys, seeds
from test_scheme import _residue_split

X = ("x",)
XY = ("x", "y")


def scaled_exponents(a: ModPoly, factor: int) -> ModPoly:
    return ModPoly(a.p, a.vars, {tuple(x * factor for x in e): c for e, c in a.terms.items()})


def random_poly(rng: random.Random, p: int, nvars: int, max_terms: int = 6) -> ModPoly:
    vars = tuple("abcdef"[:nvars])
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, 6) for _ in range(nvars))
        terms[exps] = rng.randint(1, p - 1)
    return ModPoly(p, vars, terms)


def test_ensure_prime():
    for p in (2, 3, 5, 65521):
        assert ensure_prime(p) == p
    for bad in (0, 1, 4, 9, 65536, -7):
        with pytest.raises(ValueError):
            ensure_prime(bad)


def test_parse_basic():
    a = parse_poly("1+x+x^2", X, 2)
    assert a.terms == {(0,): 1, (1,): 1, (2,): 1}
    b = parse_poly("2+4*x+2*x^2", X, 3)
    assert b.terms == {(0,): 2, (1,): 1, (2,): 2}
    assert parse_poly("x - x", X, 2).is_zero()


def test_parse_laurent_and_parens():
    a = parse_poly("x^-1+x+y^-1+y", XY, 2)
    assert a.terms == {(-1, 0): 1, (1, 0): 1, (0, -1): 1, (0, 1): 1}
    b = parse_poly("(1+x)*(1+y)", XY, 2)
    assert b.terms == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_poly("2x", X, 2)  # implicit multiplication
    with pytest.raises(ParseError):
        parse_poly("1+z", X, 2)  # undeclared variable
    with pytest.raises(ParseError):
        parse_poly("(1+x", X, 2)
    with pytest.raises(ParseError):
        parse_poly("(1+x)^2", X, 2)  # powers apply to variables only
    with pytest.raises(ParseError):
        parse_poly("", X, 2)
    err = None
    try:
        parse_poly("1+*x", X, 2)
    except ParseError as exc:
        err = exc
    assert err is not None and err.position == 2
    # "²" is a digit to str.isdigit, but int() refuses it
    with pytest.raises(ParseError, match=r"^expected an integer \(at position 2\)$"):
        parse_poly("x^\u00b2", X, 2)
    # a literal past the int-string limit is refused before int() refuses it
    # without a position
    for text, position in (("x^" + "9" * 5000, 2), ("9" * 5000, 0)):
        with pytest.raises(ParseError, match=r"^integer literal has more than \d+ digits") as info:
            parse_poly(text, X, 2)
        assert info.value.position == position


def test_parse_budget_edge(monkeypatch):
    # (1+x)*(1+x) spends 2 * 2; its square 1+x^2 (mod 2) times 1+x spends 2 * 2 more
    text = "(1+x)*(1+x)*(1+x)"
    monkeypatch.setattr(poly_module, "WORK_BUDGET", 8)
    assert parse_poly(text, X, 2) == parse_poly("1+x+x^2+x^3", X, 2)
    monkeypatch.setattr(poly_module, "WORK_BUDGET", 7)
    with pytest.raises(LimitError, match="^parsing exceeded its budget of 7 term products$"):
        parse_poly(text, X, 2)
    # each '*' inside a monomial charges 1 * 1, and a sum charges nothing
    monkeypatch.setattr(poly_module, "WORK_BUDGET", 3)
    assert parse_poly("1+x*x+2*x*x^2", X, 3) == parse_poly("1+x^2+2*x^3", X, 3)


@given(random_polys(max_vars=3), st.data())
def test_parse_arithmetic_property(a, data):
    # the parser's '*', '+' and '-' are the polynomial arithmetic a user reaches
    b = data.draw(seeds(a))
    assert parse_poly(f"({a})*({b})", a.vars, a.p) == product(a, b)
    assert parse_poly(f"({a})+({b})", a.vars, a.p) == combine(a, b)
    assert parse_poly(f"({a})-({b})", a.vars, a.p) == combine(a, b, -1)


def test_parse_builds_one_polynomial_per_sum(monkeypatch):
    calls = []
    init = ModPoly.__init__

    def counting_init(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(ModPoly, "__init__", counting_init)
    a = parse_poly("1+x+x^2+x^3+x^4", X, 2)
    assert len(calls) == 1  # factors, products and sums are dicts until the end
    assert a.terms == {(e,): 1 for e in range(5)}
    calls.clear()
    b = parse_poly("x*y^2*3-(2*x+y)*(x-y)", XY, 5)
    assert len(calls) == 1
    assert b.terms == {(1, 2): 3, (2, 0): 3, (1, 1): 1, (0, 2): 1}


def test_canonicalize():
    a = parse_poly("x+x^3", X, 2)
    assert a.canonical() == parse_poly("1+x^2", X, 2)
    b = parse_poly("x^-1+x+y^-1+y", XY, 2)
    assert b.canonical() == parse_poly("x+y+x^2*y+x*y^2", XY, 2)
    c = parse_poly("1+x", X, 2)
    assert c.canonical() is c
    with pytest.raises(ValueError):
        ModPoly(2, X, {}).canonical()


def test_canonicalize_idempotent_and_preserves_functionals():
    rng = random.Random(90127)
    for p in (2, 3, 5):
        for _ in range(25):
            a = random_poly(rng, p, 2)
            c = a.canonical()
            assert c.canonical() == c
            assert c.coeff_sum() == a.coeff_sum()
            assert c.coeff_histogram() == a.coeff_histogram()


def test_prime_power_scales_exponents(corpus):
    # P**p must equal P with every exponent multiplied by p (term-set equality)
    for _, p, raw, _ in corpus:
        canon = raw.canonical()
        assert power(canon, p) == scaled_exponents(canon, p)


def test_coeff_sum():
    assert parse_poly("1+x^3", X, 2).coeff_sum() == 2
    assert parse_poly("1+2*x+x^2", X, 3).coeff_sum() == 4
    assert ModPoly(2, X, {}).coeff_sum() == 0


def test_coeff_histogram():
    assert parse_poly("1+2*x+x^2", X, 3).coeff_histogram() == (2, 1)
    assert parse_poly("1+x^3", X, 2).coeff_histogram() == (2,)
    assert ModPoly(5, X, {}).coeff_histogram() == (0, 0, 0, 0)


def test_scalar_is_weighted_histogram():
    rng = random.Random(4096)
    for p in (2, 3, 7):
        for _ in range(20):
            a = random_poly(rng, p, 1)
            hist = a.coeff_histogram()
            assert a.coeff_sum() == sum((i + 1) * hist[i] for i in range(p - 1))


def test_monomial_invariance():
    rng = random.Random(777)
    for p in (2, 3, 5):
        for _ in range(20):
            a = random_poly(rng, p, 2)
            mono = ModPoly(p, a.vars, {(rng.randint(0, 4), rng.randint(0, 4)): 1})
            assert product(mono, a).coeff_sum() == a.coeff_sum()
            assert product(mono, a).coeff_histogram() == a.coeff_histogram()


def test_residue_split():
    a = parse_poly("1+2*x+x^2", X, 3)
    split = _residue_split(a)
    assert {k: v.terms for k, v in split.items()} == {
        ((0,)): {(0,): 1},
        ((1,)): {(0,): 2},
        ((2,)): {(0,): 1},
    }
    b = parse_poly("1+x^2+x^4", X, 2)
    assert _residue_split(b) == {(0,): parse_poly("1+x+x^2", X, 2)}
    c = ModPoly(3, XY, {(0, 0): 2})
    assert _residue_split(c) == {(0, 0): c}
    with pytest.raises(ValueError):
        _residue_split(parse_poly("x^-1+x", X, 2))


def test_residue_split_keys_sorted():
    a = parse_poly("x+y+x^2*y+x*y^2", XY, 2)
    assert list(_residue_split(a).keys()) == sorted(_residue_split(a).keys())


def test_residue_split_reconstruction():
    # reassembling x^alpha * class(x^p) over all classes reproduces the input
    rng = random.Random(2718)
    for p in (2, 3, 5):
        for _ in range(25):
            a = random_poly(rng, p, 2)
            total = ModPoly(p, a.vars, {})
            for alpha, part in _residue_split(a).items():
                mono = ModPoly(p, a.vars, {alpha: 1})
                total = combine(total, product(mono, scaled_exponents(part, p)))
            assert total == a


def test_str_round_trip():
    rng = random.Random(55)
    for p in (2, 3):
        for _ in range(25):
            a = random_poly(rng, p, 2)
            assert parse_poly(str(a), a.vars, p) == a
    assert str(ModPoly(2, X, {})) == "0"
    assert str(parse_poly("1+x+x^2", X, 2)) == "1+x+x^2"
    assert str(parse_poly("2*x+1", X, 3)) == "1+2*x"


@given(random_polys(max_vars=3))
def test_str_round_trip_property(poly):
    # the scheme loader compares each state's string with str of its parse
    assert parse_poly(str(poly), poly.vars, poly.p) == poly
