"""Hypothesis strategies shared by the property tests, and reference arithmetic.

product, power and combine compute on the term dicts by their own
convolution and sums, so that expected values stay independent of the
parser, the closure and the oracle that the tests check.
"""

from hypothesis import strategies as st

from oncells import ModPoly


def _terms(draw, p, nvars, min_size=1):
    exps = st.tuples(*[st.integers(-2, 3)] * nvars)
    return draw(st.dictionaries(exps, st.integers(1, p - 1), min_size=min_size, max_size=4))


@st.composite
def random_polys(draw, max_vars=2):
    """Nonzero polynomials over Z/p, p in {2, 3, 5}, in 1..max_vars variables, Laurent allowed."""
    p = draw(st.sampled_from((2, 3, 5)))
    vars = ("x", "y", "z")[: draw(st.integers(1, max_vars))]
    return ModPoly(p, vars, _terms(draw, p, len(vars)))


@st.composite
def symmetric_products(draw):
    """f(x)*f(y) for a random univariate f of two to four terms.

    Exchanging x and y maps each state to one with equal values, so with
    the seed 1 these schemes often lump.
    """
    p = draw(st.sampled_from((2, 3, 5)))
    f = _terms(draw, p, 1, min_size=2)
    fx = ModPoly(p, ("x", "y"), {(e, 0): c for (e,), c in f.items()})
    fy = ModPoly(p, ("x", "y"), {(0, e): c for (e,), c in f.items()})
    return product(fx, fy)


@st.composite
def seeds(draw, poly):
    """Seeds q0 of two to four terms over poly's modulus and variables, Laurent allowed."""
    return ModPoly(poly.p, poly.vars, _terms(draw, poly.p, len(poly.vars), min_size=2))


def product(a: ModPoly, b: ModPoly) -> ModPoly:
    """a * b by convolving the term dicts."""
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return ModPoly(a.p, a.vars, out)


def power(a: ModPoly, n: int) -> ModPoly:
    """a ** n by n products; the constant 1 for n = 0."""
    result = ModPoly.one(a.p, a.vars)
    for _ in range(n):
        result = product(result, a)
    return result


def combine(a: ModPoly, b: ModPoly, sign: int = 1) -> ModPoly:
    """a + sign * b on the term dicts."""
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out.get(e, 0) + sign * c
    return ModPoly(a.p, a.vars, out)
