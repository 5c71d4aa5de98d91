import pytest

from oncells import parse_poly, synthesize

# (expression, variables, p) triples exercised throughout the suite; the two
# bivariate members keep the oracle honest about arity, the last one about
# Laurent (negative-exponent) input.
CORPUS = [
    ("1+x+x^2", ("x",), 2),
    ("1+x", ("x",), 2),
    ("1+x", ("x",), 3),
    ("1+x+x^2", ("x",), 3),
    ("1+x+y+x*y", ("x", "y"), 2),
    ("x^-1+x+y^-1+y", ("x", "y"), 2),
]


def build_corpus():
    out = []
    for text, vars, p in CORPUS:
        raw = parse_poly(text, vars, p)
        out.append((text, p, raw, synthesize(raw)))
    return out


@pytest.fixture(scope="session")
def corpus():
    """List of (label, p, raw polynomial, scheme) for every corpus member."""
    return build_corpus()


@pytest.fixture(scope="session")
def toy():
    return synthesize(parse_poly("1+x+x^2", ("x",), 2))


@pytest.fixture(scope="session")
def base3():
    return synthesize(parse_poly("1+x", ("x",), 3))


@pytest.fixture(scope="session")
def t3():
    """m = 110 states, but only 14 lumped classes."""
    return synthesize(parse_poly("(1+x+x^2)*(1+y+y^2)*(1+z+z^2)-x*y*z", ("x", "y", "z"), 2))
