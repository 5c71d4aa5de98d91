"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from oncells import ModPoly


@st.composite
def random_polys(draw, max_vars=2):
    """Nonzero polynomials over Z/p, p in {2, 3, 5}, in 1..max_vars variables, Laurent allowed."""
    p = draw(st.sampled_from((2, 3, 5)))
    vars = ("x", "y", "z")[: draw(st.integers(1, max_vars))]
    exps = st.tuples(*[st.integers(-2, 3)] * len(vars))
    terms = draw(st.dictionaries(exps, st.integers(1, p - 1), min_size=1, max_size=4))
    return ModPoly(p, vars, terms)
