"""Base-p recurrence automata for coefficient counts of polynomial powers mod p.

Given a polynomial P over Z/p (p prime), this package synthesizes a finite
scheme of base-p digit recurrences that evaluates, in time logarithmic in n,
the sum of the mod-p-reduced coefficients of Q * P^n; for p = 2 this counts
the ON cells of the odd-rule cellular automaton with neighborhood P.  It
also derives the exact rational generating function of the subsequence at
n = p^k - 1, and verifies everything against a brute-force oracle.
"""

from .genfun import (
    RationalGF,
    gf_prove,
    gf_series,
    gf_to_dict,
    gf_to_json,
    gf_to_text,
)
from .oracle import (
    CheckResult,
    VerificationReport,
    brute_histograms,
    brute_values,
    eval_at_memo,
    rlt_check,
    rlt_expand,
    verify_scheme,
)
from .poly import ModPoly, ParseError, ensure_prime, parse_poly
from .scheme import (
    LimitError,
    Scheme,
    degree_bounds,
    load_scheme,
    save_scheme,
    scheme_from_dict,
    scheme_from_json,
    scheme_to_dict,
    scheme_to_json,
    synthesize,
)
from .sequence import (
    eval_at,
    eval_histogram_at,
    histogram_prefix,
    sparse_terms,
    terms_prefix,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "LimitError",
    "ModPoly",
    "ParseError",
    "RationalGF",
    "Scheme",
    "VerificationReport",
    "brute_histograms",
    "brute_values",
    "degree_bounds",
    "ensure_prime",
    "eval_at",
    "eval_at_memo",
    "eval_histogram_at",
    "gf_prove",
    "gf_series",
    "gf_to_dict",
    "gf_to_json",
    "gf_to_text",
    "histogram_prefix",
    "load_scheme",
    "parse_poly",
    "rlt_check",
    "rlt_expand",
    "save_scheme",
    "scheme_from_dict",
    "scheme_from_json",
    "scheme_to_dict",
    "scheme_to_json",
    "sparse_terms",
    "synthesize",
    "terms_prefix",
    "verify_scheme",
]
