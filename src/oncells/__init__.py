"""Base-p recurrence automata for coefficient counts of polynomial powers mod p.

Given a polynomial P over Z/p (p prime), this package synthesizes a finite
scheme of base-p digit recurrences that evaluates, in time logarithmic in n,
the sum of the mod-p-reduced coefficients of Q * P^n; for p = 2 this counts
the ON cells of the odd-rule cellular automaton with neighborhood P.  It
also derives the exact rational generating function of the subsequence at
n = p^k - 1, and verifies everything against a brute-force oracle.

The names below are resolved on first use: `import oncells` loads no
submodule, and each attribute is looked up in its module at every access.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "RationalGF": "genfun",
    "gf_prove": "genfun",
    "gf_series": "genfun",
    "gf_to_dict": "genfun",
    "gf_to_text": "genfun",
    "CheckResult": "oracle",
    "VerificationReport": "oracle",
    "brute_histograms": "oracle",
    "brute_values": "oracle",
    "eval_at_memo": "oracle",
    "rlt_check": "oracle",
    "rlt_expand": "oracle",
    "verify_scheme": "oracle",
    "LimitError": "poly",
    "ModPoly": "poly",
    "ParseError": "poly",
    "ensure_prime": "poly",
    "parse_poly": "poly",
    "Scheme": "scheme",
    "degree_bounds": "scheme",
    "load_scheme": "scheme",
    "save_scheme": "scheme",
    "scheme_from_dict": "scheme",
    "scheme_from_json": "scheme",
    "scheme_to_dict": "scheme",
    "scheme_to_json": "scheme",
    "synthesize": "scheme",
    "eval_at": "sequence",
    "eval_histogram_at": "sequence",
    "histogram_prefix": "sequence",
    "sparse_terms": "sequence",
    "terms_prefix": "sequence",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # not cached in globals(), so that a module attribute patched later (as
    # the bench tracer does) is what the package hands out
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
