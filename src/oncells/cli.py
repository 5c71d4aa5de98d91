"""Command-line interface.

Commands: synth (build a scheme and write its JSON), eval (one value, by
decimal index, --pow K for p^K - 1, or --npow10 E for 10^E), terms (a
prefix of the sequence), sparse (the subsequence at p^k - 1), gf (proved
or guessed generating function), check (verify a scheme against the
brute-force oracle).

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .genfun import gf_guess, gf_prove, gf_to_json, gf_to_text, gf_verify
from .oracle import verify_scheme
from .poly import ParseError, parse_poly
from .scheme import LimitError, load_scheme, scheme_to_json, synthesize
from .sequence import eval_at, eval_histogram_at, sparse_terms, terms_prefix

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


def _print_json(obj) -> None:
    print(json.dumps(obj))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oncells",
        description="Base-p recurrence automata for coefficient counts of polynomial powers mod p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize a recurrence scheme")
    synth.add_argument("-p", "--prime", type=int, required=True, help="prime modulus")
    synth.add_argument("--vars", required=True, help="comma-separated variable names")
    synth.add_argument("--poly", required=True, help="polynomial expression")
    synth.add_argument("--q0", default="1", help="seed polynomial (default 1)")
    synth.add_argument("--max-states", type=int, default=100_000)
    synth.add_argument("-o", "--output", help="scheme JSON path (default stdout)")

    ev = sub.add_parser("eval", help="evaluate the sequence at one index")
    ev.add_argument("--scheme", required=True)
    which = ev.add_mutually_exclusive_group(required=True)
    which.add_argument("--n", help="index as a decimal string of any size")
    which.add_argument("--pow", type=int, metavar="K", help="evaluate at p^K - 1")
    which.add_argument("--npow10", type=int, metavar="E", help="evaluate at 10^E")
    ev.add_argument("--histogram", action="store_true", help="print the residue histogram")
    ev.add_argument("--json", action="store_true")

    terms = sub.add_parser("terms", help="print a prefix of the sequence")
    terms.add_argument("--scheme", required=True)
    terms.add_argument("--count", type=int, required=True)
    terms.add_argument("--histogram", action="store_true")
    terms.add_argument("--json", action="store_true")

    sparse = sub.add_parser("sparse", help="print values at p^k - 1 for k = 0..K")
    sparse.add_argument("--scheme", required=True)
    sparse.add_argument("--count", type=int, required=True, metavar="K")
    sparse.add_argument("--json", action="store_true")

    gf = sub.add_parser("gf", help="generating function of the sparse subsequence")
    gf.add_argument("--scheme", required=True)
    gf.add_argument("--guess", action="store_true", help="fit --budget terms and verify them")
    gf.add_argument("--budget", type=int, help="terms for --guess (default 2m+2)")
    gf.add_argument("--json", action="store_true")

    check = sub.add_parser("check", help="verify a scheme against the brute-force oracle")
    check.add_argument("--scheme", required=True)
    check.add_argument("--nmax", type=int, default=128)
    check.add_argument("--rlt-limit", type=int)
    check.add_argument("--json", action="store_true")

    return parser


def _parse_index(args, p: int) -> int:
    if args.n is not None:
        text = args.n.strip()
        if not text.isdigit():
            raise ValueError(f"--n must be a nonnegative decimal integer, got {text!r}")
        return int(text)
    if args.pow is not None:
        if args.pow < 0:
            raise ValueError("--pow must be nonnegative")
        return p**args.pow - 1
    if args.npow10 < 0:
        raise ValueError("--npow10 must be nonnegative")
    return 10**args.npow10


def _cmd_synth(args) -> int:
    vars = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    if not vars:
        raise ValueError("--vars must name at least one variable")
    poly = parse_poly(args.poly, vars, args.prime)
    q0 = parse_poly(args.q0, vars, args.prime)
    scheme = synthesize(poly, q0, max_states=args.max_states)
    text = scheme_to_json(scheme)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_eval(args) -> int:
    scheme = load_scheme(args.scheme)
    n = _parse_index(args, scheme.p)
    if args.histogram:
        hist = eval_histogram_at(scheme, n)
        if args.json:
            _print_json({"n": str(n), "histogram": list(hist)})
        else:
            print(f"{n} " + ",".join(str(c) for c in hist))
    else:
        value = eval_at(scheme, n)
        if args.json:
            _print_json({"n": str(n), "value": value})
        else:
            print(value)
    return EXIT_OK


def _cmd_terms(args) -> int:
    if args.count < 0:
        raise ValueError("--count must be nonnegative")
    scheme = load_scheme(args.scheme)
    if args.histogram:
        rows = [eval_histogram_at(scheme, n) for n in range(args.count)]
        if args.json:
            _print_json({"histograms": [list(r) for r in rows]})
        else:
            for n, row in enumerate(rows):
                print(f"{n} " + ",".join(str(c) for c in row))
    else:
        values = terms_prefix(scheme, args.count)
        if args.json:
            _print_json({"values": values})
        else:
            for v in values:
                print(v)
    return EXIT_OK


def _cmd_sparse(args) -> int:
    if args.count < 0:
        raise ValueError("--count must be nonnegative")
    scheme = load_scheme(args.scheme)
    values = sparse_terms(scheme, args.count)
    if args.json:
        _print_json({"values": values})
    else:
        for v in values:
            print(v)
    return EXIT_OK


def _cmd_gf(args) -> int:
    scheme = load_scheme(args.scheme)
    if args.guess:
        budget = args.budget if args.budget is not None else 2 * scheme.state_count + 2
        gf = gf_guess(scheme, budget)
        if not gf_verify(gf, scheme, budget):
            print("guessed generating function failed verification", file=sys.stderr)
            return EXIT_VERIFY
    else:
        gf = gf_prove(scheme)
    if args.json:
        sys.stdout.write(gf_to_json(gf))
    else:
        print(gf_to_text(gf))
    return EXIT_OK


def _cmd_check(args) -> int:
    scheme = load_scheme(args.scheme)
    report = verify_scheme(scheme, args.nmax, gf=gf_prove(scheme), rlt_limit=args.rlt_limit)
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        print(report.render_text())
    return EXIT_OK if report.ok else EXIT_VERIFY


_COMMANDS = {
    "synth": _cmd_synth,
    "eval": _cmd_eval,
    "terms": _cmd_terms,
    "sparse": _cmd_sparse,
    "gf": _cmd_gf,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except LimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
