"""In-memory spans around calls into the oncells modules, and the per-layer numbers.

`instrument(tracer)` replaces every public function of the layer modules
(poly, scheme, sequence, genfun, oracle) and `cli.main`, wherever an oncells
module refers to it, by a wrapper that records one span per call.  Nothing
under src/ is edited: the wrappers live here and are removed on exit.  Counts
(digit steps, entries touched, denominator degrees, ...) are computed at the
same boundaries from each call's arguments and result, outside the span's
own interval.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

LAYERS = ("poly", "scheme", "sequence", "genfun", "oracle")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int


class Tracer:
    """Collects spans and boundary counts; `job` tags the spans of the job running."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.job = 0
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.job))
                if count:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(self.counts, bound.arguments, result, error)

        return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every call into the oncells modules through `tracer` while the block runs."""
    import oncells

    modules = [importlib.import_module(f"oncells.{name}") for name in LAYERS + ("cli",)]
    wrappers = {}
    for layer, module in zip(LAYERS, modules):
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                wrappers[id(value)] = tracer.wrap(f"{layer}.{attr}", value)
    cli = modules[-1]
    wrappers[id(cli.main)] = tracer.wrap("cli.main", cli.main)

    replaced = []
    for module in modules + [oncells]:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                replaced.append((module, attr, value))
                setattr(module, attr, wrapper)
    try:
        yield tracer
    finally:
        for module, attr, value in replaced:
            setattr(module, attr, value)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children[span.id]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.id] = (span.end - span.start) - covered
    return out


# ---- boundary counts --------------------------------------------------------


def _digit_count(n: int, p: int) -> list[int]:
    """How often each digit occurs in base-p n."""
    seen = [0] * p
    while n > 0:
        n, d = divmod(n, p)
        seen[d] += 1
    return seen


def entries(scheme, digit: int) -> int:
    """Nonzeros of digit matrix `digit`: the total size of its transition multisets."""
    return sum(len(row[digit]) for row in scheme.transitions)


def _count_steps(counts, scheme, uses: list[int], width: int) -> None:
    """Record a dense route over `uses[d]` steps of digit d, on `width` columns."""
    m = scheme.state_count
    steps = sum(uses)
    counts["sequence.digit_steps"] += steps
    counts["sequence.dense_ops"] += steps * m * m * width
    counts["sequence.entries_touched"] += width * sum(
        k * entries(scheme, d) for d, k in enumerate(uses) if k
    )


def _count_eval(counts, a, result, error, histogram=False):
    if error is None:
        scheme = a["scheme"]
        uses = _digit_count(a["n"], scheme.p)
        _count_steps(counts, scheme, uses, scheme.p - 1 if histogram else 1)
        counts["eval_steps"] += sum(uses)


def _count_prefix(counts, a, result, error):
    if error is None and a["count"] > 1:
        p = a["scheme"].p
        uses = [len(range(d or p, a["count"], p)) for d in range(p)]
        _count_steps(counts, a["scheme"], uses, 1)


def _count_sparse(counts, a, result, error):
    if error is None:
        scheme = a["scheme"]
        uses = [0] * scheme.p
        uses[-1] = a["count"]
        _count_steps(counts, scheme, uses, 1)


def _count_solution(counts, a, result, error):
    if error is None:
        counts["gf_solutions"] += 1
        counts["den_degree"] += len(result.den) - 1
        counts["gf_states"] += a["scheme"].state_count


def _count_guess(counts, a, result, error):
    if error is None:
        counts["genfun.terms_used"] += a["budget"]
    _count_solution(counts, a, result, error)


def _count_gf_verify(counts, a, result, error):
    if error is None:
        counts["genfun.terms_used"] += max(a["count"], 0)


def _count_load(counts, a, result, error):
    counts["scheme.load_calls"] += 1
    if error is not None:
        counts["scheme.load_rejected"] += 1
    with contextlib.suppress(OSError):
        counts["scheme.loaded_bytes"] += os.path.getsize(a["path"])


def _count_parse(counts, a, result, error):
    counts["poly.parse_calls"] += 1


def _count_synth(counts, a, result, error):
    if error is None:
        counts["scheme.synth_states"] += result.state_count
        counts["scheme.synth_entries"] += sum(entries(result, d) for d in range(result.p))


def _count_serialize(counts, a, result, error):
    if error is None:
        counts["scheme.written_bytes"] += len(result.encode())


def _count_brute(counts, a, result, error):
    counts["oracle.brute_calls"] += 1


def _count_verify(counts, a, result, error):
    if error is None:
        counts["oracle.checks_run"] += len(result.checks)
        counts["oracle.checks_failed"] += sum(not (c.passed or c.informational) for c in result.checks)


COUNTERS = {
    "sequence.eval_at": _count_eval,
    "sequence.eval_histogram_at": functools.partial(_count_eval, histogram=True),
    "sequence.terms_prefix": _count_prefix,
    "sequence.sparse_terms": _count_sparse,
    "genfun.gf_prove": _count_solution,
    "genfun.gf_guess": _count_guess,
    "genfun.gf_verify": _count_gf_verify,
    "scheme.load_scheme": _count_load,
    "poly.parse_poly": _count_parse,
    "scheme.synthesize": _count_synth,
    "scheme.scheme_to_json": _count_serialize,
    "oracle.brute_values": _count_brute,
    "oracle.brute_histograms": _count_brute,
    "oracle.brute_scalar": _count_brute,
    "oracle.brute_histogram": _count_brute,
    "oracle.verify_scheme": _count_verify,
}

# Per-layer time metric -> the spans whose self time it sums.
SELF_TIME = {
    "sequence.eval_s": ("sequence.eval_at",),
    "sequence.hist_s": ("sequence.eval_histogram_at",),
    "sequence.prefix_s": ("sequence.terms_prefix",),
    "sequence.sparse_s": ("sequence.sparse_terms",),
    "genfun.prove_s": ("genfun.gf_prove",),
    "genfun.guess_s": ("genfun.gf_guess",),
    "genfun.verify_s": ("genfun.gf_verify",),
    "scheme.load_s": ("scheme.load_scheme", "scheme.scheme_from_json", "scheme.scheme_from_dict"),
    "scheme.synth_s": ("scheme.synthesize",),
    "scheme.serialize_s": ("scheme.scheme_to_json", "scheme.scheme_to_dict"),
    "poly.parse_s": ("poly.parse_poly",),
    "oracle.verify_s": ("oracle.verify_scheme",),
    "oracle.brute_s": (
        "oracle.brute_values",
        "oracle.brute_histograms",
        "oracle.brute_scalar",
        "oracle.brute_histogram",
    ),
    "cli.self_s": ("cli.main",),
}

# Per-layer count metrics, tallied under their own names by COUNTERS.
COUNTS = (
    "sequence.digit_steps",
    "sequence.entries_touched",
    "sequence.dense_ops",
    "genfun.terms_used",
    "scheme.load_calls",
    "scheme.loaded_bytes",
    "scheme.load_rejected",
    "poly.parse_calls",
    "scheme.synth_states",
    "scheme.synth_entries",
    "scheme.written_bytes",
    "oracle.brute_calls",
    "oracle.checks_run",
    "oracle.checks_failed",
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass."""
    own = self_times(tracer.spans)
    by_name: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        by_name[span.name] += own[span.id]
    out = {metric: sum(by_name[n] for n in names) for metric, names in SELF_TIME.items()}
    c = tracer.counts
    out.update({metric: c[metric] for metric in COUNTS})
    out["sequence.useful_ratio"] = _ratio(c["sequence.entries_touched"], c["sequence.dense_ops"])
    out["sequence.step_us"] = 1e6 * _ratio(
        out["sequence.eval_s"] + out["sequence.hist_s"], c["eval_steps"]
    )
    out["genfun.den_degree"] = _ratio(c["den_degree"], c["gf_solutions"])
    out["genfun.order_ratio"] = _ratio(c["den_degree"], c["gf_states"])
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
