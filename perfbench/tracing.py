"""Per-layer spans for the traced benchmark pass, installed from outside.

TRACED names each function that `specjump.cli` or `variation.build_report`
calls, the module attribute through which that call is looked up, and the
span it records. Installing rebinds those attributes to wrappers that record
(name, start, end, parent) plus a few counts; removing restores them, so
nothing under src/ changes. A traced name the package no longer has, or a
call whose arguments no longer bind to the counting rules below, fails the
traced run: broken tracing must not read as a faster layer.

Layers are the package modules. `cli.self_s` is `cli.main` time outside any
child span: argparse, the schedule, formatting and the divergence check.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict

# (module, attribute, span name)
TRACED = (
    ("cli", "main", "cli"),
    ("cli", "parse_function_spec", "funcspec.parse"),
    ("cli", "fourier_coefficients", "coefficients.build"),
    ("cli", "chebyshev_coefficients", "coefficients.build"),
    ("cli", "series_to_json", "coefficients.json_write"),
    ("cli", "series_from_json", "coefficients.json_read"),
    ("cli", "fejer_jump", "summability"),
    ("cli", "cesaro_jump", "summability"),
    ("cli", "jump_from_integrated", "tails"),
    ("cli", "jump_from_conjugate", "tails"),
    ("chebyshev", "jump_from_chebyshev", "chebyshev"),
    ("cli", "sample_for_variation", "variation.sample"),
    ("cli", "build_report", "variation.report"),
    ("variation", "p_variation", "variation.p"),
    ("variation", "lambda_variation", "variation.lambda"),
    ("variation", "modulus_of_variation", "variation.modulus"),
    ("cli", "classify", "variation.classify"),
)


def _tail_terms(args, est):
    # the summation cutoff is the package's own
    K = importlib.import_module("specjump.tails")._resolve_K(args["series"], est.n, args["cfg"])
    return {"terms": K - est.n + 1}


def _chebyshev_terms(args, est):
    K = importlib.import_module("specjump.chebyshev")._resolve_K(args["series"], args["cfg"])
    return {"terms": K - est.n + 1}


def _series_counts(args, series):
    stored = len(series.c) if hasattr(series, "c") else 2 * series.K + 1
    return {"provenance": series.provenance, "K": series.K, "coefs": stored}


# counts recorded after a call returns, from its bound arguments and result
ANNOTATE = {
    "coefficients.build": _series_counts,
    "summability": lambda args, est: {"terms": est.n},
    "tails": _tail_terms,
    "chebyshev": _chebyshev_terms,
    "variation.sample": lambda args, seq: {"samples": seq.n_points},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end, self.parent, self.attrs = name, start, None, parent, {}

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def wrap(self, name, fn):
        annotate = ANNOTATE.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if annotate is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = annotate(bound.arguments, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in TRACED:
                module = importlib.import_module(f"specjump.{module_name}")
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


WARNING_KINDS = (
    ("node_budget", "node budget"),
    ("remainder", "truncation"),
    ("divergence", "grow with n"),
)


def warning_kind(message: str) -> str:
    for kind, marker in WARNING_KINDS:
        if marker in message:
            return kind
    return "other"


def pass_metrics(spans, results, wall) -> dict:
    """Per-layer metrics of one traced pass."""
    children = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)] += s.seconds
    self_s = defaultdict(float)
    count = defaultdict(int)
    attr_sum = defaultdict(float)
    quad_by_K = defaultdict(float)
    for s in spans:
        own = s.seconds - children[id(s)]
        name = s.name
        if name == "coefficients.build" and "K" in s.attrs:
            # closed form and quadrature are told apart by the series' provenance
            name = "coefficients.closed" if s.attrs["provenance"] == "closed_form" else "coefficients.quad"
            if name == "coefficients.quad":
                quad_by_K[s.attrs["K"]] += own
        self_s[name] += own
        count[name] += 1
        for key, value in s.attrs.items():
            if isinstance(value, (int, float)) and key != "K":
                attr_sum[f"{s.name}.{key}"] += value
    top = sum(s.seconds for s in spans if s.parent is not None and s.parent.name == "cli")

    warnings = defaultdict(int)
    for res in results:
        for line in res["stderr"].splitlines():
            if line.startswith("warning: "):
                warnings[warning_kind(line)] += 1
    lambda_calls = count["variation.lambda"]
    Ks = sorted(quad_by_K)

    m = {
        "funcspec.parse_s": self_s["funcspec.parse"],
        "coefficients.closed_s": self_s["coefficients.closed"],
        "coefficients.quad_s": self_s["coefficients.quad"],
        "coefficients.quad_k_scaling": quad_by_K[Ks[-1]] / quad_by_K[Ks[0]] if len(Ks) > 1 else 0.0,
        "coefficients.coefs_built": attr_sum["coefficients.build.coefs"],
        "coefficients.json_write_s": self_s["coefficients.json_write"],
        "coefficients.json_read_s": self_s["coefficients.json_read"],
        "summability.s": self_s["summability"],
        "summability.terms": attr_sum["summability.terms"],
        "tails.s": self_s["tails"],
        "tails.calls": count["tails"],
        "tails.terms": attr_sum["tails.terms"],
        "tails.ns_per_term": 1e9 * self_s["tails"] / attr_sum["tails.terms"] if attr_sum["tails.terms"] else 0.0,
        "chebyshev.s": self_s["chebyshev"],
        "chebyshev.calls": count["chebyshev"],
        "chebyshev.terms": attr_sum["chebyshev.terms"],
        "variation.sample_s": self_s["variation.sample"],
        "variation.p_s": self_s["variation.p"],
        "variation.lambda_s": self_s["variation.lambda"],
        "variation.modulus_s": self_s["variation.modulus"],
        "variation.classify_s": self_s["variation.classify"],
        "variation.samples": attr_sum["variation.sample.samples"],
        "variation.lambda_calls": lambda_calls,
        "variation.lambda_exact_ratio": (
            (lambda_calls - warnings["node_budget"]) / lambda_calls if lambda_calls else 0.0
        ),
        "cli.self_s": self_s["cli"],
        "cli.output_bytes": sum(len(r["stdout"].encode()) + len(r["file"].encode()) for r in results),
        "cli.precision_warnings": sum(warnings.values()),
        "trace.coverage": top / wall,
    }
    for kind in [k for k, _ in WARNING_KINDS] + ["other"]:
        m[f"cli.precision_warnings.{kind}"] = warnings[kind]
    return m


def median_metrics(passes: list[dict]) -> dict:
    """Median of each per-layer metric over traced passes."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
