"""Seeded inputs and invocation plans for the specjump benchmark.

A plan is a JSON-able dict: the input files to write, the series files the
workload process builds before timing, and the CLI invocations of one pass,
each with what it must produce.

The seed moves jump locations, jump sizes, piece coefficients and the chirp
amplitude. It never changes the piece count, degree, K, grid or densities,
so one pass does the same work under every seed.

Why each workload exists (the same lines are the `why` entries of
BENCHMARK.json):

- tail_scan: closed-form coefficients at the CLI default K = 200000 feed the
  integrated, conjugate and Chebyshev tail estimators, which do nearly all
  the work; one series-JSON export and one read-back run beside them. It
  bypasses quadrature and variation.
- quadrature: non-polynomial pieces force panel quadrature in both bases at
  two cutoffs, K and 2K, so its K-scaling shows; only short Fejer, Cesaro and
  Chebyshev schedules run on top. It bypasses the tail sums and variation.
- variation: one budget-bound Lambda search (a chirp) and one exact,
  DP-bound report (the tail_scan spec). It bypasses coefficients and tails.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("tail_scan", "quadrature", "variation")

# Per-size parameters. "full" is the benchmark; "smoke" runs every code path
# in seconds, for the benchmark's own tests: its short series and mild chirp
# (no node-budget hit) need the looser tolerances of tol_scale.
SIZES = {
    "full": {
        "tail_K": None,  # None: the CLI's closed-form default, K = 200000
        "tail_grid": 3,
        "cheb_grid": 1,
        "tail_ns": (100, 200, 400),
        "quad_K": 256,
        "chirp_start": 0.02,
        "chirp_label": ["V_p", 1.55, 2.25],  # the range the package's own test pins
        "chirp_densities": (128, 256),
        "spec_densities": (64, 128, 256, 512),
        "tol_scale": 1.0,
    },
    "smoke": {
        "tail_K": 20000,
        "tail_grid": 1,
        "cheb_grid": 1,
        "tail_ns": (100, 200),
        "quad_K": 64,
        "chirp_start": 0.2,
        "chirp_label": ["BV"],
        "chirp_densities": (40, 48),
        "spec_densities": (40, 80),
        "tol_scale": 4.0,
    },
}

CLOSED_FORM_DEFAULT_K = 200_000

# Largest-n error allowed at a declared jump, as a + b * |jump|, about twice
# the worst error seen over 15 seeds (260 for the Chebyshev quadrature rows).
# The tail estimators converge like 1/n in the derivative jumps. Fejer and
# Cesaro means at n = K/2 carry an O(n/K) truncation error. Chebyshev tails on
# quadrature series balance the two near n = K/8, where the worst error is
# 0.18 + 0.12|jump| at K = 256 and 0.1 + 0.12|jump| at 2K (smaller n is worse:
# at n = 8 the error reaches the jump itself); both tolerances stay below the
# smallest jump, 0.5, so a zero estimate fails.
TOLERANCE = {
    "integrated": (0.01, 0.01),
    "conjugate": (0.02, 0.01),
    "chebyshev_closed": (0.02, 0.01),
    "fejer": (0.1, 0.05),
    "cesaro": (0.15, 0.1),
    "chebyshev_quad_K": (0.35, 0.25),
    "chebyshev_quad_2K": (0.2, 0.22),
}

_P_GRID_SIZE = 13  # p-variation rows per density (build_report's default grid)
_MODULUS_ROWS = 32  # modulus rows per density once a grid has 33+ samples

_NAMESPACE = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "pi": math.pi}


def _value(expr: str, x: float) -> float:
    """Evaluates piece text, which is written to be valid Python as well."""
    return eval(expr, dict(_NAMESPACE), {"x": x})


def _num(v: float) -> str:
    return f"({v!r})"


def _poly_piece(rng: random.Random, scale: float) -> str:
    cs = [rng.uniform(-1.0, 1.0) / scale**k for k in range(4)]
    return f"{_num(cs[0])} + {_num(cs[1])}*x + {_num(cs[2])}*x*x + {_num(cs[3])}*x*x*x"


def _smooth_pieces(rng: random.Random) -> list[str]:
    # A fixed template per piece with parameters in narrow ranges: quadrature
    # converges after the same number of panel doublings for every seed.
    u = lambda: _num(rng.uniform(0.5, 1.0))  # noqa: E731
    return [
        f"{u()}*exp({u()}*x/2)",
        f"{u()}*sin({u()}*x)",
        f"{u()}*cos({u()}*x) - {u()}*x",
        f"{u()}*exp(-{u()}*x/2)*cos(x)",
    ]


def piecewise(rng, lo, hi, lo_text, hi_text, periodic, bodies):
    """Spec text for four pieces with three seeded interior jumps.

    Each piece after the first is shifted by a constant so the jump at its
    left breakpoint is a seeded size in +-[0.5, 2]. On a periodic domain the
    last piece also gets a linear term that makes the wrap continuous, so the
    declared jumps are the only ones. Returns (text, [(breakpoint, jump)]).
    """
    span = hi - lo
    bps = [lo + span * (0.1 + 0.8 * (i + rng.uniform(0.15, 0.85)) / 3) for i in range(3)]
    jumps = [rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0) for _ in bps]
    exprs = [bodies[0]]
    for b, h, body in zip(bps, jumps, bodies[1:]):
        shift = _value(exprs[-1], b) + h - _value(body, b)
        exprs.append(f"{body} + {_num(shift)}")
    if periodic:
        slope = (_value(exprs[0], lo) - _value(exprs[-1], hi)) / (hi - bps[-1])
        exprs[-1] += f" + {_num(slope)}*(x - {_num(bps[-1])})"
    edges = [lo_text] + [repr(b) for b in bps] + [hi_text]
    pieces = "; ".join(
        f"piece {e} on [{a}, {b}]" for e, a, b in zip(exprs, edges, edges[1:])
    )
    head = f"domain [{lo_text}, {hi_text}]{' periodic' if periodic else ''}"
    # the CLI computes true jumps from the pieces; the measured values are
    # what the checks compare against
    declared = [(b, _value(exprs[i + 1], b) - _value(exprs[i], b)) for i, b in enumerate(bps)]
    return f"{head}; {pieces}\n", declared


def fourier_spec(rng, bodies):
    return piecewise(rng, -math.pi, math.pi, "-pi", "pi", True, bodies)


def chebyshev_spec(rng, bodies):
    return piecewise(rng, -1.0, 1.0, "-1", "1", False, bodies)


def _grid(lo: float, hi: float, count: int) -> list[float]:
    return [lo + (hi - lo) * (j + 0.5) / count for j in range(count)]


def _points_arg(xs) -> str:
    # "--points=..." keeps argparse from reading a leading "-1.3" as a flag
    return "--points=" + ",".join(repr(x) for x in xs)


def _detect(spec, method, xs, ns, jumps, tol, extra=()):
    """A detect call at xs over the n-list ns; `tol` is (a, b) of TOLERANCE."""
    a, b = tol
    return {
        "argv": ["--command", "detect", "--input", spec, "--method", method,
                 _points_arg(xs), "--n-list", ",".join(map(str, ns)), *extra],
        "expect": {
            "kind": "detect",
            "rows": len(xs) * len(ns),
            "jumps": [[x, h, a + b * abs(h)] for x, h in jumps],
            "truth": True,
        },
    }


def _coeffs(spec, K, extra=()):
    return {
        "argv": ["--command", "coeffs", "--input", spec, "--basis", "fourier",
                 "--Kcap", str(K), *extra],
        "expect": {"kind": "coeffs", "rows": 2 * K + 1},
    }


def _variation(spec, densities, label):
    if min(densities) < _MODULUS_ROWS + 8:
        raise ValueError("variation densities must give more than 33 samples")
    return {
        "argv": ["--command", "variation", "--input", spec,
                 "--densities", ",".join(map(str, densities))],
        "expect": {
            "kind": "variation",
            "rows": len(densities) * (_P_GRID_SIZE + 1 + _MODULUS_ROWS),
            "label": label,
        },
    }


def _tail_specs(seed: int):
    """The piecewise-cubic Fourier and Chebyshev specs of one seed."""
    rng = random.Random(f"tail_scan/{seed}")
    fourier = fourier_spec(rng, [_poly_piece(rng, math.pi) for _ in range(4)])
    chebyshev = chebyshev_spec(rng, [_poly_piece(rng, 1.0) for _ in range(4)])
    return fourier, chebyshev


def tail_scan(seed: int, size: dict, tol) -> list[dict]:
    (fspec, fjumps), (cspec, cjumps) = _tail_specs(seed)
    K = size["tail_K"] or CLOSED_FORM_DEFAULT_K
    kcap = () if size["tail_K"] is None else ("--Kcap", str(K))
    ns = size["tail_ns"]
    bps = [x for x, _ in fjumps]
    fxs = sorted(_grid(-math.pi, math.pi, size["tail_grid"]) + bps)
    cxs = sorted(_grid(-1.0, 1.0, size["cheb_grid"]) + [x for x, _ in cjumps])
    export = _coeffs("fourier.spec", K, ("--out", "export.json"))
    export["expect"].update(out="export.json", equals="series.json")
    # reads the series file back; its estimates must equal the first call's
    readback = _detect("series.json", "integrated", bps, ns, [], tol("integrated"))
    readback["expect"].update(truth=False, same_as=0)
    return {
        "files": {"fourier.spec": fspec, "chebyshev.spec": cspec},
        "series": [{"spec": "fourier.spec", "basis": "fourier", "K": K, "path": "series.json"}],
        "invocations": [
            _detect("fourier.spec", "integrated", fxs, ns, fjumps, tol("integrated"),
                    ("--r", "0", *kcap)),
            _detect("fourier.spec", "conjugate", fxs, ns, fjumps, tol("conjugate"),
                    ("--r", "1", *kcap)),
            _detect("chebyshev.spec", "chebyshev", cxs, ns, cjumps, tol("chebyshev_closed"), kcap),
            export,
            readback,
        ],
    }


def quadrature(seed: int, size: dict, tol) -> dict:
    rng = random.Random(f"quadrature/{seed}")
    fspec, fjumps = fourier_spec(rng, _smooth_pieces(rng))
    cspec, cjumps = chebyshev_spec(rng, _smooth_pieces(rng))
    fxs = [x for x, _ in fjumps]
    cxs = [x for x, _ in cjumps]
    invocations = []
    for K, cheb_tol in ((size["quad_K"], "chebyshev_quad_K"), (2 * size["quad_K"], "chebyshev_quad_2K")):
        kcap = ("--Kcap", str(K))
        ns = (K // 4, K // 2)
        invocations += [
            _detect("fourier.spec", "fejer", fxs, ns, fjumps, tol("fejer"), kcap),
            _detect("fourier.spec", "cesaro", fxs, ns, fjumps, tol("cesaro"), ("--alpha", "2", *kcap)),
            _detect("chebyshev.spec", "chebyshev", cxs, (K // 16, K // 8), cjumps,
                    tol(cheb_tol), kcap),
            _coeffs("fourier.spec", K),
        ]
    return {
        "files": {"fourier.spec": fspec, "chebyshev.spec": cspec},
        "series": [],
        "invocations": invocations,
    }


def variation(seed: int, size: dict, tol) -> dict:
    rng = random.Random(f"variation/{seed}")
    # A power-of-two amplitude scales every sample exactly, so the Lambda
    # search visits the same nodes, and spends the same time, for every seed.
    amp = rng.choice((-1.0, 1.0)) * 2.0 ** rng.randint(-2, 2)
    chirp = f"domain [{size['chirp_start']!r}, 1]; piece {_num(amp)}*x*sin(1/x^2)\n"
    (fspec, _), _ = _tail_specs(seed)
    return {
        "files": {"chirp.spec": chirp, "fourier.spec": fspec},
        "series": [],
        "invocations": [
            _variation("chirp.spec", size["chirp_densities"], size["chirp_label"]),
            _variation("fourier.spec", size["spec_densities"], ["BV"]),
        ],
    }


def make_plan(workload: str, seed: int, size: str = "full") -> dict:
    """The plan of one workload at one seed; see the module docstring."""
    build = {"tail_scan": tail_scan, "quadrature": quadrature, "variation": variation}[workload]
    params = SIZES[size]
    plan = build(seed, params, lambda key: tuple(params["tol_scale"] * t for t in TOLERANCE[key]))
    plan["workload"] = workload
    return plan
