"""End-to-end difference-quotient experiments: non-tangential limits and
uniform-boundedness sweeps of the quotient functionals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DiskRegion, Ray, SwissCheeseDomain, ray_samples
from .lipschitz import GalleryFunction, _max_ratio, _seminorm_pairs

CONVERGED = "CONVERGED"
NOT_CONVERGED = "NOT_CONVERGED"
INCONCLUSIVE = "INCONCLUSIVE"

EXACT_FLOOR = 1e-12
LIMIT_TOL_DEFAULT = 1e-3


@dataclass(frozen=True)
class LimitExperimentReport:
    samples: tuple[tuple[complex, complex, float], ...]  # (x, quotient, deviation)
    derivative_value: complex
    estimated_limit: complex
    convergence_order: float
    verdict: str


def _fit_order(xs: list[float], devs: list[float]) -> float:
    """Log-log slope of deviation against the distances |x - x0| `xs` over
    the last few scales.

    The least-squares slope through the points whose deviation exceeds
    EXACT_FLOOR, in closed form: a fit of at most 5 points needs no
    LAPACK solve."""
    pts = [(math.log(x), math.log(d)) for x, d in zip(xs, devs) if d > EXACT_FLOOR]
    if len(pts) < 2:
        return math.inf  # numerically exact
    mx = sum(a for a, _ in pts) / len(pts)
    my = sum(b for _, b in pts) / len(pts)
    sxx = sum((a - mx) ** 2 for a, _ in pts)
    sxy = sum((a - mx) * (b - my) for a, b in pts)
    return sxy / sxx if sxx > 0.0 else math.nan  # nan: all kept |x| equal


def _limit_report(
    samples: list[tuple[complex, complex]],
    df: complex,
    limit_tol: float,
    x0: complex,
) -> LimitExperimentReport:
    rows = tuple((x, q, abs(q - df)) for x, q in samples)
    tail = [d for _, _, d in rows[-5:]]
    tol_abs = limit_tol * (abs(df) if abs(df) > 0 else 1.0)
    if len(rows) < 5:
        # the order and a verdict read the last 5 samples
        order = math.nan
        verdict = INCONCLUSIVE
    else:
        order = _fit_order([abs(x - x0) for x, _, _ in rows[-5:]], tail)
        monotone = all(
            b <= a + EXACT_FLOOR for a, b in zip(tail, tail[1:])
        )
        if monotone and tail[-1] <= tol_abs:
            verdict = CONVERGED
        elif tail[-1] <= tol_abs:
            verdict = INCONCLUSIVE
        else:
            verdict = NOT_CONVERGED
    return LimitExperimentReport(
        samples=rows,
        derivative_value=df,
        estimated_limit=samples[-1][1],
        convergence_order=order,
        verdict=verdict,
    )


def _nontangential_limits(
    gallery: list[GalleryFunction],
    domain: SwissCheeseDomain,
    ray: Ray,
    scales: int,
    limit_tol: float,
) -> list[LimitExperimentReport]:
    """`nontangential_limit` of each gallery function; the ray is checked
    and sampled once, and each f's `quotient` is evaluated on all samples
    in one call.  Each f must be based at x0."""
    x0 = domain.base_point
    xs = ray_samples(domain, ray, scales + 1)
    reports = []
    for f in gallery:
        f.require_base_point(x0)
        df = f.quotient(x0)
        samples = list(zip(xs, f.quotient(np.array(xs)).tolist()))
        reports.append(_limit_report(samples, df, limit_tol, x0))
    return reports


def nontangential_limit(
    f: GalleryFunction,
    domain: SwissCheeseDomain,
    ray: Ray,
    scales: int = 20,
    limit_tol: float = LIMIT_TOL_DEFAULT,
) -> LimitExperimentReport:
    """Difference quotients along dyadic points of a non-tangential ray."""
    return _nontangential_limits([f], domain, ray, scales, limit_tol)[0]


@dataclass(frozen=True)
class FunctionalSweepReport:
    # rows: (function_index, x, |L_x(f)|, |L_x(f)| / seminorm(f)), one per
    # ray sample in ray order for each function not skipped
    grid: tuple[tuple[int, complex, float, float], ...]
    max_ratio: float
    skipped: tuple[int, ...] = ()
    seminorm_pairs: int = 0  # sample pairs each seminorm was taken over
    samples: tuple[complex, ...] = ()  # the ray samples, in ray order


def functional_sweep(
    gallery: list[GalleryFunction],
    domain: SwissCheeseDomain,
    ray: Ray,
    scales: int = 20,
    alpha: float = 0.5,
    pair_count: int = 2000,
    seed: int = 0,
) -> FunctionalSweepReport:
    """Tabulates |L_x(f)| / seminorm(f) over ray samples and functions, with
    L_x(f) = f.quotient(x) - f'(x0) the quotient functional.

    The maximum ratio estimates the uniform bound on the quotient
    functionals; it should stay stable as the sweep deepens on a domain whose
    series criterion holds.  Every function is measured on the same seminorm
    sample pairs, drawn once per process (`_seminorm_pairs` is memoised).
    Each f must be based at x0.
    """
    x0 = domain.base_point
    region = DiskRegion(domain.outer.center, domain.outer.radius)
    zw, d_alpha = _seminorm_pairs(region, alpha, pair_count, seed)
    xs = ray_samples(domain, ray, scales + 1)
    rows = []
    skipped = []
    for i, f in enumerate(gallery):
        f.require_base_point(x0)
        sem = _max_ratio(f(zw), d_alpha)
        if sem == 0.0:
            skipped.append(i)
            continue
        df = f.quotient(x0)
        for x, q in zip(xs, f.quotient(np.array(xs)).tolist()):
            lx = abs(q - df)
            rows.append((i, x, lx, lx / sem))
    max_ratio = max((r for _, _, _, r in rows), default=0.0)
    return FunctionalSweepReport(
        grid=tuple(rows),
        max_ratio=max_ratio,
        skipped=tuple(skipped),
        seminorm_pairs=len(d_alpha),
        samples=tuple(xs),
    )
