"""End-to-end difference-quotient experiments: non-tangential limits,
uniform-boundedness sweeps of the quotient functionals, and descriptive
tangential probes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DiskRegion,
    GeometryError,
    Ray,
    SwissCheeseDomain,
    verify_interior_cone,
)
from .lipschitz import GalleryFunction, seminorm_estimate

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
    note: str = ""


def _fit_order(xs: np.ndarray, devs: np.ndarray) -> float:
    """Log-log slope of deviation against |x| over the last few scales."""
    keep = devs > EXACT_FLOOR
    if keep.sum() < 2:
        return math.inf  # numerically exact
    lx = np.log(xs[keep])
    ld = np.log(devs[keep])
    slope = np.polyfit(lx, ld, 1)[0]
    return float(slope)


def _limit_report(
    samples: list[tuple[complex, complex]],
    df: complex,
    limit_tol: float,
    note: str = "",
    assert_verdict: bool = True,
) -> LimitExperimentReport:
    rows = tuple((x, q, abs(q - df)) for x, q in samples)
    devs = np.array([d for _, _, d in rows])
    xs = np.array([abs(x) for x, _, _ in rows])
    order = _fit_order(xs[-5:], devs[-5:]) if len(rows) >= 5 else math.nan
    tol_abs = limit_tol * (abs(df) if abs(df) > 0 else 1.0)
    if not assert_verdict or len(rows) < 5:
        # a verdict reads the last 5 samples
        verdict = INCONCLUSIVE
    else:
        tail = devs[-5:]
        monotone = all(
            b <= a + EXACT_FLOOR for a, b in zip(tail, tail[1:])
        )
        if monotone and devs[-1] <= tol_abs:
            verdict = CONVERGED
        elif devs[-1] <= tol_abs:
            verdict = INCONCLUSIVE
        else:
            verdict = NOT_CONVERGED
    return LimitExperimentReport(
        samples=rows,
        derivative_value=df,
        estimated_limit=samples[-1][1],
        convergence_order=order,
        verdict=verdict,
        note=note,
    )


def nontangential_limit(
    f: GalleryFunction,
    domain: SwissCheeseDomain,
    ray: Ray,
    scales: int = 20,
    limit_tol: float = LIMIT_TOL_DEFAULT,
) -> LimitExperimentReport:
    """Difference quotients along dyadic points of a non-tangential ray."""
    x0 = domain.base_point
    if ray.origin != x0:
        raise GeometryError("ray must start at the domain base point")
    verify_interior_cone(domain, ray)  # rejects rays crossing a hole
    df = f.derivative(x0)
    samples = []
    for j in range(scales + 1):
        x = ray.point(ray.length * 2.0**-j)
        if not domain.contains(x):
            raise GeometryError(f"ray sample {x} lies outside the domain")
        q = (f(x) - f(x0)) / (x - x0)
        samples.append((x, q))
    return _limit_report(samples, df, limit_tol)


@dataclass(frozen=True)
class FunctionalSweepReport:
    # rows: (function_index, x, |L_x(f)|, |L_x(f)| / seminorm(f))
    grid: tuple[tuple[int, complex, float, float], ...]
    max_ratio: float
    skipped: tuple[int, ...] = ()


def functional_sweep(
    gallery: list[GalleryFunction],
    domain: SwissCheeseDomain,
    ray: Ray,
    scales: int = 20,
    alpha: float = 0.5,
    pair_count: int = 2000,
    seed: int = 0,
) -> FunctionalSweepReport:
    """Tabulates |f(x)/x - Df| / seminorm(f) over ray samples and functions.

    The maximum ratio estimates the uniform bound on the quotient
    functionals; it should stay stable as the sweep deepens on a domain whose
    series criterion holds.
    """
    x0 = domain.base_point
    region = DiskRegion(domain.outer.center, domain.outer.radius)
    rows = []
    skipped = []
    for i, f in enumerate(gallery):
        if abs(f(x0)) > 1e-12:
            raise GeometryError(f"gallery function {i} is not normalized at x0")
        sem = seminorm_estimate(f, region, alpha, pair_count=pair_count, seed=seed).value
        if sem == 0.0:
            skipped.append(i)
            continue
        df = f.derivative(x0)
        for j in range(scales + 1):
            x = ray.point(ray.length * 2.0**-j)
            lx = abs(f(x) / (x - x0) - df)
            rows.append((i, x, lx, lx / sem))
    max_ratio = max((r for _, _, _, r in rows), default=0.0)
    return FunctionalSweepReport(
        grid=tuple(rows), max_ratio=max_ratio, skipped=tuple(skipped)
    )


def tangential_probe(
    f: GalleryFunction,
    domain: SwissCheeseDomain,
    curve,
    scales: int = 20,
    limit_tol: float = LIMIT_TOL_DEFAULT,
) -> LimitExperimentReport:
    """Difference quotients along a tangential approach curve.

    `curve` maps t in (0, 1] to a point of U approaching the base point as
    t -> 0.  Output is descriptive only; no theorem is asserted, so the
    verdict is always INCONCLUSIVE.
    """
    x0 = domain.base_point
    df = f.derivative(x0)
    samples = []
    for j in range(scales + 1):
        x = curve(2.0**-j)
        if not domain.contains(x):
            raise GeometryError(f"curve sample {x} lies outside the domain")
        q = (f(x) - f(x0)) / (x - x0)
        samples.append((x, q))
    return _limit_report(
        samples, df, limit_tol, note="tangential probe: descriptive only",
        assert_verdict=False,
    )


def hole_hugging_curve(domain: SwissCheeseDomain, margin_decay: float = 0.5):
    """Approach along the positive hole axis, squeezing toward hole boundaries.

    Returns a curve t -> x(t) whose distance to the nearest hole shrinks
    faster than |x|, making the approach tangential for roadrunner domains.
    """
    holes = sorted(domain.holes, key=lambda h: -abs(h.center - domain.base_point))
    if not holes:
        raise GeometryError("hole-hugging curve needs at least one hole")
    x0 = domain.base_point
    d_outer = abs(holes[0].center - x0)
    inner = holes[-1]
    d_floor = (abs(inner.center - x0) - inner.radius) * 0.5
    u_axis = (holes[0].center - x0) / d_outer

    def curve(t: float) -> complex:
        target = d_outer * t
        if target <= d_floor:
            # below the truncated hole scales: finish radially into the vertex
            return x0 + target * u_axis
        best = min(holes, key=lambda h: abs(abs(h.center - x0) - target))
        d = abs(best.center - x0)
        u = (best.center - x0) / d
        gap = (d - best.radius) * margin_decay * t
        return best.center - (best.radius + max(gap, d * 1e-9)) * u

    return curve
