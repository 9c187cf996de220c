"""Closed-form references for the benchmark's output checks.

Everything here is computed from the parameters of a gallery function or a
hole list; nothing calls the program's evaluators, quadrature or geometry
queries.  All gallery functions are normalised at the base point 0, so the
difference quotient at x is f(x)/x.
"""
from __future__ import annotations

import cmath
import math


def quotient(f, x: complex) -> complex:
    """f(x)/x from the terms of a gallery function with base point 0.

    poly: sum c_k x^(k-1) for k >= 1 (the constant cancels against f(0));
    pole w/(z-p): w/(p(x-p)); disk Cauchy transform w*CT_{c,r}: w pi r^2/(c(c-x)),
    valid while x and 0 lie outside the disk.
    """
    if complex(f.base_point) != 0:
        raise ValueError("references assume the base point 0")
    q = sum(c * x ** (k - 1) for k, c in enumerate(f.poly_coeffs) if k >= 1)
    for p, w in f.rational_terms:
        q += w / (p * (x - p))
    for disk, w in f.ct_terms:
        c, r = disk.center, disk.radius
        q += w * math.pi * r * r / (c * (c - x))
    return complex(q)


def singularities(f) -> list[tuple[complex, complex]]:
    """(location p, weight W) with f = sum W/(z - p) + analytic near each hole.

    A pole contributes W = w; a disk Cauchy transform equals -pi r^2/(z - c)
    outside its disk, so it contributes W = -w pi r^2 at its center.
    """
    out = [(complex(p), complex(w)) for p, w in f.rational_terms]
    out += [
        (complex(d.center), -complex(w) * math.pi * d.radius**2) for d, w in f.ct_terms
    ]
    return out


def contribution(p: complex, W: complex, x: complex) -> complex:
    """Residue at p of W/((z - p) z (z - x))."""
    return W / (p * (p - x))


def annulus_index(p: complex) -> int:
    """n with 2^-(n+1) < |p| <= 2^-n."""
    return math.floor(-math.log2(abs(p)))


def decomposition(f, x: complex, M: int, N: int):
    """(lhs, {n: annular term}, circle term) of the per-annulus split.

    Each D_n boundary is traversed clockwise, so its term is minus the summed
    contributions of the singularities in annulus n, and zero without one.
    The circle of radius 2^-M encloses x, the base point and every
    singularity with |p| < 2^-M.
    """
    lhs = quotient(f, x)
    terms = {n: 0j for n in range(M, N + 1)}
    circle = lhs
    for p, W in singularities(f):
        c = contribution(p, W, x)
        n = annulus_index(p)
        if n in terms:
            terms[n] -= c
        if abs(p) < 2.0**-M:
            circle += c
    return lhs, terms, circle


# ---------------------------------------------------------------------------
# Hole lists


def roadrunner_holes(rr: dict) -> list[tuple[int, complex, float]]:
    """(n, center, radius) of a roadrunner domain config, with its defaults."""
    a = float(rr.get("center_scale", 0.75))
    rho_c = float(rr.get("center_ratio", 0.5))
    angle = float(rr.get("angle", 0.0))
    b = float(rr.get("radius_scale", 1.0))
    rho_r = float(rr.get("radius_ratio", 0.25))
    n_min = int(rr.get("n_min", 3))
    trunc = int(rr.get("truncation", 9))
    return [
        (n, a * rho_c**n * cmath.exp(1j * angle), b * rho_r**n)
        for n in range(n_min, trunc + 1)
    ]


def roadrunner_term(n: int, radius: float, alpha: float) -> float:
    """Weighted series term 4^n (2 r_n)^(1+alpha) of a whole hole in annulus n."""
    return 4.0**n * (2.0 * radius) ** (1.0 + alpha)


def boundary_distance(holes, x: complex, outer_radius: float = 1.0) -> float:
    """Distance from x to the boundary of the unit-disk domain with base point 0."""
    d = outer_radius - abs(x)
    for c, r in holes:
        d = min(d, abs(x - c) - r)
    return min(d, abs(x))


def annuli_met(holes, n_max: int) -> set[int]:
    """Indices n <= n_max of the dyadic annuli [2^-(n+1), 2^-n] a hole meets."""
    met = set()
    for c, r in holes:
        lo, hi = abs(c) - r, abs(c) + r
        for n in range(1, n_max + 1):
            if not (hi < 2.0 ** -(n + 1) or lo > 2.0**-n):
                met.add(n)
    return met
