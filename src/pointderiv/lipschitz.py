"""Closed-form gallery functions and Lipschitz seminorm estimators.

Gallery functions are sums of a polynomial, simple poles placed inside holes,
and Cauchy transforms of hole disks, Lipschitz on the closed unit disk and
zero at the base point x0 by construction; one closed-form sum over their
terms gives their values, difference quotients and derivatives f'(x0).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Disk, SwissCheeseDomain


class GalleryError(ValueError):
    pass


def disk_cauchy_transform(disk: Disk, z):
    """Cauchy transform of the area measure of a disk.

    Equals pi r^2 / (c - z) outside the disk and -pi * conj(z - c) inside;
    the two formulas agree on the boundary circle.  Returns an array, 0-d
    for a scalar z.
    """
    z = np.asarray(z, dtype=complex)
    c, r = disk.center, disk.radius
    outside = np.abs(z - c) > r
    if outside.all():
        # the array loop, not numpy's scalar arithmetic, divides a 0-d z too
        return np.divide(math.pi * r * r, c - z, out=np.empty_like(z))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            outside,
            math.pi * r * r / np.where(outside, c - z, 1.0),
            -math.pi * np.conj(z - c),
        )
    return out


@dataclass(frozen=True)
class GalleryFunction:
    """f(z) = poly(z) + sum w/(z - pole) + sum w * CT_disk(z), minus f(x0)."""

    poly_coeffs: tuple[complex, ...] = ()
    rational_terms: tuple[tuple[complex, complex], ...] = ()  # (pole, weight)
    ct_terms: tuple[tuple[Disk, complex], ...] = ()  # (disk, weight)
    base_point: complex = 0j
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "poly_coeffs", tuple(complex(c) for c in self.poly_coeffs))
        object.__setattr__(
            self,
            "rational_terms",
            tuple((complex(p), complex(w)) for p, w in self.rational_terms),
        )
        object.__setattr__(self, "ct_terms", tuple((d, complex(w)) for d, w in self.ct_terms))
        for p, _ in self.rational_terms:
            if p == complex(self.base_point):
                raise GalleryError("pole coincides with the base point")

    def _terms(self, z):
        """The one sum over f's terms at the points z: (d, q, D, m) with
        d = z - x0, f(z) - f(x0) = d q + D and the quotient q + D / d, in
        forms that subtract no nearly equal values.  q holds the polynomial
        by synthetic division at x0 (Horner on the coefficients of
        (P(z) - P(x0)) / (z - x0)), a pole w / (z - p) as
        -w / ((z - p)(x0 - p)), and a Cauchy transform w pi r^2 / (c - z) as
        w pi r^2 / ((c - z)(c - x0)) where z and x0 lie outside its disk.
        D holds the transform's difference, -w pi conj(z - x0) where both lie
        in the closed disk and raw where one does, at least their distances
        to the circle apart; m marks the points with a part in D, and both
        are None if none has one.  Each formula runs only where it serves."""
        z = np.asarray(z, dtype=complex)
        x0 = complex(self.base_point)
        d = z - x0
        q = np.zeros_like(z)
        D = m = None
        b = 0j
        for c in reversed(self.poly_coeffs[1:]):
            b = b * x0 + c
            q = q * z + b
        for p, w in self.rational_terms:
            zp = z - p
            if np.any(zp == 0):
                raise GalleryError(f"evaluation at the pole {p}")
            q = q + w / (p - x0) / zp
        for disk, w in self.ct_terms:
            c, r = disk.center, disk.radius
            x0_out = abs(x0 - c) > r
            out = np.abs(z - c) > r
            if x0_out and out.all():
                q = q + w * math.pi * r * r / (c - x0) / (c - z)
                continue
            if D is None:
                D, m = np.zeros_like(z), np.zeros(z.shape, bool)
            same = out if x0_out else ~out  # z on x0's side of the circle
            if x0_out:
                q[same] += w * math.pi * r * r / (c - x0) / (c - z[same])
            else:
                D[same] += w * (-math.pi * np.conj(d[same]))
                m |= same
            D[~same] += w * (disk_cauchy_transform(disk, z[~same]) - disk_cauchy_transform(disk, x0))
            m |= ~same
        return d, q, D, m

    def __call__(self, z):
        scalar = np.isscalar(z) or isinstance(z, complex)
        d, q, D, m = self._terms(z)
        out = d * q if D is None else d * q + D
        return complex(out) if scalar else out

    def quotient(self, z):
        """The difference quotient (f(z) - f(x0)) / (z - x0) at the base point
        x0, from `_terms`.  Elementwise like f; at z = x0 it is f'(x0), and a
        GalleryError if x0 lies in a closed ct disk, where f has no complex
        derivative."""
        scalar = np.isscalar(z) or isinstance(z, complex)
        d, q, D, m = self._terms(z)
        if D is not None:
            if np.any(d[m] == 0):
                raise GalleryError(f"no derivative at the base point {self.base_point} in a ct disk")
            q[m] += D[m] / d[m]
        return complex(q) if scalar else q

    def require_base_point(self, x0: complex) -> None:
        """Raise GalleryError unless f is normalized at x0, so that f(x0) = 0
        and `quotient` is the difference quotient at x0."""
        if self.base_point != x0:
            raise GalleryError(f"gallery base point {self.base_point} is not x0 = {x0}")

    def validate_for_domain(self, domain: SwissCheeseDomain) -> None:
        """Check poles and ct disks sit inside holes, so f is analytic on U."""
        for p, _ in self.rational_terms:
            rho = abs(p - domain.base_point)
            if not any(abs(p - h.center) < h.radius for _, _, _, _, h in domain._holes_meeting(rho, rho)):
                raise GalleryError(f"pole {p} is not strictly inside any hole")
        for d, _ in self.ct_terms:
            rho = abs(d.center - domain.base_point)
            near = domain._holes_meeting(rho - d.radius, rho + d.radius)
            if not any(abs(d.center - h.center) + d.radius <= h.radius for _, _, _, _, h in near):
                raise GalleryError(f"ct disk {d} is not contained in any hole")


def conjugate_function(radius: float = 1.0, center: complex = 0j) -> GalleryFunction:
    """f(z) = conj(z - center) on the disk |z - center| <= radius.

    Realized as a weighted Cauchy transform of that disk; only valid as
    conj inside the disk, which is where the lemma checks use it.
    """
    return GalleryFunction(
        ct_terms=((Disk(center, radius), -1.0 / math.pi),),
        base_point=center,
        label="conjugate",
    )


# ---------------------------------------------------------------------------
# Seminorm estimation


@dataclass(frozen=True)
class SeminormEstimate:
    value: float
    pair_count: int
    region: object


def sample_pairs(region, pair_count: int, rng: np.random.Generator):
    """Candidate pairs: extremal boundary pairs, near-diagonal dyadic pairs,
    and independent random pairs.  Returns two complex arrays."""
    zs: list[np.ndarray] = []
    ws: list[np.ndarray] = []
    ex = region.extremal_pairs(24)
    if ex:
        zs.append(np.array([p[0] for p in ex]))
        ws.append(np.array([p[1] for p in ex]))
    diam = region.diameter()
    n_diag = pair_count // 3
    if n_diag > 0 and diam > 0:
        base = region.sample(n_diag, rng)
        k = rng.integers(1, 14, n_diag)
        sep = diam * 2.0 ** (-k.astype(float))
        phi = 2.0 * math.pi * rng.random(n_diag)
        cand = base + sep * np.exp(1j * phi)
        ok = region.contains_many(cand)
        zs.append(base[ok])
        ws.append(cand[ok])
    n_rand = max(pair_count - n_diag, 2)
    a = region.sample(n_rand, rng)
    b = region.sample(n_rand, rng)
    zs.append(a)
    ws.append(b)
    return np.concatenate(zs), np.concatenate(ws)


@functools.lru_cache(maxsize=16)
def _seminorm_pairs(region, alpha: float, pair_count: int, seed: int):
    """The pairs of a seminorm estimate as (zw, |z - w|**alpha), without
    the pairs of equal points: zw holds the first points z followed by the
    second points w, so f is evaluated once on both.

    They depend on the region, not on f, so they are drawn once per
    distinct argument tuple and both arrays are read-only; a pair takes
    about 40 B.  Regions are frozen and compared by value, and as for the
    contour memos `lru_cache` takes 0.0 and -0.0 (and 1 and 1.0) for the
    same key.  An exception, such as the GalleryError for a `pair_count`
    below 100, is not cached: it is raised again on every call.
    """
    if pair_count < 100:
        raise GalleryError("pair_count must be >= 100")
    z, w = sample_pairs(region, pair_count, np.random.default_rng(seed))
    d = np.abs(z - w)
    keep = d > 0
    pairs = np.concatenate([z[keep], w[keep]]), d[keep] ** alpha
    for a in pairs:
        a.setflags(write=False)
    return pairs


def _max_ratio(values, d_alpha) -> float:
    """max |f(z) - f(w)| / |z - w|**alpha over the pairs of `_seminorm_pairs`,
    from the values of f at their points z followed by w; values past the
    pairs' points are ignored."""
    n = len(d_alpha)
    values = np.asarray(values)
    ratio = np.abs(values[:n] - values[n : 2 * n]) / d_alpha
    return float(ratio.max()) if n else 0.0


def seminorm_estimate(
    f,
    region,
    alpha: float,
    pair_count: int = 2000,
    seed: int = 0,
) -> SeminormEstimate:
    """Sampled lower estimate of sup |f(z)-f(w)| / |z-w|^alpha over the region.

    f must be elementwise: it maps an array of points to the array of its
    values at each point, so one call on all the pairs' points gives the
    same values as separate calls.  The sample pairs come from the memoised
    `_seminorm_pairs`, so only the first estimate with a given region,
    alpha, pair count and seed draws them."""
    zw, d_alpha = _seminorm_pairs(region, alpha, pair_count, seed)
    return SeminormEstimate(
        value=_max_ratio(f(zw), d_alpha), pair_count=len(d_alpha), region=region
    )


# ---------------------------------------------------------------------------
# Gallery construction for a Swiss-cheese domain


def build_test_gallery(
    domain: SwissCheeseDomain, count: int = 20
) -> list[GalleryFunction]:
    """Deterministic gallery of `count` functions adapted to the domain.

    Mixes polynomials, normalized poles at hole centers, Cauchy transforms of
    the holes, and combinations.  Pole weights are scaled by center^2 so all
    difference quotients stay O(1).  Only the functions returned are built.
    """
    x0 = domain.base_point
    polys = [
        (0, 1),
        (0, 0, 1),
        (0, 0, 0, 1),
        (0, 0.5, 1j),
        (0, 1j, 0, 0.25),
        (0, 2, -1, 0.5j),
    ]
    phases = [1.0, 1j, 0.7 - 0.7j, -1.0]

    def functions():
        for i, coeffs in enumerate(polys):
            yield GalleryFunction(poly_coeffs=coeffs, base_point=x0, label=f"poly{i}")
        for i, h in enumerate(domain.holes):
            c = h.center - x0
            w = phases[i % len(phases)] * c * c
            yield GalleryFunction(
                rational_terms=((h.center, w),),
                base_point=x0,
                label=f"pole@{h.center:.4g}",
            )
        for i, h in enumerate(domain.holes):
            yield GalleryFunction(
                ct_terms=((h, phases[(i + 1) % len(phases)]),),
                base_point=x0,
                label=f"ct@{h.center:.4g}",
            )
        # mixed: polynomial plus a pole plus a ct part
        for i, h in enumerate(domain.holes):
            c = h.center - x0
            yield GalleryFunction(
                poly_coeffs=(0, 1, 0.5j),
                rational_terms=((h.center, 0.5 * c * c),),
                ct_terms=((h, 1.0),),
                base_point=x0,
                label=f"mixed@{h.center:.4g}",
            )

    available = len(polys) + 3 * len(domain.holes)
    if available < count:
        raise GalleryError(
            f"domain supports only {available} gallery functions, need {count}"
        )
    # as many as the slice [:count] of all of them keeps, for a negative count too
    return list(itertools.islice(functions(), len(range(available)[:count])))
