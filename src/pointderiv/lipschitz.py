"""Closed-form gallery functions and Lipschitz seminorm estimators.

Gallery functions are sums of a polynomial, simple poles placed inside holes,
and Cauchy transforms of hole disks; all have closed-form values and
derivatives, are Lipschitz on the closed unit disk, and vanish at the base
point by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Disk, SwissCheeseDomain


class GalleryError(ValueError):
    pass


def disk_cauchy_transform(disk: Disk, z):
    """Cauchy transform of the area measure of a disk.

    Equals pi r^2 / (c - z) outside the disk and -pi * conj(z - c) inside;
    the two formulas agree on the boundary circle.
    """
    z = np.asarray(z, dtype=complex)
    c, r = disk.center, disk.radius
    outside = np.abs(z - c) > r
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
    _offset: complex = field(init=False, default=0j, compare=False)

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
        object.__setattr__(self, "_offset", 0j)
        object.__setattr__(self, "_offset", self._raw(complex(self.base_point)))

    def _raw(self, z):
        z = np.asarray(z, dtype=complex)
        val = np.zeros_like(z)
        for k, c in enumerate(reversed(self.poly_coeffs)):
            val = val * z + c
        for p, w in self.rational_terms:
            d = z - p
            if np.any(d == 0):
                raise GalleryError(f"evaluation at the pole {p}")
            val = val + w / d
        for disk, w in self.ct_terms:
            val = val + w * disk_cauchy_transform(disk, z)
        return val

    def __call__(self, z):
        scalar = np.isscalar(z) or isinstance(z, complex)
        out = self._raw(z) - self._offset
        return complex(out) if scalar else out

    def derivative(self, z):
        """Closed-form derivative; valid off the poles and ct disks."""
        scalar = np.isscalar(z) or isinstance(z, complex)
        z = np.asarray(z, dtype=complex)
        for disk, _ in self.ct_terms:
            if np.any(np.abs(z - disk.center) <= disk.radius):
                raise GalleryError(
                    f"derivative requested inside or on the ct disk {disk}"
                )
        val = np.zeros_like(z)
        n = len(self.poly_coeffs)
        for k, c in enumerate(reversed(self.poly_coeffs[1:])):
            deg = n - 1 - k
            val = val * z + deg * c
        for p, w in self.rational_terms:
            d = z - p
            if np.any(d == 0):
                raise GalleryError(f"derivative at the pole {p}")
            val = val - w / d**2
        for disk, w in self.ct_terms:
            val = val + w * math.pi * disk.radius**2 / (disk.center - z) ** 2
        return complex(val) if scalar else val

    def validate_for_domain(self, domain: SwissCheeseDomain) -> None:
        """Check poles and ct disks sit inside holes, so f is analytic on U."""
        for p, _ in self.rational_terms:
            if not any(abs(p - h.center) < h.radius for h in domain.holes):
                raise GalleryError(f"pole {p} is not strictly inside any hole")
        for d, _ in self.ct_terms:
            ok = any(
                abs(d.center - h.center) + d.radius <= h.radius + 1e-12
                for h in domain.holes
            )
            if not ok:
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


def _seminorm_pairs(region, alpha: float, pair_count: int, seed: int):
    """The pairs of a seminorm estimate as (z, w, |z - w|**alpha), without
    the pairs of equal points.  They depend on the region, not on f."""
    if pair_count < 100:
        raise GalleryError("pair_count must be >= 100")
    z, w = sample_pairs(region, pair_count, np.random.default_rng(seed))
    d = np.abs(z - w)
    keep = d > 0
    return z[keep], w[keep], d[keep] ** alpha


def _max_ratio(f, pairs) -> float:
    """max |f(z) - f(w)| / |z - w|**alpha over the pairs of `_seminorm_pairs`."""
    z, w, d_alpha = pairs
    ratio = np.abs(np.asarray(f(z)) - np.asarray(f(w))) / d_alpha
    return float(ratio.max()) if len(ratio) else 0.0


def seminorm_estimate(
    f,
    region,
    alpha: float,
    pair_count: int = 2000,
    seed: int = 0,
) -> SeminormEstimate:
    """Sampled lower estimate of sup |f(z)-f(w)| / |z-w|^alpha over the region."""
    pairs = _seminorm_pairs(region, alpha, pair_count, seed)
    return SeminormEstimate(
        value=_max_ratio(f, pairs), pair_count=len(pairs[0]), region=region
    )


def little_lip_modulus(
    f,
    region,
    alpha: float,
    deltas,
    pairs_per_delta: int = 2000,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Table of (delta, max ratio at separations <= delta).

    For the smooth gallery functions the entries decay like delta^(1-alpha).
    """
    deltas = list(deltas)
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise GalleryError("deltas must be strictly decreasing")
    rng = np.random.default_rng(seed)
    out = []
    for delta in deltas:
        base = region.sample(pairs_per_delta, rng)
        # bias toward the maximal admissible separation, where the sup lives
        sep = delta * np.concatenate(
            [
                np.full(pairs_per_delta // 2, 1.0),
                rng.random(pairs_per_delta - pairs_per_delta // 2),
            ]
        )
        phi = 2.0 * math.pi * rng.random(pairs_per_delta)
        cand = base + sep * np.exp(1j * phi)
        ok = region.contains_many(cand)
        z, w = base[ok], cand[ok]
        d = np.abs(z - w)
        keep = d > 0
        z, w, d = z[keep], w[keep], d[keep]
        if len(z) == 0:
            out.append((float(delta), 0.0))
            continue
        ratio = np.abs(np.asarray(f(z)) - np.asarray(f(w))) / d**alpha
        out.append((float(delta), float(ratio.max())))
    return out


# ---------------------------------------------------------------------------
# Gallery construction for a Swiss-cheese domain


def build_test_gallery(
    domain: SwissCheeseDomain, count: int = 20
) -> list[GalleryFunction]:
    """Deterministic gallery of `count` functions adapted to the domain.

    Mixes polynomials, normalized poles at hole centers, Cauchy transforms of
    the holes, and combinations.  Pole weights are scaled by center^2 so all
    difference quotients stay O(1).
    """
    x0 = domain.base_point
    funcs: list[GalleryFunction] = []

    polys = [
        (0, 1),
        (0, 0, 1),
        (0, 0, 0, 1),
        (0, 0.5, 1j),
        (0, 1j, 0, 0.25),
        (0, 2, -1, 0.5j),
    ]
    for i, coeffs in enumerate(polys):
        funcs.append(
            GalleryFunction(
                poly_coeffs=coeffs, base_point=x0, label=f"poly{i}"
            )
        )

    phases = [1.0, 1j, 0.7 - 0.7j, -1.0]
    for i, h in enumerate(domain.holes):
        c = h.center - x0
        w = phases[i % len(phases)] * c * c
        funcs.append(
            GalleryFunction(
                rational_terms=((h.center, w),),
                base_point=x0,
                label=f"pole@{h.center:.4g}",
            )
        )
    for i, h in enumerate(domain.holes):
        funcs.append(
            GalleryFunction(
                ct_terms=((h, phases[(i + 1) % len(phases)]),),
                base_point=x0,
                label=f"ct@{h.center:.4g}",
            )
        )
    # mixed: polynomial plus a pole plus a ct part
    for i, h in enumerate(domain.holes):
        c = h.center - x0
        funcs.append(
            GalleryFunction(
                poly_coeffs=(0, 1, 0.5j),
                rational_terms=((h.center, 0.5 * c * c),),
                ct_terms=((h, 1.0),),
                base_point=x0,
                label=f"mixed@{h.center:.4g}",
            )
        )
    if len(funcs) < count:
        raise GalleryError(
            f"domain supports only {len(funcs)} gallery functions, need {count}"
        )
    return funcs[:count]
