"""Weighted content series for bounded point derivations, with closed forms
for parametric roadrunner hole families.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .content import annulus_content
from .geometry import (
    Disk,
    SwissCheeseDomain,
    annulus_complement,
    annulus_radii,
)

BPD_SUFFICIENT = "BPD_SUFFICIENT"
DIVERGENT_UPPER_BOUND = "DIVERGENT_UPPER_BOUND"
INCONCLUSIVE = "INCONCLUSIVE"

N_MAX_DEFAULT = 40


class CriterionError(ValueError):
    pass


@dataclass(frozen=True)
class RoadrunnerFamily:
    """Holes c_n = a * rho_c^n along a fixed angle with radii r_n = b * rho_r^n,
    one per dyadic annulus, truncated at `truncation`."""

    center_scale: float = 0.75
    center_ratio: float = 0.5
    angle: float = 0.0
    radius_scale: float = 1.0
    radius_ratio: float = 0.25
    n_min: int = 3
    truncation: int = 9

    def __post_init__(self):
        if not (0.0 < self.center_ratio < 1.0 and 0.0 < self.radius_ratio < 1.0):
            raise CriterionError("decay ratios must lie in (0,1)")
        if self.n_min < 1 or self.truncation < self.n_min:
            raise CriterionError("need 1 <= n_min <= truncation")

    def hole_center(self, n: int) -> complex:
        return self.center_scale * self.center_ratio**n * cmath.exp(1j * self.angle)

    def hole_radius(self, n: int) -> float:
        return self.radius_scale * self.radius_ratio**n

    def hole(self, n: int) -> Disk:
        return Disk(self.hole_center(n), self.hole_radius(n))

    def domain(self, base_point: complex = 0j) -> SwissCheeseDomain:
        holes = []
        for n in range(self.n_min, self.truncation + 1):
            h = self.hole(n)
            ri, ro = annulus_radii(n)
            d = abs(h.center - base_point)
            if d - h.radius < ri - 1e-15 or d + h.radius > ro + 1e-15:
                raise CriterionError(
                    f"hole {n} (center {h.center}, radius {h.radius}) does not fit "
                    f"inside annulus [{ri}, {ro}]"
                )
            holes.append(h)
        return SwissCheeseDomain(
            holes=tuple(holes),
            base_point=base_point,
            base_point_kind="accumulation",
            family=self,
        )

    def term(self, n: int, alpha: float) -> float:
        """Closed-form weighted term 4^n * (2 r_n)^(1+alpha)."""
        return 4.0**n * (2.0 * self.hole_radius(n)) ** (1.0 + alpha)

    def common_ratio(self, alpha: float) -> float:
        return 4.0 * self.radius_ratio ** (1.0 + alpha)

    def tail_verdict(self, alpha: float, after: int) -> tuple[float, str]:
        """The closed-form sum of the terms n > after and the family's
        verdict: BPD_SUFFICIENT if the common ratio q is below 1, else an
        infinite tail and DIVERGENT_UPPER_BOUND."""
        q = self.common_ratio(alpha)
        if q >= 1.0:
            return math.inf, DIVERGENT_UPPER_BOUND
        return self.term(max(after + 1, self.n_min), alpha) / (1.0 - q), BPD_SUFFICIENT


def threshold_radius_ratio(alpha: float) -> float:
    """Radius decay at which the closed-form series switches convergence."""
    return 4.0 ** (-1.0 / (1.0 + alpha))


@dataclass(frozen=True)
class CriterionReport:
    alpha: float
    terms: tuple[tuple[int, float, float], ...]  # (n, content_upper, weighted)
    partial_sums: tuple[float, ...]
    tail_bound: float | None
    verdict: str
    threshold: float | None = None
    notes: str = ""
    pieces: int = 0  # clipped pieces whose content was estimated

    @property
    def total(self) -> float:
        base = self.partial_sums[-1] if self.partial_sums else 0.0
        if self.tail_bound is None:
            return base
        return base + self.tail_bound


def lord_ofarrell_series(
    domain: SwissCheeseDomain, alpha: float, n_max: int = N_MAX_DEFAULT
) -> CriterionReport:
    """Per-annulus upper content estimates weighted by 4^n, with verdict.

    Sufficiency verdicts rest only on upper estimates; divergence is asserted
    only through the closed form of an attached roadrunner family.
    """
    if not (0.0 < alpha < 1.0):
        raise CriterionError(f"alpha must lie in (0,1), got {alpha}")
    if n_max < 1:
        raise CriterionError("n_max must be >= 1")
    terms = []
    partial = []
    acc = 0.0
    pieces = 0
    for n in range(1, n_max + 1):
        annulus = annulus_complement(domain, n)
        pieces += len(annulus)
        est = annulus_content(annulus, alpha)
        weighted = 4.0**n * est.upper
        acc += weighted
        terms.append((n, est.upper, weighted))
        partial.append(acc)

    family = domain.family
    tail: float | None
    threshold = None
    if isinstance(family, RoadrunnerFamily):
        q = family.common_ratio(alpha)
        threshold = threshold_radius_ratio(alpha)
        tail, verdict = family.tail_verdict(alpha, after=max(n_max, family.n_min - 1))
        if verdict == BPD_SUFFICIENT:
            notes = f"closed-form family tail, common ratio {q:.6g}"
        else:
            notes = f"closed-form family series diverges (common ratio {q:.6g})"
    else:
        deepest = max((n for n, _, w in terms if w > 0.0), default=0)
        if deepest < n_max:
            # all holes accounted for within the computed annuli
            tail = 0.0
            verdict = BPD_SUFFICIENT
            notes = "finite hole list exhausted; exact zero tail"
        else:
            tail = None
            verdict = INCONCLUSIVE
            notes = "holes persist at n_max and no closed-form family is attached"
    return CriterionReport(
        alpha=alpha,
        terms=tuple(terms),
        partial_sums=tuple(partial),
        tail_bound=tail,
        verdict=verdict,
        threshold=threshold,
        notes=notes,
        pieces=pieces,
    )


def parametric_verdict(family: RoadrunnerFamily, alpha: float) -> CriterionReport:
    """Exact geometric-series analysis of a roadrunner family, showing its
    first 12 terms."""
    if not (0.0 < alpha < 1.0):
        raise CriterionError(f"alpha must lie in (0,1), got {alpha}")
    q = family.common_ratio(alpha)
    terms = []
    partial = []
    acc = 0.0
    for n in range(family.n_min, family.n_min + 12):
        t = family.term(n, alpha)
        acc += t
        terms.append((n, (2.0 * family.hole_radius(n)) ** (1.0 + alpha), t))
        partial.append(acc)
    tail, verdict = family.tail_verdict(alpha, after=family.n_min + 11)
    return CriterionReport(
        alpha=alpha,
        terms=tuple(terms),
        partial_sums=tuple(partial),
        tail_bound=tail,
        verdict=verdict,
        threshold=threshold_radius_ratio(alpha),
        notes=f"common ratio 4*rho_r^(1+alpha) = {q:.12g}",
    )
