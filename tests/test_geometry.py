import math

import numpy as np
import pytest

from pointderiv import (
    ConeSpec,
    Disk,
    GeometryError,
    Ray,
    SwissCheeseDomain,
    annulus_complement,
    annulus_radii,
    validate_cone,
    verify_interior_cone,
)


def test_disk_rejects_bad_radius():
    with pytest.raises(GeometryError):
        Disk(0j, 0.0)
    with pytest.raises(GeometryError):
        Disk(0j, -1.0)
    with pytest.raises(GeometryError):
        Disk(complex(float("nan"), 0.0), 1.0)


@pytest.mark.parametrize("direction", [float("nan"), float("inf")])
def test_ray_rejects_non_finite_direction(direction):
    with pytest.raises(GeometryError):
        Ray(0j, direction, 0.25)


@pytest.mark.parametrize("direction", [float("nan"), float("inf")])
def test_cone_rejects_non_finite_direction(direction):
    with pytest.raises(GeometryError):
        ConeSpec(0j, direction, math.pi / 6, 0.5, 0.45)


def test_contains_interior_point():
    d = SwissCheeseDomain(base_point_kind="none")
    assert d.contains(0.5)


def test_contains_outer_boundary_excluded():
    d = SwissCheeseDomain(base_point_kind="none")
    assert not d.contains(1.0)


def test_contains_hole_center_excluded():
    d = SwissCheeseDomain(holes=(Disk(0.5, 0.25),))
    assert not d.contains(0.5)


def test_domain_invariants_enforced():
    with pytest.raises(GeometryError):
        SwissCheeseDomain(holes=(Disk(0.9, 0.2),))  # pokes out of the outer disk
    with pytest.raises(GeometryError):
        SwissCheeseDomain(holes=(Disk(0.5, 0.2), Disk(0.6, 0.2)))  # overlap
    with pytest.raises(GeometryError):
        SwissCheeseDomain(holes=(Disk(0.05, 0.1),))  # swallows the base point


def test_boundary_distance_punctured_disk():
    d = SwissCheeseDomain(base_point_kind="puncture")
    assert d.boundary_distance(-0.25) == pytest.approx(0.25)


def test_boundary_distance_not_accumulation():
    # oracle: min(1 - 0.25, |−0.25 − 0.5| − 0.25) = min(0.75, 0.5) = 0.5
    d = SwissCheeseDomain(holes=(Disk(0.5, 0.25),), base_point_kind="none")
    assert d.boundary_distance(-0.25) == pytest.approx(0.5)


def test_boundary_distance_near_hole():
    # oracle: |0.2 - 0.5| - 0.25 = 0.05
    d = SwissCheeseDomain(holes=(Disk(0.5, 0.25),), base_point_kind="none")
    assert d.boundary_distance(0.2) == pytest.approx(0.05)


def test_boundary_distance_requires_interior():
    d = SwissCheeseDomain(base_point_kind="none")
    with pytest.raises(GeometryError):
        d.boundary_distance(2.0)


def test_contains_boundary_distance_consistency():
    d = SwissCheeseDomain(holes=(Disk(0.5, 0.25),), base_point_kind="puncture")
    rng = np.random.default_rng(7)
    pts = 0.9 * (rng.random(200) * 2 - 1) + 1j * 0.9 * (rng.random(200) * 2 - 1)
    for z in pts:
        z = complex(z)
        if not d.contains(z):
            continue
        bd = d.boundary_distance(z)
        assert bd > 0
        for ang in np.linspace(0, 2 * math.pi, 8, endpoint=False):
            assert d.contains(z + 0.5 * bd * complex(math.cos(ang), math.sin(ang)))


def test_verify_interior_cone_punctured_disk():
    d = SwissCheeseDomain(base_point_kind="puncture")
    ray = Ray(0j, math.pi, 0.5)
    assert verify_interior_cone(d, ray) == pytest.approx(1.0)


def test_verify_interior_cone_roadrunner(domain, ray):
    # oracle: direct minimization over dyadic samples of min-distance / |x|
    x0 = domain.base_point
    expected = math.inf
    for i in range(24):
        x = ray.point(ray.length * 2.0**-i)
        cands = [domain.outer.radius - abs(x), abs(x - x0)]
        cands += [abs(x - h.center) - h.radius for h in domain.holes]
        expected = min(expected, min(cands) / abs(x - x0))
    assert verify_interior_cone(domain, ray) == pytest.approx(expected, rel=1e-12)
    assert verify_interior_cone(domain, ray) == pytest.approx(1.0)


def test_verify_interior_cone_ray_through_hole(domain):
    ray = Ray(0j, 0.0, 0.25)  # positive axis runs straight into the holes
    with pytest.raises(GeometryError):
        verify_interior_cone(domain, ray)


def test_verify_interior_cone_scale_invariant(domain, ray):
    k1 = verify_interior_cone(domain, ray)
    lam = 0.5
    d2 = domain.scaled(lam)
    r2 = Ray(ray.origin * lam, ray.direction, ray.length * lam)
    assert verify_interior_cone(d2, r2) == pytest.approx(k1, rel=1e-12)


def test_annulus_radii():
    assert annulus_radii(2) == (0.125, 0.25)
    with pytest.raises(GeometryError):
        annulus_radii(0)


def test_annulus_complement_whole_disk():
    d = SwissCheeseDomain(holes=(Disk(0.1875, 0.03125),))
    pieces = annulus_complement(d, 2)
    assert len(pieces) == 1
    assert pieces[0].is_whole
    assert pieces[0].diameter() == pytest.approx(0.0625)


def test_annulus_complement_empty():
    d = SwissCheeseDomain(holes=(Disk(0.1875, 0.03125),))
    assert annulus_complement(d, 4) == []


def test_annulus_complement_clipped():
    d = SwissCheeseDomain(holes=(Disk(0.25, 0.05),))  # straddles |z| = 0.25
    p1 = annulus_complement(d, 1)
    p2 = annulus_complement(d, 2)
    assert len(p1) == 1 and not p1[0].is_whole
    assert len(p2) == 1 and not p2[0].is_whole
    # oracle by interval arithmetic: radial band [0.2, 0.3] meets both annuli
    assert p1[0].r_inner == 0.25 and p2[0].r_outer == 0.25


def test_clipped_pieces_contained_and_disjoint(domain):
    rng = np.random.default_rng(0)
    for n in (3, 4, 5):
        for p in annulus_complement(domain, n):
            ri, ro = annulus_radii(n)
            for z in p.sample_points(100, rng):
                z = complex(z)
                assert abs(z - p.hole.center) <= p.hole.radius + 1e-12
                assert ri - 1e-12 <= abs(z) <= ro + 1e-12


def test_annulus_cover_property(domain):
    # every annulus point is either in U or in some complement piece
    rng = np.random.default_rng(3)
    for n in (3, 5):
        ri, ro = annulus_radii(n)
        pieces = annulus_complement(domain, n)
        r = np.sqrt(ri**2 + rng.random(300) * (ro**2 - ri**2))
        phi = 2 * math.pi * rng.random(300)
        for z in r * np.exp(1j * phi):
            z = complex(z)
            hit_boundary = any(
                abs(abs(z - h.center) - h.radius) < 1e-9 for h in domain.holes
            )
            assert (
                domain.contains(z)
                or any(p.contains(z) for p in pieces)
                or hit_boundary
            )


def test_cone_spec_invariants():
    with pytest.raises(GeometryError):
        ConeSpec(0j, 0.0, math.pi / 2, 0.5, 0.4)  # half angle not < pi/2
    with pytest.raises(GeometryError):
        ConeSpec(0j, 0.0, math.pi / 6, 0.5, 0.9)  # k > sin(half_angle)


def test_validate_cone(domain, cone):
    validate_cone(domain, cone)
    bad = ConeSpec(0j, 0.0, math.pi / 6, 0.5, 0.45)  # points at the holes
    with pytest.raises(GeometryError):
        validate_cone(domain, bad)


def test_ray_point():
    ray = Ray(0j, math.pi, 0.25)
    assert ray.point(0.1) == pytest.approx(-0.1)
