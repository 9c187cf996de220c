import math

import pytest

from pointderiv import (
    CONVERGED,
    Disk,
    DiskRegion,
    GalleryFunction,
    Ray,
    build_test_gallery,
    functional_sweep,
    hole_hugging_curve,
    nontangential_limit,
    seminorm_estimate,
    tangential_probe,
)
from pointderiv.experiments import (
    INCONCLUSIVE,
    NOT_CONVERGED,
    _limit_report,
    _nontangential_limits,
)
from pointderiv.geometry import GeometryError


def test_limit_poly_square(domain, ray):
    f = GalleryFunction(poly_coeffs=(0, 0, 1))
    rep = nontangential_limit(f, domain, ray, scales=20)
    assert rep.verdict == CONVERGED
    assert rep.derivative_value == 0j
    # quotient at x is exactly x for f = z^2
    for x, q, _ in rep.samples:
        assert q == pytest.approx(x, abs=1e-15)
    assert rep.convergence_order == pytest.approx(1.0, abs=0.05)


def test_limit_identity_exact(domain, ray):
    f = GalleryFunction(poly_coeffs=(0, 1))
    rep = nontangential_limit(f, domain, ray, scales=20)
    assert rep.verdict == CONVERGED
    assert all(dev <= 1e-14 for _, _, dev in rep.samples)
    assert rep.convergence_order == math.inf  # clamped: numerically exact


def test_limit_too_few_samples_inconclusive(domain, ray):
    # the verdict reads the last 5 samples; scales 3 gives only 4
    f = GalleryFunction(poly_coeffs=(0, 0, 1))
    rep = nontangential_limit(f, domain, ray, scales=3)
    assert len(rep.samples) == 4
    assert rep.verdict == INCONCLUSIVE and math.isnan(rep.convergence_order)
    # from 5 samples on there is a verdict again
    assert nontangential_limit(f, domain, ray, scales=4).verdict == NOT_CONVERGED


def test_limit_ct_term(domain, ray):
    f = GalleryFunction(ct_terms=((Disk(0.5, 0.125), 1.0),))
    rep = nontangential_limit(f, domain, ray, scales=20)
    assert rep.verdict == CONVERGED
    # frozen oracle 0.1963495409 (finite differences); equals pi/16
    assert rep.derivative_value == pytest.approx(math.pi / 16, abs=1e-12)
    assert abs(rep.estimated_limit - rep.derivative_value) <= 1e-3 * abs(
        rep.derivative_value
    )


def test_limit_samples_ordered_and_monotone_tail(domain, ray, gallery):
    for f in gallery:
        rep = nontangential_limit(f, domain, ray, scales=20)
        xs = [abs(x) for x, _, _ in rep.samples]
        assert xs == sorted(xs, reverse=True)
        devs = [d for _, _, d in rep.samples][-5:]
        assert all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
        assert rep.verdict == CONVERGED


def test_limit_order_at_least_one(domain, ray, gallery):
    for f in gallery:
        rep = nontangential_limit(f, domain, ray, scales=20)
        assert rep.convergence_order >= 0.9


def test_limit_ray_must_start_at_base(domain):
    f = GalleryFunction(poly_coeffs=(0, 1))
    with pytest.raises(GeometryError):
        nontangential_limit(f, domain, Ray(0.1j, math.pi, 0.25))


def test_limit_ray_through_hole(domain):
    f = GalleryFunction(poly_coeffs=(0, 1))
    with pytest.raises(GeometryError):
        nontangential_limit(f, domain, Ray(0j, 0.0, 0.25))


def test_sweep_identity_zero_functional(domain, ray):
    f = GalleryFunction(poly_coeffs=(0, 1))
    rep = functional_sweep([f], domain, ray, scales=10)
    assert all(lx <= 1e-14 for _, _, lx, _ in rep.grid)
    assert rep.max_ratio <= 1e-13


def test_sweep_scaling_homogeneity(domain, ray):
    f = GalleryFunction(poly_coeffs=(0, 0, 1))
    g = GalleryFunction(poly_coeffs=(0, 0, 3.0))
    rf = functional_sweep([f], domain, ray, scales=10, seed=4)
    rg = functional_sweep([g], domain, ray, scales=10, seed=4)
    assert rg.max_ratio == pytest.approx(rf.max_ratio, rel=1e-10)


def test_sweep_linearity(domain, ray):
    f = GalleryFunction(poly_coeffs=(0, 0, 1))
    g = GalleryFunction(ct_terms=((Disk(0.5, 0.125), 1.0),))
    h = GalleryFunction(poly_coeffs=(0, 0, 2.0), ct_terms=((Disk(0.5, 0.125), -1.0),))
    x = ray.point(ray.length * 2.0**-3)

    def functional(fn):
        return fn(x) / x - fn.derivative(0j)

    assert abs(functional(h) - (2 * functional(f) - functional(g))) <= 1e-10


def test_sweep_depth_stability(domain, ray, gallery):
    shallow = functional_sweep(gallery, domain, ray, scales=10)
    deep = functional_sweep(gallery, domain, ray, scales=20)
    assert deep.max_ratio <= shallow.max_ratio * 1.10
    assert math.isfinite(deep.max_ratio)


def test_sweep_skips_zero_seminorm(domain, ray):
    zero = GalleryFunction(poly_coeffs=(0,))
    rep = functional_sweep([zero], domain, ray, scales=5)
    assert rep.skipped == (0,)
    assert rep.grid == ()


def test_sweep_consistency_with_contour(domain, ray, cone):
    from pointderiv import quotient_via_cauchy

    f = GalleryFunction(ct_terms=((Disk(0.5, 0.125), 1.0),))
    for j in (1, 3, 5):
        x = ray.point(ray.length * 2.0**-j)
        q = quotient_via_cauchy(f, x, cone, N=10, M=1, tol=1e-10)
        assert abs(q - f(x) / x) <= 1e-8


def _scalar_limit(f, domain, ray, scales, limit_tol):
    """The limit run with one scalar evaluation of f per quotient."""
    x0 = domain.base_point
    samples = []
    for j in range(scales + 1):
        x = ray.point(ray.length * 2.0**-j)
        samples.append((x, (f(x) - f(x0)) / (x - x0)))
    return _limit_report(samples, f.derivative(x0), limit_tol)


def test_gallery_limits_equal_scalar_runs(domain, ray):
    gallery = build_test_gallery(domain, 27)
    reports = _nontangential_limits(gallery, domain, ray, 20, 1e-3)
    assert len(reports) == 27
    for f, rep in zip(gallery, reports):
        # repr shows every float in full, so equal reprs are equal bits
        assert repr(rep) == repr(nontangential_limit(f, domain, ray, 20, 1e-3))
        assert repr(rep) == repr(_scalar_limit(f, domain, ray, 20, 1e-3))


def test_sweep_equals_per_function_seminorms(domain, ray, gallery):
    rep = functional_sweep(gallery, domain, ray, scales=12, alpha=0.4, seed=3)
    region = DiskRegion(domain.outer.center, domain.outer.radius)
    sems = {
        i: seminorm_estimate(f, region, 0.4, seed=3).value for i, f in enumerate(gallery)
    }
    assert rep.skipped == () and len(rep.grid) == 13 * len(gallery)
    for i, x, lx, ratio in rep.grid:
        f = gallery[i]
        assert lx == abs(f(x) / x - f.derivative(0j))
        assert ratio == lx / sems[i]


def test_tangential_probe_analytic(domain):
    f = GalleryFunction(poly_coeffs=(0, 0, 1))
    curve = hole_hugging_curve(domain)
    rep = tangential_probe(f, domain, curve, scales=16)
    assert rep.verdict == INCONCLUSIVE  # descriptive only, never asserted
    assert "descriptive" in rep.note
    assert abs(rep.estimated_limit - 0) <= 1e-3


def test_tangential_probe_identity(domain):
    f = GalleryFunction(poly_coeffs=(0, 1))
    curve = hole_hugging_curve(domain)
    rep = tangential_probe(f, domain, curve, scales=16)
    assert all(abs(q - 1.0) <= 1e-12 for _, q, _ in rep.samples)


def test_tangential_probe_ct_descriptive(domain):
    f = GalleryFunction(ct_terms=((domain.holes[0], 1.0),))
    curve = hole_hugging_curve(domain)
    rep = tangential_probe(f, domain, curve, scales=16)
    assert len(rep.samples) == 17
    assert rep.verdict == INCONCLUSIVE


def test_hole_hugging_curve_stays_inside(domain):
    curve = hole_hugging_curve(domain)
    for j in range(24):
        assert domain.contains(curve(2.0**-j))


def test_hole_hugging_curve_is_tangential(domain):
    # distance to the boundary shrinks faster than |x| along the curve
    curve = hole_hugging_curve(domain)
    ratios = []
    for j in range(2, 12):
        x = curve(2.0**-j)
        ratios.append(domain.boundary_distance(x) / abs(x))
    assert min(ratios) < 0.05
