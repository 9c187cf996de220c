import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointderiv import (
    CONVERGED,
    Disk,
    DiskRegion,
    GalleryFunction,
    Ray,
    SwissCheeseDomain,
    build_test_gallery,
    conjugate_function,
    functional_sweep,
    nontangential_limit,
    seminorm_estimate,
)
from pointderiv.experiments import (
    EXACT_FLOOR,
    INCONCLUSIVE,
    NOT_CONVERGED,
    _fit_order,
    _limit_report,
    _nontangential_limits,
)
from pointderiv.geometry import GeometryError
from pointderiv.lipschitz import GalleryError


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


@pytest.mark.parametrize(
    "ray, scales, match",
    [
        (Ray(0j, 0.0, 0.25), 20, "passes through hole"),
        (Ray(0.1j, math.pi, 0.25), 20, "must start at the domain base point"),
        (Ray(0j, math.pi, 0.25), 1100, "is the base point"),  # 0.25 * 2^-1100 is 0
    ],
    ids=["through-hole", "off-base", "underflow"],
)
def test_sweep_checks_its_ray_as_limit_does(domain, ray, scales, match):
    # sweep used to tabulate quotients inside holes and to divide by zero
    f = GalleryFunction(poly_coeffs=(0, 0, 1))
    with pytest.raises(GeometryError, match=match):
        nontangential_limit(f, domain, ray, scales=scales)
    with pytest.raises(GeometryError, match=match):
        functional_sweep([f], domain, ray, scales=scales)


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
        return fn(x) / x - fn.quotient(0j)

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
    """The limit run with one scalar evaluation of f's quotient per sample."""
    x0 = domain.base_point
    samples = []
    for j in range(scales + 1):
        x = ray.point(ray.length * 2.0**-j)
        samples.append((x, f.quotient(x)))
    return _limit_report(samples, f.quotient(x0), limit_tol, x0)


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
        assert lx == abs(f.quotient(x) - f.quotient(0j))
        assert ratio == lx / sems[i]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    j0=st.integers(0, 40),
    devs=st.lists(
        st.one_of(st.floats(1e-16, 1e-12), st.floats(1e-12, 1e3)), min_size=0, max_size=5
    ),
)
def test_fit_order_matches_polyfit(j0, devs):
    # the tail of a limit table: dyadic |x| and deviations on both sides of
    # EXACT_FLOOR, so from 0 to 5 points are kept
    xs = [0.25 * 2.0 ** -(j0 + j) for j in range(len(devs))]
    kept = np.array([(x, d) for x, d in zip(xs, devs) if d > EXACT_FLOOR]).reshape(-1, 2)
    got = _fit_order(xs, devs)
    if len(kept) < 2:
        assert got == math.inf
        return
    lx, ld = np.log(kept).T
    want = np.polyfit(lx, ld, 1)[0]
    # a slope near 0 comes from nearly equal sums, where both fits are off by
    # rounding: polyfit gives -2.2e-16 for two equal deviations, the closed
    # form 0.0; so the bound is relative, or 1e-12 of the largest |log dev|
    scale = float(np.abs(ld).max())
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12 * scale), (got, want)


def test_fit_order_of_exactly_two_points():
    assert _fit_order([0.5, 0.25], [4e-3, 1e-3]) == pytest.approx(2.0, rel=1e-15)
    assert _fit_order([0.5, 0.25, 0.125], [4e-3, 1e-3, 1e-13]) == pytest.approx(2.0, rel=1e-15)
    assert _fit_order([0.5], [4e-3]) == math.inf
    assert _fit_order([], []) == math.inf
    # sample |x| can round to one value near a base point off 0
    assert math.isnan(_fit_order([0.5, 0.5], [1e-3, 1e-4]))


def test_f_normalized_elsewhere_is_refused(domain, ray):
    # the identity normalized at 0.1j has f(x0) = -0.1j; both experiments
    # take f(x0) = 0 and so refuse it
    f = GalleryFunction(poly_coeffs=(0, 1), base_point=0.1j)
    with pytest.raises(GalleryError, match="base point 0.1j is not x0 = 0j"):
        functional_sweep([f], domain, ray, scales=5)
    with pytest.raises(GalleryError, match="base point 0.1j is not x0 = 0j"):
        nontangential_limit(f, domain, ray, scales=5)


def test_no_derivative_at_x0_in_a_ct_disk_is_refused():
    # conj(z) has no complex derivative at 0: an error, not a NaN f'(x0)
    f, domain, ray = conjugate_function(), SwissCheeseDomain(), Ray(0j, math.pi, 0.25)
    with pytest.raises(GalleryError, match="no derivative at the base point"):
        nontangential_limit(f, domain, ray)
    with pytest.raises(GalleryError, match="no derivative at the base point"):
        functional_sweep([f], domain, ray)
