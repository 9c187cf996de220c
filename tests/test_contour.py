import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pointderiv import (
    Arc,
    ConeSpec,
    ContourError,
    ContourPath,
    Disk,
    DiskRegion,
    GalleryFunction,
    Segment,
    annular_decomposition,
    annulus_radii,
    build_annular_piece,
    build_keyhole,
    build_test_gallery,
    conjugate_function,
    full_circle,
    integrate_contour,
    kernel_seminorm_ratio,
    lemma_cauchy_bound_check,
    quotient_via_cauchy,
)
from pointderiv import contour
from pointderiv.contour import _GL_NODES, _GL_WEIGHTS, ToleranceError, default_inner_index

CONE = ConeSpec(vertex=0j, direction=math.pi, half_angle=math.pi / 6, length=0.5, k=0.45)


# ---------------------------------------------------------------------------
# Reference quadrature: the recursive depth-first adaptive Gauss-Legendre
# rule that `integrate_contour` evaluates level by level.


def _gl_reference(F, a, b, stats):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = F(mid + half * _GL_NODES)
    stats[0] += len(_GL_NODES)
    return half * complex(np.sum(vals * _GL_WEIGHTS))


def _adaptive_reference(F, a, b, tol, stats, depth=0):
    coarse = _gl_reference(F, a, b, stats)
    m = 0.5 * (a + b)
    fine = _gl_reference(F, a, m, stats) + _gl_reference(F, m, b, stats)
    err = abs(fine - coarse)
    if err <= tol or err <= 1e-16 * (1.0 + abs(fine)):
        return fine, err
    if depth >= 48:
        raise ToleranceError("stalled", best=fine, error_estimate=err)
    v1, e1 = _adaptive_reference(F, a, m, tol / 2.0, stats, depth + 1)
    v2, e2 = _adaptive_reference(F, m, b, tol / 2.0, stats, depth + 1)
    return v1 + v2, e1 + e2


def integrate_reference(path, integrand, tol=1e-10):
    """(value, error estimate, evaluations) of the recursive rule."""
    total_len = path.total_length
    stats = [0]
    value = 0j
    err = 0.0
    for prim in path.segments:
        frac = prim.length / total_len if total_len > 0 else 1.0 / len(path.segments)

        def F(t, prim=prim):
            return np.asarray(integrand(prim.point(t))) * prim.velocity(t)

        v, e = _adaptive_reference(F, 0.0, 1.0, tol * frac, stats)
        value += v
        err += e
    return value, err, stats[0]


def winding_number(path, z0):
    res = integrate_contour(path, lambda z: 1.0 / (z - z0), tol=1e-8)
    return (res.value / (2j * math.pi)).real


def _slice_calls(monkeypatch, batch):
    """Send every integrand call of the level loop in slices of `batch`
    refined panels (2 * 15 points each): no panel sum may depend on which
    other panels share its call."""
    many = contour._integrate_many
    step = 2 * len(_GL_NODES) * batch

    def sliced(paths, integrand, *args):
        def f(z):
            return np.concatenate([integrand(z[i : i + step]) for i in range(0, len(z), step)])

        return many(paths, f, *args)

    monkeypatch.setattr(contour, "_integrate_many", sliced)


def _many(paths, integrand, tol, plan=None):
    """The results of `_integrate_many` as `integrate_contour` gives them."""
    values, errors, evaluations = contour._integrate_many(paths, integrand, tol, plan)
    return [
        contour.QuadratureResult(complex(v), float(e), int(c))
        for v, e, c in zip(values, errors, evaluations)
    ]


def _bits(z: complex) -> tuple[str, str]:
    z = complex(z)
    return z.real.hex(), z.imag.hex()


# ---------------------------------------------------------------------------
# Paths and quadrature


def test_path_join_validation():
    with pytest.raises(ContourError):
        ContourPath((Segment(0, 1), Segment(2, 3)))


def test_path_simplicity_check():
    with pytest.raises(ContourError):
        ContourPath(
            (Segment(0, 1 + 1j), Segment(1 + 1j, 1), Segment(1, 1j), Segment(1j, 0)),
            closed=True,
        )


def test_keyhole_structure():
    path = build_keyhole(CONE, N=5, M=2)
    arcs = [p for p in path.segments if isinstance(p, Arc)]
    segs = [p for p in path.segments if isinstance(p, Segment)]
    assert len(arcs) == 2 and len(segs) == 2
    assert path.closed and path.cusp_free


def test_keyhole_winding():
    path = build_keyhole(CONE, N=5, M=2)
    assert winding_number(path, -0.1) == pytest.approx(1.0, abs=1e-7)
    assert winding_number(path, 0.5) == pytest.approx(0.0, abs=1e-7)
    assert winding_number(path.reversed(), -0.1) == pytest.approx(-1.0, abs=1e-7)


def test_keyhole_preconditions():
    with pytest.raises(ContourError):
        build_keyhole(CONE, N=2, M=2)
    short = ConeSpec(0j, math.pi, math.pi / 6, 0.1, 0.45)
    with pytest.raises(ContourError):
        build_keyhole(short, N=5, M=2)  # sector radius 0.25 > cone length


def test_annular_piece_winding():
    path = build_annular_piece(3, CONE)
    inside = 0.09  # in the annulus [0.0625, 0.125], outside the cone
    assert winding_number(path, inside) == pytest.approx(1.0, abs=1e-7)
    in_cone = -0.09
    assert winding_number(path, in_cone) == pytest.approx(0.0, abs=1e-7)


def test_annular_piece_arclength_halves():
    l3 = build_annular_piece(3, CONE).total_length
    l4 = build_annular_piece(4, CONE).total_length
    assert l4 == pytest.approx(l3 / 2, rel=1e-12)


def test_integrate_residue():
    res = integrate_contour(full_circle(0j, 1.0), lambda z: 1.0 / z, tol=1e-10)
    assert abs(res.value - 2j * math.pi) <= 1e-10


def test_integrate_conjugate_circle():
    # frozen oracle 0.5654866776461628j from the direct parametric integral, r = 0.3
    res = integrate_contour(full_circle(0j, 0.3), np.conj, tol=1e-10)
    assert abs(res.value - 0.5654866776461628j) <= 1e-10
    assert abs(res.value - 2j * math.pi * 0.09) <= 1e-10


def test_integrate_entire_function_zero():
    path = build_keyhole(CONE, N=5, M=2)
    res = integrate_contour(path, lambda z: np.exp(z) * z**3, tol=1e-10)
    assert abs(res.value) <= 1e-9


def test_integrate_tolerance_positive():
    with pytest.raises(ContourError):
        integrate_contour(full_circle(0j, 1.0), lambda z: z, tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_integrate_tolerance_finite(tol):
    # a NaN tolerance would accept a panel only at the rounding floor, an
    # infinite one every panel of level 0
    with pytest.raises(ContourError, match="positive and finite"):
        integrate_contour(full_circle(0j, 1.0), lambda z: z, tol=tol)
    with pytest.raises(ContourError, match="positive and finite"):
        annular_decomposition(GalleryFunction(poly_coeffs=(0, 1)), -0.1, CONE, tol=tol)


def test_quadrature_primitive_order_independent():
    a1 = Arc(0j, 1.0, 0.0, math.pi)
    a2 = Arc(0j, 1.0, math.pi, 2 * math.pi)
    v1 = integrate_contour(
        ContourPath((a1, a2), check_simple=False), lambda z: 1.0 / z
    ).value
    v2 = integrate_contour(
        ContourPath((a2, a1), check_simple=False), lambda z: 1.0 / z
    ).value
    assert abs(v1 - v2) <= 1e-12


REFERENCE_PATHS = {
    "keyhole": lambda: build_keyhole(CONE, N=10, M=1),
    **{
        f"annulus{n}": (lambda n=n: build_annular_piece(n, CONE).reversed())
        for n in range(1, 11)
    },
    "circle": lambda: full_circle(0j, 0.5),
}


@pytest.mark.parametrize("batch", [256, 1])
@pytest.mark.parametrize("path_name", sorted(REFERENCE_PATHS))
def test_quadrature_matches_recursive_reference(path_name, batch, gallery, monkeypatch):
    # batch 1 sends the integrand one refined panel per call
    _slice_calls(monkeypatch, batch)
    # gallery[1] is a polynomial, [8] a pole, [15] a Cauchy transform
    path = REFERENCE_PATHS[path_name]()
    x = -0.1
    integrands = [np.conj] + [
        (lambda z, f=f: f(z) / (z * (z - x))) for f in (gallery[1], gallery[8], gallery[15])
    ]
    for integrand in integrands:
        res = integrate_contour(path, integrand, tol=1e-10)
        value, err, evaluations = integrate_reference(path, integrand, tol=1e-10)
        assert _bits(res.value) == _bits(value)
        assert res.error_estimate.hex() == err.hex()
        # a primitive that needs no refinement costs 45 points either way;
        # each refined panel reuses its parent's half sums
        refined = evaluations > 3 * len(_GL_NODES) * len(path.segments)
        assert res.evaluations < evaluations if refined else res.evaluations == evaluations


def _level_reference_failure(path, integrand, tol, max_depth, max_panels):
    """(lo, hi, fine, err) of the panel a level-by-level run of the recursive
    rule fails on: the leftmost panel that still splits at the first level
    that is `max_depth` or whose splits would take the path past
    `max_panels` panels beyond level 0."""
    total_len = path.total_length
    stats = [0]
    panels = []  # (F, lo, hi, tol, coarse)
    for prim in path.segments:

        def F(t, prim=prim):
            return np.asarray(integrand(prim.point(t))) * prim.velocity(t)

        panels.append((F, 0.0, 1.0, tol * prim.length / total_len, _gl_reference(F, 0.0, 1.0, stats)))
    refined = 0
    for level in range(max_depth + 1):
        split = []
        for F, a, b, t, coarse in panels:
            m = 0.5 * (a + b)
            left, right = _gl_reference(F, a, m, stats), _gl_reference(F, m, b, stats)
            fine = left + right
            err = abs(fine - coarse)
            if not (err <= t or err <= 1e-16 * (1.0 + abs(fine))):
                split.append((F, a, m, b, t, fine, err, left, right))
        assert split, "the integral converges"
        if level == max_depth or refined + 2 * len(split) > max_panels:
            _, a, _, b, _, fine, err, _, _ = split[0]
            return a, b, fine, err
        refined += 2 * len(split)
        panels = [
            half
            for F, a, m, b, t, _, _, left, right in split
            for half in ((F, a, m, t / 2.0, left), (F, m, b, t / 2.0, right))
        ]


@pytest.mark.parametrize(
    "centre, max_depth, max_panels",
    [(0j, 48, 64), (2.0, 48, 64), (0j, 6, 2**15), (2.0, 6, 2**15)],
)
def test_quadrature_failure_names_leftmost_splitting_panel(centre, max_depth, max_panels, monkeypatch):
    # a pole at the start of the first arc, or at the end of it
    monkeypatch.setattr(contour, "_MAX_DEPTH", max_depth)
    monkeypatch.setattr(contour, "_MAX_PANELS", max_panels)
    path = full_circle(centre, 1.0)
    points = []

    def integrand(z):
        points.append(len(z))
        return 1.0 / (z - 1.0)

    with pytest.raises(ToleranceError) as got:
        integrate_contour(path, integrand, tol=1e-10)
    assert points[0] == 3 * len(_GL_NODES) * len(path.segments)
    assert sum(points[1:]) <= 2 * len(_GL_NODES) * max_panels
    lo, hi, best, err = _level_reference_failure(path, integrand, 1e-10, max_depth, max_panels)
    assert f"on [{lo}, {hi}]" in str(got.value)
    assert _bits(got.value.best) == _bits(best)
    assert got.value.error_estimate == err


def test_pole_at_arc_end_fails_within_budget():
    # the pole ends the first arc of the circle |z - 2| = 1; the panels near
    # it used to be refined for about 20 s before the depth limit failed them
    path = full_circle(2.0, 1.0)
    points = []

    def integrand(z):
        points.append(len(z))
        return 1.0 / (z - 1.0)

    with pytest.raises(ToleranceError, match="budget"):
        integrate_contour(path, integrand)
    assert sum(points) <= len(_GL_NODES) * (3 * len(path.segments) + 2 * contour._MAX_PANELS)


@settings(max_examples=6, derandomize=True, database=None, deadline=None)
@given(side=st.sampled_from([1.0, -1.0]), log_offset=st.floats(-12.0, -2.0))
@example(side=-1.0, log_offset=-2.0)  # certifies
def test_pole_near_decomposition_circle_certifies_or_fails_within_budget(side, log_offset):
    # a pole a relative 10^log_offset inside or outside the circle |z| = 2^-2,
    # in the hole (centre 0.25, radius 0.075) of a valid explicit config
    f = GalleryFunction(rational_terms=((0.25 * (1.0 + side * 10.0**log_offset), 1.0),))
    x = complex(-0.75 * 0.25 * 0.25)
    _, plan = contour._decomposition_contours(CONE, 1, 10)
    refined = np.zeros(len(plan.evaluations), int)  # panels beyond level 0, per path
    level_nodes = contour._level_nodes

    def counted(table, idx, k, level):
        refined[:] += np.bincount(plan.path_of[idx], minlength=len(refined))
        return level_nodes(table, idx, k, level)

    with pytest.MonkeyPatch.context() as mp:
        # without the bank every level computes its nodes here, bit for bit
        mp.setattr(contour, "_BANK_DEPTH", 0)
        mp.setattr(contour, "_level_nodes", counted)
        try:
            rep = annular_decomposition(f, x, CONE, M=1, N=10, tol=1e-10)
        except (ContourError, ToleranceError):
            pass
        else:
            assert rep.residual <= 2e-10
    assert refined.max() <= contour._MAX_PANELS


# ---------------------------------------------------------------------------
# Several paths in one level loop


def _decomposition_paths(M=1, N=10):
    """The D_M..D_N boundaries and the circle of `annular_decomposition`."""
    paths = [contour._clockwise_annular_piece(n, CONE) for n in range(M, N + 1)]
    return paths + [full_circle(0j, 2.0**-M)]


def _result_bits(res):
    return _bits(res.value), res.error_estimate.hex(), res.evaluations


def _error_bits(err):
    return str(err), _bits(err.best), err.error_estimate.hex()


@pytest.mark.parametrize("batch", [256, 2])
@pytest.mark.parametrize("index", [1, 8, 15])  # a polynomial, a pole, a Cauchy transform
def test_integrate_many_matches_single_paths(index, batch, gallery, monkeypatch):
    # at batch 2 the paths of one level share no integrand call
    _slice_calls(monkeypatch, batch)
    f, x = gallery[index], -0.1
    paths = _decomposition_paths()

    def integrand(z):
        return f(z) / (z * (z - x))

    many = _many(paths, integrand, 1e-10 / 11)
    single = [integrate_contour(path, integrand, tol=1e-10 / 11) for path in paths]
    assert [_result_bits(r) for r in many] == [_result_bits(r) for r in single]


def _decomposition_reference(f, x, M=1, N=10, tol=1e-10):
    """`annular_decomposition` from one `integrate_contour` call per term."""
    def integrand(z):
        return f(z) / (z * (z - x))

    term_tol = tol / (N - M + 2)
    values = [
        integrate_contour(path, integrand, tol=term_tol).value / (2j * math.pi)
        for path in _decomposition_paths(M, N)
    ]
    lhs = f(x) / x
    terms = list(zip(range(M, N + 1), values))
    circle = values[-1]
    return lhs, terms, circle, abs(lhs - (sum(values[:-1]) + circle))


def test_decomposition_grid_matches_single_path_reference(domain):
    for f in build_test_gallery(domain, 27):
        for x in (complex(v) for v in -np.geomspace(0.35, 0.005, 10)):
            rep = annular_decomposition(f, x, CONE, M=1, N=10, tol=1e-10)
            lhs, terms, circle, residual = _decomposition_reference(f, x)
            assert _bits(rep.lhs) == _bits(lhs) and _bits(rep.inner_circle_term) == _bits(circle)
            assert [(n, _bits(t)) for n, t in rep.annular_terms] == [
                (n, _bits(t)) for n, t in terms
            ]
            assert rep.residual.hex() == residual.hex()


def _two_poles(z):
    return 1.0 / (z - 1.0) + 2.0 / (z - 3.0)


# each circle starts its first arc on one of the poles
FAILING = {"one": full_circle(0j, 1.0), "three": full_circle(2.5, 0.5)}


def _solo_error(path):
    with pytest.raises(ToleranceError) as err:
        integrate_contour(path, _two_poles, tol=1e-10)
    return _error_bits(err.value)


@pytest.mark.parametrize("name", sorted(FAILING))
def test_integrate_many_failure_is_that_of_the_path_alone(name):
    ok = full_circle(0j, 0.5)
    solo = _solo_error(FAILING[name])
    # the failing path spends its budget while the others converge at once
    for paths in ([FAILING[name]], [ok, FAILING[name], ok, ok], [ok, ok, FAILING[name]]):
        with pytest.raises(ToleranceError) as err:
            contour._integrate_many(paths, _two_poles, 1e-10)
        assert _error_bits(err.value) == solo


def test_integrate_many_raises_first_failing_path():
    ok = full_circle(0j, 0.5)
    one, three = FAILING["one"], FAILING["three"]
    assert _solo_error(one) != _solo_error(three)
    for first, second in ((one, three), (three, one)):
        with pytest.raises(ToleranceError) as err:
            contour._integrate_many([ok, first, ok, second], _two_poles, 1e-10)
        assert _error_bits(err.value) == _solo_error(first)


def test_integrate_many_wide_path_beside_small_ones():
    # one path needs hundreds of panels a level, the others one each
    def integrand(z):
        return 1.0 / (z - 0.999)

    wide, small = full_circle(0j, 1.0), full_circle(0j, 0.5)
    many = _many([small, wide, small], integrand, 1e-13)
    solo = integrate_contour(wide, integrand, tol=1e-13)
    assert _result_bits(many[1]) == _result_bits(solo)
    assert _result_bits(many[0]) == _result_bits(integrate_contour(small, integrand, tol=1e-13))


def test_integrate_many_caps_each_path_on_its_own():
    # two copies of a wide path take the level steps of one, at twice the size
    def sizes(paths):
        calls = []

        def integrand(z):
            calls.append(len(z))
            return 1.0 / (z - 0.999)

        contour._integrate_many(paths, integrand, 1e-13)
        return calls

    wide = full_circle(0j, 1.0)
    solo = sizes([wide])
    assert sizes([wide, wide]) == [2 * n for n in solo]


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(
    order=st.lists(st.integers(0, 10), min_size=1, max_size=11, unique=True),
    index=st.integers(0, 19),
    t=st.floats(0.005, 0.35),
)
def test_integrate_many_any_path_subset_matches_single_paths(order, index, t, gallery):
    # any subset of the decomposition paths, in any order, with any gallery
    # function and ray point gives each path's own result
    paths = [_decomposition_paths()[i] for i in order]
    f, x = gallery[index], complex(-t)

    def integrand(z):
        return f(z) / (z * (z - x))

    many = _many(paths, integrand, 1e-10 / 11)
    single = [integrate_contour(path, integrand, tol=1e-10 / 11) for path in paths]
    assert [_result_bits(r) for r in many] == [_result_bits(r) for r in single]


def _report_bits(rep):
    return (
        _bits(rep.lhs),
        [(n, _bits(t)) for n, t in rep.annular_terms],
        _bits(rep.inner_circle_term),
        rep.residual.hex(),
        rep.evaluations,
        rep.err_to_tol.hex(),
    )


def test_plan_reuse_leaves_results_unchanged(gallery):
    # a plan hit, including its cached level-0 evaluation counts, gives what
    # a plan built afresh for every call gives
    cases = [(gallery[i], x) for i in (1, 8, 15) for x in (-0.3, -0.02)]
    hits = [annular_decomposition(f, x, CONE, M=1, N=10) for f, x in cases]
    assert [_report_bits(r) for r in hits] == [
        _report_bits(annular_decomposition(f, x, CONE, M=1, N=10)) for f, x in cases
    ]
    fresh = []
    for f, x in cases:
        contour._plan.cache_clear()
        contour._decomposition_contours.cache_clear()
        fresh.append(annular_decomposition(f, x, CONE, M=1, N=10))
    assert [_report_bits(r) for r in hits] == [_report_bits(r) for r in fresh]


def test_plan_arrays_are_read_only():
    plan = contour._plan(tuple(_decomposition_paths()))
    arrays = [plan.path_of, plan.shares, *plan.table, *plan.nodes, plan.evaluations, plan.columns]
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0


def test_decomposition_contours_looked_up_once_per_call(monkeypatch):
    # one memoised (cone, M, N) lookup gives the paths and their plan
    paths, plan = contour._decomposition_contours(CONE, 1, 10)
    assert list(paths) == _decomposition_paths() and plan is contour._plan(paths)
    assert contour._decomposition_contours(CONE, 1, 10)[1] is plan
    calls = []
    monkeypatch.setattr(contour, "_plan", lambda paths: calls.append(paths))
    annular_decomposition(GalleryFunction(poly_coeffs=(0, 0, 1)), -0.1, CONE, M=1, N=10)
    assert calls == []


# ---------------------------------------------------------------------------
# The level-0 values of f, kept per (f, plan)

GRID_XS = [complex(v) for v in -np.geomspace(0.35, 0.005, 10)]  # acceptance 1 and 2


def test_level0_memo_leaves_results_unchanged(gallery):
    cases = [(gallery[i], x) for i in (1, 8, 15, 19) for x in GRID_XS[::3]]
    for f, x in cases:
        annular_decomposition(f, x, CONE, M=1, N=10)
    warm = [_report_bits(annular_decomposition(f, x, CONE, M=1, N=10)) for f, x in cases]
    cold = []
    for f, x in cases:
        contour._level0_values.cache_clear()
        cold.append(_report_bits(annular_decomposition(f, x, CONE, M=1, N=10)))
    assert cold == warm


def test_level0_points_evaluated_once_per_function_and_plan(gallery, monkeypatch):
    f = gallery[15]
    _, plan = contour._decomposition_contours(CONE, 1, 10)
    z0 = plan.nodes[0].ravel()
    assert len(z0) == 1890  # 42 primitives, 3 panels of 15 points each
    contour._level0_values.cache_clear()
    calls = []
    call = GalleryFunction.__call__

    def spy(self, z):
        calls.append(np.array(z))
        return call(self, z)

    monkeypatch.setattr(GalleryFunction, "__call__", spy)
    reports = [annular_decomposition(f, x, CONE, M=1, N=10) for x in GRID_XS]
    arrays = [z for z in calls if z.ndim]
    assert sum(z.shape == z0.shape and (z == z0).all() for z in arrays) == 1
    # besides them, f sees the refined points of each x, and x itself
    refined = sum(r.evaluations - len(z0) for r in reports)
    assert refined > 0 and sum(z.size for z in arrays) == len(z0) + refined
    assert len(calls) - len(arrays) == len(GRID_XS)


def test_paths_together_past_the_budget_each_within_it(monkeypatch):
    # a pole just outside the circle 2^-2 refines the D_1 and D_2 boundaries
    f, x = GalleryFunction(rational_terms=((0.26, 0.01),)), -0.1
    paths = _decomposition_paths()

    def integrand(z):
        return f(z) / (z * (z - x))

    tol = 1e-10 / len(paths)
    single = [integrate_contour(path, integrand, tol=tol) for path in paths]
    refined = [(r.evaluations - 45 * len(p.segments)) // 30 for r, p in zip(single, paths)]
    report = _report_bits(annular_decomposition(f, x, CONE, M=1, N=10))
    budget = max(refined)
    assert sum(refined) > budget
    monkeypatch.setattr(contour, "_MAX_PANELS", budget)
    assert [_result_bits(r) for r in _many(paths, integrand, tol)] == [
        _result_bits(r) for r in single
    ]
    assert _report_bits(annular_decomposition(f, x, CONE, M=1, N=10)) == report
    # one panel fewer and the widest path fails on its own budget
    monkeypatch.setattr(contour, "_MAX_PANELS", budget - 1)
    with pytest.raises(ToleranceError, match="budget"):
        _many(paths, integrand, tol)


def test_path_total_starts_from_zero(monkeypatch):
    # numpy's panel sums are never -0.0, but the totals must not rest on it:
    # with every primitive's sum -0.0 - 0.0j, a Python sum from 0j gives 0j
    def panel_sums(nodes, values):
        return np.full(nodes[0].shape[:-1], complex(-0.0, -0.0))

    monkeypatch.setattr(contour, "_panel_sums", panel_sums)
    paths = [full_circle(0j, 1.0), build_keyhole(CONE, N=10, M=1)]  # 2 and 4 primitives
    totals = []
    for path in paths:
        total = 0j
        for _ in path.segments:
            total += complex(-0.0, -0.0)
        totals.append(total)
    assert [_bits(r.value) for r in _many(paths, lambda z: z, 1e-10)] == [_bits(t) for t in totals]
    assert _bits(integrate_contour(paths[0], lambda z: z).value) == _bits(totals[0])


def test_level0_memo_is_read_only_and_small(domain):
    # the benchmark's grid: 27 functions, 10 ray points each
    contour._level0_values.cache_clear()
    gallery = build_test_gallery(domain, 27)
    for f in gallery:
        for x in GRID_XS:
            annular_decomposition(f, x, CONE, M=1, N=10)
    info = contour._level0_values.cache_info()
    assert info.misses == len(gallery) and info.hits == len(gallery) * (len(GRID_XS) - 1)
    _, plan = contour._decomposition_contours(CONE, 1, 10)
    values = contour._level0_values(gallery[-1], plan)
    with pytest.raises(ValueError):
        values[...] = 0
    assert info.currsize * values.nbytes <= 1e6


# ---------------------------------------------------------------------------
# The bank of shallow panel nodes


def _spy_levels(monkeypatch):
    """Record the depths of the panels whose halves each level evaluates:
    [(from the bank?, depths)]."""
    levels, in_bank = [], []
    banked, nodes = contour._banked_nodes, contour._panel_nodes

    def spy_bank(plan, idx, k, level):
        levels.append((True, [level] * len(idx)))
        in_bank.append(True)
        try:
            return banked(plan, idx, k, level)
        finally:
            in_bank.pop()

    def spy_nodes(table, idx, lo, hi):
        if lo.shape[-1] == 2 and not in_bank:  # a level of the loop, not level 0
            depths = np.round(-np.log2(lo[:, 1] - lo[:, 0])).astype(int) - 1
            levels.append((False, depths.tolist()))
        return nodes(table, idx, lo, hi)

    monkeypatch.setattr(contour, "_banked_nodes", spy_bank)
    monkeypatch.setattr(contour, "_panel_nodes", spy_nodes)
    return levels


def _check_levels(levels):
    # each level is one depth, and some refinement goes deeper than the bank
    assert [depths[0] for _, depths in levels] == list(range(1, len(levels) + 1))
    assert all(len(set(depths)) == 1 for _, depths in levels)
    assert len(levels) >= contour._BANK_DEPTH
    assert all(depths[0] < contour._BANK_DEPTH for from_bank, depths in levels if from_bank)


def _panel_of_row(row):
    """(primitive, level, k) of the panel [k, k + 1] 2^-level whose halves
    bank row `row` holds."""
    i, h = divmod(row, contour._BANK_ROWS)
    level = (h + 2).bit_length() - 1
    return i, level, h + 2 - 2**level


def _bank_bits(nodes):
    return [a.tobytes() for a in nodes]


BANK_PLANS = {
    "decomposition": lambda: tuple(_decomposition_paths()),
    "keyhole": lambda: (build_keyhole(CONE, N=10, M=1),),
}


@pytest.mark.parametrize("name", sorted(BANK_PLANS))
def test_bank_rows_are_panel_nodes(name, monkeypatch):
    paths = BANK_PLANS[name]()
    plan = contour._plan.__wrapped__(paths)  # built afresh, with an empty bank
    z, vel, half, filled = plan.bank
    assert not filled.any()
    levels = _spy_levels(monkeypatch)

    def integrand(z):
        # poles just off the circles 2^-2 and 2^-1 and the small circle 2^-10
        return 1.0 / (z - 0.26) + 1.0 / (z + 0.52) + 1.0 / (z - 0.00101)

    contour._integrate_many(paths, integrand, 1e-10, plan)
    _check_levels(levels)
    assert 0 < filled.sum() < len(filled)
    # the level loop's rows, and the rest filled by one call per level
    rows = np.arange(len(filled))
    panels = np.array([_panel_of_row(int(r)) for r in rows])
    for level in range(1, contour._BANK_DEPTH):
        at = panels[:, 1] == level
        got = contour._banked_nodes(plan, panels[at, 0], panels[at, 2], level)
        assert [a.tobytes() for a in got] == [a[rows[at]].tobytes() for a in (z, vel, half)]
    assert filled.all()
    for r, (i, level, k) in zip(rows, panels.tolist()):
        lo, hi = k / 2**level, (k + 1) / 2**level
        mid = 0.5 * (lo + hi)
        want = contour._panel_nodes(plan.table, np.array([i]), np.array([[lo, mid]]), np.array([[mid, hi]]))
        assert _bank_bits((z[r], vel[r], half[r])) == _bank_bits(a[0] for a in want)


@pytest.mark.parametrize("batch", [256, 2])
def test_decomposition_bits_without_bank(batch, gallery, monkeypatch):
    _slice_calls(monkeypatch, batch)
    # a pole just outside the circle 2^-2 refines past the bank's depth
    near = GalleryFunction(rational_terms=((0.26, 0.01),))
    cases = [
        (f, x)
        for f in (gallery[1], gallery[8], gallery[15], gallery[19], near)
        for x in (-0.3, -0.1, -0.02, -0.006)
    ]
    levels = _spy_levels(monkeypatch)
    banked = [_report_bits(annular_decomposition(f, x, CONE, M=1, N=10)) for f, x in cases]
    assert max(depths[0] for _, depths in levels) >= contour._BANK_DEPTH
    assert all(depths[0] < contour._BANK_DEPTH for from_bank, depths in levels if from_bank)
    monkeypatch.setattr(contour, "_BANK_DEPTH", 0)  # every level computes its nodes
    levels.clear()
    bypassed = [_report_bits(annular_decomposition(f, x, CONE, M=1, N=10)) for f, x in cases]
    assert levels and not any(b for b, _ in levels)
    assert bypassed == banked


def test_decomposition_bank_memory_bound():
    # the bank is allocated zeroed and filled a row at a time, so its
    # allocated bytes bound what of it can become resident
    _, plan = contour._decomposition_contours(CONE, 1, 10)
    assert sum(a.nbytes for a in plan.bank) <= 0.65e6
    fresh = contour._plan.__wrapped__(tuple(_decomposition_paths()))
    contour._integrate_many(_decomposition_paths(), lambda z: 0.0 * z, 1e-10, fresh)
    assert not fresh.bank[3].any()  # no panel was refined, no row filled


def test_full_circle_memoised_and_equal_paths_share_results():
    assert full_circle(0j, 0.5) is full_circle(0j, 0.5)
    # equal but not identical: the plan cache compares paths by value
    fresh = ContourPath(
        (Arc(0j, 0.5, 0.0, math.pi), Arc(0j, 0.5, math.pi, 2.0 * math.pi)),
        closed=True,
        check_simple=False,
    )
    assert fresh == full_circle(0j, 0.5) and fresh is not full_circle(0j, 0.5)

    def integrand(z):
        return np.exp(z) / (z - 0.1)

    want = integrate_contour(full_circle(0j, 0.5), integrand)
    assert _result_bits(integrate_contour(fresh, integrand)) == _result_bits(want)
    contour._plan.cache_clear()
    assert _result_bits(integrate_contour(fresh, integrand)) == _result_bits(want)


def test_builders_memoised_and_checked_once(monkeypatch):
    checks = []
    check = ContourPath._check_simple

    def counted(self, *args):
        checks.append(self)
        return check(self, *args)

    monkeypatch.setattr(ContourPath, "_check_simple", counted)
    cone = ConeSpec(0j, math.pi, math.pi / 6, 0.4999, 0.45)  # used by no other test
    first = build_annular_piece(4, cone)
    assert build_annular_piece(4, ConeSpec(0j, math.pi, math.pi / 6, 0.4999, 0.45)) is first
    assert build_keyhole(cone, 6, 2) is build_keyhole(cone, 6, 2)
    assert len(checks) == 2
    short = ConeSpec(0j, math.pi, math.pi / 6, 0.1, 0.45)
    for _ in range(2):
        with pytest.raises(ContourError):
            build_annular_piece(1, short)
        with pytest.raises(ContourError):
            build_keyhole(short, N=5, M=2)


# ---------------------------------------------------------------------------
# Cauchy quotient and decomposition


def test_quotient_poly_square():
    f = GalleryFunction(poly_coeffs=(0, 0, 1))
    q = quotient_via_cauchy(f, -0.1, CONE, N=8, M=1, tol=1e-10)
    assert abs(q - (-0.1)) <= 1e-8


def test_quotient_identity_function():
    f = GalleryFunction(poly_coeffs=(0, 1))
    for x in (-0.05, -0.2, -0.1 + 0.02j):
        q = quotient_via_cauchy(f, x, CONE, N=8, M=1, tol=1e-10)
        assert abs(q - 1.0) <= 1e-8


def test_quotient_ct_gallery():
    f = GalleryFunction(ct_terms=((Disk(0.5, 0.1), 1.0),))
    x = -(2.0**-4)
    q = quotient_via_cauchy(f, x, CONE, N=8, M=1, tol=1e-10)
    assert abs(q - f(x) / x) <= 1e-8


def test_quotient_default_inner_index():
    assert default_inner_index(-0.1, CONE) == max(2, math.ceil(-math.log2(0.025)))
    f = GalleryFunction(poly_coeffs=(0, 1))
    q = quotient_via_cauchy(f, -0.1, CONE, M=1, tol=1e-10)
    assert abs(q - 1.0) <= 1e-8


def test_default_inner_index_clears_singularities(domain):
    # at x = -0.35 the index from |x| alone is 4, and 2^-4 encloses the holes
    # from n = 5 on; every gallery function must still give f(x)/x
    x = -0.35
    assert default_inner_index(x, CONE) == 4
    for f in build_test_gallery(domain, 27):
        assert abs(quotient_via_cauchy(f, x, CONE, M=1) - f(x) / x) <= 1e-9
        assert annular_decomposition(f, x, CONE, M=1).residual <= 2e-10


def test_default_inner_index_rejects_disk_at_vertex():
    with pytest.raises(ContourError):
        quotient_via_cauchy(conjugate_function(), -0.1, CONE, M=1)


def test_quotient_rejects_x_outside_cone():
    f = GalleryFunction(poly_coeffs=(0, 1))
    with pytest.raises(ContourError):
        quotient_via_cauchy(f, 0.1, CONE, N=8, M=1)
    with pytest.raises(ContourError):
        quotient_via_cauchy(f, -0.6, CONE, N=8, M=1)


def test_decomposition_poly():
    f = GalleryFunction(poly_coeffs=(0, 0, 1))
    rep = annular_decomposition(f, -0.1, CONE, M=2, N=5, tol=1e-10)
    assert rep.residual <= 2e-10
    assert abs(rep.lhs - (-0.1)) <= 1e-14
    assert [n for n, _ in rep.annular_terms] == [2, 3, 4, 5]


def test_decomposition_reverses_each_piece_once(monkeypatch):
    reversals = []
    reverse = ContourPath.reversed

    def counted(self):
        reversals.append(self)
        return reverse(self)

    monkeypatch.setattr(ContourPath, "reversed", counted)
    cone = ConeSpec(0j, math.pi, math.pi / 6, 0.4998, 0.45)  # used by no other test
    f = GalleryFunction(poly_coeffs=(0, 0, 1))
    annular_decomposition(f, -0.1, cone, M=2, N=5, tol=1e-10)
    again = annular_decomposition(f, -0.05, cone, M=2, N=5, tol=1e-10)
    assert len(reversals) == 4 and again.residual <= 2e-10
    path = contour._clockwise_annular_piece(3, cone)
    assert path.segments == reverse(build_annular_piece(3, cone)).segments


def test_decomposition_single_circle_reduction():
    f = GalleryFunction(poly_coeffs=(0, 0, 1))
    rep = annular_decomposition(f, -0.1, CONE, M=2, N=2, tol=1e-10)
    assert rep.residual <= 2e-10
    assert rep.annular_terms == ()


def test_decomposition_ct_gallery(domain):
    f = GalleryFunction(ct_terms=((domain.holes[2], 1.0),))
    rep = annular_decomposition(f, -0.1, CONE, M=1, N=10, tol=1e-10)
    assert rep.residual <= 2e-10


def test_decomposition_term_decay(domain):
    # annular terms decay toward the vertex like the 4^n-weighted contents
    f = GalleryFunction(ct_terms=((domain.holes[0], 1.0),))
    rep = annular_decomposition(f, -0.1, CONE, M=1, N=10, tol=1e-10)
    mags = {n: abs(t) for n, t in rep.annular_terms}
    assert mags[10] < mags[5] < mags[3]


EDGE = cmath.exp(1j * (CONE.direction + CONE.half_angle))


@pytest.mark.parametrize(
    "pole, M, N",
    [
        (0.25, 1, 10),  # the circle 2^-2 that D_1 and D_2 share
        (2.0**-11 * 1j, 1, 10),  # the keyhole's inner circle 2^-(N+1)
        (0.5, 1, 1),  # the only contour of a degenerate split
        (0.1 * EDGE, 1, 10),  # a cone edge
        (0.25 * (1 + 1e-13), 1, 10),  # within rounding of a circle
    ],
)
def test_decomposition_rejects_pole_on_contour(pole, M, N, monkeypatch):
    # without the check, a shallow depth limit fails in well under a second
    monkeypatch.setattr(contour, "_MAX_DEPTH", 12)
    f = GalleryFunction(rational_terms=((pole, 1.0),))
    with pytest.raises(ContourError, match="lies on"):
        annular_decomposition(f, -0.02 if N > 1 else -0.3, CONE, M=M, N=N)


def test_decomposition_accepts_poles_off_its_contours():
    # a circle outside M..N+1, an edge's line beyond its radii, and a pole
    # a relative 1e-3 off a circle
    for pole, M, N in ((0.5, 2, 8), (0.3 * EDGE, 2, 8), (0.25 * (1 + 1e-3), 1, 10)):
        f = GalleryFunction(rational_terms=((pole, 1e-3),))
        assert annular_decomposition(f, -0.1, CONE, M=M, N=N).residual <= 2e-10


def test_decomposition_ct_disk_across_contour():
    # a Cauchy-transform disk astride the circle 2^-2: f is continuous there
    # with a kink, and the terms still add up to the quotient
    f = GalleryFunction(ct_terms=((Disk(0.25, 0.075), 1.0),))
    rep = annular_decomposition(f, -0.1, CONE, M=1, N=10)
    assert rep.residual <= 2e-10


def test_cone_kernel_inequality():
    # |x| / |z - x| <= 1/k for z outside the cone, x on the axis inside it
    for n in (3, 5, 7):
        ts = np.linspace(0.0, 1.0, 64)
        z = np.concatenate([p.point(ts) for p in build_annular_piece(n, CONE).segments])
        ri, _ = annulus_radii(n)
        x = -1.5 * ri  # on the cone axis, inside annulus n
        assert np.max(abs(x) / np.abs(z - x)) <= 1.0 / CONE.k + 1e-9
        assert np.max(1.0 / (np.abs(z) * np.abs(z - x))) <= (
            (1.0 + 1.0 / CONE.k) / ri**2 + 1e-9
        )


# ---------------------------------------------------------------------------
# Lemma checks and kernel ratios


def test_lemma_check_conjugate():
    # frozen closed forms: |integral| = 2 pi r^2, content (2r)^1.5, seminorm (2r)^0.5
    r = 0.2
    rep = lemma_cauchy_bound_check(
        conjugate_function(), full_circle(0j, r), DiskRegion(0j, r), 0.5
    )
    assert rep.integral_magnitude == pytest.approx(2 * math.pi * r * r, rel=1e-9)
    assert rep.content_upper == pytest.approx(0.4**1.5, rel=1e-12)
    assert rep.seminorm_estimate == pytest.approx(0.6324555320336759, rel=0.01)
    assert rep.kappa_hat == pytest.approx(math.pi / 2, rel=0.02)


def test_lemma_check_analytic_zero():
    f = GalleryFunction(poly_coeffs=(0, 0, 1))
    rep = lemma_cauchy_bound_check(f, full_circle(0j, 0.3), DiskRegion(0j, 0.3), 0.5)
    assert rep.integral_magnitude <= 1e-10
    assert rep.kappa_hat <= 1e-8


def test_lemma_check_scale_invariance():
    vals = []
    for r in (0.4, 0.2, 0.1):
        rep = lemma_cauchy_bound_check(
            conjugate_function(), full_circle(0j, r), DiskRegion(0j, r), 0.5
        )
        vals.append(rep.kappa_hat)
    assert max(vals) / min(vals) <= 1.05


def test_lemma_check_requires_closed_path():
    open_path = ContourPath((Segment(0, 1),), closed=False)
    with pytest.raises(ContourError):
        lemma_cauchy_bound_check(conjugate_function(), open_path, DiskRegion(0j, 1.0), 0.5)


def test_kernel_ratio_zero_function():
    f = GalleryFunction(poly_coeffs=(0,))
    assert kernel_seminorm_ratio(f, -0.25 * 2.0**-4, 4, CONE, 0.5) == 0.0


def test_kernel_ratio_two_scale_stability():
    # doubling n multiplies seminorm(g) by about 4; the normalized ratio drifts
    # only by the smooth-kernel factor, well under 4x per step
    f = GalleryFunction(poly_coeffs=(0, 1))
    r4 = kernel_seminorm_ratio(f, -0.25 * 2.0**-4, 4, CONE, 0.8, seed=5)
    r5 = kernel_seminorm_ratio(f, -0.25 * 2.0**-5, 5, CONE, 0.8, seed=5)
    assert 0.25 <= r5 / r4 <= 4.0


def test_kernel_ratio_position_precondition():
    f = GalleryFunction(poly_coeffs=(0, 1))
    with pytest.raises(ContourError):
        # far from the vertex and not inside the cone
        kernel_seminorm_ratio(f, 0.3, 4, CONE, 0.5)
