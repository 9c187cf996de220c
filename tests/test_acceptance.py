"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its numbered criterion and then
asserts it, so the verdicts survive in the captured output either way.
"""
import json
import math

import numpy as np
import pytest

from pointderiv import (
    ClippedPiece,
    ConeSpec,
    Disk,
    DiskRegion,
    GalleryFunction,
    RoadrunnerFamily,
    annular_decomposition,
    build_test_gallery,
    conjugate_function,
    full_circle,
    functional_sweep,
    greedy_cover_upper,
    kernel_seminorm_ratio,
    lemma_cauchy_bound_check,
    lord_ofarrell_series,
    nontangential_limit,
    parametric_verdict,
    quotient_via_cauchy,
    seminorm_estimate,
    threshold_radius_ratio,
)
from pointderiv.cli import main as cli_main
from pointderiv.geometry import Ray

CONE = ConeSpec(vertex=0j, direction=math.pi, half_angle=math.pi / 6, length=0.5, k=0.45)
RAY = Ray(origin=0j, direction=math.pi, length=0.25)
FAMILY = RoadrunnerFamily()  # holes r_n = 4^-n, one per dyadic annulus
QUAD_TOL = 1e-10
XS = [complex(v) for v in -np.geomspace(0.35, 0.005, 10)]


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num}: {status} - {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def acc_domain():
    return FAMILY.domain()


@pytest.fixture(scope="module")
def acc_gallery(acc_domain):
    return build_test_gallery(acc_domain, 20)


def test_criterion_1_cauchy_identity(acc_gallery):
    worst = 0.0
    for f in acc_gallery:
        for x in XS:
            q = quotient_via_cauchy(f, x, CONE, N=10, M=1, tol=QUAD_TOL)
            worst = max(worst, abs(q - f(x) / x))
    _report(
        1,
        "Cauchy quotient matches f(x)/x to 1e-8 for 20 functions x 10 points",
        worst <= 1e-8,
        f"worst deviation {worst:.3g}",
    )


def test_criterion_2_decomposition(acc_gallery):
    worst = 0.0
    for f in acc_gallery:
        for x in XS:
            rep = annular_decomposition(f, x, CONE, M=1, N=10, tol=QUAD_TOL)
            worst = max(worst, rep.residual)
    _report(
        2,
        "per-annulus decomposition residual <= 2x quadrature tol, M=1, N=10",
        worst <= 2.0 * QUAD_TOL,
        f"worst residual {worst:.3g}",
    )


def test_criterion_3_nontangential_convergence(acc_domain, acc_gallery):
    ok = True
    detail = ""
    for i, f in enumerate(acc_gallery):
        rep = nontangential_limit(f, acc_domain, RAY, scales=20, limit_tol=1e-3)
        devs = [d for _, _, d in rep.samples][-5:]
        monotone = all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
        df = rep.derivative_value
        final_ok = devs[-1] <= 1e-3 * (abs(df) if abs(df) > 0 else 1.0)
        if not (monotone and final_ok and rep.verdict == "CONVERGED"):
            ok = False
            detail = f"function {i} verdict {rep.verdict} final dev {devs[-1]:.3g}"
            break
    _report(
        3,
        "all 20 gallery limits monotone over last 5 scales, final rel dev <= 1e-3",
        ok,
        detail,
    )


def test_criterion_4_closed_form_agreement(acc_domain):
    alpha = 0.5
    rep = lord_ofarrell_series(acc_domain, alpha, n_max=12)
    by_n = {n: w for n, _, w in rep.terms}
    exact_ok = all(
        by_n[n] == 2.0**1.5 * 2.0**-n  # float-exact closed form
        for n in range(FAMILY.n_min, FAMILY.truncation + 1)
    )
    greedy_ok = True
    from pointderiv import annulus_complement

    for n in range(FAMILY.n_min, FAMILY.truncation + 1):
        pieces = annulus_complement(acc_domain, n)
        g = 4.0**n * greedy_cover_upper(pieces, alpha).upper
        closed = 2.0**1.5 * 2.0**-n
        if not (closed / 2.5 <= g <= 2.5 * closed):
            greedy_ok = False
            break
    par = parametric_verdict(FAMILY, alpha)
    thr_ok = abs(par.threshold - 4.0 ** (-2.0 / 3.0)) <= 1e-12
    thr_ok = thr_ok and abs(threshold_radius_ratio(alpha) - 4.0 ** (-2.0 / 3.0)) <= 1e-12
    _report(
        4,
        "series terms exact (disjoint), within 2.5x (greedy), threshold to 1e-12",
        exact_ok and greedy_ok and thr_ok,
        f"exact={exact_ok} greedy={greedy_ok} threshold={thr_ok}",
    )


def test_criterion_5_lemma_scale_invariance():
    alpha = 0.5
    ok = True
    details = []
    for r in (0.4, 0.2, 0.1):
        rep = lemma_cauchy_bound_check(
            conjugate_function(), full_circle(0j, r), DiskRegion(0j, r), alpha,
            tol=QUAD_TOL,
        )
        details.append(f"r={r}: {rep.kappa_hat:.4f}")
        if abs(rep.kappa_hat - math.pi / 2) > 0.05 * (math.pi / 2):
            ok = False
    _report(5, "kappa_hat = pi/2 within 5% at radii 0.4/0.2/0.1", ok, "; ".join(details))


def test_criterion_6_kernel_seminorm_boundedness():
    alpha = 0.8
    fz = GalleryFunction(poly_coeffs=(0, 1), label="z")
    fct = GalleryFunction(ct_terms=((Disk(0.5 + 0j, 0.1), 1.0),), label="ct-far")
    ok = True
    details = []
    for f in (fz, fct):
        sem_f = seminorm_estimate(f, DiskRegion(0j, 1.0), alpha, pair_count=4000).value
        ratios = []
        for n in range(3, 9):
            for frac in (0.25, 0.2, 0.15):
                x = complex(-frac * 2.0**-n)
                ratios.append(
                    kernel_seminorm_ratio(
                        f, x, n, CONE, alpha, pair_count=4000, f_seminorm=sem_f
                    )
                )
        spread = max(ratios) / min(ratios)
        details.append(f"{f.label}: max/min {spread:.3f}")
        if spread > 4.0:
            ok = False
    _report(
        6,
        "kernel seminorm ratios over n in 3..8 and 3 ray positions spread <= 4x",
        ok,
        "; ".join(details),
    )


def test_criterion_7_uniform_boundedness(acc_domain, acc_gallery):
    shallow = functional_sweep(acc_gallery, acc_domain, RAY, scales=10, alpha=0.5)
    deep = functional_sweep(acc_gallery, acc_domain, RAY, scales=20, alpha=0.5)
    growth = deep.max_ratio / shallow.max_ratio
    _report(
        7,
        "sweep max_ratio at depth 20 within 10% of depth 10",
        growth <= 1.10 and math.isfinite(deep.max_ratio),
        f"depth-10 {shallow.max_ratio:.4g}, depth-20 {deep.max_ratio:.4g}",
    )


def _whole_piece(radius: float) -> ClippedPiece:
    return ClippedPiece(
        hole=Disk(0.5, radius),
        annulus_center=0.5,
        n=1,
        r_inner=0.0,
        r_outer=2.0 * radius,
        is_whole=True,
    )


def test_criterion_8_content_estimator_sanity():
    alpha = 0.5
    ok = True
    details = []
    uppers = []
    for r in (0.1, 0.05, 0.025):
        est = greedy_cover_upper([_whole_piece(r)], alpha)
        closed = (2.0 * r) ** (1.0 + alpha)
        uppers.append(est.upper)
        details.append(f"r={r}: {est.upper / closed:.3f}x closed form")
        if not (closed / 2.5 <= est.upper <= 2.5 * closed):
            ok = False
    for a, b in zip(uppers, uppers[1:]):
        scale = b / a
        if abs(scale - 2.0 ** -(1.0 + alpha)) > 0.05 * 2.0 ** -(1.0 + alpha):
            ok = False
            details.append(f"halving scale {scale:.4f}")
    _report(
        8,
        "greedy content within 2.5x of (2r)^1.5 and halves by 2^-1.5 within 5%",
        ok,
        "; ".join(details),
    )


def test_criterion_9_cli_determinism(tmp_path):
    cfg = {
        "alpha": 0.5,
        "seed": 0,
        "domain": {"roadrunner": {"radius_ratio": 0.25, "truncation": 9}},
        "ray": {"direction": math.pi, "length": 0.25, "scales": 12},
        "gallery": {"preset": "auto", "count": 6},
        "n_max": 12,
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg))
    ok = True
    details = []
    for cmd, name in (("criterion", "criterion.csv"), ("sweep", "sweep.csv")):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / f"{cmd}-{sub}"
            code = cli_main([cmd, "--config", str(cfg_path), "--out", str(out)])
            if code != 0:
                ok = False
                details.append(f"{cmd} exit {code}")
            outs.append((out / name).read_bytes())
        if outs[0] != outs[1]:
            ok = False
            details.append(f"{cmd} CSV bytes differ")
    _report(
        9,
        "repeated CLI runs with identical config and seed give byte-identical CSV",
        ok,
        "; ".join(details),
    )
