import math

import pytest

from pointderiv import (
    BPD_SUFFICIENT,
    Disk,
    RoadrunnerFamily,
    SwissCheeseDomain,
    lord_ofarrell_series,
    parametric_verdict,
    threshold_radius_ratio,
)
from pointderiv.criterion import DIVERGENT_UPPER_BOUND, INCONCLUSIVE, CriterionError


def test_punctured_disk_all_zero():
    d = SwissCheeseDomain(base_point_kind="puncture")
    rep = lord_ofarrell_series(d, 0.5, n_max=10)
    assert all(w == 0.0 for _, _, w in rep.terms)
    assert rep.verdict == BPD_SUFFICIENT
    assert rep.total == 0.0


def test_convergent_family_terms_exact(family):
    # oracle: 4^n (2*4^-n)^1.5 = 2^1.5 * 2^-n, frozen closed form
    rep = lord_ofarrell_series(family.domain(), 0.5, n_max=12)
    by_n = {n: w for n, _, w in rep.terms}
    for n in range(family.n_min, family.truncation + 1):
        assert by_n[n] == 2.0**1.5 * 2.0**-n  # exact float equality
    for n in range(1, family.n_min):
        assert by_n[n] == 0.0
    assert rep.verdict == BPD_SUFFICIENT
    assert math.isfinite(rep.total)


def test_convergent_family_total():
    # untruncated series sums to 2^1.5 * sum_{n>=1} 2^-n = 2^1.5 with n_min=1;
    # here the closed-form tail is added past n_max
    fam = RoadrunnerFamily()
    rep = lord_ofarrell_series(fam.domain(), 0.5, n_max=12)
    expected = sum(2.0**1.5 * 2.0**-n for n in range(fam.n_min, fam.truncation + 1))
    tail = fam.term(13, 0.5) / (1 - fam.common_ratio(0.5))
    assert rep.partial_sums[-1] == pytest.approx(expected, rel=1e-14)
    assert rep.tail_bound == pytest.approx(tail, rel=1e-14)


def test_divergent_family():
    # radii r_n = 0.2 * 2^-n: weighted term 4^n (0.4 * 2^-n)^1.5 = 0.4^1.5 * 2^(n/2)
    fam = RoadrunnerFamily(radius_scale=0.2, radius_ratio=0.5, n_min=3, truncation=9)
    rep = lord_ofarrell_series(fam.domain(), 0.5, n_max=10)
    by_n = {n: w for n, _, w in rep.terms}
    for n in range(3, 10):
        assert by_n[n] == pytest.approx(0.4**1.5 * 2.0 ** (0.5 * n), rel=1e-13)
    assert rep.verdict == DIVERGENT_UPPER_BOUND
    assert rep.tail_bound == math.inf


def test_parametric_verdict_convergent():
    fam = RoadrunnerFamily(radius_ratio=0.25)
    rep = parametric_verdict(fam, 0.5)
    assert fam.common_ratio(0.5) == pytest.approx(0.5)
    assert rep.verdict == BPD_SUFFICIENT


def test_parametric_verdict_divergent():
    fam = RoadrunnerFamily(radius_scale=0.25, radius_ratio=0.5)
    assert fam.common_ratio(0.5) == pytest.approx(4 * 0.5**1.5)
    assert parametric_verdict(fam, 0.5).verdict == DIVERGENT_UPPER_BOUND


def test_family_verdicts_follow_one_rule():
    # both reports take the tail and verdict of the family past their last term
    convergent = RoadrunnerFamily()
    divergent = RoadrunnerFamily(radius_scale=0.2, radius_ratio=0.5)
    assert convergent.tail_verdict(0.5, after=12) == (
        convergent.term(13, 0.5) / (1 - convergent.common_ratio(0.5)),
        BPD_SUFFICIENT,
    )
    assert divergent.tail_verdict(0.5, after=12) == (math.inf, DIVERGENT_UPPER_BOUND)
    for fam in (convergent, divergent):
        series = lord_ofarrell_series(fam.domain(), 0.5, n_max=12)
        par = parametric_verdict(fam, 0.5)
        assert (series.tail_bound, series.verdict) == fam.tail_verdict(0.5, after=12)
        assert (par.tail_bound, par.verdict) == fam.tail_verdict(0.5, after=fam.n_min + 11)


def test_threshold():
    assert threshold_radius_ratio(0.5) == pytest.approx(4.0 ** (-2.0 / 3.0), abs=1e-15)
    assert threshold_radius_ratio(0.5) == pytest.approx(0.3968502629920499, abs=1e-12)


def test_partial_sums_nondecreasing(domain):
    rep = lord_ofarrell_series(domain, 0.5, n_max=12)
    assert all(a <= b for a, b in zip(rep.partial_sums, rep.partial_sums[1:]))


def test_alpha_validation(domain):
    with pytest.raises(CriterionError):
        lord_ofarrell_series(domain, 1.5)
    with pytest.raises(CriterionError):
        parametric_verdict(RoadrunnerFamily(), 0.0)


def test_verdict_monotone_under_shrinking():
    big = RoadrunnerFamily(radius_scale=1.0)
    small = RoadrunnerFamily(radius_scale=0.5)
    rb = lord_ofarrell_series(big.domain(), 0.5, n_max=10)
    rs = lord_ofarrell_series(small.domain(), 0.5, n_max=10)
    assert rb.verdict == BPD_SUFFICIENT
    assert rs.verdict == BPD_SUFFICIENT
    assert rs.partial_sums[-1] <= rb.partial_sums[-1]


def test_truncation_leaves_early_terms_unchanged():
    full = RoadrunnerFamily(truncation=9)
    cut = RoadrunnerFamily(truncation=6)
    rf = lord_ofarrell_series(full.domain(), 0.5, n_max=6)
    rc = lord_ofarrell_series(cut.domain(), 0.5, n_max=6)
    assert rf.terms == rc.terms


def test_family_hole_must_fit_annulus():
    with pytest.raises(CriterionError):
        RoadrunnerFamily(radius_scale=4.0).domain()


def test_manual_domain_exhausted_holes():
    d = SwissCheeseDomain(holes=(Disk(0.1875, 0.03125),))
    rep = lord_ofarrell_series(d, 0.5, n_max=10)
    assert rep.verdict == BPD_SUFFICIENT
    assert rep.tail_bound == 0.0


def test_manual_domain_inconclusive_when_not_exhausted():
    d = SwissCheeseDomain(holes=(Disk(0.1875, 0.03125),))
    rep = lord_ofarrell_series(d, 0.5, n_max=2)
    assert rep.verdict == INCONCLUSIVE
    assert rep.tail_bound is None
