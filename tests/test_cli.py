import cmath
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from pointderiv import (
    DiskRegion,
    SwissCheeseDomain,
    annulus_complement,
    build_test_gallery,
    cli,
    conjugate_function,
    contour,
    geometry,
    lipschitz,
)
from pointderiv.cli import (
    COMMANDS,
    ConfigError,
    RunContext,
    _csv,
    cmd_limit,
    config_hash,
    load_config,
    main,
)

BASE_CONFIG = {
    "alpha": 0.5,
    "seed": 0,
    "domain": {"roadrunner": {"radius_ratio": 0.25, "truncation": 9}},
    "cone": {"direction": math.pi, "half_angle": math.pi / 6, "length": 0.5, "k": 0.45},
    "ray": {"direction": math.pi, "length": 0.25, "scales": 12},
    "gallery": {"preset": "auto", "count": 6},
    "tolerances": {"quad_tol": 1e-10, "limit_tol": 1e-3},
    "contour": {"M": 1, "N": 10, "x_scale_index": 2},
    "n_max": 12,
}


def write_config(tmp_path, overrides=None, name="run.json"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        cfg[key] = value
    p = tmp_path / name
    p.write_text(json.dumps(cfg, indent=2))
    return p


def run(cmd, cfg_path, out, *extra):
    return main([cmd, "--config", str(cfg_path), "--out", str(out), *extra])


def test_config_round_trip(tmp_path):
    p = write_config(tmp_path)
    raw1 = json.loads(p.read_text())
    p2 = tmp_path / "again.json"
    p2.write_text(json.dumps(raw1))
    assert json.loads(p2.read_text()) == raw1
    c1, c2 = load_config(p), load_config(p2)
    assert c1.domain == c2.domain and c1.alpha == c2.alpha
    assert config_hash(c1.raw, c1.seed) == config_hash(c2.raw, c2.seed)


def test_config_hash_changes_with_seed(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert config_hash(cfg.raw, 0) != config_hash(cfg.raw, 1)


def test_criterion_command(tmp_path, capsys):
    p = write_config(tmp_path)
    assert run("criterion", p, tmp_path / "out") == 0
    out = capsys.readouterr().out
    assert "BPD_SUFFICIENT" in out
    csv = (tmp_path / "out" / "criterion.csv").read_text()
    assert csv.splitlines()[0] == "n,content_upper,weighted_term,partial_sum"
    assert (tmp_path / "out" / "criterion-manifest.json").exists()


def test_criterion_no_holes(tmp_path):
    p = write_config(
        tmp_path,
        {"domain": {"holes": [], "base_point_kind": "puncture"}, "gallery": [{"poly": [0, 1]}]},
    )
    out = tmp_path / "o"
    assert run("criterion", p, out) == 0
    rows = (out / "criterion.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[2] == "0.0" for row in rows)


def test_bad_alpha_exit_2(tmp_path, capsys):
    p = write_config(tmp_path, {"alpha": 1.5})
    assert run("criterion", p, tmp_path / "o") == 2
    assert "config error" in capsys.readouterr().err


def test_bad_json_exit_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert run("criterion", p, tmp_path / "o") == 2


def test_ray_through_hole_exit_2(tmp_path, capsys):
    p = write_config(tmp_path, {"ray": {"direction": 0.0, "length": 0.25}})
    for command in ("limit", "sweep", "cone"):
        assert run(command, p, tmp_path / "o") == 2
        assert "ray passes through hole" in capsys.readouterr().err


def test_limit_command(tmp_path, capsys):
    p = write_config(tmp_path)
    out = tmp_path / "out"
    assert run("limit", p, out, "--svg") == 0
    assert "CONVERGED" in capsys.readouterr().out
    header = (out / "limit.csv").read_text().splitlines()[0]
    assert header == (
        "function_index,scale_index,x_re,x_im,quotient_re,quotient_im,deviation"
    )
    assert (out / "limit.svg").read_text().startswith("<svg")


def test_sweep_command(tmp_path, capsys):
    p = write_config(tmp_path)
    assert run("sweep", p, tmp_path / "o") == 0
    assert "max_ratio" in capsys.readouterr().out


def test_decompose_command(tmp_path, capsys):
    p = write_config(tmp_path)
    out = tmp_path / "o"
    assert run("decompose", p, out) == 0
    text = capsys.readouterr().out
    residual = float(text.split("residual", 1)[1].split()[0])
    assert residual <= 2e-10


def test_decompose_tolerance_failure_exit_3(tmp_path, capsys):
    # an impossible tolerance: the panels stop on the rounding floor, far
    # above it, and the quadrature fails
    p = write_config(tmp_path)
    code = run("decompose", p, tmp_path / "o", "--tol", "1e-30")
    assert code == 3
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, tol, estimate",
    [
        ("decompose", "1e-14", "1.05e-15"),
        ("decompose", "1e-13", None),
        ("lemma-check", "1e-17", "2.26e-17"),
        ("lemma-check", "1e-16", None),
    ],
)
def test_error_estimate_above_tol_exit_3(tmp_path, capsys, command, tol, estimate):
    # below about 1e-13 the panels stop on their rounding floor, and the
    # quadrature fails when the summed error estimate exceeds the tolerance
    out = tmp_path / "o"
    code = run(command, write_config(tmp_path), out, "--tol", tol)
    err = capsys.readouterr().err
    if estimate:
        # a decomposition path's tolerance is its share tol / 11
        share = float(tol) / (11 if command == "decompose" else 1)
        assert code == 3
        assert err == (
            "numerical tolerance failure: adaptive quadrature stopped at the rounding "
            f"floor 1e-16 (1 + |panel sum|) with error estimate {estimate} > tol {share:.3g}\n"
        )
        assert not out.exists()
    else:
        assert code == 0
        manifest = json.loads((out / f"{command}-manifest.json").read_text())
        assert 0.0 < manifest["err_to_tol"] <= 1.0


def test_tol_override_is_not_a_cache_hit(tmp_path, capsys):
    # the cache key covers the effective tolerance, not just the raw config
    p = write_config(tmp_path)
    out = tmp_path / "o"
    assert run("decompose", p, out) == 0
    capsys.readouterr()
    assert run("decompose", p, out, "--tol", "1e-30") == 3
    assert "cache hit" not in capsys.readouterr().out


def test_n_max_zero_exit_2(tmp_path, capsys):
    # content used to exit 0 with an empty table and print "annuli -3"
    for n_max in (0, -3):
        p = write_config(tmp_path, {"n_max": n_max})
        for command in COMMANDS:
            assert run(command, p, tmp_path / "o") == 2, (n_max, command)
            err = capsys.readouterr().err
            assert err == f"config error: n_max must be at least 1, got {n_max}\n"
            assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "overrides, where",
    [
        ({"gallery": [{"rational": [{"weight": 1.0}]}]}, "gallery[0]: missing key 'pole'"),
        ({"domain": {"holes": [{"center": 0.5}]}}, "domain.holes[0]: missing key 'radius'"),
        ({"cone": 3}, "cone:"),
        ({"n_max": 600}, "n_max must be at most 510"),
        ({"n_max": 511}, "n_max must be at most 510"),
        # load_config rejects these before any command runs
        ({"gallery": {"preset": "auto", "count": 0}}, "gallery count must be at least 1"),
        ({"gallery": {"preset": "auto", "count": -1}}, "gallery count must be at least 1"),
        ({"gallery": {"preset": "auto", "count": 2.5}}, "gallery count must be an integer"),
        ({"gallery": {"preset": "auto", "count": True}}, "gallery count must be an integer"),
        ({"gallery": {"preset": "auto", "count": "3"}}, "gallery count must be an integer"),
    ],
)
def test_malformed_config_exit_2(tmp_path, capsys, overrides, where):
    p = write_config(tmp_path, overrides)
    assert run("criterion", p, tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "config error" in err and where in err and "Traceback" not in err


def test_n_max_510_runs(tmp_path):
    # the family tail after n_max = 510 starts with 4.0**511, still a float
    assert run("criterion", write_config(tmp_path, {"n_max": 510}), tmp_path / "o") == 0


def test_limit_too_few_scales_inconclusive(tmp_path, capsys):
    p = write_config(tmp_path, {"ray": dict(BASE_CONFIG["ray"], scales=3)})
    assert run("limit", p, tmp_path / "o") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all("verdict INCONCLUSIVE" in line for line in lines)


def test_decompose_manifest_counts_evaluations(tmp_path):
    # the manifest's count equals that of 11 separate integrals
    p = write_config(tmp_path)
    out = tmp_path / "o"
    assert run("decompose", p, out) == 0
    manifest = json.loads((out / "decompose-manifest.json").read_text())
    cfg = load_config(p)
    f, cone, v = cfg.gallery[0], cfg.cone, cfg.cone.vertex
    x = cfg.ray.point(0.75 * cfg.ray.length * 2.0**-cfg.x_scale_index)
    paths = [contour.build_annular_piece(n, cone).reversed() for n in range(1, 11)]
    paths.append(contour.full_circle(v, 0.5))
    errors, evaluations = [], 0
    for path in paths:
        # the path's Cauchy integral alone, as the decomposition's loop computes it
        plan = contour._plan((path,))
        bank = contour._FBank(f.quotient, plan)
        _, err, count = contour._integrate_many(plan, contour._cauchy_kernel(x), 1e-10 / 11, bank)
        errors.append(float(err[0]))
        evaluations += int(count[0])
    assert manifest["evaluations"] == evaluations
    assert manifest["err_to_tol"] == max(errors) / (1e-10 / 11)
    assert 0.0 < manifest["err_to_tol"] <= 1.0


def test_lemma_check_command(tmp_path, capsys):
    p = write_config(tmp_path, {"lemma": {"radii": [0.4, 0.2]}})
    assert run("lemma-check", p, tmp_path / "o") == 0
    out = capsys.readouterr().out
    kappas = [float(line.split()[-1]) for line in out.splitlines() if "kappa" in line]
    assert len(kappas) == 2
    for k in kappas:
        assert k == pytest.approx(math.pi / 2, rel=0.05)


def test_content_command(tmp_path):
    p = write_config(tmp_path)
    out = tmp_path / "o"
    assert run("content", p, out) == 0
    rows = (out / "content.csv").read_text().splitlines()
    assert rows[0] == "n,piece_count,upper,lower_heuristic,method"
    assert len(rows) == 13


def test_cone_command(tmp_path, capsys):
    p = write_config(tmp_path)
    assert run("cone", p, tmp_path / "o") == 0
    k = float(capsys.readouterr().out.split("estimated_k", 1)[1].split()[0])
    assert k == pytest.approx(1.0, abs=1e-9)


def test_determinism_byte_identical_csv(tmp_path):
    p = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for cmd, name in [("criterion", "criterion.csv"), ("sweep", "sweep.csv")]:
        assert run(cmd, p, out1) == 0
        assert run(cmd, p, out2) == 0
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_rerun_into_same_out_recomputes(tmp_path, capsys):
    p = write_config(tmp_path)
    out = tmp_path / "o"
    assert run("criterion", p, out) == 0
    first = (out / "criterion.csv").read_bytes()
    assert run("criterion", p, out) == 0
    assert "cache hit" not in capsys.readouterr().out
    assert (out / "criterion.csv").read_bytes() == first
    assert not (out / ".cache").exists()


def test_no_cache_flag_exits_2(tmp_path, capsys):
    # there is no result cache to switch off
    with pytest.raises(SystemExit) as exit_:
        run("criterion", write_config(tmp_path), tmp_path / "o", "--no-cache")
    assert exit_.value.code == 2
    assert "--no-cache" in capsys.readouterr().err


def test_command_returns_what_main_writes(tmp_path, capsys):
    p = write_config(tmp_path)
    out = tmp_path / "o"
    files, lines, stats = cmd_limit(RunContext(load_config(p), out, svg=True, command="limit"))
    assert not out.exists() and capsys.readouterr().out == ""
    assert sorted(files) == ["limit.csv", "limit.svg"]
    assert stats == {
        "functions": 6,
        "ray_samples": 13,
        "hole_free_radius": 0.001461029052734375,
        "samples_in_hole_free_disk": 5,
        "base_point_kind": "accumulation",
    }
    assert run("limit", p, out, "--svg") == 0
    assert capsys.readouterr().out.splitlines() == lines
    assert sorted(q.name for q in out.iterdir()) == ["limit-manifest.json", *sorted(files)]
    for name, data in files.items():
        assert (out / name).read_text() == data


def test_manifest_records_stage_times(tmp_path, capsys):
    p = write_config(tmp_path)
    for command, cmd in COMMANDS.items():
        out = tmp_path / command
        files, _, stats = cmd(RunContext(load_config(p), out, svg=False, command=command))
        assert "stage_s" not in stats
        assert run(command, p, out) == 0
        manifest = json.loads((out / f"{command}-manifest.json").read_text())
        assert sorted(manifest["stage_s"]) == ["compute", "load", "write"]
        assert all(t >= 0.0 for t in manifest["stage_s"].values())
        for name, data in files.items():
            assert (out / name).read_text() == data


def test_manifest_records_effective_settings(tmp_path):
    p = write_config(tmp_path)
    out = tmp_path / "o"
    assert run("criterion", p, out, "--tol", "1e-12") == 0
    manifest = json.loads((out / "criterion-manifest.json").read_text())
    assert manifest["quad_tol"] == 1e-12 and manifest["seed"] == 0
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__


def test_svg_after_cached_run_writes_svg(tmp_path):
    p = write_config(tmp_path)
    out = tmp_path / "o"
    assert run("limit", p, out) == 0
    assert not (out / "limit.svg").exists()
    assert run("limit", p, out, "--svg") == 0
    assert (out / "limit.svg").read_text().startswith("<svg")


def test_seed_override_changes_hash_dir(tmp_path):
    p = write_config(tmp_path)
    cfg0 = load_config(p)
    cfg1 = load_config(p, seed_override=7)
    assert config_hash(cfg0.raw, cfg0.seed) != config_hash(cfg1.raw, cfg1.seed)


def test_out_env_var(tmp_path, monkeypatch):
    p = write_config(tmp_path)
    target = tmp_path / "envout"
    monkeypatch.setenv("POINTDERIV_OUT", str(target))
    assert main(["criterion", "--config", str(p)]) == 0
    assert (target / "criterion.csv").exists()


def test_explicit_gallery_terms(tmp_path):
    p = write_config(
        tmp_path,
        {
            "gallery": [
                {
                    "poly": [0, 1],
                    "ct": [{"disk": {"center": 0.09375, "radius": 0.01}, "weight": 1.0}],
                    "label": "mix",
                }
            ]
        },
    )
    cfg = load_config(p)
    assert len(cfg.gallery) == 1 and cfg.gallery[0].label == "mix"
    assert run("limit", p, tmp_path / "o") == 0


def test_explicit_gallery_pole_outside_holes_exit_2(tmp_path, capsys):
    # f = 1/(z + 0.5) has its pole in U, so it is not analytic there
    p = write_config(tmp_path, {"gallery": [{"rational": [{"pole": -0.5, "weight": 1.0}]}]})
    assert run("limit", p, tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "gallery[0]" in err and "Traceback" not in err


def test_explicit_gallery_ct_disk_outside_holes_exit_2(tmp_path, capsys):
    ct = [{"disk": {"center": -0.5, "radius": 0.01}, "weight": 1.0}]
    p = write_config(tmp_path, {"gallery": [{"ct": ct}]})
    assert run("limit", p, tmp_path / "o") == 2
    assert "config error" in capsys.readouterr().err


def test_cone_through_hole_exit_2(tmp_path, capsys):
    p = write_config(
        tmp_path, {"domain": {"holes": [{"center": [-0.1, 0.01], "radius": 1e-4}]}}
    )
    assert run("cone", p, tmp_path / "o") == 2
    assert "cone meets hole" in capsys.readouterr().err


# Holes centred on the dyadic circles |z| = 2^-k, k = 2..9, so each is cut into
# two clipped pieces.  For 8 of the 16 pieces the greedy cover's grid sits on
# a tie, log2(side / (diam / 64)) == 6.0 exactly: the last bit of a piece
# diameter decides between a 64 x 64 and a 128 x 128 grid.
CLIPPED_HOLES = [
    {"center": [c.real, c.imag], "radius": 0.3 * 2.0**-k}
    for k, c in (
        (k, 2.0**-k * cmath.exp(1j * (-1.2 + 2.4 * (k - 2) / 7))) for k in range(2, 10)
    )
]

# Written by the release that measured diameters on the convex hull with scipy
CLIPPED_CONTENT_CSV = """\
n,piece_count,upper,lower_heuristic,method
1,1,0.08844718687863004,0.0,greedy_cover
2,2,0.12194742454743562,0.0,greedy_cover
3,2,0.046183299559580414,0.0,greedy_cover
4,2,0.014633482693431628,0.0,greedy_cover
5,2,0.00473312009140366,0.0,greedy_cover
6,2,0.0017182598220512506,0.0,greedy_cover
7,2,0.000671523789465554,0.0,greedy_cover
8,2,0.00022972107587165288,0.0,greedy_cover
9,1,5.792672813101721e-05,0.0,greedy_cover
10,0,0.0,0.0,empty
"""

CLIPPED_CRITERION_CSV = """\
n,content_upper,weighted_term,partial_sum
1,0.08844718687863004,0.35378874751452016,0.35378874751452016
2,0.12194742454743562,1.95115879275897,2.3049475402734902
3,0.046183299559580414,2.9557311718131465,5.260678712086637
4,0.014633482693431628,3.7461715695184967,9.006850281605134
5,0.00473312009140366,4.846714973597348,13.853565255202483
6,0.0017182598220512506,7.0379922311219225,20.891557486324405
7,0.000671523789465554,11.002245766603636,31.89380325292804
8,0.00022972107587165288,15.055000428324643,46.948803681252684
9,5.792672813101721e-05,15.185144219177376,62.13394790043006
10,0.0,0.0,62.13394790043006
"""


def clipped_config(tmp_path):
    return write_config(tmp_path, {"domain": {"holes": CLIPPED_HOLES}, "n_max": 10})


def test_clipped_config_sits_on_grid_ties(tmp_path):
    domain = load_config(clipped_config(tmp_path)).domain
    pieces = [p for n in range(1, 11) for p in annulus_complement(domain, n)]
    assert len(pieces) == 16 and not any(p.is_whole for p in pieces)
    ties = 0
    for p in pieces:
        x0, y0, x1, y1 = p.bounding_box()
        ties += math.log2(max(x1 - x0, y1 - y0) / (p.diameter() / 64.0)) == 6.0
    assert ties == 8


def test_clipped_content_and_criterion_bytes(tmp_path):
    p = clipped_config(tmp_path)
    out = tmp_path / "o"
    assert run("content", p, out) == 0
    assert run("criterion", p, out) == 0
    assert (out / "content.csv").read_text() == CLIPPED_CONTENT_CSV
    assert (out / "criterion.csv").read_text() == CLIPPED_CRITERION_CSV


def test_content_does_not_import_scipy(tmp_path):
    p = clipped_config(tmp_path)
    code = (
        "import sys\n"
        "from pointderiv.cli import main\n"
        f"assert main(['content', '--config', {str(p)!r}, '--out', {str(tmp_path / 'o')!r}]) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False"


def test_cli_import_leaves_hashlib_out():
    # hashlib loads OpenSSL, a few MB resident, and only config_hash needs it
    code = (
        "import json, sys\n"
        "from pointderiv.cli import config_hash\n"
        "print('hashlib' in sys.modules)\n"
        f"raw = json.loads({json.dumps(BASE_CONFIG)!r})\n"
        "print(config_hash(raw, 0, 1e-10), config_hash(raw, 3))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    # the hashes of earlier releases, so every manifest keeps its bytes
    assert res.stdout.splitlines()[-2:] == ["False", "06f06c4354d4d7c1 674b5abebf00ca7f"]


def test_import_leaves_numpy_polynomial_out():
    # the quadrature's Gauss-Legendre rule is literal: numpy.polynomial, and
    # the LAPACK call of leggauss, would cost resident memory at every import
    code = "import sys\nimport pointderiv, pointderiv.cli\nprint('numpy.polynomial' in sys.modules)\n"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False"


# The example config of README.md
README_CONFIG = {
    "alpha": 0.5,
    "seed": 0,
    "domain": {"roadrunner": {"radius_ratio": 0.25, "truncation": 9}},
    "cone": {"direction": math.pi, "half_angle": math.pi / 6, "length": 0.5, "k": 0.45},
    "ray": {"direction": math.pi, "length": 0.25, "scales": 20},
    "gallery": {"preset": "auto", "count": 6},
    "tolerances": {"quad_tol": 1e-10, "limit_tol": 1e-3},
    "contour": {"M": 1, "N": 10},
    "n_max": 12,
}

# Written by the release whose quotients are `GalleryFunction.quotient`,
# summed term by term, not f(x) / (x - x0)
README_SHA256 = {
    "limit.csv": "da68bb96c09cd566e60f9c8b1cb59dc769cc44a802794f1e3555b75dc10fcc63",
    "sweep.csv": "8d04eb1069f9315e8147dde68c9aa8e3ebf6b6661874cf16843d870eccb996f8",
}

# The benchmark's deep and clipped domains, with 20 gallery functions: poles
# and Cauchy transforms as well as polynomials
DEEP_CONFIG = dict(
    README_CONFIG,
    domain={"roadrunner": {"radius_ratio": 0.25, "truncation": 20}},
    gallery={"preset": "auto", "count": 20},
    n_max=24,
)
CLIPPED_LIMIT_CONFIG = dict(
    README_CONFIG,
    domain={"holes": CLIPPED_HOLES},
    gallery={"preset": "auto", "count": 20},
    n_max=10,
)

# The deep limit.csv written by the same release as README_SHA256; the other
# three by the release whose values f(x) are (x - x0) q(x) and whose f'(x0)
# is the quotient q at x0, all from one sum over the terms
DEEP_SHA256 = {
    "limit.csv": "9c2152f2e29e2a542bf22dd8100a9af2a2a84d071a3ea617d66eba807dfee01b",
    "sweep.csv": "15cc8c4084b17eda8963a201f620b15027a026b682b3272297ef1d2f3fe4811d",
}
CLIPPED_SHA256 = {
    "limit.csv": "ef589cd8669d8c3932976c9af13944d2536ee0f08d365116dc20e2f5c24c62a5",
    "sweep.csv": "4d22a61d9afa174d8a12c7c0eeef89f416b918b9f111afdf4d0579d2e212312b",
}

# decompose.csv of the README, deep and clipped configs, written by the
# release whose Cauchy kernel is w / (z - x) over a bank of the weighted
# quotient, with the quotient's closed form as the left-hand side.  The
# three configs share the cone, the ray, the contour and their first gallery
# function, the one decompose integrates, so they share one digest.
DECOMPOSE_SHA256 = {
    "readme": "3ba4ee212bbf64c7cef445002aab75caf7bb415aec44ccee1179e4961f8b2fc8",
    "deep": "3ba4ee212bbf64c7cef445002aab75caf7bb415aec44ccee1179e4961f8b2fc8",
    "clipped": "3ba4ee212bbf64c7cef445002aab75caf7bb415aec44ccee1179e4961f8b2fc8",
}

# cone.csv and the stdout of `cone` on the same three configs, written by the
# release whose `cone_samples` and `limit` each sampled the ray on their own.
# The ray runs along the cone axis, where the nearest boundary point of every
# sample is the base point, so the three tables agree.
CONE_SHA256 = {
    "readme": "4b5abd3f3deb99c429781a16d578d4db34d882350ef001c737ab9a22d75164ed",
    "deep": "4b5abd3f3deb99c429781a16d578d4db34d882350ef001c737ab9a22d75164ed",
    "clipped": "4b5abd3f3deb99c429781a16d578d4db34d882350ef001c737ab9a22d75164ed",
}
CONE_STDOUT = "estimated_k 1.0\n"

README_LEMMA_CHECK_CSV = """\
radius,integral_magnitude,content_upper,seminorm,kappa_hat
0.4,1.0053096491487339,0.7155417527999328,0.8944271909999161,1.5707963267948961
0.2,0.25132741228718347,0.2529822128134704,0.632455532033676,1.5707963267948961
0.1,0.06283185307179587,0.0894427190999916,0.44721359549995804,1.5707963267948961
"""


def readme_config(tmp_path, raw=README_CONFIG, name="readme.json"):
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return p


def test_readme_limit_sweep_lemma_check_bytes(tmp_path):
    p = readme_config(tmp_path)
    out = tmp_path / "o"
    for cmd in ("limit", "sweep", "lemma-check"):
        assert run(cmd, p, out) == 0
    for name, digest in README_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    assert (out / "lemma_check.csv").read_text() == README_LEMMA_CHECK_CSV
    for raw, digests in ((DEEP_CONFIG, DEEP_SHA256), (CLIPPED_LIMIT_CONFIG, CLIPPED_SHA256)):
        out = tmp_path / f"o{len(raw['gallery'])}-{raw['n_max']}"
        for cmd in ("limit", "sweep"):
            assert run(cmd, readme_config(tmp_path, raw), out) == 0
        for name, digest in digests.items():
            got = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert got == digest, (raw["n_max"], name)


def test_decompose_bytes(tmp_path):
    configs = {"readme": README_CONFIG, "deep": DEEP_CONFIG, "clipped": CLIPPED_LIMIT_CONFIG}
    for name, raw in configs.items():
        out = tmp_path / name
        assert run("decompose", readme_config(tmp_path, raw, f"{name}.json"), out) == 0
        got = hashlib.sha256((out / "decompose.csv").read_bytes()).hexdigest()
        assert got == DECOMPOSE_SHA256[name], name


def test_cone_bytes(tmp_path, capsys):
    configs = {"readme": README_CONFIG, "deep": DEEP_CONFIG, "clipped": CLIPPED_LIMIT_CONFIG}
    for name, raw in configs.items():
        out = tmp_path / name
        assert run("cone", readme_config(tmp_path, raw, f"{name}.json"), out) == 0
        got = hashlib.sha256((out / "cone.csv").read_bytes()).hexdigest()
        assert got == CONE_SHA256[name], name
        assert capsys.readouterr().out == CONE_STDOUT, name


def test_limit_converges_deep_in_the_ray(tmp_path, capsys):
    # at scales 60 the last sample is 0.25 * 2^-60 from x0; f(x) / x kept
    # none of the quotient's bits there and 21 of 27 verdicts read NOT_CONVERGED
    raw = dict(README_CONFIG, ray=dict(README_CONFIG["ray"], scales=60), gallery={"preset": "auto", "count": 27})
    assert run("limit", readme_config(tmp_path, raw), tmp_path / "o") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 27 and all(" verdict CONVERGED " in line for line in lines)


def test_limit_order_off_origin_base_point(tmp_path, capsys):
    # the order is fitted against |x - x0|; against |x| it read -3.52e+05
    raw = {
        "domain": {"holes": [{"center": 0.75, "radius": 0.05}], "base_point": 0.5},
        "ray": {},
        "gallery": [{"poly": [0, 0, 1]}, {"poly": [0, 0, 0, 1]}],
    }
    assert run("limit", readme_config(tmp_path, raw), tmp_path / "o") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" order ")[1] for line in lines[:2]] == ["1", "1"]


@pytest.mark.parametrize(
    "section, message",
    [
        ({"M": 1, "x_scale_index": 1100}, "x = 0j is the cone vertex"),
        ({"M": 1, "x_scale_index": 1000}, "contour depth N = 1005 exceeds 510"),
        ({"M": 1, "N": 2000}, "contour depth N = 2000 exceeds 510"),
        # |x| = 2^-1073, whose quarter underflows to 0: a ValueError traceback before
        ({"M": 1, "x_scale_index": 1071}, "contour depth N = 1074 exceeds 510"),
    ],
    ids=["x-on-vertex", "derived-N", "given-N", "subnormal-x"],
)
def test_decompose_past_float64_depth_exit_2(tmp_path, capsys, monkeypatch, section, message):
    # refused before any integral: the unchecked run exhausts memory
    monkeypatch.setattr(contour, "_integrate_many", lambda *a: pytest.fail("integrated"))
    p = readme_config(tmp_path, dict(README_CONFIG, contour=section))
    t0 = time.perf_counter()
    assert run("decompose", p, tmp_path / "o") == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_decompose_degenerate_split(tmp_path, capsys):
    # contour N == M: the circle 2^-M alone, with no annulus rows; a point
    # outside that circle exits 2
    raw = dict(README_CONFIG, contour={"M": 2, "N": 2, "x_scale_index": 0})  # |x| = 0.1875
    out = tmp_path / "o"
    assert run("decompose", readme_config(tmp_path, raw), out) == 0
    rows = (out / "decompose.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in rows] == [["kind", "n"], ["lhs", ""], ["circle", "2"], ["residual", ""]]
    assert float(capsys.readouterr().out.split("residual ")[1]) <= 2e-10
    raw = dict(README_CONFIG, contour={"M": 3, "N": 3, "x_scale_index": 0})
    assert run("decompose", readme_config(tmp_path, raw), tmp_path / "o3") == 2
    assert "must lie inside the cone and |z| < 2^-3" in capsys.readouterr().err


OFF_ORIGIN_DECOMPOSE = dict(
    README_CONFIG,
    domain={"holes": [{"center": 0.75, "radius": 0.05}], "base_point": 0.5},
    gallery={"preset": "auto", "count": 3},
)


@pytest.mark.parametrize("N", [26, 27, 30])
def test_decompose_off_origin_depth(tmp_path, capsys, N):
    # at |x0| = 0.5 the circles keep 27 bits of z - x0 down to N = 26; deeper
    # depths exit 2 before any integral
    raw = dict(OFF_ORIGIN_DECOMPOSE, contour={"M": 2, "N": N, "x_scale_index": 3})
    rc = run("decompose", readme_config(tmp_path, raw), tmp_path / "o")
    if N == 26:
        assert rc == 0 and float(capsys.readouterr().out.split("residual ")[1]) < 1e-15
    else:
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: contour depth N = {N} exceeds 25 - log2 |x0| = 26 at |x0| = 0.5")


def test_limit_checks_the_ray_once(tmp_path, monkeypatch):
    # the exact hole test once, and none of the 24 boundary distances that
    # `cone` tabulates
    calls = []
    real = geometry.check_ray
    monkeypatch.setattr(
        geometry, "check_ray", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    monkeypatch.setattr(
        SwissCheeseDomain, "boundary_distance", lambda *a: pytest.fail("boundary distance")
    )
    for command in ("limit", "sweep"):
        calls.clear()
        assert run(command, readme_config(tmp_path), tmp_path / command) == 0
        assert len(calls) == 1, command


@pytest.mark.parametrize(
    "ray, message",
    [
        (
            {"direction": 0.0, "length": 0.25},
            "ray passes through hole Disk(center=(0.09375+0j), radius=0.015625)",
        ),
        (
            {"direction": math.pi, "length": 1.5},
            "ray sample (-1.5+1.8369701987210297e-16j) lies outside the domain",
        ),
        (
            {"direction": math.pi, "length": 1e-320},
            "ray.scales = 20 puts the last ray sample on the base point",
        ),
    ],
    ids=["through-hole", "leaves-outer-disk", "sample-on-base-point"],
)
def test_bad_ray_exit_2_with_one_message(tmp_path, capsys, ray, message):
    p = readme_config(tmp_path, dict(README_CONFIG, ray=ray))
    for command in ("limit", "sweep", "cone"):
        assert run(command, p, tmp_path / "o") == 2, command
        assert capsys.readouterr().err == f"config error: {message}\n", command
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "domain",
    [
        README_CONFIG["domain"],
        {"holes": [{"center": 0.5, "radius": 0.1}], "base_point_kind": "none"},
    ],
    ids=["roadrunner", "base-point-kind-none"],
)
def test_cone_samples_on_base_point_exit_2(tmp_path, capsys, domain):
    # the one `limit` sample at 1e-320 passes the load-time check, but from
    # sample 12 on the 24 cone samples underflow onto the base point; with
    # kind "none" the distance ratio used to divide by zero, and on the
    # roadrunner domain the sample was said to lie outside it
    raw = dict(
        README_CONFIG,
        domain=domain,
        ray={"direction": math.pi, "length": 1e-320, "scales": 0},
        gallery=[{"poly": [0, 1]}],
    )
    assert run("cone", readme_config(tmp_path, raw), tmp_path / "o") == 2
    assert capsys.readouterr().err == "config error: ray sample 0j is the base point\n"
    assert not (tmp_path / "o").exists()


def test_no_command_reaches_lapack(tmp_path, monkeypatch, capsys):
    def lapack(*a, **k):
        raise AssertionError("LAPACK reached")

    monkeypatch.setattr(np.linalg, "lstsq", lapack)
    monkeypatch.setattr(np, "polyfit", lapack)
    configs = {"readme": README_CONFIG, "deep": DEEP_CONFIG, "clipped": CLIPPED_LIMIT_CONFIG}
    for name, raw in configs.items():
        p = readme_config(tmp_path, raw, f"{name}.json")
        for command in COMMANDS:
            assert run(command, p, tmp_path / name / command) == 0, (name, command)


def test_max_ratio_on_concatenated_pairs_is_the_separate_form(tmp_path):
    # every function each of the three domains supports, on the pairs of
    # `sweep` followed by its ray samples, and on the pairs of `lemma-check`
    cases = []
    for raw in (README_CONFIG, DEEP_CONFIG, CLIPPED_LIMIT_CONFIG):
        cfg = load_config(readme_config(tmp_path, raw))
        gallery = build_test_gallery(cfg.domain, 6 + 3 * len(cfg.domain.holes))
        xs = np.array([cfg.ray.point(cfg.ray.length * 2.0**-j) for j in range(21)])
        for seed in (0, 5):
            pairs = lipschitz._seminorm_pairs(DiskRegion(0j, 1.0), 0.5, 2000, seed)
            cases += [(f, pairs, xs) for f in gallery]
    for r in (0.4, 0.2, 0.1):
        pairs = lipschitz._seminorm_pairs(DiskRegion(0j, r), 0.5, 4000, 0)
        cases.append((conjugate_function(), pairs, xs[:0]))
    assert len(cases) == 2 * (27 + 60 + 30) + 3
    for f, (zw, d_alpha), xs in cases:
        z, w = zw[: len(d_alpha)], zw[len(d_alpha) :]
        separate = float((np.abs(f(z) - f(w)) / d_alpha).max())
        values = f(np.concatenate([zw, xs]))
        assert lipschitz._max_ratio(values, d_alpha).hex() == separate.hex(), f.label
        assert values[len(zw) :].tobytes() == f(xs).tobytes(), f.label


def _manifest(tmp_path, command, raw=README_CONFIG):
    out = tmp_path / command
    assert run(command, readme_config(tmp_path, raw), out) == 0
    return json.loads((out / f"{command}-manifest.json").read_text())


def test_manifest_counts_functions(tmp_path):
    for command in ("limit", "sweep"):
        assert _manifest(tmp_path, command, DEEP_CONFIG)["functions"] == 20
        assert _manifest(tmp_path, command)["functions"] == 6


def test_manifest_counts_ray_samples(tmp_path):
    short = dict(README_CONFIG, ray=dict(README_CONFIG["ray"], scales=7))
    for command in ("limit", "sweep"):
        assert _manifest(tmp_path, command)["ray_samples"] == 21
        assert _manifest(tmp_path, command, short)["ray_samples"] == 8


def test_manifest_records_the_hole_free_disk(tmp_path):
    # hole 9 of the README family, centre 0.75 * 2^-9 and radius 4^-9, is
    # the nearest; the samples 0.25 * 2^-j from j = 8 on lie inside its
    # hole-free disk, where every gallery function is analytic
    no_holes = dict(
        README_CONFIG,
        domain={"holes": [], "base_point_kind": "puncture"},
        gallery=[{"poly": [0, 1]}],
    )
    for command in ("limit", "sweep"):
        manifest = _manifest(tmp_path, command)
        assert manifest["hole_free_radius"] == 0.75 * 2.0**-9 - 4.0**-9 == 0.001461029052734375
        assert manifest["samples_in_hole_free_disk"] == 13
        assert manifest["base_point_kind"] == "accumulation"
        manifest = _manifest(tmp_path, command, no_holes)
        assert manifest["hole_free_radius"] is None
        assert manifest["samples_in_hole_free_disk"] == 21
        assert manifest["base_point_kind"] == "puncture"


def test_manifest_counts_seminorm_pairs(tmp_path):
    pairs = lipschitz._seminorm_pairs(DiskRegion(0j, 1.0), 0.5, 2000, 0)
    assert _manifest(tmp_path, "sweep")["seminorm_pairs"] == len(pairs[1]) > 1900


def test_manifest_counts_skipped_functions(tmp_path):
    assert _manifest(tmp_path, "sweep")["skipped_functions"] == 0
    raw = dict(README_CONFIG, gallery=[{"poly": [0, 1]}, {"poly": []}, {"poly": [2.0]}])
    manifest = _manifest(tmp_path, "sweep", raw)
    assert manifest["skipped_functions"] == 2 and manifest["functions"] == 3


def test_manifest_counts_pieces(tmp_path):
    raw = dict(README_CONFIG, domain={"holes": CLIPPED_HOLES}, n_max=10)
    for command in ("content", "criterion"):
        # 8 holes, each cut in two by a dyadic circle
        assert _manifest(tmp_path, command, raw)["pieces"] == 16
    table = (tmp_path / "content" / "content.csv").read_text().splitlines()[1:]
    assert sum(int(row.split(",")[1]) for row in table) == 16


def test_manifest_times_the_data_writes_only(tmp_path, monkeypatch):
    real = cli._atomic_write

    def slow_write(path, data):
        time.sleep(1.0 if path.name.endswith("-manifest.json") else 0.05)
        real(path, data)

    monkeypatch.setattr(cli, "_atomic_write", slow_write)
    write = _manifest(tmp_path, "limit")["stage_s"]["write"]
    assert 0.05 <= write < 1.0


def test_manifest_describes_the_last_run(tmp_path):
    p = write_config(tmp_path)
    out = tmp_path / "o"
    for extra in ([], ["--seed", "1"], []):
        assert run("criterion", p, out, *extra) == 0
    manifest = json.loads((out / "criterion-manifest.json").read_text())
    assert manifest["seed"] == 0
    assert manifest["config_hash"] == config_hash(json.loads(p.read_text()), 0, 1e-10)


def test_lemma_check_manifest_counts_evaluations(tmp_path):
    p = readme_config(tmp_path)
    out = tmp_path / "o"
    assert run("lemma-check", p, out) == 0
    manifest = json.loads((out / "lemma-check-manifest.json").read_text())
    f = conjugate_function()
    results = [
        contour.integrate_contour(contour.full_circle(0j, r), f, tol=1e-10)
        for r in (0.4, 0.2, 0.1)
    ]
    assert manifest["evaluations"] == sum(r.evaluations for r in results)
    assert manifest["err_to_tol"] == max(r.error_estimate for r in results) / 1e-10
    assert 0.0 <= manifest["err_to_tol"] <= 1.0


@pytest.mark.parametrize("command", ["limit", "sweep"])
def test_negative_scales_exit_2(tmp_path, capsys, command):
    p = tmp_path / "readme.json"
    p.write_text(json.dumps(dict(README_CONFIG, ray=dict(README_CONFIG["ray"], scales=-1))))
    assert run(command, p, tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "ray.scales" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_csv_cells_are_str_of_each_value():
    rows = [[1, 1e-17, 1e16, 0.1 + 0.2, -0.0, ""], [-3, 5e-324, 0.0, 1.0, "x", 2**60]]
    assert _csv(rows, list("abcdef")) == (
        "a,b,c,d,e,f\n"
        "1,1e-17,1e+16,0.30000000000000004,-0.0,\n"
        "-3,5e-324,0.0,1.0,x,1152921504606846976\n"
    )


def _decompose_cold(tmp_path, pole):
    """`pointderiv decompose` in a fresh interpreter, on the README config
    with one hole (centre 0.25, radius 0.075) and gallery[0] a pole at
    `pole` inside it.  A cold run takes well under a second; a hang fails at
    the timeout."""
    cfg = dict(
        README_CONFIG,
        domain={"holes": [{"center": [0.25, 0], "radius": 0.075}]},
        gallery=[{"rational": [{"pole": [pole, 0], "weight": 1}]}],
    )
    p = tmp_path / "d10.json"
    p.write_text(json.dumps(cfg))
    code = (
        "from pointderiv.cli import main\n"
        f"raise SystemExit(main(['decompose', '--config', {str(p)!r}, '--out', {str(tmp_path / 'o')!r}]))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=10,
    )


def test_pole_on_decomposition_contour_exits_2_fast(tmp_path):
    # the pole of gallery[0] lies on the circle |z| = 2^-2 that the D_1 and
    # D_2 boundaries run along; the quadrature used to refine it for minutes
    res = _decompose_cold(tmp_path, 0.25)
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr and "lies on the contour" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("offset", [1e-6, 1e-9])
def test_pole_near_decomposition_contour_exits_3_fast(tmp_path, offset):
    # a pole just outside the circle |z| = 2^-2 used to keep the quadrature
    # refining a band of panels around it for minutes; the panel budget
    # ends it
    res = _decompose_cold(tmp_path, 0.25 * (1.0 + offset))
    assert res.returncode == 3, res.stderr
    assert "numerical tolerance failure" in res.stderr and "budget" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "key, value",
    [
        ("quad_tol", math.nan),
        ("quad_tol", math.inf),
        ("quad_tol", 0.0),
        ("quad_tol", -1e-10),
        ("limit_tol", math.nan),
        ("limit_tol", math.inf),
        ("limit_tol", -1.0),
    ],
)
def test_tolerance_must_be_finite_and_positive(tmp_path, capsys, key, value):
    # a NaN tolerance used to pass every check and end in the manifest
    p = write_config(tmp_path, {"tolerances": dict(BASE_CONFIG["tolerances"], **{key: value})})
    command = "decompose" if key == "quad_tol" else "limit"
    assert run(command, p, tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"tolerances.{key}" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_tol_flag_must_be_finite_and_positive(tmp_path, capsys, tol):
    assert run("decompose", write_config(tmp_path), tmp_path / "o", "--tol", tol) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "--tol" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["limit", "sweep"])
def test_ray_sample_on_base_point_exits_2(tmp_path, capsys, command):
    # the last sample 0.25 * 2^-1100 underflows to the base point 0; sweep
    # used to divide by zero there
    p = tmp_path / "readme.json"
    p.write_text(json.dumps(dict(README_CONFIG, ray=dict(README_CONFIG["ray"], scales=1100))))
    assert run(command, p, tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "ray.scales" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("radius", [0, -0.1, "nan"])
def test_lemma_radius_must_be_finite_and_positive(tmp_path, capsys, radius):
    # "nan" used to spend the whole panel budget and exit 3
    p = write_config(tmp_path, {"lemma": {"radii": [0.4, radius]}})
    assert run("lemma-check", p, tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "lemma.radii[1]" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_lemma_radius_above_1_exit_2(tmp_path, capsys):
    # lemma-check integrates conjugate_function(), which is conj(z) only on
    # the unit disk: radius 2 used to write kappa_hat 0.574, not pi/2, and exit 0
    p = write_config(tmp_path, {"lemma": {"radii": [1.0, 2.0]}})
    assert run("lemma-check", p, tmp_path / "o") == 2
    assert capsys.readouterr().err == "config error: lemma.radii[1] must lie in (0, 1], got 2.0\n"
    assert not (tmp_path / "o").exists()
    p = write_config(tmp_path, {"lemma": {"radii": [1.0]}})
    assert run("lemma-check", p, tmp_path / "o") == 0
    line = capsys.readouterr().out
    assert line.startswith("radius 1.0 kappa_hat ")
    assert float(line.split()[-1]) == pytest.approx(math.pi / 2, rel=1e-14)


@pytest.mark.parametrize("under, error", [(False, "File exists"), (True, "Not a directory")])
def test_out_naming_a_file_exit_2(tmp_path, capsys, under, error):
    # mkdir on a file, or on a path under one, used to end in a traceback
    # and exit 1
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "o" if under else taken
    assert run("criterion", write_config(tmp_path), out) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and error in err and "Traceback" not in err
    assert taken.read_text() == "kept\n"


def test_svg_loglog_keeps_a_zero_maximum():
    # log10 |x| = 0 at the largest sample: the right edge at 590, where a
    # maximum of 0 replaced by 1 used to put it at 410
    svg = cli._svg_loglog([(0.01, 1e-3), (1.0, 1e-2)], "t")
    assert 'points="50.00,370.00 590.00,50.00"' in svg


def test_ray_scales_up_to_the_last_nonzero_sample(tmp_path):
    # 0.25 * 2^-1072 is the smallest subnormal; one scale more rounds to 0
    for scales, ok in ((1072, True), (1073, False), (10**400, False)):
        p = tmp_path / "readme.json"
        p.write_text(json.dumps(dict(README_CONFIG, ray=dict(README_CONFIG["ray"], scales=scales))))
        if ok:
            assert load_config(p).scales == scales
        else:
            with pytest.raises(ConfigError, match="ray.scales"):
                load_config(p)


INTEGER_KEYS = [
    "seed",
    "n_max",
    "domain.roadrunner.truncation",
    "domain.roadrunner.n_min",
    "ray.scales",
    "contour.M",
    "contour.N",
    "contour.x_scale_index",
]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -1e308, "three", None], ids=repr)
@pytest.mark.parametrize("key", INTEGER_KEYS)
def test_invalid_integer_field_exits_2(tmp_path, capsys, key, value):
    # one field at a time; Infinity used to raise OverflowError from int()
    # and -1e308 to overflow 2.0**-k in decompose.  decompose reads every
    # field: at load, or for contour.M and N in its contour check
    raw = json.loads(json.dumps(README_CONFIG))
    *path, last = key.split(".")
    table = raw
    for part in path:
        table = table[part]
    table[last] = value
    assert run("decompose", readme_config(tmp_path, raw), tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert re.search(rf"\b{re.escape(last)}\b", err), err
    assert not (tmp_path / "o").exists()


def test_n_max_minus_1e308_is_shown_as_written(tmp_path, capsys):
    # int(-1e308) has 309 digits, and the message used to print them all
    assert run("criterion", write_config(tmp_path, {"n_max": -1e308}), tmp_path / "o") == 2
    assert capsys.readouterr().err == "config error: n_max must be at least 1, got -1e+308\n"


@pytest.mark.parametrize("value", [-1e308, 1e308], ids=repr)
@pytest.mark.parametrize("key", INTEGER_KEYS)
def test_out_of_range_integer_field_message_is_short(tmp_path, capsys, key, value):
    # a run that rejects the field shows %.3g of it, never all of its digits
    raw = json.loads(json.dumps(README_CONFIG))
    *path, last = key.split(".")
    table = raw
    for part in path:
        table = table[part]
    table[last] = value
    run("decompose", readme_config(tmp_path, raw), tmp_path / "o")
    err = capsys.readouterr().err
    assert "Traceback" not in err and not re.search(r"\d{16}", err), err


@pytest.mark.parametrize("command", ["sweep", "lemma-check"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    # numpy's generators take no negative seed; both used to fail with a traceback
    assert run(command, write_config(tmp_path, {"seed": -1}), tmp_path / "o") == 2
    assert capsys.readouterr().err == "config error: seed must be at least 0, got -1\n"
    assert run(command, write_config(tmp_path), tmp_path / "o", "--seed", "-1") == 2
    assert capsys.readouterr().err == "config error: --seed must be at least 0, got -1\n"
    assert not (tmp_path / "o").exists()


def test_decompose_pole_inside_the_inner_circle_exits_2(tmp_path, capsys):
    # hole 9's centre 0.75 * 2^-9 lies inside the decomposition's inner circle
    # 2^-9 at N = 8, where the residual was 0.0141 and the run exited 3; at
    # N = 9 it lies inside D_9, outside the region, and the run succeeds
    gallery = [{"rational": [{"pole": [0.75 * 2.0**-9, 0.0], "weight": 1e-6}]}]
    for N, code in ((8, 2), (9, 0)):
        raw = dict(README_CONFIG, gallery=gallery, contour={"M": 1, "N": N})
        assert run("decompose", readme_config(tmp_path, raw), tmp_path / f"o{N}") == code
    err = capsys.readouterr().err
    assert err == "config error: pole (0.00146484375+0j) of f lies on or inside the contour, where f must be analytic\n"
