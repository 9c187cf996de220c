import cmath
import hashlib
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from pointderiv import annulus_complement, conjugate_function, contour, experiments
from pointderiv.cli import ConfigError, RunContext, _csv, cmd_limit, config_hash, load_config, main

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


def test_ray_through_hole_exit_2(tmp_path):
    p = write_config(tmp_path, {"ray": {"direction": 0.0, "length": 0.25}})
    assert run("limit", p, tmp_path / "o") == 2


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
    # an impossible tolerance makes the adaptive quadrature give up
    p = write_config(tmp_path)
    code = run("decompose", p, tmp_path / "o", "--tol", "1e-30")
    assert code == 3
    assert "tolerance" in capsys.readouterr().err


def test_tol_override_is_not_a_cache_hit(tmp_path, capsys):
    # the cache key covers the effective tolerance, not just the raw config
    p = write_config(tmp_path)
    out = tmp_path / "o"
    assert run("decompose", p, out) == 0
    capsys.readouterr()
    assert run("decompose", p, out, "--tol", "1e-30") == 3
    assert "cache hit" not in capsys.readouterr().out


def test_n_max_zero_exit_2(tmp_path, capsys):
    p = write_config(tmp_path, {"n_max": 0})
    assert run("criterion", p, tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


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
    paths = [contour._clockwise_annular_piece(n, cone) for n in range(1, 11)]
    paths.append(contour.full_circle(v, 0.5))
    results = [
        contour.integrate_contour(path, lambda z: f(z) / ((z - v) * (z - x)), tol=1e-10 / 11)
        for path in paths
    ]
    assert manifest["evaluations"] == sum(r.evaluations for r in results)
    assert manifest["err_to_tol"] == max(r.error_estimate for r in results) / (1e-10 / 11)
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
    assert sorted(files) == ["limit.csv", "limit.svg"] and stats == {}
    assert run("limit", p, out, "--svg") == 0
    assert capsys.readouterr().out.splitlines() == lines
    assert sorted(q.name for q in out.iterdir()) == ["limit-manifest.json", *sorted(files)]
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

# Written by the release that evaluated each ray sample and seminorm pair
# table once per gallery function
README_SHA256 = {
    "limit.csv": "29e44d244af73822c04e960f7030ca9138a1bf7211d588937924ccce81bc28b9",
    "sweep.csv": "3d84218f8ac55d2c440dd03b81b29a551b10b3d00c2b64c18bda6b576d8ce4a4",
}

README_LEMMA_CHECK_CSV = """\
radius,integral_magnitude,content_upper,seminorm,kappa_hat
0.4,1.0053096491487339,0.7155417527999328,0.8944271909999161,1.5707963267948961
0.2,0.25132741228718347,0.2529822128134704,0.632455532033676,1.5707963267948961
0.1,0.06283185307179587,0.0894427190999916,0.44721359549995804,1.5707963267948961
"""


def readme_config(tmp_path):
    p = tmp_path / "readme.json"
    p.write_text(json.dumps(README_CONFIG))
    return p


def test_readme_limit_sweep_lemma_check_bytes(tmp_path):
    p = readme_config(tmp_path)
    out = tmp_path / "o"
    for cmd in ("limit", "sweep", "lemma-check"):
        assert run(cmd, p, out) == 0
    for name, digest in README_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    assert (out / "lemma_check.csv").read_text() == README_LEMMA_CHECK_CSV


def test_limit_checks_the_ray_once(tmp_path, monkeypatch):
    calls = []
    real = experiments.verify_interior_cone
    monkeypatch.setattr(
        experiments, "verify_interior_cone", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    assert run("limit", readme_config(tmp_path), tmp_path / "o") == 0
    assert len(calls) == 1


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
