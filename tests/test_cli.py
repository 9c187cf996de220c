import json
import math

import pytest

from pointderiv.cli import config_hash, load_config, main

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
    code = run("decompose", p, tmp_path / "o", "--tol", "1e-30", "--no-cache")
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
        assert run(cmd, p, out1, "--no-cache") == 0
        assert run(cmd, p, out2, "--no-cache") == 0
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cache_round_trip(tmp_path, capsys):
    p = write_config(tmp_path)
    out = tmp_path / "cached"
    assert run("criterion", p, out) == 0
    first = (out / "criterion.csv").read_bytes()
    assert run("criterion", p, out) == 0
    assert "cache hit" in capsys.readouterr().out
    assert (out / "criterion.csv").read_bytes() == first


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
