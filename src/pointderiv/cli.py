"""Config-driven command line front end.

One JSON config file fully determines a run.  Each command computes its CSV
tables (plus optional static SVG plots) and stdout lines without writing
anything; `RunContext.emit` then writes the files atomically, with a manifest
that records the run's settings.  Exit codes: 0 success, 2 config error,
3 numerical-tolerance failure.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .contour import (
    ContourError,
    ToleranceError,
    _shown,
    annular_decomposition,
    full_circle,
    lemma_cauchy_bound_check,
)
from .criterion import CriterionError, RoadrunnerFamily, lord_ofarrell_series
from .experiments import _nontangential_limits, functional_sweep
from .geometry import (
    ConeSpec,
    Disk,
    DiskRegion,
    GeometryError,
    Ray,
    SwissCheeseDomain,
    annulus_complement,
    cone_samples,
    validate_cone,
)
from .content import ContentError, annulus_content
from .lipschitz import GalleryError, GalleryFunction, build_test_gallery, conjugate_function

OUT_ENV_VAR = "POINTDERIV_OUT"


class ConfigError(ValueError):
    pass


def _cplx(v, where: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ConfigError(f"{where}: expected a number or [re, im] pair, got {v!r}")


@dataclass
class RunConfig:
    alpha: float
    domain: SwissCheeseDomain
    cone: ConeSpec | None
    ray: Ray | None
    gallery: list[GalleryFunction]
    quad_tol: float
    limit_tol: float
    scales: int
    n_max: int
    contour_M: int
    contour_N: int | None
    x_scale_index: int
    lemma_radii: list[float]
    seed: int
    raw: dict = field(repr=False, default_factory=dict)


@contextlib.contextmanager
def _section(where: str):
    """Raise a missing key, a value of the wrong type or a rejected value met
    while reading the config at key path `where` as a ConfigError naming it."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as e:
        raise ConfigError(f"{where}: missing key {e}") from e
    except (AttributeError, TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{where}: {e}") from e


def _int(table: dict, key: str, default, where: str, lo: int | None = None, hi: int | None = None) -> int:
    """table[key], or `default` if absent, as an int.  A value int() rejects,
    such as NaN, Infinity, null or a word, is a ConfigError naming `where`,
    and so is one below `lo` or above `hi`, shown as `_shown` prints it."""
    with _section(where):
        n = int(table.get(key, default))
    if lo is not None and n < lo:
        raise ConfigError(f"{where} must be at least {lo}, got {_shown(n)}")
    if hi is not None and n > hi:
        raise ConfigError(f"{where} must be at most {hi}, got {_shown(n)}")
    return n


def _parse_domain(d: dict) -> SwissCheeseDomain:
    if "roadrunner" in d:
        rr = d["roadrunner"]
        with _section("domain.roadrunner"):
            fam = RoadrunnerFamily(
                center_scale=float(rr.get("center_scale", 0.75)),
                center_ratio=float(rr.get("center_ratio", 0.5)),
                angle=float(rr.get("angle", 0.0)),
                radius_scale=float(rr.get("radius_scale", 1.0)),
                radius_ratio=float(rr.get("radius_ratio", 0.25)),
                n_min=_int(rr, "n_min", 3, "domain.roadrunner.n_min"),
                truncation=_int(rr, "truncation", 9, "domain.roadrunner.truncation"),
            )
            return fam.domain()
    outer = d.get("outer", {"center": 0.0, "radius": 1.0})
    holes = []
    for i, h in enumerate(d.get("holes", [])):
        with _section(f"domain.holes[{i}]"):
            holes.append(Disk(_cplx(h["center"], f"holes[{i}].center"), float(h["radius"])))
    with _section("domain.outer"):
        outer = Disk(_cplx(outer["center"], "outer.center"), float(outer["radius"]))
    return SwissCheeseDomain(
        outer=outer,
        holes=tuple(holes),
        base_point=_cplx(d.get("base_point", 0.0), "base_point"),
        base_point_kind=d.get("base_point_kind", "auto"),
    )


def _parse_gallery(spec, domain: SwissCheeseDomain) -> list[GalleryFunction]:
    if spec is None:
        spec = {"preset": "auto", "count": 6}
    if isinstance(spec, dict) and "preset" in spec:
        count = spec.get("count", 6)
        if isinstance(count, bool) or not isinstance(count, int):
            raise ConfigError(f"gallery count must be an integer, got {count!r}")
        if count < 1:
            raise ConfigError(f"gallery count must be at least 1, got {count}")
        return build_test_gallery(domain, count)
    funcs = []
    for i, g in enumerate(spec):
        with _section(f"gallery[{i}]"):
            f = GalleryFunction(
                poly_coeffs=tuple(
                    _cplx(c, f"gallery[{i}].poly") for c in g.get("poly", [])
                ),
                rational_terms=tuple(
                    (
                        _cplx(t["pole"], f"gallery[{i}].rational.pole"),
                        _cplx(t["weight"], f"gallery[{i}].rational.weight"),
                    )
                    for t in g.get("rational", [])
                ),
                ct_terms=tuple(
                    (
                        Disk(
                            _cplx(t["disk"]["center"], f"gallery[{i}].ct.disk"),
                            float(t["disk"]["radius"]),
                        ),
                        _cplx(t["weight"], f"gallery[{i}].ct.weight"),
                    )
                    for t in g.get("ct", [])
                ),
                base_point=domain.base_point,
                label=g.get("label", f"f{i}"),
            )
            # poles and transform disks must sit in holes, so f is analytic on U
            f.validate_for_domain(domain)
        funcs.append(f)
    if not funcs:
        raise ConfigError("gallery must define at least one function")
    return funcs


def load_config(path: Path, seed_override: int | None = None, tol_override: float | None = None) -> RunConfig:
    try:
        raw = json.loads(path.read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}: invalid JSON: {e.msg}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    with _section("alpha"):
        alpha = float(raw.get("alpha", 0.5))
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must lie in (0,1), got {alpha}")
    with _section("domain"):
        domain = _parse_domain(raw.get("domain", {}))
    cone = None
    if "cone" in raw:
        c = raw["cone"]
        with _section("cone"):
            cone = ConeSpec(
                vertex=domain.base_point,
                direction=float(c.get("direction", math.pi)),
                half_angle=float(c.get("half_angle", math.pi / 6)),
                length=float(c.get("length", 0.5)),
                k=float(c.get("k", 0.45)),
            )
            validate_cone(domain, cone)
    ray = None
    scales = 20
    if "ray" in raw:
        r = raw["ray"]
        with _section("ray"):
            ray = Ray(
                origin=domain.base_point,
                direction=float(r.get("direction", math.pi)),
                length=float(r.get("length", 0.25)),
            )
            scales = _int(r, "scales", 20, "ray.scales", lo=0)
        # the last sample, at distance length * 2^-scales, as `limit` and
        # `sweep` compute it; 2.0**-j is 0.0 from j = 1075 on
        if ray.point(ray.length * 2.0 ** -min(scales, 1075)) == ray.origin:
            raise ConfigError(
                f"ray.scales = {_shown(scales)} puts the last ray sample on the base point"
            )
    with _section("tolerances"):
        tols = raw.get("tolerances", {})
        quad_tol = float(tols.get("quad_tol", 1e-10))
        limit_tol = float(tols.get("limit_tol", 1e-3))
    quad_key = "tolerances.quad_tol"
    if tol_override is not None:
        quad_tol, quad_key = tol_override, "--tol"
    for key, tol in ((quad_key, quad_tol), ("tolerances.limit_tol", limit_tol)):
        if not 0.0 < tol < math.inf:
            raise ConfigError(f"{key} must be finite and positive, got {tol}")
    with _section("gallery"):
        gallery = _parse_gallery(raw.get("gallery"), domain)
    # the criterion weighs annulus n by 4.0**n, which overflows from n = 512
    # on, and a family's closed-form tail starts at n_max + 1
    n_max = _int(raw, "n_max", 40, "n_max", lo=1, hi=510)
    with _section("contour"):
        cont = raw.get("contour", {})
        contour_M = _int(cont, "M", 1, "contour.M")
        contour_N = _int(cont, "N", None, "contour.N") if "N" in cont else None
        # decompose takes x at 0.75 * ray.length * 2^-x_scale_index; 2.0**1024 overflows
        x_scale_index = _int(cont, "x_scale_index", 2, "contour.x_scale_index", lo=-1023)
    with _section("lemma"):
        lemma_radii = [float(x) for x in raw.get("lemma", {}).get("radii", [0.4, 0.2, 0.1])]
    for i, r in enumerate(lemma_radii):
        # lemma-check integrates `conjugate_function()`, which is conj(z) only on the unit disk
        if not 0.0 < r <= 1.0:
            raise ConfigError(f"lemma.radii[{i}] must lie in (0, 1], got {r}")
    seed, seed_key = _int(raw, "seed", 0, "seed"), "seed"
    if seed_override is not None:
        seed, seed_key = seed_override, "--seed"
    if seed < 0:  # numpy's generators take no negative seed
        raise ConfigError(f"{seed_key} must be at least 0, got {_shown(seed)}")
    return RunConfig(
        alpha=alpha,
        domain=domain,
        cone=cone,
        ray=ray,
        gallery=gallery,
        quad_tol=quad_tol,
        limit_tol=limit_tol,
        scales=scales,
        n_max=n_max,
        contour_M=contour_M,
        contour_N=contour_N,
        x_scale_index=x_scale_index,
        lemma_radii=lemma_radii,
        seed=seed,
        raw=raw,
    )


def config_hash(raw: dict, seed: int, quad_tol: float | None = None) -> str:
    """Identifies a run in its manifest: a hash of the raw config, the
    effective seed and quadrature tolerance (after `--seed` and `--tol`) and
    the tool version.  `hashlib` loads OpenSSL, a few MB resident, so it is
    imported by the first hash, not with the module."""
    import hashlib

    canon = json.dumps(
        {"config": raw, "seed": seed, "quad_tol": quad_tol, "version": __version__},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Output helpers


def _atomic_write(path: Path, data: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(rows: list[list], header: list[str]) -> str:
    """CSV text of rows of ints, floats and strings; `str` of a float is its
    shortest round-tripping `repr`.  A string cell may hold several
    already-formatted columns."""
    lines = [",".join(header)]
    lines += [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _ray_columns(xs) -> list[str]:
    """The `x_re,x_im` cells of each ray sample, formatted once for a whole
    table.  A list indexed by sample, not a dict keyed by value, so -0.0 and
    0.0 keep their own text."""
    return [f"{x.real!r},{x.imag!r}" for x in xs]


def _svg_loglog(points: list[tuple[float, float]], title: str) -> str:
    """Minimal static SVG log-log scatter/line plot."""
    w, h, pad = 640, 420, 50
    pts = [(x, y) for x, y in points if x > 0 and y > 0]
    if not pts:
        pts = [(1.0, 1.0)]
    lx = [math.log10(x) for x, _ in pts]
    ly = [math.log10(y) for _, y in pts]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    sx = lambda x: pad + (x - x0) / ((x1 - x0) or 1.0) * (w - 2 * pad)
    sy = lambda y: h - pad - (y - y0) / ((y1 - y0) or 1.0) * (h - 2 * pad)
    poly = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(lx, ly))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">'
        f'<rect width="{w}" height="{h}" fill="white"/>'
        f'<text x="{w/2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>'
        f'<line x1="{pad}" y1="{h-pad}" x2="{w-pad}" y2="{h-pad}" stroke="black"/>'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h-pad}" stroke="black"/>'
        f'<polyline points="{poly}" fill="none" stroke="steelblue" stroke-width="1.5"/>'
        "</svg>\n"
    )


# What a command returns: files by name, stdout lines and manifest stats
Outputs = tuple[dict[str, str], list[str], dict]


@dataclass
class RunContext:
    cfg: RunConfig
    out: Path
    svg: bool
    command: str

    def emit(self, files: dict[str, str], stdout_lines: list[str], stats: dict) -> None:
        """Write `files` and `<command>-manifest.json` into `out`, then print
        the stdout lines.  The manifest holds the config hash, the effective
        seed and quadrature tolerance, the tool, Python and numpy versions,
        the file names and `stats`: the command's own, plus the stage wall
        times `stage_s` that `main` adds.  Emit adds the `write` stage: the
        time to write the data files.  The manifest is written after it, so
        its own write is in no stage."""
        self.out.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        for name, data in files.items():
            _atomic_write(self.out / name, data)
        stage_s = {**stats.get("stage_s", {}), "write": time.perf_counter() - t0}
        manifest = {
            "config_hash": config_hash(self.cfg.raw, self.cfg.seed, self.cfg.quad_tol),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "tool_version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "command": self.command,
            "seed": self.cfg.seed,
            "quad_tol": self.cfg.quad_tol,
            "files": sorted(files),
            **stats,
            "stage_s": stage_s,
        }
        manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        _atomic_write(self.out / f"{self.command}-manifest.json", manifest_text)
        for line in stdout_lines:
            print(line)

    def try_cache(self) -> bool:
        """Always False: there is no result cache.  Kept because the
        benchmark's tracer (`perfbench/tracing.py`) wraps this method by name
        and `tests/test_bench_coupling.py` checks that it exists."""
        return False


# ---------------------------------------------------------------------------
# Subcommands


def cmd_criterion(ctx: RunContext) -> Outputs:
    cfg = ctx.cfg
    report = lord_ofarrell_series(cfg.domain, cfg.alpha, cfg.n_max)
    rows = [
        [n, upper, weighted, ps]
        for (n, upper, weighted), ps in zip(report.terms, report.partial_sums)
    ]
    files = {"criterion.csv": _csv(rows, ["n", "content_upper", "weighted_term", "partial_sum"])}
    lines = [f"verdict {report.verdict} total {report.total!r} ({report.notes})"]
    return files, lines, {"pieces": report.pieces}


def _hole_free_stats(domain: SwissCheeseDomain, xs) -> dict:
    """Manifest keys that say how much of a ray run tests the theorem: the
    hole-free radius min |c - x0| - r over the holes (None without holes, as
    JSON has no infinity), the ray samples xs inside that disk, where every
    gallery function is analytic, and why x0 is a boundary point."""
    x0 = domain.base_point
    radius = min((e[2] for e in domain._holes_meeting(0.0, math.inf)), default=math.inf)
    return {
        "hole_free_radius": radius if radius < math.inf else None,
        "samples_in_hole_free_disk": sum(abs(x - x0) < radius for x in xs),
        "base_point_kind": domain.base_point_kind,
    }


def cmd_limit(ctx: RunContext) -> Outputs:
    cfg = ctx.cfg
    if cfg.ray is None:
        raise ConfigError("limit requires a ray section")
    reports = _nontangential_limits(
        cfg.gallery, cfg.domain, cfg.ray, cfg.scales, cfg.limit_tol
    )
    # every report holds the same ray samples
    xs = [x for x, _, _ in reports[0].samples]
    cols = _ray_columns(xs)
    rows = []
    lines = []
    svg_points = []
    for i, (f, rep) in enumerate(zip(cfg.gallery, reports)):
        for j, (x, q, dev) in enumerate(rep.samples):
            rows.append([i, j, cols[j], q.real, q.imag, dev])
            if i == 0:
                svg_points.append((abs(x), max(dev, 1e-17)))
        lines.append(
            f"function {i} ({f.label}) verdict {rep.verdict} "
            f"final_deviation {rep.samples[-1][2]!r} order {rep.convergence_order:.3g}"
        )
    files = {
        "limit.csv": _csv(
            rows,
            ["function_index", "scale_index", "x_re", "x_im", "quotient_re", "quotient_im", "deviation"],
        )
    }
    if ctx.svg:
        files["limit.svg"] = _svg_loglog(svg_points, "deviation vs |x| (log-log)")
    stats = {"functions": len(reports), "ray_samples": len(cols)}
    return files, lines, {**stats, **_hole_free_stats(cfg.domain, xs)}


def cmd_sweep(ctx: RunContext) -> Outputs:
    cfg = ctx.cfg
    if cfg.ray is None:
        raise ConfigError("sweep requires a ray section")
    rep = functional_sweep(
        cfg.gallery, cfg.domain, cfg.ray, cfg.scales, cfg.alpha, seed=cfg.seed
    )
    # the grid runs over the ray samples in order once per function kept
    n = len(rep.samples)
    cols = _ray_columns(rep.samples)
    rows = [[i, cols[k % n], lx, ratio] for k, (i, _, lx, ratio) in enumerate(rep.grid)]
    files = {
        "sweep.csv": _csv(rows, ["function_index", "x_re", "x_im", "functional_abs", "ratio"])
    }
    stats = {
        "functions": len(cfg.gallery),
        "ray_samples": n,
        "seminorm_pairs": rep.seminorm_pairs,
        "skipped_functions": len(rep.skipped),
        **_hole_free_stats(cfg.domain, rep.samples),
    }
    return files, [f"max_ratio {rep.max_ratio!r} skipped {list(rep.skipped)}"], stats


def cmd_decompose(ctx: RunContext) -> Outputs:
    cfg = ctx.cfg
    if cfg.cone is None or cfg.ray is None:
        raise ConfigError("decompose requires cone and ray sections")
    f = cfg.gallery[0]
    # the 3/4 factor keeps x off the dyadic circles the contours run along
    x = cfg.ray.point(0.75 * cfg.ray.length * 2.0**-cfg.x_scale_index)
    rep = annular_decomposition(
        f, x, cfg.cone, M=cfg.contour_M, N=cfg.contour_N, tol=cfg.quad_tol
    )
    if rep.residual > 2.0 * cfg.quad_tol:
        raise ToleranceError(
            f"decomposition residual {rep.residual:.3g} exceeds 2x tol {cfg.quad_tol:.3g}"
        )
    rows = [["lhs", "", rep.lhs.real, rep.lhs.imag]]
    for n, term in rep.annular_terms:
        rows.append(["annulus", n, term.real, term.imag])
    rows.append(["circle", cfg.contour_M, rep.inner_circle_term.real, rep.inner_circle_term.imag])
    rows.append(["residual", "", rep.residual, 0.0])
    files = {"decompose.csv": _csv(rows, ["kind", "n", "value_re", "value_im"])}
    stats = {"evaluations": rep.evaluations, "err_to_tol": rep.err_to_tol}
    return files, [f"residual {rep.residual!r}"], stats


def cmd_lemma_check(ctx: RunContext) -> Outputs:
    cfg = ctx.cfg
    f = conjugate_function()
    rows = []
    lines = []
    reports = []
    for r in cfg.lemma_radii:
        rep = lemma_cauchy_bound_check(
            f,
            full_circle(0j, r),
            DiskRegion(0j, r),
            cfg.alpha,
            tol=cfg.quad_tol,
            seed=cfg.seed,
        )
        reports.append(rep)
        rows.append(
            [r, rep.integral_magnitude, rep.content_upper, rep.seminorm_estimate, rep.kappa_hat]
        )
        lines.append(f"radius {r!r} kappa_hat {rep.kappa_hat!r}")
    files = {
        "lemma_check.csv": _csv(
            rows, ["radius", "integral_magnitude", "content_upper", "seminorm", "kappa_hat"]
        )
    }
    stats = {
        "evaluations": sum(rep.evaluations for rep in reports),
        "err_to_tol": max((rep.err_to_tol for rep in reports), default=0.0),
    }
    return files, lines, stats


def cmd_content(ctx: RunContext) -> Outputs:
    cfg = ctx.cfg
    rows = []
    for n in range(1, cfg.n_max + 1):
        pieces = annulus_complement(cfg.domain, n)
        est = annulus_content(pieces, cfg.alpha)
        rows.append([n, len(pieces), est.upper, est.lower_heuristic, est.method])
    files = {
        "content.csv": _csv(
            rows, ["n", "piece_count", "upper", "lower_heuristic", "method"]
        )
    }
    return files, [f"annuli {cfg.n_max}"], {"pieces": sum(row[1] for row in rows)}


def cmd_cone(ctx: RunContext) -> Outputs:
    cfg = ctx.cfg
    if cfg.ray is None:
        raise ConfigError("cone requires a ray section")
    samples = cone_samples(cfg.domain, cfg.ray)
    rows = [[i, t, x.real, x.imag, bd, ratio] for i, t, x, bd, ratio in samples]
    files = {
        "cone.csv": _csv(rows, ["sample_index", "t", "x_re", "x_im", "boundary_distance", "ratio"])
    }
    k = min(ratio for *_, ratio in samples)
    return files, [f"estimated_k {k!r}"], {}


COMMANDS = {
    "criterion": cmd_criterion,
    "limit": cmd_limit,
    "sweep": cmd_sweep,
    "decompose": cmd_decompose,
    "lemma-check": cmd_lemma_check,
    "content": cmd_content,
    "cone": cmd_cone,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once; `parse_args` leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="pointderiv",
        description="Bounded point derivation experiments on Swiss-cheese domains",
    )
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--config", required=True, type=Path, help="JSON config file")
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--tol", type=float, default=None, help="override quadrature tolerance")
    p.add_argument("--svg", action="store_true", help="also emit SVG plots")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = args.out or Path(os.environ.get(OUT_ENV_VAR, "out"))
    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config, seed_override=args.seed, tol_override=args.tol)
    except (ConfigError, GeometryError, GalleryError, ContentError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    ctx = RunContext(cfg=cfg, out=out, svg=args.svg, command=args.command)
    try:
        t1 = time.perf_counter()
        files, lines, stats = COMMANDS[args.command](ctx)
        stage_s = {"load": t1 - t0, "compute": time.perf_counter() - t1}
    except ToleranceError as e:
        print(f"numerical tolerance failure: {e}", file=sys.stderr)
        return 3
    except (ConfigError, GeometryError, GalleryError, ContentError, CriterionError, ContourError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        ctx.emit(files, lines, {**stats, "stage_s": stage_s})
    except OSError as e:  # such as an --out that names a file or a path under one
        print(f"output error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
