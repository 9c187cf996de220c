"""The benchmark's workloads.

Each workload builds its inputs from the seed in its constructor (part of
set-up), then hands out rounds of operations.  An operation is a zero-argument
callable; run.py times it, and after the round `check` compares every
result with the closed forms of `refs` and returns the problems it found.
"""
from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import pointderiv
import pointderiv.cli
import pointderiv.contour
import refs

CONE_ARGS = (0j, math.pi, math.pi / 6, 0.5, 0.45)
# the ray grid of the acceptance criteria 1 and 2
XS = [complex(v) for v in -np.geomspace(0.35, 0.005, 10)]


class Decompose:
    """annular_decomposition over the 27 gallery functions x the 10-point ray grid."""

    TOL = 1e-10
    ROUND = 30  # the shuffled grid of 270 pairs is cut into 9 rounds

    def __init__(self, seed: int, workdir: Path):
        domain = pointderiv.RoadrunnerFamily().domain()
        self.gallery = pointderiv.build_test_gallery(domain, 27)
        self.cone = pointderiv.ConeSpec(*CONE_ARGS)
        self.pairs = [(f, x) for f in self.gallery for x in XS]
        self.rng = np.random.default_rng(seed)
        self.queue = []

    def round(self):
        if not self.queue:
            self.queue = [self.pairs[i] for i in self.rng.permutation(len(self.pairs)).tolist()]
        self.pending, self.queue = self.queue[: self.ROUND], self.queue[self.ROUND :]
        cone, tol = self.cone, self.TOL
        return [
            lambda f=f, x=x: pointderiv.contour.annular_decomposition(
                f, x, cone, M=1, N=10, tol=tol
            )
            for f, x in self.pending
        ]

    def check(self, results) -> list[str]:
        bad = []
        lim = 2.0 * self.TOL
        for (f, x), rep in zip(self.pending, results):
            if rep is None:
                continue
            lhs, terms, circle = refs.decomposition(f, x, 1, 10)
            got = dict(rep.annular_terms)
            errs = [abs(rep.lhs - lhs), abs(rep.inner_circle_term - circle)]
            errs += [abs(got[n] - terms[n]) for n in terms if n in got]
            if rep.residual > lim or sorted(got) != sorted(terms) or max(errs) > lim:
                bad.append(
                    f"decomposition {f.label} at {x}: residual {rep.residual:.3g}, "
                    f"worst term error {max(errs):.3g}"
                )
        return bad


# ---------------------------------------------------------------------------
# CLI


COMMANDS = ["criterion", "limit", "sweep", "decompose", "lemma-check", "content", "cone"]
CLIPPED_HOLES = 8

_BASE = {
    "alpha": 0.5,
    "seed": 0,
    "cone": {"direction": math.pi, "half_angle": math.pi / 6, "length": 0.5, "k": 0.45},
    "ray": {"direction": math.pi, "length": 0.25, "scales": 20},
    "gallery": {"preset": "auto", "count": 20},
    "tolerances": {"quad_tol": 1e-10, "limit_tol": 1e-3},
    "contour": {"M": 1, "N": 10},
}


def _clipped_holes() -> list[dict]:
    """Holes centred on the dyadic circles |z| = 2^-k, k = 2..9, so each one is
    cut into two clipped pieces; they fan out over angles in [-1.2, 1.2], away
    from the cone and ray around the negative axis."""
    holes = []
    for i in range(CLIPPED_HOLES):
        k = 2 + i
        th = -1.2 + 2.4 * i / (CLIPPED_HOLES - 1)
        c = 2.0**-k * cmath.exp(1j * th)
        holes.append({"center": [c.real, c.imag], "radius": 0.3 * 2.0**-k})
    return holes


CONFIGS = {
    "readme": dict(
        _BASE, domain={"roadrunner": {"radius_ratio": 0.25, "truncation": 9}}, n_max=12
    ),
    "deep": dict(
        _BASE, domain={"roadrunner": {"radius_ratio": 0.25, "truncation": 20}}, n_max=24
    ),
    "clipped": dict(_BASE, domain={"holes": _clipped_holes()}, n_max=CLIPPED_HOLES + 2),
}


def _read_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class Cli:
    """All seven subcommands on three configs, in-process, one fresh --out each."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.cfg = {}
        self.holes = {}
        cfg_dir = workdir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        for name, raw in CONFIGS.items():
            path = cfg_dir / f"{name}.json"
            path.write_text(json.dumps(raw))
            self.cfg[name] = (path, raw)
            dom = raw["domain"]
            if "roadrunner" in dom:
                self.holes[name] = [(c, r) for _, c, r in refs.roadrunner_holes(dom["roadrunner"])]
            else:
                self.holes[name] = [
                    (complex(*h["center"]), float(h["radius"])) for h in dom["holes"]
                ]
        # gallery parameters only; the checks never evaluate them
        self.gallery = {
            name: pointderiv.cli.load_config(path).gallery for name, (path, _) in self.cfg.items()
        }
        rng = np.random.default_rng(seed)
        pairs = [(c, cmd) for c in CONFIGS for cmd in COMMANDS]
        self.order = [pairs[i] for i in rng.permutation(len(pairs)).tolist()]
        self.passes = 0
        self.first_csv: dict[tuple[str, str], dict[str, bytes]] = {}

    def round(self):
        out_root = self.workdir / f"pass{self.passes}"
        self.passes += 1
        self.pending = []
        ops = []
        for name, cmd in self.order:
            out = out_root / f"{name}-{cmd}"
            argv = [cmd, "--config", str(self.cfg[name][0]), "--out", str(out), "--seed", str(self.seed)]
            self.pending.append((name, cmd, out))
            ops.append(lambda argv=argv: self._run(argv))
        self.out_root = out_root
        return ops

    @staticmethod
    def _run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = pointderiv.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"pointderiv {' '.join(argv)} exited {rc}")
        return buf.getvalue()

    def check(self, results) -> list[str]:
        bad = []
        tables = {}
        for (name, cmd, out), stdout in zip(self.pending, results):
            if stdout is None:
                continue
            if "cache hit" in stdout:
                bad.append(f"{name} {cmd}: cache hit")
            csv = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
            if not csv:
                bad.append(f"{name} {cmd}: no CSV written")
                continue
            first = self.first_csv.setdefault((name, cmd), csv)
            if csv != first:
                bad.append(f"{name} {cmd}: CSV bytes differ from the first pass")
            table = _read_csv(next(iter(csv.values())).decode())
            tables[name, cmd] = table
            bad += [f"{name} {cmd}: {m}" for m in self._check_one(name, cmd, table, stdout)]
        for name in CONFIGS:
            if (name, "criterion") in tables and (name, "content") in tables:
                bad += [f"{name}: {m}" for m in self._check_content(name, tables)]
        shutil.rmtree(self.out_root, ignore_errors=True)
        return bad

    def _check_one(self, name, cmd, rows, stdout):
        raw = self.cfg[name][1]
        alpha = raw["alpha"]
        gallery = self.gallery[name]
        polys = {
            i: f for i, f in enumerate(gallery) if not f.rational_terms and not f.ct_terms
        }
        if cmd == "criterion":
            if "verdict BPD_SUFFICIENT" not in stdout:
                yield f"verdict line {stdout.strip()!r}"
            rr = raw["domain"].get("roadrunner")
            if rr is not None:
                want = {n: refs.roadrunner_term(n, r, alpha) for n, _, r in refs.roadrunner_holes(rr)}
                for row in rows:
                    n = int(row["n"])
                    if float(row["weighted_term"]) != want.get(n, 0.0):
                        yield f"term {n} = {row['weighted_term']}, closed form {want.get(n, 0.0)!r}"
        elif cmd in ("limit", "sweep"):
            for row in rows:
                i = int(row["function_index"])
                if i not in polys:
                    continue
                x = complex(float(row["x_re"]), float(row["x_im"]))
                q = refs.quotient(polys[i], x)
                if cmd == "limit":
                    got = complex(float(row["quotient_re"]), float(row["quotient_im"]))
                    err, scale = abs(got - q), abs(q)
                else:
                    c1 = polys[i].poly_coeffs[1] if len(polys[i].poly_coeffs) > 1 else 0
                    err, scale = abs(float(row["functional_abs"]) - abs(q - c1)), abs(q)
                if err > 1e-12 * max(1.0, scale):
                    yield f"function {i} at {x}: error {err:.3g} against the closed form"
        elif cmd == "decompose":
            tol = raw["tolerances"]["quad_tol"]
            ray = raw["ray"]
            t = 0.75 * ray["length"] * 2.0 ** -raw["contour"].get("x_scale_index", 2)
            x = t * cmath.exp(1j * ray["direction"])
            lhs, terms, circle = refs.decomposition(gallery[0], x, 1, raw["contour"]["N"])
            for row in rows:
                v = complex(float(row["value_re"]), float(row["value_im"]))
                kind = row["kind"]
                want = {"lhs": lhs, "circle": circle}.get(kind)
                if kind == "annulus":
                    want = terms[int(row["n"])]
                if kind == "residual":
                    if not v.real <= 2.0 * tol:
                        yield f"residual {v.real:.3g} > 2 tol"
                elif abs(v - want) > 2.0 * tol:
                    yield f"{kind} {row['n']}: {v} against closed form {want}"
        elif cmd == "lemma-check":
            for row in rows:
                k = float(row["kappa_hat"])
                if not abs(k - math.pi / 2) <= 0.05 * math.pi / 2:
                    yield f"kappa_hat {k} is not within 5% of pi/2"
        elif cmd == "cone":
            for row in rows:
                x = complex(float(row["x_re"]), float(row["x_im"]))
                want = refs.boundary_distance(self.holes[name], x)
                got = float(row["boundary_distance"])
                if abs(got - want) > 1e-12 * want:
                    yield f"boundary distance at {x}: {got!r}, reference {want!r}"

    def _check_content(self, name, tables):
        n_max = self.cfg[name][1]["n_max"]
        met = refs.annuli_met(self.holes[name], n_max)
        crit = {int(r["n"]): float(r["content_upper"]) for r in tables[name, "criterion"]}
        cont = {int(r["n"]): float(r["upper"]) for r in tables[name, "content"]}
        if sorted(crit) != list(range(1, n_max + 1)) or crit != cont:
            yield "content and criterion uppers differ"
        positive = {n for n, u in cont.items() if u > 0.0}
        if positive != met:
            yield f"positive uppers in annuli {sorted(positive)}, holes meet {sorted(met)}"


WORKLOADS = {"decompose": Decompose, "cli": Cli}
