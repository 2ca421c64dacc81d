"""The three benchmark workloads and the per-layer metrics of a traced run.

Each workload builds its inputs from the seed (``prepare``, part of
set-up), runs one operation (``run``, timed), and is checked and hashed
outside the timed region (``check``, ``artifacts``).  The seed moves the
perturbation or picks the distortion RNG stream; it never changes a
problem size.

Sizes are reduced from the acceptance-scale runs (N = 2000 desk chain,
Mathieu e_max = 30), which take 17-36 s per operation on a 2-core box,
so that every workload repeats its operation several times within one
run and a full pass of 70 runs (4 + 22 per workload) stays under an
hour.  The grid spacing of the desk chain is kept (16 periods on 800
points, as 40 on 2000).

The coupling sweep (CLI ``sweep`` over four couplings) is not a
workload: one operation takes 15-18 s, so a run holds only two and its
median follows the speed of the shared host, not the program.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bandlt import bandset, cli, hill, ltsums, moebius, operators, schatten

TWO_PI = 2.0 * math.pi
EDGE_TOL = 1e-4  # acceptance criterion 05

# q = 2 Mathieu band set up to e_max = 30 (hill.band_edges_report), frozen
# so that distortion-verify never calls hill
MATHIEU_EDGES = [
    [0.9298702954251432, 0.9352042748543419],
    [2.579502042518762, 2.6867202567845627],
    [3.707268708645634, 4.315361533022722],
    [4.6677567758953185, 6.1130088225343435],
    [6.1624547266856755, 8.332636217964687],
    [8.335939408268501, 11.057352856451214],
    [11.057488126593993, 14.291766934219932],
    [14.291770676617263, 30.0],
]
OMEGAS = (0.0, -0.5, -5.0)


@dataclass(frozen=True)
class Workload:
    why: str
    prepare: Callable[[int, Path], dict]
    run: Callable[[dict], object]
    check: Callable[[dict, object], list[str]]
    artifacts: Callable[[dict, object], dict[str, bytes]]


def _bump_shift(seed: int, period: float, max_periods: int) -> float:
    """Seeded offset of the perturbation centre: whole periods plus a
    jitter of at most 4% of a period, so the bump sits at the same place
    relative to the background for every seed."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(-max_periods, max_periods + 1))
    return (k + float(rng.uniform(-0.04, 0.04))) * period


def _cli(inputs: dict, config: dict, command: str) -> dict:
    status, doc = cli.run(config, command=command, seed=inputs["seed"],
                          out_dir=str(inputs["out"]))
    if status != 0:
        raise RuntimeError(f"band-lt {command} exited {status}: {doc}")
    return doc


def _files(inputs: dict, result) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(inputs["out"].iterdir())}


# ---------------------------------------------------------------------------
# mathieu-bands: CLI ``bands``, almost pure hill

def _mathieu_prepare(seed: int, out: Path) -> dict:
    config = {"v0": {"type": "cos", "q": 2.0, "period": TWO_PI},
              "bands": {"e_max": 9.0}, "output": {"json": "bands.json"}}
    return {"seed": seed, "out": out, "config": config}


def _merge_narrow_gaps(bands, min_gap):
    """Close gaps below min_gap: below the comparison tolerance an open and
    a closed gap cannot be told apart."""
    merged = [tuple(bands[0])]
    for a, b in bands[1:]:
        if a - merged[-1][1] < min_gap:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return merged


def floquet_oracle_bands(q: float, e_max: float, m: int = 16384, k: int = 16):
    """Band edges of q (1 + cos x) from a dense-grid discretization of the
    period problem at Floquet phases 0 and pi (independent of hill)."""
    h = TWO_PI / m
    v = q * (1.0 + np.cos(np.arange(m) * h))
    edges = []
    for sign in (+1.0, -1.0):
        a = sp.diags([-np.ones(m - 1) / h**2, 2.0 / h**2 + v, -np.ones(m - 1) / h**2],
                     [-1, 0, 1], format="lil")
        a[0, -1] = a[-1, 0] = -sign / h**2
        edges.append(spla.eigsh(a.tocsc(), k=k, sigma=-5.0, which="LM",
                                return_eigenvectors=False))
    merged = np.sort(np.concatenate(edges))
    if merged[-1] <= e_max:
        raise RuntimeError("oracle did not reach e_max; raise k")
    bands = []
    for i in range(0, merged.size - 1, 2):
        if merged[i] > e_max:
            break
        bands.append((float(merged[i]), float(min(merged[i + 1], e_max))))
    return bands


def _mathieu_check(inputs: dict, doc) -> list[str]:
    if "oracle" not in inputs:
        v0 = inputs["config"]["v0"]
        inputs["oracle"] = _merge_narrow_gaps(
            floquet_oracle_bands(v0["q"], inputs["config"]["bands"]["e_max"]), EDGE_TOL)
    oracle = inputs["oracle"]
    mine = _merge_narrow_gaps([tuple(b) for b in doc["bands"]], EDGE_TOL)
    if len(mine) != len(oracle):
        return [f"{len(mine)} bands, oracle has {len(oracle)}"]
    truncated = doc["metadata"]["truncated_at_e_max"]
    problems = []
    for idx, ((a, b), (oa, ob)) in enumerate(zip(mine, oracle)):
        last = truncated and idx == len(mine) - 1
        if abs(a - oa) >= EDGE_TOL or (not last and abs(b - ob) >= EDGE_TOL):
            problems.append(f"band {idx} ({a}, {b}) vs oracle ({oa}, {ob})")
    return problems


# ---------------------------------------------------------------------------
# desk-chain: library chain of acceptance criterion 10, dense operators

DESK_N, DESK_PERIODS, DESK_E_MAX = 800, 16, 4.0


def _desk_prepare(seed: int, out: Path) -> dict:
    v0 = hill.cosine(1.0, TWO_PI)
    length = DESK_PERIODS * v0.period
    x = operators.discretize(0.0, 0.0, length, DESK_N).grid()
    t = (x - length / 2.0 - _bump_shift(seed, v0.period, 2)) / 6.0
    v = np.zeros_like(t, dtype=complex)
    inside = np.abs(t) < 1.0
    v[inside] = (-3.0 + 2.0j) * np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return {"seed": seed, "out": out, "length": length,
            "v0_samples": np.asarray(v0.evaluate(x)), "v": v}


def _desk_run(inputs: dict):
    v0 = hill.cosine(1.0, TWO_PI)
    bands, _ = hill.band_edges_report(v0, DESK_E_MAX)
    I = bandset.close_with_ray(bands)
    length, v = inputs["length"], inputs["v"]
    h0 = operators.discretize(inputs["v0_samples"], 0.0, length, DESK_N)
    h = operators.discretize(inputs["v0_samples"], v, length, DESK_N)
    nb = schatten.norm_bundle(2.0, v, h.spacing, v0_inf=v0.sup_norm)
    report = operators.spectrum_report(h, I)
    return ltsums.theorem1_chain(h0, h, report, nb)


def _desk_check(inputs: dict, chain) -> list[str]:
    checks = {
        "link1_count > 0": chain.link1_count > 0,
        "no link-1 violations": chain.link1_violations == 0,
        "min quotient >= 1 - 1e-12": chain.link1_min_quotient >= 1.0 - 1e-12,
        "finite link 2": bool(np.isfinite(chain.link2_hansmann_ratio)),
        "lhs > 0": bool(np.isfinite(chain.lt_report.lhs)) and chain.lt_report.lhs > 0.0,
    }
    return [name for name, ok in checks.items() if not ok]


def _desk_artifacts(inputs: dict, chain) -> dict[str, bytes]:
    return {"chain.json": json.dumps(chain.to_json(), sort_keys=True).encode()}


# ---------------------------------------------------------------------------
# distortion-verify: CLI ``distort`` on a band set given as data

def _distort_prepare(seed: int, out: Path) -> dict:
    bands_file = out.parent / "bands.json"
    bands_file.write_text(json.dumps(bandset.to_json(bandset.validate(MATHIEU_EDGES))))
    configs = [
        {"bands": {"file": str(bands_file)},
         "distort": {"omega": omega, "variant": variant, "samples": 100_000},
         "output": {"json": f"{variant}_w{omega}.json"}}
        for omega in OMEGAS for variant in moebius.VARIANTS
    ]
    return {"seed": seed, "out": out, "configs": configs}


def _distort_check(inputs: dict, docs) -> list[str]:
    return [f"{d['variant']} at omega={d['omega']}: {len(d['violations'])} violations"
            for d in docs if d["violations"]]


WORKLOADS = {
    "mathieu-bands": Workload(
        why="CLI bands on the q = 2 Mathieu potential: almost pure hill "
            "(scan, bisection, golden-section chase)",
        prepare=_mathieu_prepare,
        run=lambda inp: _cli(inp, inp["config"], "bands"),
        check=_mathieu_check,
        artifacts=_files,
    ),
    "desk-chain": Workload(
        why="library chain of criterion 10: dense operators and schatten "
            "work dominate; N x N matrices set its memory",
        prepare=_desk_prepare,
        run=_desk_run,
        check=_desk_check,
        artifacts=_desk_artifacts,
    ),
    "distortion-verify": Workload(
        why="CLI distort on a frozen band set: only moebius and bandset, "
            "bypassing hill and operators",
        prepare=_distort_prepare,
        run=lambda inp: [_cli(inp, c, "distort") for c in inp["configs"]],
        check=_distort_check,
        artifacts=_files,
    ),
}


# ---------------------------------------------------------------------------
# traced run: modules wrapped, per-call span names and counters, metrics

MODULES = {"hill": hill, "operators": operators, "schatten": schatten,
           "ltsums": ltsums, "moebius": moebius, "bandset": bandset, "cli": cli}


def _eigen_namer(args, kwargs):
    op = args[0] if args else kwargs["op"]
    return "operators.eigenvalues." + ("h0" if op.is_self_adjoint else "h")


def _observe_hill(tracer, result, args, kwargs):
    meta = result[1]
    for key in ("scan_points", "integration_steps", "edges_found"):
        tracer.count(f"hill.{key}", meta[key])


def _observe_spectrum(tracer, report, args, kwargs):
    tracer.count("operators.discrete_candidates", report.discrete_candidates.size)
    tracer.count("operators.boundary_artifacts", report.boundary_artifacts.size)


def _observe_distortion(tracer, report, args, kwargs):
    tag = f"{report.variant}.w{report.omega:g}"
    tracer.count(f"moebius.samples.{tag}", report.samples)
    tracer.count(f"moebius.draws.{tag}", report.samples + report.rejected)


NAMERS = {"operators.eigenvalues": _eigen_namer}
OBSERVERS = {"hill.band_edges_report": _observe_hill,
             "operators.spectrum_report": _observe_spectrum,
             "moebius.verify_distortion": _observe_distortion}

SELF_S = ("hill.band_edges_report", "operators.eigenvalues.h",
          "operators.eigenvalues.h0", "operators.numerical_range_abscissa",
          "operators.resolvent", "operators.flag_boundary_artifacts",
          "operators.discretize", "schatten.schatten_norm",
          "ltsums.theorem1_chain", "cli.run",
          "moebius.verify_distortion", "moebius.dist_to_image",
          "bandset.dist_to_bands")
CALLS = ("hill.band_edges_report", "operators.numerical_range_abscissa",
         "operators.resolvent", "operators.discretize",
         "bandset.dist_to_bands")
COUNTS = {"hill.scan_points": "lower", "hill.integration_steps": "lower",
          "hill.edges_found": "higher", "operators.discrete_candidates": "lower",
          "operators.boundary_artifacts": "lower"}
ACCEPT_TAGS = [f"{v}.w{w:g}" for w in OMEGAS for v in moebius.VARIANTS]


def per_layer_spec() -> list[dict]:
    """Every per-layer metric as BENCHMARK.json lists it."""
    spec = [{"name": f"{n}.self_s", "unit": "s", "better": "lower"} for n in SELF_S]
    spec += [{"name": f"{n}.calls", "unit": "count", "better": "lower"} for n in CALLS]
    spec += [{"name": n, "unit": "count", "better": b} for n, b in COUNTS.items()]
    spec += [{"name": f"moebius.accept_ratio{t}", "unit": "ratio", "better": "higher"}
             for t in [""] + ["." + t for t in ACCEPT_TAGS]]
    spec += [{"name": "trace.accounted_frac", "unit": "ratio", "better": "higher"},
             {"name": "trace.overhead_frac", "unit": "ratio", "better": "lower"}]
    return spec


def layer_metrics(self_times: dict[str, tuple[float, int]], counts: dict[str, float],
                  op_wall: float) -> dict[str, float]:
    """Per-layer figures of one traced operation (all but the overhead,
    which compares traced with untraced operations).  A layer the
    workload never reaches reads 0, as does an acceptance ratio with no
    draws."""
    out = {f"{n}.self_s": self_times.get(n, (0.0, 0))[0] for n in SELF_S}
    out.update({f"{n}.calls": self_times.get(n, (0.0, 0))[1] for n in CALLS})
    out.update({n: counts.get(n, 0) for n in COUNTS})

    def accept(tags):
        samples = sum(counts.get(f"moebius.samples.{t}", 0) for t in tags)
        draws = sum(counts.get(f"moebius.draws.{t}", 0) for t in tags)
        return samples / draws if draws else 0.0

    out["moebius.accept_ratio"] = accept(ACCEPT_TAGS)
    out.update({f"moebius.accept_ratio.{t}": accept([t]) for t in ACCEPT_TAGS})
    out["trace.accounted_frac"] = 1.0 - self_times["op"][0] / op_wall
    return out


def digest(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(files.items())}
