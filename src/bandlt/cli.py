"""Configuration-driven experiment runner (console script ``band-lt``).

Commands wire the modules into reproducible pipelines:

* ``bands``     periodic potential -> band-set JSON
* ``distort``   sampling sweep of the distortion-ratio lower bounds
* ``spectrum``  discretized (H0, H) -> classified spectrum (+ SVG scatter)
* ``ltcheck``   spectrum -> one bound-family report (T1 / T1simplified /
                T2 / T3), CSV + JSON
* ``hansmann``  random-matrix spectral-variation ensemble
* ``sweep``     ltcheck across couplings alpha V with the scaling trend
                flagged

Configs are YAML files (``--config -`` reads JSON from stdin).  A fixed
config and seed reproduce every numeric output byte for byte: no
timestamps are embedded, floats are serialized via repr, and random
draws use numpy's seeded PCG64 generator whose identity is recorded in
the output metadata; ``distort`` and ``hansmann`` draw from seed 0 when
neither ``--seed`` nor a ``seed`` key is given, and record it.

Exit codes: 0 success, 2 config/precondition error, 3 hypothesis
violation, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import yaml

# operators (and ltsums and schatten through it) loads scipy: only the
# commands that build an operator import them, so bands and distort start
# on numpy and yaml alone
from . import bandset, hill, moebius
from .errors import EXIT_NUMERICAL, BandLTError, ConfigError, exit_code_for

if TYPE_CHECKING:  # the annotations' names
    from . import ltsums, operators, schatten

COMMANDS = ("bands", "distort", "spectrum", "ltcheck", "hansmann", "sweep")
THEOREMS = ("T1", "T1simplified", "T2", "T3")
_MAX_SAMPLES = 10**7  # distort.samples; the sampler may draw 2000 per sample
_MAX_TRIALS = 10**4  # hansmann.trials; each trial is a dense n x n eigensolve
_DEFAULT_SEED = 0  # distort and hansmann draw from it when no seed is given
# the keys each section may hold, whatever the command ("" is the top level)
_KNOWN_KEYS = {section: set(keys.split()) for section, keys in {
    "": "command seed v0 v grid bands exponents delta omega theorem a_values "
        "alphas distort hansmann output",
    "v0": "type q period values",
    "v": "type coupling values amplitude center halfwidth",
    "grid": "length periods points boundary",
    "bands": "file e_max close_with_ray",
    "exponents": "p epsilon",
    "distort": "omega variant samples",
    "hansmann": "n trials p scale diagonal",
    "output": "json csv svg",
}.items()}


# ---------------------------------------------------------------------------
# config access

def _finite(val, path: str) -> float:
    """``val`` as a finite float; errors name the field ``path``."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"'{path}' must be a number")
    if not abs(val) <= sys.float_info.max:  # NaN, infinities, huge integers
        raise ConfigError(f"'{path}' must be a finite float")
    return float(val)


class Cfg:
    """Dict wrapper whose errors carry the offending field path."""

    def __init__(self, doc: dict, prefix: str = ""):
        if not isinstance(doc, dict):
            raise ConfigError(f"{prefix or 'config'} must be a mapping")
        self.doc = doc
        self.prefix = prefix

    def _path(self, key: str) -> str:
        return f"{self.prefix}.{key}" if self.prefix else key

    def has(self, key: str) -> bool:
        return key in self.doc

    def raw(self, key: str, default=None):
        return self.doc.get(key, default)

    def sub(self, key: str, required: bool = True) -> "Cfg | None":
        if key not in self.doc:
            if required:
                raise ConfigError(f"missing section '{self._path(key)}'")
            return None
        return Cfg(self.doc[key], self._path(key))

    def _field(self, key: str, default, required: bool):
        """(present, value): the missing-key preamble of the typed getters."""
        if key in self.doc:
            return True, self.doc[key]
        if required:
            raise ConfigError(f"missing field '{self._path(key)}'")
        return False, default

    def number(self, key: str, default=None, required: bool = False):
        present, val = self._field(key, default, required)
        return _finite(val, self._path(key)) if present else val

    def numbers(self, key: str, required: bool = False) -> list[float] | None:
        """The list of finite numbers at ``key``, or None when absent."""
        present, val = self._field(key, None, required)
        if present and not isinstance(val, list):
            raise ConfigError(f"'{self._path(key)}' must be a list of numbers")
        return [_finite(v, f"{self._path(key)}[{i}]")
                for i, v in enumerate(val)] if present else None

    def number_or_auto(self, key: str):
        """None for 'auto' (the default), else the number at ``key``."""
        return None if self.doc.get(key, "auto") == "auto" else self.number(key)

    def integer(self, key: str, default=None, required: bool = False,
                lo: int | None = None, hi: int | None = None):
        """The integer at ``key``, refused outside the inclusive [lo, hi]."""
        present, val = self._field(key, default, required)
        if not present:
            return val
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"'{self._path(key)}' must be an integer")
        if lo is not None and val < lo:
            raise ConfigError(f"'{self._path(key)}' = {val} is below the minimum {lo}")
        if hi is not None and val > hi:
            raise ConfigError(f"'{self._path(key)}' = {val} exceeds the cap {hi}")
        return int(val)

    def boolean(self, key: str, default: bool) -> bool:
        """The true/false at ``key``; strings and numbers are refused."""
        present, val = self._field(key, default, False)
        if present and not isinstance(val, bool):
            raise ConfigError(f"'{self._path(key)}' must be true or false")
        return val

    def string(self, key: str, default=None, choices=None, required: bool = False):
        present, val = self._field(key, default, required)
        if not present:
            return val
        if not isinstance(val, str):
            raise ConfigError(f"'{self._path(key)}' must be a string")
        if choices and val not in choices:
            raise ConfigError(f"'{self._path(key)}' must be one of {choices}")
        return val


def _check_keys(config: dict) -> None:
    """Refuse, naming its path, a key that no command reads in its section."""
    for section, known in _KNOWN_KEYS.items():
        doc = config.get(section) if section else config
        for key in doc if isinstance(doc, dict) else ():  # non-mappings fail when read
            if key not in known:
                path = f"{section}.{key}" if section else key
                raise ConfigError(f"unknown config key '{path}'")


def _pair(raw, path: str) -> complex:
    """An [re, im] pair of finite numbers as a complex number."""
    if not (isinstance(raw, list) and len(raw) == 2):
        raise ConfigError(f"'{path}' must be an [re, im] pair")
    return complex(_finite(raw[0], f"{path}[0]"), _finite(raw[1], f"{path}[1]"))


def _potential(cfg: Cfg) -> hill.PeriodicPotential:
    """The ``v0`` section: ``free``, ``cos`` (amplitude ``q``) or ``samples``."""
    v0 = cfg.sub("v0")
    kind = v0.string("type", required=True, choices=("free", "cos", "samples"))
    if kind == "free":
        return hill.free(v0.number("period", default=1.0))
    if kind == "cos":
        return hill.cosine(v0.number("q", required=True),
                           v0.number("period", default=2.0 * math.pi))
    return hill.from_samples(v0.numbers("values", required=True),
                             v0.number("period", required=True))


def perturbation_samples(spec: dict, x: np.ndarray, coupling: float = 1.0) -> np.ndarray:
    """Sample the perturbing potential V on the grid nodes.

    Types: ``zero``; ``bump`` (smooth, compactly supported in
    |x-center| < halfwidth); ``step`` (indicator); ``samples`` (explicit
    [re, im] pairs, one per node).
    """
    cfg = Cfg(spec, "v")
    kind = cfg.string("type", required=True,
                      choices=("zero", "bump", "step", "samples"))
    alpha = coupling * cfg.number("coupling", default=1.0)
    if kind == "zero":
        return np.zeros(x.size, dtype=complex)
    if kind == "samples":
        vals = cfg.raw("values")
        if not isinstance(vals, list) or len(vals) != x.size:
            raise ConfigError("'v.values' must list one [re, im] pair per grid node")
        return alpha * np.array([_pair(v, f"v.values[{i}]") for i, v in enumerate(vals)])
    amp = cfg.raw("amplitude", 1.0)
    amp = (_pair(amp, "v.amplitude") if isinstance(amp, list)
           else complex(_finite(amp, "v.amplitude")))
    center = cfg.number("center", required=True)
    halfwidth = cfg.number("halfwidth", required=True)
    if not halfwidth > 0:
        raise ConfigError("'v.halfwidth' must be positive")
    t = (x - center) / halfwidth
    if kind == "step":
        profile = (np.abs(t) < 1.0).astype(float)
    else:
        profile = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        profile[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return alpha * amp * profile


# ---------------------------------------------------------------------------
# model assembly shared by spectrum / ltcheck / sweep

def _band_set(cfg: Cfg, v0: hill.PeriodicPotential | None = None,
              ) -> tuple[bandset.BandSet, dict]:
    """The ``bands`` section: a band-set JSON file, or the Hill band set up
    to ``e_max``, its only field (edges bracketed by the Dirichlet count)."""
    bands_cfg = cfg.sub("bands")
    if bands_cfg.has("file"):
        path = bands_cfg.string("file", required=True)
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"'bands.file' is not a readable JSON file: {exc}") from exc
        return bandset.from_json(doc), {"source": "file"}
    if v0 is None:
        v0 = _potential(cfg)
    return hill.band_edges_report(v0, bands_cfg.number("e_max", required=True))


@dataclass
class Background:
    """The coupling-free part of a model, built once per command."""

    band_set: bandset.BandSet
    length: float
    boundary: str
    spacing: float
    x: np.ndarray
    v0_samples: np.ndarray
    v0_inf: float
    p: float
    delta: float


@dataclass
class Model:
    """H = H0 + alpha V on a background, for one coupling alpha."""

    op_h: operators.DiscretizedOperator
    v_samples: np.ndarray
    nb: schatten.NormBundle


def build_background(cfg: Cfg) -> Background:
    from . import operators
    v0 = _potential(cfg)
    grid = cfg.sub("grid")
    if grid.has("length"):
        length = grid.number("length", required=True)
    else:
        length = grid.number("periods", required=True) * v0.period
    n = grid.integer("points", required=True, hi=operators.SOLVER_CAP)
    boundary = grid.string("boundary", default="dirichlet",
                           choices=("dirichlet", "periodic"))
    h, x = operators.grid_nodes(length, n, boundary)

    I, _ = _band_set(cfg, v0)
    bands_cfg = cfg.sub("bands")
    if bands_cfg.boolean("close_with_ray", True) and not bands_cfg.has("file"):
        I = bandset.close_with_ray(I)

    exps = cfg.sub("exponents", required=False)
    p = exps.number("p", default=2.0) if exps else 2.0
    if not p > 1:
        raise ConfigError("'exponents.p' must exceed 1")
    delta = cfg.number_or_auto("delta")
    if delta is None:
        delta = operators.default_delta(h, I)
    return Background(band_set=I, length=length, boundary=boundary, spacing=h,
                      x=x, v0_samples=np.asarray(v0.evaluate(x), dtype=float),
                      v0_inf=v0.sup_norm, p=p, delta=delta)


def build_model(cfg: Cfg, bg: Background, coupling: float = 1.0) -> Model:
    from . import operators, schatten
    v_samples = perturbation_samples(cfg.sub("v").doc, bg.x, coupling)
    op_h = operators.discretize(bg.v0_samples, v_samples, bg.length, bg.x.size,
                                bg.boundary)
    nb = schatten.norm_bundle(bg.p, v_samples, bg.spacing, v0_inf=bg.v0_inf)
    return Model(op_h=op_h, v_samples=v_samples, nb=nb)


def resolve_omega(cfg: Cfg, omega1: float, theorem: str) -> float:
    from . import ltsums
    omega = cfg.number_or_auto("omega")
    if omega is not None:
        return omega
    if theorem == "T1simplified":
        return omega1 - 2.0 * max(1.0, abs(omega1))
    return ltsums.default_omega(omega1)


# ---------------------------------------------------------------------------
# deterministic writers

def _json_bytes(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(_json_bytes(doc))


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                repr(v) if isinstance(v, float) else v for v in row
            ])


def lt_report_csv(report: ltsums.LTReport) -> tuple[list[str], list[list]]:
    header = ["theorem", "parameters", "lhs", "rhs_structure",
              "empirical_ratio", "eigenvalue_count"]
    row = [report.theorem, json.dumps(report.parameters, sort_keys=True),
           report.lhs, report.rhs_structure, report.empirical_ratio,
           report.eigenvalue_count]
    return header, [row]


def emit_svg_scatter(report: operators.SpectrumReport, path: Path) -> None:
    """Static scatter: bands on the real axis, the delta tube, eigenvalues,
    discrete candidates highlighted, flagged artifacts crossed.

    Output depends only on the report content, so identical inputs give
    identical bytes.
    """
    eigs, delta, I = report.eigenvalues, report.delta, report.band_set
    xs = [a for a, _ in I.edges] + [b for _, b in I.edges]
    if I.terminal_ray:
        xs.append(I.ray_start * 1.1 + 1.0)
    ys = [0.0]
    if eigs.size:
        xs += list(eigs.real)
        ys += list(eigs.imag)
    x_lo, x_hi = min(xs) - 1.0, max(xs) + 1.0
    y_amp = max(max(abs(v) for v in ys), 5.0 * delta, 1e-3) * 1.2
    width, height = 900.0, 420.0

    def px(x):
        return (x - x_lo) / (x_hi - x_lo) * (width - 60.0) + 30.0

    def py(y):
        return height / 2.0 - y / y_amp * (height / 2.0 - 20.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{px(x_lo):.2f}" y1="{py(0):.2f}" x2="{px(x_hi):.2f}" '
        f'y2="{py(0):.2f}" stroke="#bbbbbb" stroke-width="1"/>',
    ]
    segments = list(I.edges)
    if I.terminal_ray:
        segments.append((I.ray_start, x_hi))
    for a, b in segments:
        parts.append(
            f'<rect x="{px(a):.2f}" y="{py(delta):.2f}" '
            f'width="{px(b) - px(a):.2f}" height="{py(-delta) - py(delta):.2f}" '
            f'fill="#c8dcf0" stroke="none"/>'
        )
        parts.append(
            f'<line x1="{px(a):.2f}" y1="{py(0):.2f}" x2="{px(b):.2f}" '
            f'y2="{py(0):.2f}" stroke="#1f4e8c" stroke-width="4"/>'
        )
    for z, discrete, artifact in zip(eigs, report.discrete, report.artifact):
        cx, cy = px(z.real), py(z.imag)
        if artifact:
            parts.append(
                f'<path d="M {cx - 4:.2f} {cy - 4:.2f} L {cx + 4:.2f} {cy + 4:.2f} '
                f'M {cx - 4:.2f} {cy + 4:.2f} L {cx + 4:.2f} {cy - 4:.2f}" '
                f'stroke="#999999" stroke-width="1.5"/>'
            )
        elif discrete:
            parts.append(
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="5" fill="#c03020" '
                f'stroke="#701000" stroke-width="1"/>'
            )
        else:
            parts.append(
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2" fill="#404040"/>'
            )
    parts.append("</svg>")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes("\n".join(parts).encode())


# ---------------------------------------------------------------------------
# commands

def _outputs(cfg: Cfg, out_dir: Path | None) -> dict[str, Path]:
    out = cfg.sub("output", required=False)
    paths = {}
    if out:
        for kind in ("json", "csv", "svg"):
            name = out.string(kind)
            if name:
                p = Path(name)
                if out_dir is not None and not p.is_absolute():
                    p = out_dir / p
                paths[kind] = p
    return paths


def _wrap(command: str, seed: int | None, result: dict) -> dict:
    return {
        "command": command,
        "seed": seed,
        "rng_family": moebius.RNG_FAMILY,
        "result": result,
    }


def cmd_bands(cfg: Cfg, seed, outputs) -> dict:
    I, meta = _band_set(cfg)
    doc = bandset.to_json(I)
    doc["metadata"] = meta
    if "json" in outputs:
        write_json(outputs["json"], doc)
    return doc


def cmd_distort(cfg: Cfg, seed, outputs) -> dict:
    d = cfg.sub("distort")
    I, _ = _band_set(cfg)
    seed = _DEFAULT_SEED if seed is None else seed
    rng = np.random.default_rng(seed)
    report = moebius.verify_distortion(
        I,
        moebius.MoebiusMap(d.number("omega", required=True)),
        variant=d.string("variant", default="uniform",
                         choices=moebius.VARIANTS),
        n=d.integer("samples", default=10_000, lo=1, hi=_MAX_SAMPLES),
        rng=rng,
    )
    doc = report.to_json()
    if "json" in outputs:
        write_json(outputs["json"], _wrap("distort", seed, doc))
    return doc


def _spectrum_parts(cfg: Cfg, bg: Background, coupling: float = 1.0):
    from . import operators
    model = build_model(cfg, bg, coupling)
    report = operators.spectrum_report(model.op_h, bg.band_set, bg.delta)
    return model, report


def cmd_spectrum(cfg: Cfg, seed, outputs) -> dict:
    from . import operators
    bg = build_background(cfg)
    model, report = _spectrum_parts(cfg, bg)
    doc = operators.report_to_json(model.op_h, report)
    doc["band_set"] = bandset.to_json(bg.band_set)
    doc["omega1"] = operators.numerical_range_abscissa(model.op_h)
    if "json" in outputs:
        write_json(outputs["json"], _wrap("spectrum", seed, doc))
    if "csv" in outputs:
        rows = [[float(z.real), float(z.imag), float(d), int(disc), int(art)]
                for z, d, disc, art in zip(report.eigenvalues, report.dist,
                                           report.discrete, report.artifact)]
        write_csv(outputs["csv"], ["re", "im", "dist", "discrete", "artifact"], rows)
    if "svg" in outputs:
        emit_svg_scatter(report, outputs["svg"])
    return doc


def _lt_report(cfg: Cfg, bg: Background, theorem: str,
               coupling: float = 1.0) -> ltsums.LTReport:
    from . import ltsums, operators
    a_values = cfg.numbers("a_values") if theorem == "T3" else None
    model, report = _spectrum_parts(cfg, bg, coupling)
    if theorem in ("T1", "T1simplified"):
        omega1 = operators.numerical_range_abscissa(model.op_h)
        omega = resolve_omega(cfg, omega1, theorem)
        if theorem == "T1":
            return ltsums.lt_sum_t1(report, omega, omega1, model.nb)
        return ltsums.lt_sum_t1_simplified(report, omega, omega1, model.nb)
    if theorem == "T2":
        return ltsums.lt_sum_t2(report, model.nb, bg.band_set.a1)
    exps = cfg.sub("exponents", required=False)
    epsilon = exps.number("epsilon", default=0.5) if exps else 0.5
    return ltsums.lt_sum_t3(report, model.nb, epsilon, model.v_samples,
                            a_values=a_values)


def cmd_ltcheck(cfg: Cfg, seed, outputs) -> dict:
    theorem = cfg.string("theorem", required=True, choices=THEOREMS)
    report = _lt_report(cfg, build_background(cfg), theorem)
    if "json" in outputs:
        write_json(outputs["json"], _wrap("ltcheck", seed, report.to_json()))
    if "csv" in outputs:
        header, rows = lt_report_csv(report)
        write_csv(outputs["csv"], header, rows)
    return report.to_json()


def cmd_hansmann(cfg: Cfg, seed, outputs) -> dict:
    from . import ltsums, operators
    h = cfg.sub("hansmann")
    p = h.number("p", default=2.0)
    if not p > 1:
        raise ConfigError("'hansmann.p' must exceed 1")
    seed = _DEFAULT_SEED if seed is None else seed
    rng = np.random.default_rng(seed)
    report = ltsums.hansmann_ensemble(
        n=h.integer("n", default=50, lo=2, hi=operators.SOLVER_CAP),
        trials=h.integer("trials", default=100, lo=1, hi=_MAX_TRIALS),
        p=p,
        perturbation_scale=h.number("scale", default=0.5),
        rng=rng,
        diagonal=h.boolean("diagonal", False),
    )
    doc = report.to_json()
    if "json" in outputs:
        write_json(outputs["json"], _wrap("hansmann", seed, doc))
    if "csv" in outputs:
        rows = [[i, float(r)] for i, r in enumerate(report.ratios)]
        write_csv(outputs["csv"], ["trial", "ratio"], rows)
    return doc


def cmd_sweep(cfg: Cfg, seed, outputs) -> dict:
    from . import ltsums
    theorem = cfg.string("theorem", required=True, choices=THEOREMS)
    alphas = cfg.numbers("alphas", required=True)
    if not alphas:
        raise ConfigError("'alphas' must be a nonempty list of couplings")
    bg = build_background(cfg)
    rows = ltsums.coupling_sweep(lambda a: _lt_report(cfg, bg, theorem, a), alphas)
    summary = ltsums.sweep_trend(rows)
    doc = {"rows": rows, "trend": summary, "theorem": theorem}
    if "json" in outputs:
        write_json(outputs["json"], _wrap("sweep", seed, doc))
    if "csv" in outputs:
        header = ["alpha", "theorem", "lhs", "rhs_structure", "empirical_ratio",
                  "lhs_over_alpha_p", "eigenvalue_count"]
        write_csv(outputs["csv"], header,
                  [[r[k] for k in header] for r in rows])
    return doc


_DISPATCH = {
    "bands": cmd_bands,
    "distort": cmd_distort,
    "spectrum": cmd_spectrum,
    "ltcheck": cmd_ltcheck,
    "hansmann": cmd_hansmann,
    "sweep": cmd_sweep,
}


def run(config: dict, command: str | None = None, seed: int | None = None,
        out_dir: str | None = None) -> tuple[int, dict]:
    """Execute a pipeline; returns (exit status, result document)."""
    try:
        cfg = Cfg(config)
        _check_keys(config)
        cmd = command or cfg.string("command", choices=COMMANDS)
        if cmd is None:
            raise ConfigError("missing 'command' (or pass one on the CLI)")
        if seed is None:
            seed = cfg.integer("seed", default=None)
        outputs = _outputs(cfg, Path(out_dir) if out_dir else None)
        result = _DISPATCH[cmd](cfg, seed, outputs)
        return 0, result
    except BandLTError as exc:
        return exit_code_for(exc), {"error": str(exc), "type": type(exc).__name__}
    except ArithmeticError as exc:
        # float overflow or division by zero in any bound formula
        return EXIT_NUMERICAL, {"error": f"float arithmetic failed: {exc}",
                                "type": type(exc).__name__}


def load_config(path: str) -> dict:
    """YAML from a file, or JSON from stdin when path is '-'."""
    if path == "-":
        try:
            return json.load(sys.stdin)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"stdin is not valid JSON: {exc}") from exc
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="band-lt",
        description="Band-spectrum perturbation experiments, batch mode.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True,
                        help="YAML config path, or '-' for JSON on stdin")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
    except BandLTError as exc:
        print(f"band-lt: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    status, result = run(config, command=args.command, seed=args.seed,
                         out_dir=args.out_dir)
    if status != 0:
        print(f"band-lt: {result.get('type')}: {result.get('error')}",
              file=sys.stderr)
    else:
        json.dump(result, sys.stdout, sort_keys=True, indent=1)
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
