"""Band spectrum of a periodic Schrodinger operator -y'' + V0(x) y = E y.

The trace D(E) of the period monodromy matrix decides membership: E
belongs to the spectrum exactly when |D(E)| <= 2.  ``band_edges`` scans
D, bisects the crossings of +/-2, and assembles a validated
:class:`~bandlt.bandset.BandSet` that the rest of the toolkit consumes.

The monodromy is integrated with fixed-step classical Runge-Kutta.  The
step count grows with the total phase sqrt(E)*T so that the Wronskian
(det of the monodromy) stays within 1e-10 of 1 and the trace error stays
below the edge-bisection tolerance; see ``default_steps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bandset
from .bandset import BandSet
from .errors import (
    HypothesisViolationError,
    NumericalError,
    PreconditionError,
    ValidationError,
)

_DET_TOL = 1e-10
_EDGE_TOL = 1e-10
_DEGENERATE_GAP = 1e-8
_PROBE_POINTS = 2048
_MAX_STEPS = 50_000  # RK4 steps per sweep; Mathieu q = 2 to e_max 30 needs 7211
_MAX_SCAN_POINTS = 100_000
_SPEC_DEPTH = 5  # bracketing rounds per sweep: 2^5 - 1 tree nodes per bracket
_PHI = 0.5 * (math.sqrt(5.0) - 1.0)


@dataclass(frozen=True)
class PeriodicPotential:
    """Nonnegative periodic potential with a known sup norm.

    ``evaluate`` maps an array of positions to potential values; it must
    be period-``period`` (checked on a probe grid at construction).
    """

    period: float
    evaluate: Callable[[np.ndarray], np.ndarray]
    sup_norm: float


@dataclass(frozen=True)
class Monodromy:
    """Fundamental 2x2 solution matrix over one period at a given energy."""

    entries: np.ndarray
    energy: float

    @property
    def trace(self) -> float:
        return float(self.entries[0, 0] + self.entries[1, 1])

    @property
    def det(self) -> float:
        return float(
            self.entries[0, 0] * self.entries[1, 1]
            - self.entries[0, 1] * self.entries[1, 0]
        )


def from_callable(f, period: float, sup_norm: float | None = None) -> PeriodicPotential:
    """Wrap a closed-form potential, checking periodicity and V0 >= 0."""
    if not period > 0:
        raise ValidationError("period must be positive")
    x = np.linspace(0.0, period, _PROBE_POINTS, endpoint=False)
    vals = np.asarray(f(x), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValidationError("potential evaluates to non-finite values")
    if np.min(vals) < -1e-12:
        raise HypothesisViolationError(
            f"background potential must be nonnegative; min sample {np.min(vals)}"
        )
    shifted = np.asarray(f(x + period), dtype=float)
    scale = 1.0 + np.max(np.abs(vals))
    if np.max(np.abs(shifted - vals)) > 1e-12 * scale:
        raise ValidationError("potential is not periodic with the declared period")
    sup = float(np.max(np.abs(vals))) if sup_norm is None else float(sup_norm)
    return PeriodicPotential(period=float(period), evaluate=f, sup_norm=sup)


def free(period: float = 1.0) -> PeriodicPotential:
    """The zero potential; spectrum is [0, inf) with all gaps closed."""
    return from_callable(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                         period, sup_norm=0.0)


def cosine(q: float, period: float = 2.0 * math.pi) -> PeriodicPotential:
    """V0(x) = q (1 + cos(2 pi x / period)), nonnegative for q >= 0."""
    if q < 0:
        raise HypothesisViolationError("cosine amplitude q must be >= 0")
    w = 2.0 * math.pi / period
    return from_callable(lambda x: q * (1.0 + np.cos(w * np.asarray(x, dtype=float))),
                         period, sup_norm=2.0 * q)


def from_samples(values, period: float) -> PeriodicPotential:
    """Potential from uniform samples on one period, linearly interpolated."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size < 2:
        raise ValidationError("need a 1D array of at least two samples")
    xs = np.linspace(0.0, period, vals.size, endpoint=False)
    xs_wrap = np.append(xs, period)
    vals_wrap = np.append(vals, vals[0])

    def evaluate(x):
        return np.interp(np.mod(np.asarray(x, dtype=float), period), xs_wrap, vals_wrap)

    return from_callable(evaluate, period)


def default_steps(energy: float, period: float) -> int:
    """Step count keeping det within 1e-10 and trace error below ~1e-9.

    Classical RK4 on the oscillatory system drifts the Wronskian by about
    (phase/n)^6/72 per step and the phase by (phase/n)^5/120, with
    phase = sqrt(E) T.  Scaling n like phase^(5/4) bounds both uniformly.
    A count above ``_MAX_STEPS`` is refused before anything is allocated.
    """
    phase = math.sqrt(max(energy, 0.0)) * period
    if phase > (_MAX_STEPS / 80.0) ** 0.8:
        raise PreconditionError(
            f"energy {energy} needs more than {_MAX_STEPS} RK4 steps over "
            f"period {period}; lower e_max"
        )
    return max(1000, int(math.ceil(80.0 * phase ** 1.25)))


def _monodromy_batch(V0: PeriodicPotential, energies: np.ndarray,
                     steps: int | None = None) -> np.ndarray:
    """Fundamental matrices for many energies at once; returns (2,2,nE)."""
    E = np.atleast_1d(np.asarray(energies, dtype=float))
    if steps is None:
        steps = default_steps(float(np.max(E)), V0.period)
    h = V0.period / steps
    x = np.arange(steps + 1) * h
    v_node = np.asarray(V0.evaluate(x), dtype=float)
    v_mid = np.asarray(V0.evaluate(x[:-1] + 0.5 * h), dtype=float)
    if not (np.all(np.isfinite(v_node)) and np.all(np.isfinite(v_mid))):
        raise NumericalError("potential produced non-finite samples")

    y = np.zeros((2, E.size))
    w = np.zeros((2, E.size))
    y[0] = 1.0
    w[1] = 1.0
    for i in range(steps):
        c0 = v_node[i] - E
        cm = v_mid[i] - E
        c1 = v_node[i + 1] - E
        k1y = w
        k1w = c0 * y
        k2y = w + 0.5 * h * k1w
        k2w = cm * (y + 0.5 * h * k1y)
        k3y = w + 0.5 * h * k2w
        k3w = cm * (y + 0.5 * h * k2y)
        k4y = w + h * k3w
        k4w = c1 * (y + h * k3y)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        w = w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)

    out = np.empty((2, 2, E.size))
    out[0, 0] = y[0]
    out[0, 1] = y[1]
    out[1, 0] = w[0]
    out[1, 1] = w[1]
    dets = out[0, 0] * out[1, 1] - out[0, 1] * out[1, 0]
    # below the spectrum the entries grow like exp(sqrt(V-E) T), and the
    # computed Wronskian carries an irreducible eps*|M|^2 cancellation
    # floor; the 1e-9 absolute guard applies where entries are O(1)
    tol = np.maximum(1e-9, 128.0 * np.finfo(float).eps * (1.0 + (out * out).sum(axis=(0, 1))))
    if np.any(np.abs(dets - 1.0) > tol):
        worst = float(np.max(np.abs(dets - 1.0) / tol))
        raise NumericalError(
            f"Wronskian drifted {worst:.1f}x beyond the scaled tolerance; "
            "integration under-resolved"
        )
    return out


def monodromy(V0: PeriodicPotential, energy: float, steps: int | None = None) -> Monodromy:
    """Integrate the fundamental system over one period.

    Columns start from (1,0) and (0,1); the determinant is checked
    against 1 to within 1e-10 (Wronskian conservation).
    """
    if steps is not None and steps < 100:
        raise PreconditionError("steps must be >= 100")
    m = _monodromy_batch(V0, np.array([energy]), steps)[:, :, 0]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    tol = max(_DET_TOL, 128.0 * np.finfo(float).eps * (1.0 + float((m * m).sum())))
    if abs(det - 1.0) > tol:
        raise NumericalError(f"monodromy determinant {det} deviates from 1")
    return Monodromy(entries=m, energy=float(energy))


def discriminant(V0: PeriodicPotential, energy):
    """Trace of the monodromy; scalar or array of energies."""
    E = np.asarray(energy, dtype=float)
    m = _monodromy_batch(V0, E)
    tr = m[0, 0] + m[1, 1]
    return float(tr[0]) if E.ndim == 0 else tr.reshape(E.shape)


def _scan_grid(period: float, e_max: float, scan_step: float | None) -> np.ndarray:
    """Energies from -1 to e_max; spacing grows like sqrt(E) because edges
    of the period problem spread quadratically.  A step that cannot
    advance E, or a grid above ``_MAX_SCAN_POINTS``, is refused."""
    e_ref = (math.pi / period) ** 2
    s0 = 1e-2 * e_ref if scan_step is None else float(scan_step)
    if s0 <= 0:
        raise PreconditionError("scan_step must be positive")
    grid = [-1.0]
    e = -1.0
    while e < e_max:
        e_next = min(e + s0 * max(1.0, math.sqrt(max(e, 0.0) / e_ref)), e_max)
        if e_next == e or len(grid) == _MAX_SCAN_POINTS:
            raise PreconditionError(f"scan_step {s0} cannot reach e_max {e_max} "
                                    f"within {_MAX_SCAN_POINTS} scan points")
        e = e_next
        grid.append(e)
    return np.array(grid)


def _probe_tree(V0, lo, hi, split, steps):
    """D at every point the next ``_SPEC_DEPTH`` rounds of a bracketing
    loop can probe, in one sweep.

    ``split(lo, hi)`` returns the (k, ...) probe energies of one round and
    its two child brackets; a round whose test is True takes the second.
    Nodes are in heap order (node j has children 2j+1 and 2j+2), so
    replaying a round moves a bracket from node j to 2j+1+test.  Returns
    the probes and their D values, each shaped (nodes, k, brackets).
    Energies are computed by the replayed formulas and D is elementwise
    in energy, so every replayed round sees the bits of a sweep of its own.
    """
    los, his, probes = lo[None], hi[None], []
    for _ in range(_SPEC_DEPTH):
        p, ((lo0, hi0), (lo1, hi1)) = split(los, his)
        probes.append(p.transpose(1, 0, 2))
        los = np.stack([lo0, lo1], axis=1).reshape(-1, lo.size)
        his = np.stack([hi0, hi1], axis=1).reshape(-1, lo.size)
    pts = np.concatenate(probes)
    m = _monodromy_batch(V0, pts.ravel(), steps)
    return pts, (m[0, 0] + m[1, 1]).reshape(pts.shape)


def _halve(lo, hi):
    """One bisection round: the midpoint; the sign test keeps [mid, hi]."""
    mid = 0.5 * (lo + hi)
    return mid[None], ((lo, mid), (mid, hi))


def _golden(lo, hi):
    """One golden-section round: two probes; |D(m1)| >= |D(m2)| keeps [lo, m2]."""
    m1 = hi - _PHI * (hi - lo)
    m2 = lo + _PHI * (hi - lo)
    return np.stack([m1, m2]), ((m1, hi), (lo, m2))


def _bisect_edges(V0, brackets, steps):
    """Resolve each sign-change bracket (lo, hi, +/-2, D(lo) -/+ 2) of
    D -/+ 2 to the edge tolerance, or to four float spacings where those
    are wider (E above 2^17).  Every bracket is halved while any is wide;
    ``_probe_tree`` evaluates ``_SPEC_DEPTH`` rounds per sweep."""
    if not brackets:
        return []
    lo, hi, tgt, flo = (np.array(c, dtype=float) for c in zip(*brackets))
    cols = np.arange(lo.size)
    depth = _SPEC_DEPTH
    while np.any(hi - lo > np.maximum(_EDGE_TOL, 4.0 * np.spacing(np.abs(hi)))):
        if depth == _SPEC_DEPTH:
            pts, vals = _probe_tree(V0, lo, hi, _halve, steps)
            node, depth = np.zeros(lo.size, dtype=int), 0
        mid = pts[node, 0, cols]
        fmid = vals[node, 0, cols] - tgt
        left = (flo * fmid) > 0.0
        lo = np.where(left, mid, lo)
        flo = np.where(left, fmid, flo)
        hi = np.where(left, hi, mid)
        node, depth = 2 * node + 1 + left, depth + 1
    return list(0.5 * (lo + hi))


def _bump_brackets(V0, grid, disc, crossing_cells, steps):
    """Chase gaps narrower than the scan step.

    A gap entirely inside one scan cell leaves no sign change, only a
    local maximum of |D| just below 2 at the neighboring grid points.
    Golden-section maximization of |D| over such cells either exposes a
    point with |D| > 2 (two new brackets) or confirms a tangential touch
    (closed gap, no edge).  ``_probe_tree`` evaluates ``_SPEC_DEPTH``
    rounds per sweep.
    """
    absd = np.abs(disc)
    interior = np.arange(1, grid.size - 1)
    is_max = (absd[interior] >= absd[interior - 1]) & (absd[interior] >= absd[interior + 1])
    near_two = (absd[interior] > 1.95) & (absd[interior] <= 2.0)
    clean = np.array([
        (i - 1 not in crossing_cells) and (i not in crossing_cells)
        for i in interior
    ])
    cand = interior[is_max & near_two & clean]
    if cand.size == 0:
        return [], 0

    lo = grid[cand - 1].astype(float)
    hi = grid[cand + 1].astype(float)
    lo0, hi0 = lo.copy(), hi.copy()
    best_e = grid[cand].astype(float)
    best_f = disc[cand].copy()
    cols = np.arange(cand.size)
    depth = _SPEC_DEPTH
    for _ in range(45):
        unresolved = np.abs(best_f) <= 2.0
        if not np.any(unresolved) or np.max(hi - lo) < 1e-10 * (1.0 + np.max(np.abs(hi))):
            break
        if depth == _SPEC_DEPTH:
            pts, vals = _probe_tree(V0, lo, hi, _golden, steps)
            node, depth = np.zeros(cand.size, dtype=int), 0
        m1, m2 = pts[node, :, cols].T
        f1, f2 = vals[node, :, cols].T
        take1 = np.abs(f1) >= np.abs(f2)
        hi = np.where(take1, m2, hi)
        lo = np.where(take1, lo, m1)
        e_new = np.where(take1, m1, m2)
        f_new = np.where(take1, f1, f2)
        better = np.abs(f_new) > np.abs(best_f)
        best_e = np.where(better, e_new, best_e)
        best_f = np.where(better, f_new, best_f)
        node, depth = 2 * node + 1 + take1, depth + 1

    brackets = []
    opened = np.abs(best_f) > 2.0
    for e_star, f_star, a, b, fa in zip(best_e[opened], best_f[opened], lo0[opened],
                                        hi0[opened], disc[cand - 1][opened]):
        tgt = 2.0 if f_star > 0 else -2.0
        brackets.append((float(a), float(e_star), tgt, float(fa - tgt)))
        brackets.append((float(e_star), float(b), tgt, float(f_star - tgt)))
    return brackets, int(cand.size)


def band_edges_report(V0: PeriodicPotential, e_max: float,
                      scan_step: float | None = None) -> tuple[BandSet, dict]:
    """Scan and bisect the discriminant; returns the band set and metadata.

    Metadata records merged degenerate gaps (length < 1e-8: the free
    operator closes its gaps exactly and downstream band sets need strict
    interlacing), whether the last band was truncated at e_max, and the
    scan/integration resolution actually used.
    """
    if not e_max > 0:
        raise PreconditionError("e_max must be positive")
    steps = default_steps(float(e_max + V0.sup_norm), V0.period)
    grid = _scan_grid(V0.period, e_max, scan_step)
    m = _monodromy_batch(V0, grid, steps)
    disc = m[0, 0] + m[1, 1]

    brackets = []
    crossing_cells = set()
    for tgt in (2.0, -2.0):
        f = disc - tgt
        sign_change = np.where(f[:-1] * f[1:] < 0.0)[0]
        brackets.extend((grid[i], grid[i + 1], tgt, f[i]) for i in sign_change)
        crossing_cells.update(int(i) for i in sign_change)
        exact = np.where(f == 0.0)[0]
        brackets.extend((grid[i], grid[i], tgt, f[i]) for i in exact if 0 < i < grid.size - 1)
    bump, n_bumps = _bump_brackets(V0, grid, disc, crossing_cells, steps)
    brackets.extend(bump)
    edges = sorted(set(_bisect_edges(V0, brackets, steps)))

    boundaries = [grid[0]] + edges + [e_max]
    mids = np.array([0.5 * (a + b) for a, b in zip(boundaries, boundaries[1:])])
    mm = _monodromy_batch(V0, mids, steps)
    in_band = np.abs(mm[0, 0] + mm[1, 1]) <= 2.0

    bands = []
    truncated = False
    for seg, inside in enumerate(in_band):
        left, right = boundaries[seg], boundaries[seg + 1]
        if not inside or right <= left:
            continue
        if bands and bands[-1][1] == left:
            bands[-1] = (bands[-1][0], right)
        else:
            bands.append((left, right))
    if not bands:
        raise NumericalError(f"no band found below e_max={e_max}")
    if bands[-1][1] == e_max:
        truncated = True

    merged, merged_gaps = [bands[0]], []
    for a, b in bands[1:]:
        prev_a, prev_b = merged[-1]
        if a - prev_b < _DEGENERATE_GAP:
            merged_gaps.append((prev_b, a))
            merged[-1] = (prev_a, b)
        else:
            merged.append((a, b))
    # bisection can land the first edge within tolerance below 0
    merged = [(0.0 if -10.0 * _EDGE_TOL < a < 0.0 else a, b) for a, b in merged]

    slivers = [(a, b) for a, b in merged if b - a < _DEGENERATE_GAP]
    merged = [(a, b) for a, b in merged if b - a >= _DEGENERATE_GAP]
    if not merged:
        raise NumericalError(f"no band found below e_max={e_max}")

    I = bandset.validate(merged)
    meta = {
        "edges_found": len(edges),
        "merged_gaps": [[float(a), float(b)] for a, b in merged_gaps],
        "dropped_slivers": [[float(a), float(b)] for a, b in slivers],
        "bump_refinements": n_bumps,
        "truncated_at_e_max": truncated,
        "scan_points": int(grid.size),
        "integration_steps": int(steps),
    }
    return I, meta


def band_edges(V0: PeriodicPotential, e_max: float,
               scan_step: float | None = None) -> BandSet:
    """Band set of the period problem up to e_max (no terminal ray)."""
    return band_edges_report(V0, e_max, scan_step)[0]
