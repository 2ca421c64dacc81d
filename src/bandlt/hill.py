"""Band spectrum of a periodic Schrodinger operator -y'' + V0(x) y = E y.

The trace D(E) of the period monodromy matrix decides membership: E
belongs to the spectrum exactly when |D(E)| <= 2.  Every sweep also
returns the Dirichlet count N(E), the number of zeros in (0, T) of the
solution with y(0) = 0 and y'(0) = 1; by Sturm oscillation theory it is
the number of Dirichlet eigenvalues nu_k below E, and nu_k lies in the
k-th closed gap (Magnus and Winkler, *Hill's Equation*, 1966).
``band_edges_report`` runs one loop over neighbouring swept energies
(``_sweep``): each sweep adds, in one batch, an energy inside every pair
that holds a Dirichlet eigenvalue of a gap no energy lies in yet, or
whose gap verdicts differ.  That energy is the midpoint, or an Illinois
regula falsi step on |D| - 2 where the pair isolates one band edge.  The
runs of in-band energies are the bands of a validated
:class:`~bandlt.bandset.BandSet` that the rest of the toolkit consumes,
with metadata on the resolution used.  A gap needs
|D| > 2 confirmed by D^2 - 4 taken from the entries (``_gap_side``), so
rounding at a closed gap opens none.

The monodromy is integrated with fixed-step classical Runge-Kutta, in
blocks of steps that run side by side (see ``_monodromy_batch``).  The
step count grows with the total phase sqrt(E)*T so that the Wronskian
(det of the monodromy) stays within 1e-10 of 1 and the trace error stays
below the edge tolerance; see ``default_steps``.
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

_EDGE_TOL = 1e-10
_DEGENERATE_GAP = 1e-8
_PROBE_POINTS = 2048
_MAX_STEPS = 50_000  # RK4 steps per sweep; Mathieu q = 2 to e_max 30 needs 7211
_CHUNK = 8192  # blocks x energies per integration chunk; caps the RK4 arrays


@dataclass(frozen=True)
class PeriodicPotential:
    """Nonnegative periodic potential with a known sup norm.

    ``evaluate`` maps an array of positions to potential values; it must
    be period-``period`` (checked on a probe grid at construction).
    """

    period: float
    evaluate: Callable[[np.ndarray], np.ndarray]
    sup_norm: float


def _check_values(vals: np.ndarray) -> None:
    """Refuse non-finite values and V0 < 0 beyond rounding (-1e-12)."""
    if not np.all(np.isfinite(vals)):
        raise ValidationError("potential evaluates to non-finite values")
    if np.min(vals) < -1e-12:
        raise HypothesisViolationError(
            f"background potential must be nonnegative; min sample {np.min(vals)}"
        )


def from_callable(f, period: float, sup_norm: float | None = None) -> PeriodicPotential:
    """Wrap a closed-form potential, checking periodicity and V0 >= 0."""
    if not period > 0:
        raise ValidationError("period must be positive")
    x = np.linspace(0.0, period, _PROBE_POINTS, endpoint=False)
    vals = np.asarray(f(x), dtype=float)
    _check_values(vals)
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
    """Potential from uniform samples on one period, linearly interpolated;
    its extremes are at the samples, so V0 >= 0 and the sup norm are too."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size < 2:
        raise ValidationError("need a 1D array of at least two samples")
    _check_values(vals)
    xs = np.linspace(0.0, period, vals.size, endpoint=False)
    xs_wrap = np.append(xs, period)
    vals_wrap = np.append(vals, vals[0])

    def evaluate(x):
        return np.interp(np.mod(np.asarray(x, dtype=float), period), xs_wrap, vals_wrap)

    return from_callable(evaluate, period, sup_norm=float(np.max(np.abs(vals))))


def default_steps(energy: float, period: float) -> int:
    """Step count keeping det within 1e-10 and trace error below ~1e-9.

    Classical RK4 on the oscillatory system drifts the Wronskian by about
    (phase/n)^6/72 per step and the phase by (phase/n)^5/120, with
    phase = sqrt(E) T.  Scaling n like phase^(5/4) bounds both uniformly.
    A count above ``_MAX_STEPS`` is refused before anything is allocated.
    """
    if not math.isfinite(energy):
        raise PreconditionError(f"energy {energy} is not finite")
    phase = math.sqrt(max(energy, 0.0)) * period
    if phase > (_MAX_STEPS / 80.0) ** 0.8:
        raise PreconditionError(
            f"energy {energy} needs more than {_MAX_STEPS} RK4 steps over "
            f"period {period}; lower e_max"
        )
    return max(1000, int(math.ceil(80.0 * phase ** 1.25)))


def _monodromy_batch(V0: PeriodicPotential, energies: np.ndarray,
                     steps: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Fundamental matrices (2,2,nE) and Dirichlet counts (nE,) at once.

    Columns start from (1,0) and (0,1).  The ``steps`` RK4 steps are split
    into B = ceil(steps/L) consecutive blocks of L = ceil(sqrt(steps)).
    Iteration j of one pass advances both columns of every block from the
    identity by the block's step b*L + j (the short last block drops out
    once done); the B block matrices are then multiplied in order.  A
    sweep is about L + B Python iterations per chunk of ``_CHUNK // B``
    energies, and the chunk caps the arrays whatever the batch size.  L
    and B depend only on ``steps`` and every operation is elementwise in
    E, so an energy's monodromy has the same bits alone and inside any
    batch.  The Wronskian det = 1 is checked on the result.

    The count is the number of sign changes of y2 = m[0, 1] at the block
    ends.  It is the number of zeros of y2 in (0, T) while a block is
    shorter than their spacing pi / sqrt(E - min V0), which holds for
    every E up to the energy ``default_steps`` sized ``steps`` for.
    """
    E = np.atleast_1d(np.asarray(energies, dtype=float))
    if not np.all(np.isfinite(E)):
        raise PreconditionError(f"energy {E[~np.isfinite(E)][0]} is not finite")
    if steps is None:
        steps = default_steps(float(np.max(E)), V0.period)
    if steps < 100:
        raise PreconditionError("steps must be >= 100")
    h = V0.period / steps
    x = np.arange(steps + 1) * h
    v_node = np.asarray(V0.evaluate(x), dtype=float)
    v_mid = np.asarray(V0.evaluate(x[:-1] + 0.5 * h), dtype=float)
    if not (np.all(np.isfinite(v_node)) and np.all(np.isfinite(v_mid))):
        raise NumericalError("potential produced non-finite samples")

    L = math.isqrt(steps - 1) + 1
    B = -(-steps // L)

    def by_block(v):  # row j holds sample b*L + j of every block b
        return np.pad(v, (0, B * L - steps)).reshape(B, L).T.copy()

    samples = by_block(v_node[:-1]), by_block(v_mid), by_block(v_node[1:])
    tail = steps - (B - 1) * L
    width = _CHUNK // B
    out = np.empty((2, 2, E.size))
    count = np.empty(E.size, dtype=int)
    for k in range(0, E.size, width):
        out[:, :, k:k + width], count[k:k + width] = _monodromy_chunk(
            samples, h, tail, E[k:k + width])

    dets = out[0, 0] * out[1, 1] - out[0, 1] * out[1, 0]
    # below the spectrum the entries grow like exp(sqrt(V-E) T), and the
    # computed Wronskian carries an irreducible eps*|M|^2 cancellation
    # floor; the 1e-9 absolute guard applies where entries are O(1)
    tol = np.maximum(1e-9, 128.0 * np.finfo(float).eps * (1.0 + (out * out).sum(axis=(0, 1))))
    if not np.all(np.abs(dets - 1.0) <= tol):  # NaN fails too
        worst = float(np.max(np.abs(dets - 1.0) / tol))
        raise NumericalError(
            f"Wronskian drifted {worst:.1f}x beyond the scaled tolerance; "
            "integration under-resolved"
        )
    return out, count


def _monodromy_chunk(samples, h, tail, E):
    """Block RK4 pass and ordered block product for one chunk of energies;
    returns the monodromy and the sign changes of y2 at the block ends.

    ``samples`` are the (L, B) node, midpoint and next-node potential
    tables; the last block has ``tail`` steps.  Each step is classical RK4
    with k1 = (w, c0 y), k2 = (w + h/2 k1w, cm (y + h/2 k1y)), k3 likewise
    from k2, k4 = (w + h k3w, c1 (y + h k3y)) and the update
    y + h/6 (((k1 + 2 k2) + 2 k3) + k4).  Each stage is built in place in
    an array that is no longer needed; only the order of the two operands
    of a + or * changes, never the grouping, so the bits are those of the
    written-out expressions.
    """
    v_node, v_mid, v_next = samples
    L, B = v_node.shape
    hh, h6 = 0.5 * h, h / 6.0
    y = np.zeros((2, B, E.size))
    w = np.zeros((2, B, E.size))
    y[0] = 1.0
    w[1] = 1.0
    done = []
    for j in range(L):
        if j == tail:
            done.append(np.stack([y[:, -1], w[:, -1]]))
            y, w = y[:, :-1], w[:, :-1]
        nb = y.shape[1]
        c0 = v_node[j, :nb, None] - E
        cm = v_mid[j, :nb, None] - E
        c1 = v_next[j, :nb, None] - E
        k1w = c0 * y  # k1y is w
        k2y = hh * k1w; k2y += w
        k2w = hh * w; k2w += y; k2w *= cm
        k3y = hh * k2w; k3y += w
        k3w = hh * k2y; k3w += y; k3w *= cm
        k4y = h * k3w; k4y += w
        k4w = h * k3y; k4w += y; k4w *= c1
        # the updates are built in k2
        k2y *= 2.0; k2y += w; k3y *= 2.0; k2y += k3y; k2y += k4y; k2y *= h6; k2y += y
        k2w *= 2.0; k2w += k1w; k3w *= 2.0; k2w += k3w; k2w += k4w; k2w *= h6; k2w += w
        y, w = k2y, k2w

    blocks = list(np.stack([y, w]).transpose(2, 0, 1, 3)) + done
    m = blocks[0]
    neg = m[0, 1] < 0.0  # y2 leaves 0 upwards
    count = neg.astype(int)
    for p in blocks[1:]:
        m = p[:, 0, None] * m[0] + p[:, 1, None] * m[1]
        now = m[0, 1] < 0.0
        count += neg != now
        neg = now
    return m, count


def _gap_side(m):
    """sign D where the monodromies ``m`` (2,2,nE) put E in a gap, else 0.

    A gap needs |D| > 2 and D^2 - 4 = (m00 - m11)^2 + 4 m01 m10 above
    _EDGE_TOL^2.  At a closed gap M = +/-I, and rounding lifts |D| above
    2 by up to 4e-13 on a window about 4 sqrt(1e-13 nu_k) / T wide
    (8.7e-3 at nu_1 for T = 0.01); the entry form has no cancellation
    there and stays below 1e-30 on free potentials of period 0.01 to
    2 pi.  The narrowest gap that D resolves on the reference configs
    (q = 0.3, E = 6.55, 2.6e-7 wide) has D^2 - 4 = 1.1e-13.
    """
    d = m[0, 0] + m[1, 1]
    disc = (m[0, 0] - m[1, 1]) ** 2 + 4.0 * m[0, 1] * m[1, 0]
    return np.where((np.abs(d) > 2.0) & (disc > _EDGE_TOL ** 2), np.sign(d), 0.0)


def _sweep(V0, e_max, steps):
    """Swept energies, sorted, and ``_gap_side`` at them.

    A swept E in a gap with count n lies in gap n when sign D = (-1)^n
    and in gap n + 1 otherwise (gap 0 lies below the spectrum), because
    nu_n < E <= nu_(n+1) and D has sign (-1)^k in gap k.  V0 >= 0 puts
    every E < 0 in gap 0, so it gets +1 whatever rounding makes of D
    (at tiny periods D - 2 ~ |E| T^2 drowns in it).  The first sweep
    is E = -1 and e_max, so K = N(e_max) gaps hold a nu_k below e_max.
    Each later sweep adds, in one batch, one energy inside every pair of
    neighbouring energies that (a) holds nu_k of a gap k <= K that no
    energy lies in yet and is wider than 1e-10 (1 + |E|), or (b) has two
    different verdicts and is wider than the edge tolerance and four
    float spacings.  A pair narrower than gap k reaches into it; one
    that stops at width (a) marks a closed gap.

    The new energy is the midpoint, except in a pair at E >= 0 that
    isolates one edge: one end in a band with count n_b, the other in
    gap n_b or n_b + 1.  There g = s D - 2, with s the sign of D at the
    gap end, changes sign once, and the step is Illinois regula falsi
    on g: the older end's g is weighted by 2^-(c - 1), c the number of
    sweeps between the ages of the two ends.  Such a pair takes at most
    as many of these steps as bisection needs from the width where it
    first takes one, and then bisects.  A pair that needs no work never
    needs it again, and a pair's first step comes after it halved every
    sweep before, so the loop stops within twice the bisection bound,
    2 (1 + ceil(log2((e_max + 1) / 1e-10))) sweeps; past that it raises.
    """
    cap = 2 * (1 + math.ceil(math.log2((e_max + 1.0) / _EDGE_TOL)))
    e = np.array([-1.0, float(e_max)])
    m, n = _monodromy_batch(V0, e, steps)
    d = m[0, 0] + m[1, 1]
    side = np.where(e < 0.0, 1.0, _gap_side(m))
    age = np.zeros(2, dtype=int)  # the sweep that added each energy
    until = np.full(2, -1)  # last sweep its pair may step at; -1 before its first step
    K = int(n[-1])
    seen = np.zeros(K + 2, dtype=bool)
    for sweep in range(1, cap + 1):
        gap = n + ((side > 0.0) == (n % 2 == 1))
        seen[np.minimum(gap[side != 0.0], K + 1)] = True
        unseen = np.cumsum(~seen[:K + 1])  # unseen[k]: gaps 0..k holding no energy
        lo, hi = e[:-1], e[1:]
        holds = unseen[np.minimum(n[1:], K)] > unseen[np.minimum(n[:-1], K)]
        stop = np.maximum(_EDGE_TOL, 4.0 * np.spacing(np.abs(hi)))
        work = ((holds & (hi - lo > 1e-10 * (1.0 + np.abs(hi))))
                | ((side[:-1] != side[1:]) & (hi - lo > stop)))
        if not np.any(work):
            return e, side
        if sweep == cap:
            break
        at = np.flatnonzero(work) + 1
        i, j = at - 1, at  # the ends of each pair worked on
        lo, hi, stop = lo[work], hi[work], stop[work]
        # the gap end's gap less the band end's count, for one end in a band
        rise = np.where(side[i] == 0.0, gap[j] - n[i], gap[i] - n[j])
        one = (((side[i] == 0.0) != (side[j] == 0.0)) & ((rise == 0) | (rise == 1))
               & (lo >= 0.0))
        newer = np.where(age[i] > age[j], until[i], until[j])  # set by this pair's parent
        budget = np.ceil(np.log2((hi - lo) / stop)).astype(int)
        last = np.where(one, np.where(newer < 0, sweep + budget - 1, newer), -1)
        s = side[i] + side[j]  # the gap end's sign
        stale = 0.5 ** np.maximum(np.abs(age[i] - age[j]) - 1, 0)
        g_lo = (s * d[i] - 2.0) * np.where(age[i] < age[j], stale, 1.0)
        g_hi = (s * d[j] - 2.0) * np.where(age[j] < age[i], stale, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
        step = one & (sweep <= last) & (g_lo * g_hi < 0.0) & (lo < x) & (x < hi)
        new = np.where(step, x, 0.5 * (lo + hi))
        m, n_new = _monodromy_batch(V0, new, steps)
        e = np.insert(e, at, new)
        d = np.insert(d, at, m[0, 0] + m[1, 1])
        side = np.insert(side, at, np.where(new < 0.0, 1.0, _gap_side(m)))
        n = np.insert(n, at, n_new)
        age = np.insert(age, at, sweep)
        until = np.insert(until, at, last)
    raise NumericalError(f"edge bracketing did not stop within {cap} sweeps")


def band_edges_report(V0: PeriodicPotential, e_max: float) -> tuple[BandSet, dict]:
    """Bracket the edges of the discriminant; returns the band set and metadata.

    The bands are the runs of in-band energies of ``_sweep``, each edge
    the midpoint of the pair where the verdict flips, a run that reaches
    e_max truncated there.  Metadata records the edges found, merged
    degenerate gaps (length < 1e-8: downstream band sets need strict
    interlacing), the truncation, and ``scan_points``: every swept energy.
    """
    if not e_max > 0:
        raise PreconditionError("e_max must be positive")
    steps = default_steps(float(e_max + V0.sup_norm), V0.period)
    swept, side = _sweep(V0, e_max, steps)

    inside = side == 0.0
    flips = np.flatnonzero(inside[:-1] != inside[1:])
    # E = -1 lies in gap 0, so the first flip starts the first band
    cuts = np.concatenate([0.5 * (swept[flips] + swept[flips + 1]), swept[-1:][inside[-1:]]])
    bands = [(a, b) for a, b in cuts.reshape(-1, 2)]
    if not bands:
        raise NumericalError(f"no band found below e_max={e_max}")
    truncated = bool(inside[-1])

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
        "edges_found": int(flips.size),
        "merged_gaps": [[float(a), float(b)] for a, b in merged_gaps],
        "dropped_slivers": [[float(a), float(b)] for a, b in slivers],
        "truncated_at_e_max": truncated,
        "scan_points": int(swept.size),
        "integration_steps": int(steps),
    }
    return I, meta

