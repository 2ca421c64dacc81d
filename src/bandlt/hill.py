"""Band spectrum of a periodic Schrodinger operator -y'' + V0(x) y = E y.

The trace D(E) of the period monodromy matrix decides membership: E
belongs to the spectrum exactly when |D(E)| <= 2.  Every sweep also
returns the Dirichlet count N(E), the number of zeros in (0, T) of the
solution with y(0) = 0 and y'(0) = 1; by Sturm oscillation theory it is
the number of Dirichlet eigenvalues nu_k below E, and nu_k lies in the
k-th closed gap (Magnus and Winkler, *Hill's Equation*, 1966).
``band_edges_report`` runs one loop over neighbouring swept energies
(``_sweep``): each round adds, in one batch, an energy inside every pair
that holds a Dirichlet eigenvalue of a gap no energy lies in yet, or
whose gap verdicts differ.  That energy is the midpoint, or an Illinois
regula falsi step on |D| - 2 where the pair isolates one band edge.  A
sweep of up to ``_LANES`` energies costs less than two sweeps of one,
so each sweep also integrates the midpoints the next bisection rounds
can take, and runs those rounds without a new sweep.  The
runs of in-band energies are the bands of a validated
:class:`~bandlt.bandset.BandSet` that the rest of the toolkit consumes,
with metadata on the resolution used.  A gap needs
|D| > 2 confirmed by D^2 - 4 taken from the entries (``_gap_side``), so
rounding at a closed gap opens none.

The monodromy is integrated with fixed-step classical Runge-Kutta, in
blocks of about steps^(1/3) steps that run side by side, and the block
matrices are multiplied in a prefix scan (see ``_monodromy_batch``).
The step count grows with the total phase sqrt(E)*T so that the Wronskian
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
_LANES = 8  # energies a sweep may look ahead with; at 3954 steps 8 cost 1.8x one


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


def _check_period(period: float) -> None:
    """Refuse a period that is not a positive finite float, before it is used."""
    if not 0.0 < period < math.inf:
        raise ValidationError(f"period must be positive and finite; got {period}")


def from_callable(f, period: float, sup_norm: float | None = None) -> PeriodicPotential:
    """Wrap a closed-form potential, checking periodicity and V0 >= 0."""
    _check_period(period)
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
    _check_period(period)
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
    _check_period(period)
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


def _block_steps(steps: int) -> int:
    """RK4 steps per block, L = round(steps^(1/3)), whatever the batch.

    A sweep takes L RK4 iterations and about 2 log2(steps / L) scan
    rounds, and its scan does about 2 steps / L block products per
    energy.  Sweeps of 1 to 16 energies cost about the same for L from
    half to 1.5 times this (8 to 24 at 3954 steps), and blocks of
    sqrt(steps) steps multiplied in order cost about 3 times as much for
    one energy.
    """
    return round(steps ** (1.0 / 3.0))


def _monodromy_batch(V0: PeriodicPotential, energies: np.ndarray,
                     steps: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Fundamental matrices (2,2,nE) and Dirichlet counts (nE,) at once.

    Columns start from (1,0) and (0,1).  The ``steps`` RK4 steps are split
    into B = ceil(steps/L) consecutive blocks of L = ``_block_steps``.
    Iteration j of one pass advances both columns of every block from the
    identity by the block's step b*L + j (the short last block drops out
    once done); a prefix scan then forms the product of every block with
    all blocks before it.  A sweep is about L + 2 log2(B) Python
    iterations per chunk of ``_CHUNK // B`` energies (16 + 14 per 33 at
    3954 steps), and the chunk caps the arrays whatever the batch size.
    Past a chunk the element work dominates, and it grows with B: the
    scan does 2B products per energy.  L, B and the scan depend only on
    ``steps`` and every operation is elementwise in E, so an energy's
    monodromy has the same bits alone and inside any batch.  The
    Wronskian det = 1 is checked on the result.

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

    L = _block_steps(steps)
    B = -(-steps // L)
    # row j holds step b*L + j of every block b; past the last step, a
    # repeat of it that the short last block never reads
    at = np.minimum(np.arange(B * L).reshape(B, L).T, steps - 1)
    samples = v_node[at], v_mid[at], v_node[at + 1]
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
    """Monodromy and sign changes of y2 at the block ends for one chunk of
    energies: the matrices of ``_block_matrices``, multiplied in a prefix
    scan that leaves the product of every block with all blocks before it.

    The scan is Brent and Kung's.  Rounds with offset d = 1, 2, 4, ...
    multiply each block b with 2d dividing b + 1 by the product ending at
    b - d, which makes it the product of the 2d blocks ending at b; rounds
    with d = ..., 2, 1 then multiply each block b with b + 1 an odd
    multiple of d, above 2d, by the prefix ending at b - d, which an
    earlier round completed.  That is about 2 log2(B) rounds and 2B
    products of 2x2 matrices.  A scan that updates every block in each of
    log2(B) rounds takes B log2(B) products; at 3954 steps it was within
    8% of this one up to 12 energies, and 16% slower at 20 and 33% at 64.
    """
    p = _block_matrices(samples, h, tail, E)
    B = p.shape[2]
    up = [1 << k for k in range(B.bit_length() - 1)]  # every d with 2d <= B
    for start, d in ([(2 * d - 1, d) for d in up]
                     + [(3 * d - 1, d) for d in reversed(up) if 3 * d <= B]):
        a, b = p[:, :, start::2 * d], p[:, :, start - d:B - d:2 * d]
        a[...] = a[:, 0, None] * b[0] + a[:, 1, None] * b[1]
    neg = p[0, 1] < 0.0  # y2 at every block end; it leaves 0 upwards
    return p[:, :, -1], neg[0] + np.count_nonzero(neg[1:] != neg[:-1], axis=0)


def _block_matrices(samples, h, tail, E):
    """Block RK4 pass for one chunk of energies: the (2,2,B,nE) matrices
    that advance (y, y') over each block.

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
    p = np.empty((2, 2, B, E.size))
    for j in range(L):
        if j == tail:
            p[0, :, -1], p[1, :, -1] = y[:, -1], w[:, -1]
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
    p[0, :, :nb], p[1, :, :nb] = y, w
    return p


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
    """Swept energies, sorted, ``_gap_side`` at them, and how many energies
    were integrated.

    A swept E in a gap with count n lies in gap n when sign D = (-1)^n
    and in gap n + 1 otherwise (gap 0 lies below the spectrum), because
    nu_n < E <= nu_(n+1) and D has sign (-1)^k in gap k.  V0 >= 0 puts
    every E < 0 in gap 0, so it gets +1 whatever rounding makes of D
    (at tiny periods D - 2 ~ |E| T^2 drowns in it).  The first sweep
    is E = -1 and e_max, so K = N(e_max) gaps hold a nu_k below e_max.
    Each later round adds, in one batch, one energy inside every pair of
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
    first takes one, and then bisects.

    A sweep runs the first round for every pair and, for the pairs it
    bisects, sweeps ahead: it also integrates the midpoints of their
    next levels - 1 halvings, levels = floor(log2(_LANES // w + 1)) for
    w pairs worked on, so a batch holds at most max(_LANES, w) energies.
    A half-pair that ends below 0 gets none, as it never needs work.
    Later rounds take those midpoints, each computed as bisection
    computes it, for as long as every pair that needs work and isolates
    no single edge finds its own among them.  A pair that isolates one
    edge takes its midpoint if it is there and otherwise waits for the
    next sweep; midpoints no round takes are dropped, but count among
    the integrated energies returned with the swept ones.  So the pairs
    that find the gaps take exactly the energies of plain bisection,
    round for round, only in fewer sweeps.  A pair that needs no work
    never needs it again, every sweep halves each open pair or gives it
    one of its steps, and a pair's first step comes after it was halved
    every sweep before, so the loop stops within twice the bisection bound,
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

    def pairs():
        """Left ends of the pairs that need work, which of them isolate one
        edge, and their stop widths; marks the gaps that hold an energy."""
        gap = n + ((side > 0.0) == (n % 2 == 1))
        seen[np.minimum(gap[side != 0.0], K + 1)] = True
        unseen = np.cumsum(~seen[:K + 1])  # unseen[k]: gaps 0..k holding no energy
        lo, hi = e[:-1], e[1:]
        holds = unseen[np.minimum(n[1:], K)] > unseen[np.minimum(n[:-1], K)]
        stop = np.maximum(_EDGE_TOL, 4.0 * np.spacing(np.abs(hi)))
        work = ((holds & (hi - lo > 1e-10 * (1.0 + np.abs(hi))))
                | ((side[:-1] != side[1:]) & (hi - lo > stop)))
        i = np.flatnonzero(work)
        # the gap end's gap less the band end's count, for one end in a band
        rise = np.where(side[i] == 0.0, gap[i + 1] - n[i], gap[i] - n[i + 1])
        one = (((side[i] == 0.0) != (side[i + 1] == 0.0)) & ((rise == 0) | (rise == 1))
               & (lo[i] >= 0.0))
        return i, one, stop[work]

    def newer_until(i):
        """``until`` of the newer end of each pair: set by its parent pair."""
        return np.where(age[i] > age[i + 1], until[i], until[i + 1])

    integrated = e.size
    i, one, stop = pairs()
    for sweep in range(1, cap + 1):
        if i.size == 0:
            return e, side, integrated
        if sweep == cap:
            break
        j = i + 1  # the ends of each pair worked on
        lo, hi = e[i], e[j]
        newer = newer_until(i)
        budget = np.ceil(np.log2((hi - lo) / stop)).astype(int)
        last = np.where(one, np.where(newer < 0, sweep + budget - 1, newer), -1)
        s = side[i] + side[j]  # the gap end's sign
        stale = 0.5 ** np.maximum(np.abs(age[i] - age[j]) - 1, 0)
        g_lo = (s * d[i] - 2.0) * np.where(age[i] < age[j], stale, 1.0)
        g_hi = (s * d[j] - 2.0) * np.where(age[j] < age[i], stale, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
        step = one & (sweep <= last) & (g_lo * g_hi < 0.0) & (lo < x) & (x < hi)
        # the bisected pairs' midpoints down to `levels` halvings, or to
        # their stop width, each as 0.5 * (lo + hi) of its half-pair
        levels = max(int(math.log2(_LANES // i.size + 1)), 1)
        a, b, k = lo[~step], hi[~step], np.minimum(levels, budget[~step])
        ahead = [x[step]]
        while a.size:
            mid = 0.5 * (a + b)
            ahead.append(mid)
            left, right = (k > 1) & (mid >= 0.0), k > 1  # E < 0 lies in gap 0
            a, b = np.concatenate([a[left], mid[right]]), np.concatenate([mid[left], b[right]])
            k = np.concatenate([k[left], k[right]]) - 1
        ahead = np.sort(np.concatenate(ahead))
        integrated += ahead.size
        m, n_ahead = _monodromy_batch(V0, ahead, steps)
        d_ahead = m[0, 0] + m[1, 1]
        side_ahead = np.where(ahead < 0.0, 1.0, _gap_side(m))
        new, new_until = np.where(step, x, 0.5 * (lo + hi)), last
        while True:
            at = np.searchsorted(ahead, new)
            e = np.insert(e, i + 1, new)
            d = np.insert(d, i + 1, d_ahead[at])
            side = np.insert(side, i + 1, side_ahead[at])
            n = np.insert(n, i + 1, n_ahead[at])
            age = np.insert(age, i + 1, sweep)
            until = np.insert(until, i + 1, new_until)
            i, one, stop = pairs()
            new = 0.5 * (e[i] + e[i + 1])
            found = ahead[np.minimum(np.searchsorted(ahead, new), ahead.size - 1)] == new
            if not np.any(found) or not np.all(found[~one]):
                break  # the next sweep starts from these pairs
            i, one, new = i[found], one[found], new[found]
            new_until = np.where(one, newer_until(i), -1)
    raise NumericalError(f"edge bracketing did not stop within {cap} sweeps")


def band_edges_report(V0: PeriodicPotential, e_max: float) -> tuple[BandSet, dict]:
    """Bracket the edges of the discriminant; returns the band set and metadata.

    The bands are the runs of in-band energies of ``_sweep``, each edge
    the midpoint of the pair where the verdict flips, a run that reaches
    e_max truncated there.  Metadata records the edges found, merged
    degenerate gaps (length < 1e-8: downstream band sets need strict
    interlacing), the truncation, and ``scan_points``: every integrated
    energy, including look-ahead midpoints that ``_sweep`` dropped.
    """
    if not e_max > 0:
        raise PreconditionError("e_max must be positive")
    steps = default_steps(float(e_max + V0.sup_norm), V0.period)
    swept, side, integrated = _sweep(V0, e_max, steps)

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
        "scan_points": int(integrated),
        "integration_steps": int(steps),
    }
    return I, meta

