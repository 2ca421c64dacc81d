"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one `[acceptance NN] PASS/FAIL` line (visible with
pytest -s) and asserts the criterion.  Oracles here are independent of
the code paths they check: closed forms, dense sampling, and a separate
grid discretization for the band edges.
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bandlt import bandset, hill, ltsums, moebius, operators, schatten

from conftest import c1_quadrature, nearest_sample_distance, sample_band_points

STANDARD_EDGES = [(1.0, 2.0), (3.0, 4.0), (6.0, 8.0)]


def check(num: int, label: str, ok: bool, detail: str = ""):
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_uniform_distortion_bound():
    I = bandset.validate(STANDARD_EDGES)
    assert bandset.gap_ratio(I) == 0.5
    start = time.time()
    worst = math.inf
    violations = 0
    for k, omega in enumerate((0.0, -0.5, -5.0)):
        rng = np.random.default_rng(1000 + k)
        rep = moebius.verify_distortion(
            I, moebius.MoebiusMap(omega), "uniform", n=10_000,
            rng=rng, tolerance=1e-12,
        )
        violations += len(rep.violations)
        worst = min(worst, rep.min_quotient)
    elapsed = time.time() - start
    check(1, "uniform distortion bound, 3 shifts x 1e4 samples",
          violations == 0 and elapsed < 5.0,
          f"min quotient {worst:.6f}, {elapsed:.2f}s")


def test_criterion_02_regional_distortion_bounds():
    I = bandset.validate(STANDARD_EDGES)
    violations = 0
    worst = math.inf
    for k, omega in enumerate((0.0, -0.5, -5.0)):
        for variant in ("halfplane", "gap"):
            rng = np.random.default_rng(2000 + k)
            rep = moebius.verify_distortion(
                I, moebius.MoebiusMap(omega), variant, n=10_000,
                rng=rng, tolerance=1e-12,
            )
            violations += len(rep.violations)
            worst = min(worst, rep.min_quotient)
    check(2, "half-plane and gap distortion bounds, 1e4 samples each",
          violations == 0, f"min quotient {worst:.6f}")


def test_criterion_03_distance_oracles():
    rng = np.random.default_rng(33)
    I = bandset.validate(STANDARD_EDGES)
    pts = sample_band_points(I, 1_000_000)
    r = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 1000))
    theta = rng.uniform(0, 2 * np.pi, 1000)
    z = 2.0 + r * np.exp(1j * theta)
    z = np.where(z.real > 8.0, 16.0 - z.real + 1j * z.imag, z)  # stay in validity
    exact = bandset.dist_to_bands(z, I)
    brute = nearest_sample_distance(z, pts)
    ok_bands = np.all(np.abs(exact - brute) <= 1e-6 * (1.0 + np.abs(z)))

    mob = moebius.MoebiusMap(-0.5)
    img = moebius.image_bands(I, mob)
    img_pts = []
    lengths = np.array([hi - lo for lo, hi in img.intervals])
    for (lo, hi), w in zip(img.intervals, lengths / lengths.sum()):
        img_pts.append(np.linspace(lo, hi, max(int(1e6 * w), 2)))
    img_pts = np.sort(np.concatenate(img_pts))
    lam = rng.uniform(-0.5, 1.5, 1000) + 1j * rng.uniform(-1, 1, 1000)
    exact_img = moebius.dist_to_image(lam, img)
    brute_img = nearest_sample_distance(lam, img_pts)
    ok_img = np.all(np.abs(exact_img - brute_img) <= 1e-6 * (1.0 + np.abs(lam)))

    # accumulation flag: the origin joins the candidate set
    img_acc = moebius.MoebiusImage(intervals=img.intervals, accumulation_at_zero=True)
    exact_acc = moebius.dist_to_image(lam, img_acc)
    brute_acc = np.minimum(brute_img, np.abs(lam))
    ok_acc = np.all(np.abs(exact_acc - brute_acc) <= 1e-6 * (1.0 + np.abs(lam)))
    check(3, "distance oracle equivalence (1e6-point brute force)",
          bool(ok_bands and ok_img and ok_acc))


def test_criterion_04_hill_free_case():
    start = time.time()
    V0 = hill.free(1.0)
    E = np.linspace(0.0, 100.0, 1000)
    # V0 is even, so band_edges_report integrates half the period, and
    # D = 2 (y1 y2' + y1' y2) there
    grid = hill._grid(V0, hill.default_steps(100.0, V0.period), V0.even)
    (y1, y2), (dy1, dy2) = hill._monodromy_batch(grid, E)[0]
    trace_err = float(np.max(np.abs(2.0 * (y1 * dy2 + dy1 * y2) - 2.0 * np.cos(np.sqrt(E)))))
    dets = y1 * dy2 - y2 * dy1
    det_err = float(np.max(np.abs(dets - 1.0)))
    elapsed = time.time() - start
    check(4, "free discriminant vs 2cos(sqrt(E)) and unit Wronskian",
          trace_err < 1e-8 and det_err < 1e-10 and elapsed < 10.0,
          f"trace err {trace_err:.2e}, det err {det_err:.2e}, {elapsed:.2f}s")


def _merge_narrow_gaps(bands, min_gap):
    """Close gaps below min_gap; below the comparison tolerance an open
    and a closed gap are indistinguishable anyway."""
    merged = [tuple(bands[0])]
    for a, b in bands[1:]:
        if a - merged[-1][1] < min_gap:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return merged


def _floquet_oracle_bands(q: float, e_max: float, m: int = 16384, k: int = 40):
    """Independent band-edge oracle: dense-grid discretization of the
    period problem at boundary phases 0 and pi."""
    period = 2 * np.pi
    h = period / m
    x = np.arange(m) * h
    v = q * (1.0 + np.cos(x))
    edges = []
    for sign in (+1.0, -1.0):
        a = sp.diags(
            [-np.ones(m - 1) / h**2, 2.0 / h**2 + v, -np.ones(m - 1) / h**2],
            [-1, 0, 1], format="lil",
        )
        a[0, -1] = sign * (-1.0 / h**2)
        a[-1, 0] = sign * (-1.0 / h**2)
        vals = spla.eigsh(a.tocsc(), k=k, sigma=-5.0, which="LM",
                          return_eigenvectors=False)
        edges.append(np.sort(vals))
    merged = np.sort(np.concatenate(edges))
    bands = [(merged[i], merged[i + 1]) for i in range(0, merged.size - 1, 2)]
    out = []
    for a, b in bands:
        if a > e_max:
            break
        out.append((a, min(b, e_max)))
    return out


def test_criterion_05_hill_mathieu_vs_oracle():
    tol = 1e-4
    I, meta = hill.band_edges_report(hill.cosine(2.0, 2 * np.pi), 30.0)
    mine = _merge_narrow_gaps(list(I.edges), tol)
    oracle = _merge_narrow_gaps(_floquet_oracle_bands(2.0, 30.0), tol)
    ok = len(oracle) == len(mine)
    worst = 0.0
    if ok:
        for idx, ((a, b), (oa, ob)) in enumerate(zip(mine, oracle)):
            last = idx == len(mine) - 1 and meta["truncated_at_e_max"]
            worst = max(worst, abs(a - oa))
            if not last:
                worst = max(worst, abs(b - ob))
            ok = ok and abs(a - oa) < tol and (last or abs(b - ob) < tol)
    check(5, "Mathieu band edges vs Floquet grid oracle",
          ok, f"bands {len(mine)} vs oracle {len(oracle)}, "
          f"worst edge diff {worst:.2e}")


def test_criterion_06_c1_constant():
    vals_ok = all(
        abs(c1_quadrature(p) - schatten.c1_constant(p)) < 1e-10
        for p in (2.0, 3.0, 5.5)
    )
    base_ok = abs(schatten.c1_constant(2.0) - math.sqrt(2) / 2) < 1e-10
    check(6, "C1(p) quadrature vs Gamma closed form", vals_ok and base_ok)


def test_criterion_07_omega_prime():
    nb = schatten.NormBundle(p=2.0, v_p=0.0, v0_inf=0.0)
    got = schatten.omega_prime(nb, a1=0.0)
    check(7, "contraction shift closed value -10", abs(got + 10.0) < 1e-9,
          f"got {got!r}")


def test_criterion_08_resolvent_identities():
    rng = np.random.default_rng(88)
    n = 500
    v0 = 1.0 + np.cos(2 * np.pi * np.arange(1, n + 1) / 50.0)
    v = rng.standard_normal(n) * 0.3 + 1j * rng.standard_normal(n) * 0.3
    h0 = operators.discretize(v0, 0.0, length=50.0, n=n)
    h = operators.discretize(v0, v, length=50.0, n=n)
    z = -2.0 + 0.5j
    r0 = operators.resolvent(h0, z, range(n))
    r1 = operators.resolvent(h, z, range(n))
    identity_residual = float(np.max(np.abs((r1 - r0) + r1 @ np.diag(v) @ r0)))

    bound_ok = True
    worst_margin = math.inf
    for _ in range(100):
        m = 30
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        w1 = float(np.linalg.eigvalsh(0.5 * (a + a.conj().T))[0])
        omega = w1 - 1.0
        smin = float(np.linalg.svd(a - omega * np.eye(m), compute_uv=False)[-1])
        bound_ok = bound_ok and (1.0 / smin <= 1.0 + 1e-8)
        worst_margin = min(worst_margin, smin)
    check(8, "second resolvent identity and numerical-range resolvent bound",
          identity_residual <= 1e-8 and bound_ok,
          f"identity residual {identity_residual:.2e}, min smin {worst_margin:.4f}")


def test_criterion_09_hansmann_ensemble():
    finite_ok = True
    max_ratios = []
    for seed in (101, 202, 303):
        rng = np.random.default_rng(seed)
        rep = ltsums.hansmann_ensemble(50, 100, 2.0, 0.5, rng)
        finite_ok = finite_ok and rep.ratios.size == 100 and bool(
            np.all(np.isfinite(rep.ratios)))
        max_ratios.append(rep.max_ratio)
    stability = max(max_ratios) / min(max_ratios)
    diag = ltsums.hansmann_ensemble(
        50, 50, 2.0, 0.1, np.random.default_rng(7), diagonal=True)
    diag_ok = bool(np.max(np.abs(diag.ratios - 1.0)) < 1e-12)
    check(9, "spectral-variation ensemble: finite, commuting=1, stable max",
          finite_ok and diag_ok and stability < 2.0,
          f"max ratios {['%.4f' % r for r in max_ratios]}, spread {stability:.3f}")


def _desk_scale_model():
    V0 = hill.cosine(1.0, 2 * np.pi)  # background 1 + cos x
    bands, _ = hill.band_edges_report(V0, 12.0)
    I = bandset.close_with_ray(bands)
    length = 40 * V0.period
    n = 2000
    probe = operators.discretize(0.0, 0.0, length, n)
    x = probe.grid()
    v0_samples = np.asarray(V0.evaluate(x))
    # a well deep enough to bind states below the bands and lift others
    # off the axis well beyond the classification threshold
    t = (x - length / 2.0) / 6.0
    v = np.zeros_like(t, dtype=complex)
    inside = np.abs(t) < 1.0
    v[inside] = (-3.0 + 2.0j) * np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    h0 = operators.discretize(v0_samples, 0.0, length, n)
    h = operators.discretize(v0_samples, v, length, n)
    nb = schatten.norm_bundle(2.0, v, h.spacing, v0_inf=V0.sup_norm)
    return I, h0, h, v, nb


def test_criterion_10_end_to_end_chain():
    start = time.time()
    I, h0, h, v, nb = _desk_scale_model()
    report = operators.spectrum_report(h, I)
    chain = ltsums.theorem1_chain(h0, h, report, nb)
    ok_links = (
        chain.link1_count > 0  # the per-eigenvalue link must not be vacuous
        and chain.link1_violations == 0
        and chain.link1_min_quotient >= 1.0 - 1e-12
        and np.isfinite(chain.link2_hansmann_ratio)
        and np.isfinite(chain.lt_report.lhs)
        and chain.lt_report.lhs > 0.0
    )
    # bit-exact reproducibility: rebuild everything and compare raw bits
    I2, h0b, hb, vb, nb2 = _desk_scale_model()
    report2 = operators.spectrum_report(hb, I2)
    omega1b = operators.numerical_range_abscissa(hb)
    lt2 = ltsums.lt_sum_t1(report2, ltsums.default_omega(omega1b), omega1b, nb2)
    reproducible = (lt2.lhs == chain.lt_report.lhs
                    and lt2.rhs_structure == chain.lt_report.rhs_structure)
    elapsed = time.time() - start
    check(10, "desk-scale end-to-end chain (N=2000, 40 periods)",
          ok_links and reproducible and elapsed < 300.0,
          f"candidates {chain.link1_count}, min quotient "
          f"{chain.link1_min_quotient:.3f}, K_emp {chain.link2_hansmann_ratio:.4g}, "
          f"lhs {chain.lt_report.lhs:.6g}, {elapsed:.0f}s")


def test_criterion_11_accretive_case():
    rng = np.random.default_rng(111)
    n = 400
    length = 40.0
    probe = operators.discretize(0.0, 0.0, length, n)
    x = probe.grid()
    v0 = 1.0 + np.cos(2 * np.pi * x / 5.0)
    v = np.where(np.abs(x - 20.0) < 4.0,
                 rng.uniform(0.2, 1.0, n) + 1j * rng.standard_normal(n), 0.0)
    assert np.min(v.real) >= 0.0
    h = operators.discretize(v0, v, length, n)
    w1 = operators.numerical_range_abscissa(h)
    I = bandset.validate([(0.0, 1.0)], ray_start=2.0)
    report = operators.spectrum_report(h, I)
    res = report.discrete_candidates.real
    ok = w1 >= -1e-10 and (res.size == 0 or float(np.min(res)) >= -1e-8)
    check(11, "accretive perturbation keeps the spectrum right of 0",
          ok, f"omega_1 {w1:.3e}, min Re candidate "
          f"{float(np.min(res)) if res.size else math.nan:.3e}")


def test_criterion_12_coupling_sweep():
    # a purely imaginary bump keeps the Hermitian part (hence omega_1)
    # fixed across couplings; its strongly-absorbing localized states keep
    # dist ~ alpha |Im V|, the regime where lhs tracks alpha^p
    V0 = hill.cosine(1.0, 2 * np.pi)
    I = bandset.close_with_ray(hill.band_edges_report(V0, 10.0)[0])
    length = 12 * V0.period
    n = 1500
    probe = operators.discretize(0.0, 0.0, length, n)
    x = probe.grid()
    v0_samples = np.asarray(V0.evaluate(x))
    t = (x - length / 2.0) / 3.0
    base_v = np.zeros_like(t, dtype=complex)
    inside = np.abs(t) < 1.0
    base_v[inside] = 5.0j * np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    delta = operators.default_delta(probe.spacing, I)

    def run_point(alpha):
        h = operators.discretize(v0_samples, alpha * base_v, length, n)
        nb = schatten.norm_bundle(2.0, alpha * base_v, h.spacing, V0.sup_norm)
        rep = operators.spectrum_report(h, I, delta=delta)
        omega1 = operators.numerical_range_abscissa(h)
        return ltsums.lt_sum_t1(rep, ltsums.default_omega(omega1), omega1, nb)

    rows = ltsums.coupling_sweep(run_point, [1.0, 0.5, 0.25, 0.125])
    trend = ltsums.sweep_trend(rows)
    counts = [r["eigenvalue_count"] for r in rows]
    check(12, "coupling sweep lhs/alpha^p stable within factor 4",
          bool(trend["trend_ok"]) and all(c > 0 for c in counts),
          f"spread {trend['trend_spread']:.3f} over window {trend['window']}, "
          f"counts {counts}")
