"""Acceptance battery: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Budgets are wall-clock
upper bounds asserted by each test.  One numerical clause of the series
criterion is expected to fail; see test_criterion_08c for the analysis.
"""

import math
import time

import numpy as np

from holeflow import verify
from holeflow.estimates import ExpandingHolesConfig, expanding_holes_run
from holeflow.fixtures import icosphere, make_fixture, square_sheet
from holeflow.flow import DtPolicy, brakke_inequality_test, evolve
from holeflow.geom import coordinate_plane
from holeflow.iteration import (ExperimentConfig, orchestrate, partial_sum,
                                rescaled_window, series_term, tail_sum,
                                window_end, window_times)
from holeflow.kernels import make_profile
from holeflow.nucleation import nucleate
from holeflow.testfunctions import random_scalar_test
from holeflow.varifold import density_ratio, parabolic_rescale, weight_measure
from holeflow.estimates import height_excess_sq

EPS = 0.05
T_PLANE = coordinate_plane([0, 1], 3)


def report(criterion, ok, detail, elapsed, budget):
    line = (f"[acceptance] criterion {criterion}: "
            f"{'PASS' if ok else 'FAIL'} ({detail}; {elapsed:.1f}s of "
            f"{budget:.0f}s budget)")
    print(line)
    return line


def test_criterion_01_grassmann_inequalities():
    t0 = time.time()
    ok, m = verify.grassmann(10_000, seed=101)
    elapsed = time.time() - t0
    report(1, ok and elapsed < 5,
           f"worst slack {m['worst']:.2e} over 10^4 pairs", elapsed, 5)
    assert ok, m
    assert elapsed < 5.0


def test_criterion_02_heat_kernel_identity():
    t0 = time.time()
    ok, m = verify.heat(500, seed=202)
    elapsed = time.time() - t0
    report(2, ok and elapsed < 5,
           f"worst relative residual {m['worst']:.2e} over 10^3 tuples",
           elapsed, 5)
    assert ok, m
    assert elapsed < 5.0


def test_criterion_03_squash_map():
    t0 = time.time()
    ok, m = verify.squash(100_000, seed=303, delta=0.2)
    elapsed = time.time() - t0
    report(3, ok and elapsed < 10,
           f"Lipschitz {m['lipschitz']:.9f}, idempotent {m['idempotent']}, "
           f"normal shrinks {m['shrinks']}", elapsed, 10)
    assert ok, m
    assert elapsed < 10.0


def test_criterion_04_nucleation_properties():
    t0 = time.time()
    ok, m = verify.nucleation(5, EPS, delta=0.2, q=2, alpha=0.51, r0=0.1)
    elapsed = time.time() - t0
    report(4, ok and elapsed < 30,
           f"local bitwise {m['prop1_local']}, envelope excess "
           f"{m['prop3_excess']:.1e}, coarse mass at {m['coarse_slack']:.2f} "
           f"of bound, hole mass {m['prop5_mass']:.6f} <= "
           f"{m['hole_bound']:.6f}", elapsed, 30)
    assert ok, m
    assert elapsed < 30.0


def test_criterion_05_shrinking_sphere_oracle():
    t0 = time.time()
    ok, m = verify.sphere(4, c_stab=DtPolicy().c_stab)
    elapsed = time.time() - t0
    report(5, ok and elapsed < 120, f"worst r^2 error {m['r2_error']:.2e}, "
                                    f"ledger gap {m['ledger_gap']:.2e}",
           elapsed, 120)
    assert ok, m
    assert elapsed < 120.0


def test_criterion_06_flow_inequality_tester():
    t0 = time.time()
    rng = np.random.default_rng(606)
    sheet = square_sheet(4.0, 4)
    t_end = 0.02
    traj = evolve(sheet, t_end, snapshot_times=np.linspace(0, t_end, 5))
    worst_plane = 0.0
    for _ in range(20):
        phi = random_scalar_test(rng, 3, span=(0.0, t_end), radius=1.8)
        slack = brakke_inequality_test(traj, phi, 0.0, t_end)
        scale = max(weight_measure(sheet, lambda p: phi.value_fn(p, 0.0)), 1e-9)
        worst_plane = min(worst_plane, slack / scale)

    s = icosphere(4)
    te = 0.12
    traj_s = evolve(s, te, snapshot_times=np.linspace(0, te, 25))
    prof = make_profile(0.3)

    class Plateau:
        def value_fn(self, p, t):
            return prof.value(np.linalg.norm(p, axis=1) / 3.0)

        def gradient_fn(self, p, t):
            r = np.linalg.norm(p, axis=1)
            out = np.zeros_like(p)
            nz = r > 0
            out[nz] = (prof.d1(r[nz] / 3.0) / (3.0 * r[nz]))[:, None] * p[nz]
            return out

        def time_derivative_fn(self, p, t):
            return np.zeros(len(p))

    slack_sphere = brakke_inequality_test(traj_s, Plateau(), 0.0, te)
    rel_sphere = abs(slack_sphere) / s.total_mass()
    elapsed = time.time() - t0
    ok = worst_plane >= -1e-10 and rel_sphere <= 0.05 and elapsed < 120
    report(6, ok, f"constant-flow worst slack {worst_plane:.2e}, "
                  f"sphere |slack| {rel_sphere:.2e} of initial mass",
           elapsed, 120)
    assert worst_plane >= -1e-10
    assert rel_sphere <= 0.05
    assert elapsed < 120.0


def _expansion_window(level):
    cfg = ExpandingHolesConfig(t_plane=T_PLANE, profile=make_profile(0.1),
                               subdiv=3)
    v0 = make_fixture("perturbed_stack", 2, level, radius=4 * EPS,
                      spacing=0.06)
    va = nucleate(v0, T_PLANE, EPS)
    traj = evolve(va, window_end(EPS, 1), DtPolicy(),
                  snapshot_times=window_times(EPS, 1))
    return expanding_holes_run(rescaled_window(traj, EPS, 1), cfg)


def test_criterion_07_expanding_holes_window():
    # The measured window gain vanishes at desk scale, so the fitted
    # constant is compared across refinements on the absolute scale of the
    # monotonicity bound (floor 1.0): near-zero values must stay near-zero.
    t0 = time.time()
    rep4 = _expansion_window(4)
    rep5 = _expansion_window(5)
    diss_ok = rep4.dissipation_ok and rep5.dissipation_ok
    m4, m5 = rep4.empirical_M, rep5.empirical_M
    stable = (m4 is not None and m5 is not None
              and abs(m4 - m5) <= 0.2 * max(abs(m4), abs(m5), 1.0))
    elapsed = time.time() - t0
    ok = diss_ok and stable and elapsed < 600
    report(7, ok, f"dissipation pass {diss_ok}, M level4 {m4:.4f} vs "
                  f"level5 {m5:.4f}", elapsed, 600)
    assert diss_ok
    assert stable
    assert elapsed < 600.0


def test_criterion_08ab_series_tails_and_asymptotics():
    t0 = time.time()
    tails = {a: tail_sum(10, a, 2) for a in (0.51, 0.6, 0.75, 1.0)}
    finite = all(np.isfinite(v) and v > 0 for v in tails.values())
    decreasing = all(tail_sum(k + 5, a, 2) < tails[a]
                     for k, a in [(10, 0.6), (10, 1.0)])
    ratio = series_term(10**5, 0.51, 2) * (10**5) ** 1.02 / math.log(10**5) ** 4
    limit = (2.0 / math.log(2.0)) ** 1.02
    asym = abs(ratio / limit - 1.0)
    elapsed = time.time() - t0
    ok = finite and decreasing and asym <= 0.05 and elapsed < 60
    report("8ab", ok, f"tails finite/decreasing {finite}/{decreasing}, "
                      f"asymptotic deviation {asym:.3f}", elapsed, 60)
    assert finite and decreasing
    assert asym <= 0.05
    assert elapsed < 60.0


def test_criterion_08c_divergence_evidence_factor():
    """Known-failing clause, kept faithful to its stated magnitude.

    The clause requires the critical-exponent partial sum over q <= 10^7 to
    exceed ten times the supercritical series total.  With the implemented
    term (which matches the 50-digit oracle to 1e-12), the partial sum is
    ~7.6e5 while the alpha = 0.51 total is ~2.2e10: the required factor of
    10 is off by about five orders of magnitude, because the supercritical
    series is astronomically large (its mass sits near q ~ e^200).  The
    assertion is intentionally left exact rather than loosened.
    """
    t0 = time.time()
    critical_partial = partial_sum(3, 10**7, 0.5, 2)
    supercritical_total = tail_sum(3, 0.51, 2)
    factor = critical_partial / supercritical_total
    elapsed = time.time() - t0
    report("8c", factor >= 10.0,
           f"partial(alpha=1/2, q<=1e7) = {critical_partial:.4g}, "
           f"total(alpha=0.51) = {supercritical_total:.4g}, factor "
           f"{factor:.3g} (required >= 10)", elapsed, 60)
    assert factor >= 10.0, (
        "divergence-evidence clause unattainable: factor "
        f"{factor:.3g} vs required 10; the supercritical total is "
        f"{supercritical_total:.3g} (see docstring)")


def test_criterion_09_reference_experiment():
    t0 = time.time()
    cfg = ExperimentConfig(eps=EPS, j=2, q=2, mesh_level=5, spacing=0.0)
    first = orchestrate(cfg)
    second = orchestrate(cfg)
    drop_ok = first.mass_final <= first.mass_initial - first.mass_drop_required
    deterministic = (first.mass_final == second.mass_final
                     and first.lef2_lhs == second.lef2_lhs
                     and all(a["ratio_after"] == b["ratio_after"]
                             for a, b in zip(first.rows, second.rows)))
    elapsed = time.time() - t0
    ok = (drop_ok and first.lef2_ok and first.passes and deterministic
          and elapsed < 1200)
    report(9, ok, f"mass {first.mass_initial:.6f} -> {first.mass_final:.6f} "
                  f"(required drop {first.mass_drop_required:.6f}), strict "
                  f"weighted drop {first.lef2_lhs:.6f} < {first.lef2_rhs:.6f},"
                  f" deterministic {deterministic}", elapsed, 1200)
    assert drop_ok
    assert first.lef2_ok
    assert first.passes
    assert deterministic
    assert elapsed < 1200.0


def test_criterion_10_scale_covariance():
    t0 = time.time()
    stack = make_fixture("flat_stack", 2, 4, radius=0.2, spacing=0.013)
    worst = 0.0
    for lam, big_r in [(2.0, 0.0753), (3.7, 0.0611), (0.5, 0.1523)]:
        a = height_excess_sq(parabolic_rescale(stack, lam), T_PLANE, big_r)
        b = height_excess_sq(stack, T_PLANE, lam * big_r) / lam**4
        worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
        da = density_ratio(parabolic_rescale(stack, lam), np.zeros(3), big_r)
        db = density_ratio(stack, np.zeros(3), lam * big_r)
        worst = max(worst, abs(da - db) / db)
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 10
    report(10, ok, f"worst covariance deviation {worst:.2e}", elapsed, 10)
    assert worst <= 1e-10
    assert elapsed < 10.0
