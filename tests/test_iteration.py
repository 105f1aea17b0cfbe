import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from holeflow.fixtures import make_fixture
from holeflow.iteration import (ExperimentConfig, am1_holds, am2_holds,
                                build_schedule, choose_tail_start,
                                density_floor_check, empty_spot_scale_log,
                                orchestrate, partial_sum, series_term,
                                tail_sum, _analytic_excess_bound,
                                _tail_integral)
from holeflow.varifold import DiscreteVarifold

ROOT = Path(__file__).resolve().parents[1]


def series_term_oracle(q, alpha, n):
    """50-digit evaluation of the error-series term."""
    with mp.workdps(50):
        lq = mp.log(q)
        inner = (q - 1) / mp.mpf(2) * mp.log(2) - mp.log(lq)
        val = lq ** (n + 2) * inner ** (-2 * alpha) \
            + lq ** (n + 2) * mp.e ** (-((lq - 1) ** 2) / 8)
        return float(val)


class TestSeriesTerm:
    @pytest.mark.parametrize("q", [3, 15, 100, 10**4, 10**6, 10**8])
    def test_matches_extended_precision(self, q):
        got = series_term(q, 0.51, 2)
        assert got == pytest.approx(series_term_oracle(q, 0.51, 2), rel=1e-12)

    def test_both_terms_finite_at_q15(self):
        # q = 15 ~ e^e: log log q crosses 1
        val = series_term(15, 0.51, 2)
        assert np.isfinite(val) and val > 0

    def test_second_term_negligible_at_large_q(self):
        q = 10**6
        lq = math.log(q)
        second = lq**4 * math.exp(-((lq - 1) ** 2) / 8)
        first = series_term(q, 0.51, 2) - second
        assert second < first * 1e-3

    def test_asymptotic_ratio(self):
        # a_q^2 q^(2 alpha) / log^(n+2) q  ->  (2 / log 2)^(2 alpha)
        q = 10**5
        ratio = series_term(q, 0.51, 2) * q**1.02 / math.log(q) ** 4
        limit = (2.0 / math.log(2.0)) ** 1.02
        assert ratio == pytest.approx(limit, rel=0.05)

    def test_domain_guard(self):
        with pytest.raises(ValueError, match="formula domain"):
            series_term(2, 0.51, 2)

    def test_no_overflow_at_huge_q(self):
        assert np.isfinite(series_term(10**9, 0.51, 2))

    def test_log_base_switch(self):
        nat = series_term(100, 0.51, 2, log_base=math.e)
        two = series_term(100, 0.51, 2, log_base=2.0)
        assert nat != two and np.isfinite(two)


def tail_integral_oracle(cuts, alpha, n, log_base, dps=30):
    """30-digit integral_q^inf a_x^2 dx (u = log x) for each increasing cut.

    The last tail is one ``mp.quad`` to infinity; each earlier one adds the
    integral over [log q_i, log q_(i+1)] to the tail after it.
    """
    with mp.workdps(dps):
        lb = mp.mpf(math.log(log_base))
        half_ln2 = mp.log(2) / 2
        power = -2 * mp.mpf(alpha)

        def integrand(u):
            lq = u / lb
            inner = ((mp.exp(u) - 1) * half_ln2 - mp.log(lq)) / lb
            gauss = mp.exp(-((lq - 1) ** 2) / 8)
            return lq ** (n + 2) * (inner ** power + gauss) * mp.exp(u)

        us = [mp.log(q) for q in cuts]
        last = us[-1]
        tails = [mp.quad(integrand, [last, last + 2, last + 20, last + 200,
                                     mp.inf])]
        for a, b in zip(us[-2::-1], us[:0:-1]):
            pts = [a] + [x for x in (a + 2, a + 20) if x < b] + [b]
            tails.append(tails[-1] + mp.quad(integrand, pts))
        return [float(t) for t in tails[::-1]]


class TestTailIntegral:
    CUTS = (3, 37, 4096, 10**7, 10**9)

    @pytest.mark.parametrize("log_base", [math.e, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.51, 0.6, 0.75, 1.0, 1.5])
    def test_matches_extended_precision(self, alpha, n, log_base):
        oracle = tail_integral_oracle(self.CUTS, alpha, n, log_base)
        for q, want in zip(self.CUTS, oracle):
            got = _tail_integral(q, alpha, n, log_base)
            assert got == pytest.approx(want, rel=1e-12), q


class TestTailSum:
    def test_finite_and_decreasing_in_start(self):
        vals = [tail_sum(k, 0.75, 2) for k in (10, 11, 20, 50)]
        assert all(np.isfinite(v) and v > 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_larger_alpha_smaller_tail(self):
        assert tail_sum(10, 0.75, 2) < tail_sum(10, 0.6, 2) < tail_sum(10, 0.51, 2)

    def test_consistent_with_direct_summation(self):
        # alpha = 1.5 converges fast enough for a brute-force cross-check
        direct = partial_sum(10, 2_000_000, 1.5, 2)
        assert tail_sum(10, 1.5, 2, rel_tol=1e-9) == pytest.approx(direct,
                                                                   rel=1e-4)

    def test_critical_alpha_rejected(self):
        with pytest.raises(ValueError, match="diverge"):
            tail_sum(10, 0.5, 2)

    def test_partial_sums_at_half_keep_growing(self):
        # non-convergence evidence at the critical exponent: per-decade
        # increments do not decay over the tested range
        incs = [partial_sum(10**d, 10**(d + 1), 0.5, 2) for d in (2, 4, 6)]
        assert incs[0] < incs[1] < incs[2]


def _assert_certified_match_baseline(monkeypatch, name):
    """A benchmark workload's certified numbers on seeds 0 and 1 equal
    those recorded in perfbench/baseline.json to 1e-12 relative."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    wl = workloads.WORKLOADS[name]
    for seed in (0, 1):
        res = wl.call(wl.setup(seed))
        assert wl.failures(res) == []
        got = wl.certified(res)
        want = baseline["certified"][name][str(seed)]
        assert got.keys() == want.keys()
        for key, value in want.items():
            if value is None or key.endswith("k_unit"):
                assert got[key] == value, key
            else:
                assert got[key] == pytest.approx(value, rel=1e-12), key


def test_series_certified_numbers_match_baseline(monkeypatch):
    # the float64 tail reproduces the benchmark's recorded series numbers
    _assert_certified_match_baseline(monkeypatch, "series")


def test_reference_certified_numbers_match_baseline(monkeypatch):
    # the reference experiment (flow, window and density sweep at mesh
    # level 4) reproduces the benchmark's recorded numbers
    _assert_certified_match_baseline(monkeypatch, "reference_l4")


def test_series_runtime_does_not_import_mpmath():
    code = (
        "import sys, holeflow\n"
        "from holeflow.iteration import (build_schedule, choose_tail_start,\n"
        "                                empty_spot_scale_log, tail_sum)\n"
        "tail_sum(10, 0.75, 2)\n"
        "choose_tail_start(1.0, 2, 1.0, 0.1, empty_spot_scale_log(2, 0.1, 1.0),"
        " 1.0)\n"
        "build_schedule(200, 140, 1.0, 2, 0.1)\n"
        "if 'mpmath' in sys.modules:\n"
        "    sys.exit('mpmath imported')\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestConditionsAndScale:
    def test_empty_spot_scale_matches_closed_form(self):
        for alpha in (0.51, 0.75, 1.0):
            d1 = 18.0 / (math.sqrt(2.0) - 1.0)
            closed = -max(d1 ** (1.0 / alpha) + math.log(d1),
                          math.log((math.sqrt(2.0) + 2.0 * d1) / 0.1))
            got = empty_spot_scale_log(2, 0.1, alpha)
            assert got == pytest.approx(closed, abs=1e-6)

    def test_slow_growth_scale_underflows_doubles(self):
        # for alpha near 1/2 the admissible scale is ~ e^-1632: only its log
        # is representable
        log_r1 = empty_spot_scale_log(2, 0.1, 0.51)
        assert log_r1 < -1600
        assert math.exp(max(log_r1, -746)) == 0.0 or log_r1 < -746

    def test_admissibility_conditions(self):
        assert am1_holds(20, 0.1)
        assert not am1_holds(3, 0.1)
        assert am2_holds(200, -47.0)
        assert not am2_holds(100, -47.0)

    def test_choose_tail_start_condition_driven(self):
        log_r1 = empty_spot_scale_log(2, 0.1, 1.0)
        k = choose_tail_start(1.0, 2, 1e12, 0.1, log_r1, 1.0)
        assert k is not None
        assert am1_holds(k, 0.1) and am2_holds(k, log_r1)
        assert not (am1_holds(k - 1, 0.1) and am2_holds(k - 1, log_r1))

    def test_choose_tail_start_budget_driven(self):
        log_r1 = empty_spot_scale_log(2, 0.1, 1.0)
        k = choose_tail_start(1.0, 2, 1000.0, 0.1, log_r1, 1.0)
        assert k is not None
        assert tail_sum(k, 1.0, 2) <= 1000.0 < tail_sum(k - 1, 1.0, 2)

    def test_choose_tail_start_infeasible(self):
        log_r1 = empty_spot_scale_log(2, 0.1, 0.51)
        assert choose_tail_start(0.51, 2, 1.0, 0.1, log_r1, 1.0) is None


class TestSchedule:
    def test_window_scales_formula(self):
        s = build_schedule(200, 140, 1.0, 2, 0.1)
        for h, val in enumerate(s.window_scales, start=1):
            assert val == pytest.approx(math.log(200 - h), rel=1e-15)
        assert s.eps == pytest.approx(2.0 ** (-100.0))
        assert len(s.terms) == 60
        assert s.conditions_ok and not s.failed_conditions

    def test_schedule_detects_failed_conditions(self):
        s = build_schedule(200, 50, 0.51, 2, 0.1)
        assert not s.conditions_ok
        assert s.failed_conditions  # every q fails the empty-spot condition

    def test_json_dict_underflow_safe(self):
        s = build_schedule(200, 50, 0.51, 2, 0.1)
        d = s.to_json_dict()
        assert d["r1"] == 0.0 and d["log_r1"] < -1600


class TestDensityFloor:
    def test_stack_passes(self, t_plane, profile_01, stack_q2_level5):
        ok, ratio = density_floor_check(stack_q2_level5, profile_01, t_plane,
                                        0.1, 2)
        assert ok
        assert ratio == pytest.approx(2.0 * 0.845, rel=0.05)  # chi^2 factor
        assert ratio >= 1.5

    def test_single_plane_degenerate_threshold(self, t_plane, profile_01):
        v = make_fixture("flat_stack", 1, 4, radius=0.4)
        ok, ratio = density_floor_check(v, profile_01, t_plane, 0.1, 1)
        assert ratio < 1.0 and not ok

    def test_sheet_on_slab_boundary_counts(self, t_plane, profile_01):
        # the slab {|T_perp| <= sqrt(2) r} is closed: a sheet lifted to
        # height exactly sqrt(2) r weighs what the sheet in T does
        v = make_fixture("flat_stack", 1, 4, radius=0.4)
        lifted = v.with_vertices(v.vertices
                                 + [0.0, 0.0, math.sqrt(2.0) * 0.1])
        _, in_plane = density_floor_check(v, profile_01, t_plane, 0.1, 1)
        _, on_edge = density_floor_check(lifted, profile_01, t_plane, 0.1, 1)
        assert on_edge == in_plane

    def test_empty_varifold(self, t_plane, profile_01):
        empty = DiscreteVarifold(np.zeros((0, 3)),
                                 np.zeros((0, 3), dtype=np.int64),
                                 np.zeros(0, dtype=np.int64),
                                 np.zeros(0, dtype=bool))
        ok, ratio = density_floor_check(empty, profile_01, t_plane, 0.1, 2)
        assert not ok and ratio == 0.0


class TestOrchestrate:
    def test_excess_bound_follows_the_surface_dimension(self):
        # the bound carries L^(n + 2), so a curve's bound and a surface's
        # differ by one factor of L; at eps = 1e-4 the window-scale
        # condition holds (r0 / (2 lambda_1) = 500 > 2), L = log(1 / eps)
        cfg = ExperimentConfig(eps=1e-4)
        b1, b2 = (_analytic_excess_bound(cfg, 1, 1.0, n) for n in (1, 2))
        assert math.isfinite(b1) and math.isfinite(b2)
        assert b2 == pytest.approx(b1 * math.log(1e4), rel=1e-14)
        assert math.isnan(_analytic_excess_bound(ExperimentConfig(), 1, 1.0,
                                                 1))

    def test_scale_covariance_of_ratio_sequence(self):
        # running the pipeline on a 2x parabolically rescaled fixture with
        # eps scaled alongside reproduces the density-ratio sequence; for a
        # power-of-two factor the correspondence is exact in floats
        from holeflow.varifold import parabolic_rescale

        base = ExperimentConfig(eps=0.05, j=1, mesh_level=4, spacing=0.0)
        res_a = orchestrate(base)
        v0 = make_fixture(base.kind, base.q, base.mesh_level,
                          radius=base.fixture_radius(), spacing=base.spacing)
        lam = 0.5  # rescale y -> y / lam doubles all lengths
        scaled_cfg = ExperimentConfig(eps=base.eps / lam, j=1, mesh_level=4,
                                      spacing=0.0, r0=base.r0 / lam)
        res_b = orchestrate(scaled_cfg, v0=parabolic_rescale(v0, lam))
        for ra, rb in zip(res_a.rows, res_b.rows):
            assert rb["ratio_before"] == pytest.approx(ra["ratio_before"],
                                                       rel=1e-12)
            assert rb["ratio_after"] == pytest.approx(ra["ratio_after"],
                                                      rel=1e-12)

    def test_window_past_the_fixed_boundary_refused(self, monkeypatch):
        # window 5's cylinder, radius sqrt(2) lambda_5 = 4 sqrt(2) eps,
        # reaches past the fixture's rim at 4 eps: refused before any
        # surgery or flow
        from holeflow import iteration

        def never(*args, **kwargs):
            raise AssertionError("ran past the refusal")

        monkeypatch.setattr(iteration, "nucleate", never)
        monkeypatch.setattr(iteration, "evolve", never)
        with pytest.raises(ValueError, match="past the fixed boundary"):
            orchestrate(ExperimentConfig(j=5, mesh_level=4))

    def test_window_ending_on_the_rim_runs(self):
        # window 4's end cylinder, sqrt(2) lambda_4 = 4 eps, meets the rim
        # to within roundoff, so it is admitted
        res = orchestrate(ExperimentConfig(j=4, mesh_level=3))
        assert [row["h"] for row in res.rows] == [1, 2, 3, 4]

    def test_envelope_precheck_refusal(self):
        cfg = ExperimentConfig(eps=0.05, j=1, mesh_level=4,
                               kind="perturbed_stack", spacing=4.0)
        with pytest.raises(ValueError, match="envelope"):
            orchestrate(cfg)

    def test_j_zero_reduces_to_nucleation(self):
        cfg = ExperimentConfig(eps=0.05, j=0, mesh_level=4, spacing=0.0)
        res = orchestrate(cfg)
        assert res.rows == []
        assert res.mass_after_nucleation < res.mass_initial
        drop = res.mass_initial - res.mass_after_nucleation
        assert drop == pytest.approx(np.pi * 0.05**2, rel=0.05)
