import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holeflow import verify
from holeflow.geom import coordinate_plane
from holeflow.kernels import (RHO_SAFETY, HeatKernel, cylindrical_cutoff,
                              cylindrical_cutoff_gradient,
                              heat_identity_residual, make_profile,
                              radial_cutoff)

# rho for the default transition width, pinned as a regression value
# (dense-sampling estimate of |chi'| + 2 max(|chi''|, |chi'|/r), x1.01)
RHO_ZETA_01 = 1995.7295


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


class TestProfile:
    def test_endpoint_values(self):
        prof = make_profile(0.1)
        assert prof.value(np.array([0.0]))[0] == 1.0
        assert prof.value(np.array([1.5]))[0] == 0.0
        assert prof.value(np.array([0.89]))[0] == 1.0

    def test_rho_regression_value(self):
        prof = make_profile(0.1)
        assert prof.rho == pytest.approx(RHO_ZETA_01, rel=1e-4)

    def test_profile_built_once_per_zeta(self):
        assert make_profile(0.1) is make_profile(0.1)
        assert make_profile(0.2) is not make_profile(0.1)

    def test_rho_from_independent_sampling(self):
        # finite-difference resampling of the defining sup
        prof = make_profile(0.2)
        r = np.linspace(0.8, 1.0, 30_001)[1:-1]
        d1 = np.abs(central_diff(lambda x: prof.value(x), r, 1e-7))
        d2 = np.abs(central_diff(lambda x: prof.d1(x), r, 1e-7))
        hess = np.maximum(d2, d1 / r)
        est = float(np.max(d1 + 2 * hess))
        assert est <= prof.rho <= est * 1.03

    def test_shape_invariants_sampled(self):
        ok, m = verify.profile(10_000, zeta=0.1)
        assert ok, m

    def test_c2_by_finite_differences(self):
        prof = make_profile(0.15)
        r = np.linspace(0.7, 1.05, 500)
        fd1 = central_diff(lambda x: prof.value(x), r)
        assert np.max(np.abs(fd1 - prof.d1(r))) <= 1e-5
        fd2 = central_diff(lambda x: prof.d1(x), r)
        assert np.max(np.abs(fd2 - prof.d2(r))) <= 1e-3 * max(1, np.abs(prof.d2(r)).max())

    def test_gradient_bound_inequality(self):
        # |grad chi|^2 / chi <= 2 sup ||D^2 chi|| <= rho where chi > 0
        prof = make_profile(0.1)
        r = np.linspace(1e-4, 1.0, 10_000)
        vals = prof.value(r)
        keep = vals > 1e-9
        ratio = prof.d1(r[keep]) ** 2 / vals[keep]
        hess_sup = float(np.max(np.maximum(np.abs(prof.d2(r)),
                                           np.abs(prof.d1(r)) / r)))
        assert np.max(ratio) <= 2 * hess_sup * (1 + 1e-9)
        assert 2 * hess_sup <= prof.rho * (1 + 1e-9)

    @pytest.mark.parametrize("zeta", [-0.1, 0.0, 0.5, 0.9])
    def test_rejects_bad_zeta(self, zeta):
        with pytest.raises(ValueError):
            make_profile(zeta)


def separate_profile(zeta):
    """value, d1 and d2 of the cutoff profile, each from its own formula
    with its own exponentials: the evaluation the joint one replaced."""
    def bump(s, k):
        out = np.zeros_like(s)
        pos = s > 0
        sp = s[pos]
        with np.errstate(under="ignore"):
            out[pos] = [np.exp(-1.0 / sp), np.exp(-1.0 / sp) / sp**2,
                        np.exp(-1.0 / sp) * (1.0 / sp**4 - 2.0 / sp**3)][k]
        return out

    def step(u, k):
        n, np_, npp = bump(1.0 - u, 0), -bump(1.0 - u, 1), bump(1.0 - u, 2)
        d = bump(u, 0) + n
        dp, dpp = bump(u, 1) + np_, bump(u, 2) + npp
        return [n / d, (np_ * d - n * dp) / d**2,
                npp / d - 2 * np_ * dp / d**2 - n * dpp / d**2
                + 2 * n * dp**2 / d**3][k]

    def chi(r, k):
        out = np.zeros_like(r) if k else np.ones_like(r)
        if k == 0:
            out[r >= 1.0] = 0.0
        band = (r > 1.0 - zeta) & (r < 1.0)
        out[band] = step((r[band] - (1.0 - zeta)) / zeta, k) / zeta**k
        return out

    return chi


@pytest.mark.parametrize("zeta", [0.1, 0.25, 0.3, 0.45])
def test_joint_profile_equals_separate_formulas_bitwise(zeta):
    prof = make_profile(zeta)
    edges = []
    for x in (1.0 - zeta, 1.0):
        below = above = x
        for _ in range(4):  # the edge and four floats on either side
            below, above = np.nextafter(below, -1.0), np.nextafter(above, 2.0)
            edges += [below, above]
        edges.append(x)
    r = np.concatenate([np.linspace(-0.1, 1.1, 120_001), edges])
    chi = separate_profile(zeta)
    want = [chi(r, k) for k in range(3)]
    for order in range(3):
        got = prof.jet(r, order)
        assert len(got) == order + 1
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.int64), w.view(np.int64))
    for g, w in zip((prof.value(r), prof.d1(r), prof.d2(r)), want):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))
    # rho from the separate formulas over make_profile's samples
    rs = np.linspace(1.0 - zeta, 1.0, 100_000)[1:-1]
    d1 = np.abs(chi(rs, 1))
    hess = np.maximum(np.abs(chi(rs, 2)), d1 / rs)
    assert prof.rho == RHO_SAFETY * float(np.max(d1 + 2.0 * hess))


class TestCylindricalCutoff:
    def test_plateau_and_support(self, t_plane, profile_01):
        x_in = np.array([[0.4, 0.3, 9.0]])      # |T x| = 0.5 <= 0.9 R
        x_out = np.array([[1.2, 0.0, -3.0]])
        assert cylindrical_cutoff(profile_01, t_plane, 1.0, x_in)[0] == 1.0
        assert cylindrical_cutoff(profile_01, t_plane, 1.0, x_out)[0] == 0.0

    def test_radial_cutoff_at_the_origin(self, profile_01):
        # chi = 1 and grad chi = 0 exactly where y = 0, beside a point of
        # the transition band
        y = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [0.57, 0.0, 0.76]])
        s, chi, grad = radial_cutoff(profile_01, y, 1.0)
        assert s[:2].tolist() == [0.0, 0.0] and 0.9 < s[2] < 1.0
        assert chi[:2].tolist() == [1.0, 1.0] and 0.0 < chi[2] < 1.0
        assert np.all(grad[:2] == 0.0) and np.all(grad[2, [0, 2]] < 0.0)

    def test_gradient_lies_in_plane(self, t_plane, profile_01, rng):
        pts = rng.uniform(-1.2, 1.2, size=(200, 3))
        g = cylindrical_cutoff_gradient(profile_01, t_plane, 1.0, pts)
        assert np.max(np.abs(t_plane.apply_perp(g))) <= 1e-10

    def test_gradient_matches_finite_differences(self, t_plane, profile_01, rng):
        pts = rng.uniform(0.9, 1.0, size=(50, 1)) * np.column_stack(
            [np.ones(50), np.zeros(50), rng.standard_normal(50)])
        g = cylindrical_cutoff_gradient(profile_01, t_plane, 1.0, pts)
        h = 1e-7
        for k in range(3):
            shift = np.zeros(3)
            shift[k] = h
            fd = (cylindrical_cutoff(profile_01, t_plane, 1.0, pts + shift)
                  - cylindrical_cutoff(profile_01, t_plane, 1.0, pts - shift)) / (2 * h)
            assert np.max(np.abs(fd - g[:, k])) <= 1e-5


class TestHeatKernel:
    def test_center_value(self):
        k = HeatKernel(k=2, center=np.zeros(3), final_time=2.0)
        assert k.value(np.zeros(3), 0.0) == pytest.approx(1.0 / (8 * np.pi))

    def test_on_center_any_time(self, rng):
        y = rng.standard_normal(3)
        for kk in (1, 2):
            kern = HeatKernel(k=kk, center=y, final_time=2.0)
            for t in (0.0, 1.0, 1.9):
                assert kern.value(y, t) == pytest.approx(
                    (4 * np.pi * (2.0 - t)) ** (-kk / 2))

    def test_requires_time_before_final(self):
        kern = HeatKernel(k=2, center=np.zeros(3), final_time=1.0)
        with pytest.raises(ValueError):
            kern.value(np.zeros(3), 1.0)

    def test_gradient_matches_finite_differences(self, rng):
        kern = HeatKernel(k=2, center=np.zeros(3), final_time=2.0)
        for _ in range(20):
            x = rng.standard_normal(3)
            t = rng.uniform(0, 1.8)
            g = kern.gradient(x, t)
            for kk in range(3):
                shift = np.zeros(3)
                shift[kk] = 1e-6
                fd = (kern.value(x + shift, t) - kern.value(x - shift, t)) / 2e-6
                assert abs(fd - g[kk]) <= 1e-6 * max(1.0, abs(g[kk]))

    def test_time_derivative_matches_finite_differences(self, rng):
        kern = HeatKernel(k=1, center=np.zeros(3), final_time=2.0)
        for _ in range(20):
            x = rng.standard_normal(3)
            t = rng.uniform(0, 1.5)
            fd = (kern.value(x, t + 1e-6) - kern.value(x, t - 1e-6)) / 2e-6
            assert abs(fd - kern.time_derivative(x, t)) <= 1e-5

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31 - 1))
    def test_identity_residual_vanishes(self, seed):
        ok, m = verify.heat(1, seed)
        assert ok, m

    def test_identity_residual_at_center(self):
        kern = HeatKernel(k=2, center=np.zeros(3), final_time=2.0)
        s = coordinate_plane([0, 1], 3)
        res = heat_identity_residual(kern, np.zeros(3), 0.5, s)
        assert abs(float(res)) <= 1e-14

    def test_underflow_skip_flag(self):
        kern = HeatKernel(k=2, center=np.zeros(3), final_time=2.0)
        s = coordinate_plane([0, 1], 3)
        res = heat_identity_residual(kern, np.full(3, 100.0), 1.999, s)
        assert res is None
