import math
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from holeflow.estimates import (ExpandingHolesConfig, _faces_reaching,
                                dissipation_check, expanding_holes_run,
                                gaussian_density_sup, height_excess_sq,
                                curvature_l2_sq, l2_height_bound_check,
                                slab_mass, slab_weighted_mass)
from holeflow.fixtures import icosphere, make_fixture, square_sheet
from holeflow.flow import DtPolicy, FlowTrajectory, evolve
from holeflow.geom import coordinate_plane, random_plane
from holeflow.kernels import (cylindrical_cutoff, cylindrical_cutoff_gradient,
                              make_profile)
from holeflow.nucleation import nucleate
from holeflow.quadrature import simplex_rule
from holeflow import varifold
from holeflow.testfunctions import bump_test_field
from holeflow.varifold import (QUAD_ORDER, DiscreteVarifold, _quad_sums,
                               _row_max, compact, density_ratio,
                               first_variation, mean_curvature,
                               parabolic_rescale, weight_measure,
                               weighted_first_variation,
                               weighted_first_variation_perp)

EPS = 0.05


def static_trajectory(v, times=(0.0, 0.5, 1.0)):
    return FlowTrajectory(times=list(times), snapshots=[v] * len(times),
                          cumulative_dissipation=[0.0] * len(times),
                          ledger=[], policy=DtPolicy())


@pytest.fixture(scope="module")
def window_cfg():
    return ExpandingHolesConfig(t_plane=coordinate_plane([0, 1], 3),
                                profile=make_profile(0.1))


class TestHeightExcess:
    def test_surface_in_plane(self, t_plane, flat_square):
        assert height_excess_sq(flat_square, t_plane, 0.5) == 0.0

    def test_single_sheet_at_height(self, t_plane):
        c = 0.3
        sheet = square_sheet(4.0, 5, height=c)
        got = height_excess_sq(sheet, t_plane, 1.0)
        assert got == pytest.approx(c * c * np.pi, rel=2e-2)

    def test_two_sheets_additive(self, t_plane):
        c = 0.3
        up = square_sheet(4.0, 5, height=c)
        down = square_sheet(4.0, 5, height=-c)
        both = DiscreteVarifold(
            np.vstack([up.vertices, down.vertices]),
            np.vstack([up.faces, down.faces + up.num_vertices]),
            np.concatenate([up.multiplicity, down.multiplicity]),
            np.concatenate([up.boundary, down.boundary]))
        a = height_excess_sq(up, t_plane, 1.0)
        b = height_excess_sq(down, t_plane, 1.0)
        assert height_excess_sq(both, t_plane, 1.0) == pytest.approx(a + b,
                                                                     rel=1e-12)


class TestCurvatureEnergy:
    def test_zero_field(self, flat_square):
        h = np.zeros_like(flat_square.vertices)
        assert curvature_l2_sq(flat_square, h,
                               lambda p: np.ones(len(p))) == 0.0

    def test_sphere_inside_plateau(self, sphere4):
        from holeflow.kernels import make_profile
        prof = make_profile(0.3)
        h = mean_curvature(sphere4)
        got = curvature_l2_sq(
            sphere4, h, lambda p: prof.value(np.linalg.norm(p, axis=1) / 2.0) ** 2)
        assert got == pytest.approx(16 * np.pi, rel=0.05)

    def test_zero_weight(self, sphere4):
        h = mean_curvature(sphere4)
        assert curvature_l2_sq(sphere4, h, lambda p: np.zeros(len(p))) == 0.0


class TestDissipationCheck:
    def test_stationary_plane_in_reference(self, window_cfg):
        sheet = square_sheet(6.0, 5, height=0.0)
        chk = dissipation_check(sheet, window_cfg, 0.0)
        assert chk["mu_sq"] == 0.0 and chk["alpha_sq"] == 0.0
        assert chk["pass"]
        assert abs(chk["lhs"]) <= chk["tol"]

    def test_support_annulus_guard(self, window_cfg):
        bad = square_sheet(6.0, 4, height=1.7)  # inside (sqrt(2), 2)
        with pytest.raises(ValueError, match="forbidden annulus"):
            dissipation_check(bad, window_cfg, 0.0)

    @pytest.mark.parametrize("low,high,meets", [
        (1.0, 3.0, True),     # corners below Rhat1 and above Rhat2
        (-3.0, 3.0, True),    # corners above Rhat2 on both sides of T
        (-1.0, 1.0, False),   # crosses T below Rhat1
        (2.5, 3.0, False),    # above Rhat2
        (0.5, 1.2, False)])   # below Rhat1
    def test_support_annulus_guard_checks_faces(self, window_cfg, low, high,
                                                meets):
        # a two-triangle strip from height low to height high, normal to T:
        # no vertex lies in the annulus sqrt(2) < |T_perp x| < 2
        strip = DiscreteVarifold(
            np.array([[0.0, 0.0, low], [0.5, 0.0, low], [0.0, 0.0, high],
                      [0.5, 0.0, high]]),
            np.array([[0, 1, 2], [1, 3, 2]]), np.ones(2, dtype=int),
            np.zeros(4, dtype=bool))
        if meets:
            with pytest.raises(ValueError, match="forbidden annulus"):
                dissipation_check(strip, window_cfg, 0.0)
        else:
            dissipation_check(strip, window_cfg, 0.0)

    def test_passes_during_nucleated_flow(self, window_cfg, t_plane):
        from holeflow.nucleation import nucleate
        v0 = make_fixture("flat_stack", 2, 4, radius=4 * EPS,
                          spacing=0.02 * EPS)
        va = nucleate(v0, t_plane, EPS)
        tgrid = np.linspace(0, 1, 6) * EPS**2
        traj = evolve(va, EPS**2, snapshot_times=tgrid)
        for t in tgrid:
            v = parabolic_rescale(traj.snapshot_at(t), EPS)
            chk = dissipation_check(v, window_cfg, t / EPS**2)
            assert chk["pass"], chk


    def test_margin_is_rhs_minus_lhs(self, window_cfg, t_plane,
                                     monkeypatch):
        # margin = rhs - lhs bit for bit, and a record passes exactly when
        # margin >= -tol; a negative coefficient makes checks fail
        from holeflow import estimates
        from holeflow.nucleation import nucleate
        v0 = make_fixture("flat_stack", 2, 3, radius=4 * EPS,
                          spacing=0.02 * EPS)
        traj = evolve(nucleate(v0, t_plane, EPS), EPS**2,
                      snapshot_times=np.linspace(0, 1, 3) * EPS**2)
        snaps = [(parabolic_rescale(v, EPS), t / EPS**2)
                 for t, v in zip(traj.times, traj.snapshots)]
        records = [dissipation_check(v, window_cfg, t) for v, t in snaps]
        monkeypatch.setattr(estimates, "DISSIPATION_COEF", -1e6)
        records += [dissipation_check(v, window_cfg, t) for v, t in snaps]
        assert any(r["pass"] for r in records)
        assert not all(r["pass"] for r in records)
        for r in records:
            assert float(r["margin"]).hex() == float(r["rhs"] - r["lhs"]).hex()
            assert r["pass"] == (r["margin"] >= -r["tol"])


class TestExpandingHolesRun:
    def test_static_stack_zero_gain(self, window_cfg):
        # an exact multiplicity-2 plane inside the reference plane is
        # stationary; ratios at both window ends agree up to quadrature
        stack = make_fixture("flat_stack", 2, 5, radius=6.0, spacing=0.0)
        rep = expanding_holes_run(static_trajectory(stack), window_cfg)
        assert rep.empirical_M is None  # no normal excess anywhere
        assert rep.mu_bar_sq == 0.0
        assert (abs(rep.mass_ratio_end - rep.mass_ratio_start)
                <= 0.01 * rep.mass_ratio_start)
        assert rep.mass_ratio_start == pytest.approx(
            2.0 * slab_weighted_mass(stack, window_cfg, 0.0) / 2.0, rel=1e-12)

    def test_snapshots_keep_no_step_only_geometry(self, window_cfg, t_plane):
        # the per-corner area-gradient terms, the per-vertex area gradient
        # and the altitudes live only in the flow's step workspace: neither
        # a recorded snapshot nor a rescaled copy that the window measures
        # may keep them (they would add (nf, 3, 3), (nv, 3) and (nf,) floats
        # to every snapshot), and no snapshot shares an array with another
        v0 = make_fixture("flat_stack", 2, 3, radius=4 * EPS)
        tgrid = np.linspace(0.0, 1.0, 6) * EPS**2
        traj = evolve(nucleate(v0, t_plane, EPS), EPS**2,
                      snapshot_times=tgrid)
        rtraj = FlowTrajectory(
            times=[t / EPS**2 for t in traj.times],
            snapshots=[parabolic_rescale(v, EPS) for v in traj.snapshots],
            cumulative_dissipation=[0.0] * len(traj.times), ledger=[],
            policy=traj.policy)
        expanding_holes_run(rtraj, window_cfg)
        for v in traj.snapshots + rtraj.snapshots:
            assert "corner_gradients" not in v._cache
            assert "area_gradient" not in v._cache
            assert "altitudes" not in v._cache
        for v, w in zip(traj.snapshots, traj.snapshots[1:]):
            assert not np.shares_memory(v.vertices, w.vertices)
            assert not np.shares_memory(v.face_measures(), w.face_measures())

    def test_missing_endpoints_rejected(self, window_cfg):
        stack = make_fixture("flat_stack", 2, 4, radius=6.0, spacing=0.0)
        traj = static_trajectory(stack, times=(0.0, 0.25, 0.5))
        with pytest.raises(ValueError, match="endpoints"):
            expanding_holes_run(traj, window_cfg)


class TestL2HeightBound:
    def test_plane_in_reference(self, t_plane):
        sheet = square_sheet(4.0, 4, height=0.0)
        traj = evolve(sheet, 0.16, snapshot_times=np.linspace(0, 0.16, 5))
        chk = l2_height_bound_check(traj, t_plane, 0.4, 4.0)
        assert chk["lhs"] == 0.0 and chk["pass"]

    def test_translated_plane_closed_form(self, t_plane):
        c, big_r, big_l = 0.05, 0.4, 4.0
        sheet = square_sheet(4.0, 4, height=c)
        traj = evolve(sheet, big_r**2,
                      snapshot_times=np.linspace(0, big_r**2, 5))
        chk = l2_height_bound_check(traj, t_plane, big_r, big_l)
        lhs_exact = c * c * np.pi * (big_r**2 - c * c) / big_r**4
        assert chk["lhs"] == pytest.approx(lhs_exact, rel=0.02)
        first_exact = (math.exp(0.25) * c * c * np.pi
                       * ((big_l * big_r) ** 2 - c * c) / big_r**4)
        assert chk["first_term"] == pytest.approx(first_exact, rel=0.02)
        assert chk["pass"]

    def test_shrinking_sphere(self, t_plane):
        s = icosphere(3)
        big_r = 0.3
        traj = evolve(s, big_r**2,
                      snapshot_times=np.linspace(0, big_r**2, 7))
        chk = l2_height_bound_check(traj, t_plane, big_r, 4.0)
        assert chk["pass"]

    def test_requires_l_at_least_two(self, t_plane, flat_square):
        traj = static_trajectory(flat_square, times=(0.0, 0.01))
        with pytest.raises(ValueError):
            l2_height_bound_check(traj, t_plane, 0.1, 1.5)


class TestGaussianDensitySup:
    def test_plane_near_one(self):
        sheet = square_sheet(4.0, 5, height=0.0)
        traj = static_trajectory(sheet, times=(0.0, 0.04))
        got = gaussian_density_sup(traj, 0.2, 0.05)
        assert got == pytest.approx(1.0, rel=0.05)

    def test_stack_near_two(self):
        stack = make_fixture("flat_stack", 2, 5, radius=1.0, spacing=0.002)
        traj = static_trajectory(stack, times=(0.0, 0.04))
        got = gaussian_density_sup(traj, 0.4, 0.05)
        assert got == pytest.approx(2.0, rel=0.05)

    def test_dominates_single_density_ratio(self):
        stack = make_fixture("flat_stack", 2, 4, radius=1.0, spacing=0.002)
        traj = static_trajectory(stack, times=(0.0, 0.04))
        sup = gaussian_density_sup(traj, 0.4, 0.05)
        single = density_ratio(stack, np.zeros(3), 0.2)
        assert sup >= single - 1e-12


class TestScaleCovariance:
    def test_height_excess_scaling(self, t_plane):
        stack = make_fixture("flat_stack", 2, 4, radius=0.2,
                             spacing=0.013)
        lam = 2.0
        big_r = 0.0753
        a = height_excess_sq(parabolic_rescale(stack, lam), t_plane, big_r)
        b = height_excess_sq(stack, t_plane, lam * big_r) / lam**4
        assert a == pytest.approx(b, rel=1e-10)

    def test_density_ratio_invariance(self, t_plane):
        stack = make_fixture("flat_stack", 2, 4, radius=0.2, spacing=0.013)
        lam = 3.7
        r = 0.0611
        a = density_ratio(parabolic_rescale(stack, lam), np.zeros(3), r)
        b = density_ratio(stack, np.zeros(3), lam * r)
        assert a == pytest.approx(b, rel=1e-10)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestCulledPasses:
    """The culled one-pass integrals equal the uniform full-mesh ones."""

    @pytest.fixture(scope="class")
    def nucleated(self, t_plane):
        v0 = make_fixture("perturbed_stack", 2, 3, radius=4 * EPS,
                          spacing=0.06)
        return nucleate(v0, t_plane, EPS)

    @pytest.mark.parametrize("subdiv", [2, 3])
    def test_window_integrals_match_full_mesh(self, nucleated, t_plane,
                                              subdiv):
        v = parabolic_rescale(nucleated, EPS)
        cfg = ExpandingHolesConfig(t_plane=t_plane, profile=make_profile(0.1),
                                   subdiv=subdiv)
        h = mean_curvature(v)
        tangential = t_plane.tangential_norm(v.vertices)[v.faces]
        for t in (cfg.t1, cfg.t2):
            big_r = cfg.radius_at(t)
            # the window has faces on both sides of the cutoff edge, and
            # the cull drops some of them
            assert np.any((tangential.min(axis=1) < big_r)
                          & (tangential.max(axis=1) >= big_r))
            assert not np.all(_faces_reaching(v, t_plane.tangential_norm(
                v.vertices), big_r))

            def chi(p):
                return cylindrical_cutoff(cfg.profile, t_plane, big_r, p)

            def chi_sq(p):
                return chi(p) ** 2

            def chi_sq_grad(p):
                return 2.0 * chi(p)[:, None] * cylindrical_cutoff_gradient(
                    cfg.profile, t_plane, big_r, p)

            def slab(p):
                return chi_sq(p) * (t_plane.normal_norm(p)
                                    <= cfg.rhat1 * (1.0 + 1e-12))

            row = dissipation_check(v, cfg, t)
            ref = {"lhs": weighted_first_variation_perp(
                       v, chi_sq, chi_sq_grad, h, QUAD_ORDER, subdiv),
                   "mu_sq": height_excess_sq(v, t_plane, big_r, subdiv),
                   "alpha_sq": curvature_l2_sq(v, h, chi_sq, QUAD_ORDER,
                                               subdiv),
                   "slab_mass": weight_measure(v, slab, QUAD_ORDER,
                                               subdiv)}
            for key, want in ref.items():
                assert _rel(row[key], want) <= 1e-12, (t, key)

        rep = expanding_holes_run(static_trajectory(v, times=(0.0, 1.0)), cfg)
        assert _rel(rep.mass_ratio_start * cfg.r1**2,
                    slab_weighted_mass(v, cfg, cfg.t1)) <= 1e-12
        assert _rel(rep.mass_ratio_end * cfg.r2**2,
                    slab_weighted_mass(v, cfg, cfg.t2)) <= 1e-12

    @pytest.mark.parametrize("subdiv", [2, 3])
    def test_skipped_blocks_keep_the_bits(self, t_plane, profile_01, subdiv,
                                          monkeypatch):
        # weight_measure skips the blocks of faces that cannot reach the
        # support of its integrand.  On a level-4 stack the edge of the
        # support falls inside blocks that also hold faces out of reach, and
        # other blocks are skipped whole; the sums of ball_mass, slab_mass
        # and a weight given the mask equal those of the pass that
        # evaluates every block, bit for bit
        v = make_fixture("flat_stack", 2, 4, radius=4 * EPS)
        centre, radius = np.array([0.03, -0.02, 0.0]), 2 * EPS
        reach = _faces_reaching(v, np.linalg.norm(v.vertices - centre,
                                                  axis=1), radius)
        m = len(simplex_rule(2, QUAD_ORDER, subdiv)[1])
        step = 4 * max(1, varifold.QUAD_BLOCK_POINTS // (4 * m))
        blocks = [reach[lo:lo + step] for lo in range(0, v.num_faces, step)]
        assert any(b.any() and not b.all() for b in blocks)
        assert any(not b.any() for b in blocks[1:])

        def inside(p):
            return np.linalg.norm(p - centre, axis=1) < radius

        def weight(p):
            return np.cos(np.linalg.norm(p, axis=1)) * inside(p)

        def slab(p):
            return (cylindrical_cutoff(profile_01, t_plane, radius, p) ** 2
                    * (t_plane.normal_norm(p) <= 1.0 + 1e-12))

        placed = []
        real = DiscreteVarifold.quad_points

        def counted(mesh, *args, **kwargs):
            placed.append(1)
            return real(mesh, *args, **kwargs)

        monkeypatch.setattr(DiscreteVarifold, "quad_points", counted)
        got = {"weight": weight_measure(v, weight, subdiv=subdiv,
                                        reach=reach),
               "ball": varifold.ball_mass(v, centre, radius, subdiv),
               "slab": slab_mass(v, profile_01, t_plane, radius,
                                          1.0, subdiv)}
        skipped = len(placed)
        want = {"weight": weight_measure(v, weight, subdiv=subdiv),
                "ball": weight_measure(v, lambda p: inside(p).astype(float),
                                       subdiv=subdiv),
                "slab": weight_measure(v, slab, subdiv=subdiv)}
        assert skipped < len(placed) - skipped
        for key, x in want.items():
            assert got[key] > 0.0
            assert float(got[key]).hex() == float(x).hex(), key

    def test_cull_reads_the_cached_longest_edges(self, nucleated):
        # the cull's longest edge per face, against the corner-difference
        # formula it replaced: equal bit for bit, so the mask is unchanged
        c = nucleated.face_corners()
        rolled = np.linalg.norm(c - np.roll(c, 1, axis=1), axis=2)
        assert (_row_max(nucleated._edge_lengths()).tobytes()
                == np.max(rolled, axis=1).tobytes())

    def test_density_sup_matches_density_ratio_grid(self, nucleated):
        r0, eps = 0.1, 0.05
        traj = FlowTrajectory(times=[0.0, 0.005],
                              snapshots=[nucleated, parabolic_rescale(
                                  nucleated, 1.3)],
                              cumulative_dissipation=[0.0, 0.0], ledger=[],
                              policy=DtPolicy())
        got = gaussian_density_sup(traj, r0, eps)
        want = max(density_ratio(v, np.zeros(3), r)
                   for v in traj.snapshots
                   for r in np.geomspace(eps, r0, 12))
        assert _rel(got, want) <= 1e-12


class TestBlockedQuadrature:
    """Every quadrature integral is bitwise the same whatever the number of
    points ``_quad_sums`` places at a time, and its memory stays bounded."""

    @pytest.fixture(scope="class")
    def window_mesh(self, t_plane):
        # 741 = 4 * 185 + 1 faces: blocks of 4 and of 20 faces leave one
        # face over, blocks of 28 leave 13
        v0 = make_fixture("perturbed_stack", 2, 3, radius=4 * EPS,
                          spacing=0.06)
        v = parabolic_rescale(nucleate(v0, t_plane, EPS), EPS)
        return compact(v.vertices, v.faces[:741], v.multiplicity[:741],
                       v.boundary)

    def _integrals(self, v, t_plane):
        cfg = ExpandingHolesConfig(t_plane=t_plane, profile=make_profile(0.1),
                                   subdiv=3)
        h = mean_curvature(v)
        field = bump_test_field(np.zeros(3), 2.0, np.diag([1.0, -0.5, 2.0]),
                                np.array([0.1, 0.2, -0.3]))

        def phi(p):
            return np.exp(-np.sum(p * p, axis=1))

        def grad(p):
            return -2.0 * phi(p)[:, None] * p

        traj = FlowTrajectory(times=[0.0, 0.5], snapshots=[
            v, parabolic_rescale(v, 1.3)], cumulative_dissipation=[0.0, 0.0],
            ledger=[], policy=DtPolicy())
        out = {"weight_measure": weight_measure(v, phi, 3, 2),
               "first_variation": first_variation(v, field),
               "weighted": weighted_first_variation(v, phi, grad, h, 3, 1),
               "weighted_perp": weighted_first_variation_perp(
                   v, phi, grad, h, 3, 1),
               "curvature_l2": curvature_l2_sq(v, h, phi),
               "density_sup": gaussian_density_sup(traj, 1.0, 0.3)}
        for t in (cfg.t1, cfg.t2):
            out.update({f"{key}@{t}": x for key, x in dissipation_check(
                v, cfg, t, h).items() if isinstance(x, float)})
        return {key: x.hex() for key, x in out.items()}

    def test_block_size_does_not_change_any_bit(self, window_mesh, t_plane,
                                                monkeypatch):
        monkeypatch.setattr(varifold, "QUAD_BLOCK_POINTS", 2**40)
        one_block = self._integrals(window_mesh, t_plane)
        # 1 point: one face, rounded up to four; then 20 and 28 faces at
        # subdiv 3, 384 points per face
        for points in (1, 20 * 384, 28 * 384):
            monkeypatch.setattr(varifold, "QUAD_BLOCK_POINTS", points)
            assert self._integrals(window_mesh, t_plane) == one_block, points

    def test_every_face_sum_is_that_of_one_product(self, window_mesh,
                                                   monkeypatch):
        # one integrand per face, zero off it: a face whose rule sum moves
        # by one bit with the blocks changes its integral.  The last face is
        # the one that blocks leaving one face over would move, on about 70 %
        # of random rows, so several draws are made.
        v = window_mesh
        m = len(simplex_rule(2, 3, 1)[1])
        faces = [0, 1, 2, 3, 4, 370] + list(range(v.num_faces - 9,
                                                  v.num_faces))
        for seed in range(5):
            vals = np.random.default_rng(seed).standard_normal(
                (v.num_faces, m))

            def integrand(pts, bary, sel):
                ids = np.arange(v.num_faces)[sel]
                return [vals[sel] * (ids == f)[:, None] for f in faces]

            monkeypatch.setattr(varifold, "QUAD_BLOCK_POINTS", 2**40)
            one_block = [x.hex() for x in _quad_sums(v, 3, 1, integrand)]
            for points in (1, 20 * m, 28 * m):
                monkeypatch.setattr(varifold, "QUAD_BLOCK_POINTS", points)
                assert [x.hex() for x in _quad_sums(v, 3, 1, integrand)] \
                    == one_block, (seed, points)

    def test_subdiv5_window_pass_memory(self, t_plane):
        v0 = make_fixture("perturbed_stack", 2, 4, radius=4 * EPS,
                          spacing=0.06)
        v = parabolic_rescale(nucleate(v0, t_plane, EPS), EPS)
        cfg = ExpandingHolesConfig(t_plane=t_plane, profile=make_profile(0.1),
                                   subdiv=5)
        h = mean_curvature(v)
        tracemalloc.start()
        try:
            assert dissipation_check(v, cfg, cfg.t2, h)["pass"]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**31 - 1), st.floats(0.05, 1.0))
def test_cull_skips_only_faces_outside_the_support(seed, frac):
    """A skipped face has every quadrature point outside the cylinder or
    ball, at every rule and subdivision level."""
    rng = np.random.default_rng(seed)
    size = rng.uniform(0.01, 1.0)
    corners = size * (rng.uniform(-3.0, 3.0, 3)
                      + rng.uniform(-1.0, 1.0, (3, 3)))
    if np.linalg.norm(np.cross(corners[1] - corners[0],
                               corners[2] - corners[0])) < 1e-9:
        return
    v = DiscreteVarifold(corners, np.array([[0, 1, 2]]), np.array([1]),
                         np.zeros(3, dtype=bool))
    plane = random_plane(2, 3, rng)
    for dist in (plane.tangential_norm,
                 lambda x: np.linalg.norm(x, axis=-1)):
        # radii up to the nearest corner: some faces are skipped, some
        # straddle the boundary
        radius = frac * np.min(dist(corners))
        if _faces_reaching(v, dist(v.vertices), radius)[0]:
            continue
        for order in (1, 2, 3):
            for subdiv in range(4):
                bary, _ = simplex_rule(2, order, subdiv)
                assert np.all(dist(bary @ corners) >= radius)
