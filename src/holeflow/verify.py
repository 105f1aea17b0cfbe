"""Built-in verification suites behind the `verify` CLI command.

Each suite is a fast, deterministic (seeded) spot check of one part of the
machinery; the exhaustive versions live in the test suite.  A suite returns
(ok, detail) and the command exits nonzero when any selected suite fails.
"""

from __future__ import annotations

import math

import numpy as np

from .fixtures import icosphere, make_fixture
from .flow import DtPolicy, barrier_monitor, evolve, sphere_barrier_from_scale
from .geom import coordinate_plane, grassmann_gap, random_plane
from .iteration import FIXTURE_RADIUS_FACTOR
from .kernels import HeatKernel, heat_identity_residual, make_profile
from .nucleation import (GrowthEnvelope, SquashMap, nucleate,
                         nucleation_passes, squash_points, verify_nucleation)


def suite_grassmann(cfg) -> tuple:
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(500):
        k = int(rng.integers(1, 3))
        s = random_plane(k, 3, rng)
        t = random_plane(k, 3, rng)
        g = grassmann_gap(s, t)
        vvec = rng.standard_normal(3)
        slack = [
            -g["perp_dot"],
            g["perp_dot"] - k * g["op_norm"] ** 2,
            g["op_norm"] ** 2 - g["hs_norm_sq"],
            abs(g["hs_norm_sq"] - 2.0 * float(np.sum(t.perp * s.proj))),
            np.linalg.norm(t.apply(s.apply_perp(vvec)))
            - g["op_norm"] * np.linalg.norm(vvec),
            np.linalg.norm(t.apply(s.apply_perp(t.apply(vvec))))
            - g["op_norm"] ** 2 * np.linalg.norm(vvec),
        ]
        worst = max(worst, max(slack))
    return worst <= 1e-10, f"worst inequality slack {worst:.2e}"


def suite_profile(cfg) -> tuple:
    prof = make_profile(cfg.zeta)
    r = np.linspace(0.0, 1.5, 10_001)
    vals = prof.value(r)
    ok = bool(np.all(vals >= 0) and np.all(vals <= 1))
    ok &= bool(np.all(vals[r <= 1 - cfg.zeta] == 1.0))
    ok &= bool(np.all(vals[r >= 1.0] == 0.0))
    ok &= bool(np.all(np.diff(vals) <= 1e-12))
    band = (r > 0) & (vals > 1e-9)
    ratio = prof.d1(r[band]) ** 2 / vals[band]
    ok &= bool(np.all(ratio <= prof.rho * (1 + 1e-9)))
    return ok, f"rho={prof.rho:.4g}"


def suite_heat(cfg) -> tuple:
    rng = np.random.default_rng(cfg.seed + 1)
    worst = 0.0
    for k in (1, 2):
        kern = HeatKernel(k=k, center=np.zeros(3), final_time=2.0)
        for _ in range(200):
            x = rng.standard_normal(3)
            t = rng.uniform(0.0, 1.9)
            s = random_plane(k, 3, rng)
            res = heat_identity_residual(kern, x, t, s)
            if res is None:
                continue
            scale = (4.0 * math.pi * (2.0 - t)) ** (-k / 2.0)
            worst = max(worst, abs(float(res)) / scale)
    return worst <= 1e-8, f"worst relative residual {worst:.2e}"


def suite_squash(cfg) -> tuple:
    rng = np.random.default_rng(cfg.seed + 2)
    t_plane = coordinate_plane([0, 1], 3)
    m = SquashMap(delta=cfg.delta)
    xy = rng.uniform(-2, 2, size=(20_000, 2))
    z = rng.uniform(-1, 1, size=20_000) * cfg.delta / 2.0
    pts = np.column_stack([xy, z])
    out = squash_points(m, t_plane, pts)
    idem = squash_points(m, t_plane, out)
    ok = bool(np.all(idem == out))
    ok &= bool(np.all(np.abs(out[:, 2]) <= np.abs(pts[:, 2]) + 1e-15))
    a = rng.uniform(-2, 2, size=(20_000, 3))
    b = a + rng.standard_normal((20_000, 3)) * 0.3
    num = np.linalg.norm(squash_points(m, t_plane, a)
                         - squash_points(m, t_plane, b), axis=1)
    den = np.linalg.norm(a - b, axis=1)
    keep = den > 1e-9
    lip = float(np.max(num[keep] / den[keep]))
    ok &= lip <= 2.0 + 1e-9
    return ok, f"sampled Lipschitz {lip:.6f}"


def suite_nucleation(cfg) -> tuple:
    v0 = make_fixture("flat_stack", cfg.Q, min(cfg.mesh_level, 4),
                      radius=FIXTURE_RADIUS_FACTOR * cfg.eps, spacing=0.0)
    t_plane = coordinate_plane([0, 1], 3)
    va = nucleate(v0, t_plane, cfg.eps, SquashMap(delta=cfg.delta))
    env = GrowthEnvelope(alpha=max(cfg.alpha, 0.51), r0=cfg.r0)
    rep = verify_nucleation(v0, va, t_plane, cfg.eps, env, cfg.Q, cfg.quad_order)
    return nucleation_passes(rep), (f"hole mass {rep['prop5_mass']:.4g} "
                                    f"within 1.02x of {rep['prop5_bound']:.4g}")


def suite_sphere(cfg) -> tuple:
    s = icosphere(3)
    t_end = 0.09
    traj = evolve(s, t_end, DtPolicy(c_stab=cfg.dt_factor),
                  snapshot_times=[0.0, t_end / 2, t_end])
    worst = 0.0
    for t, v in zip(traj.times, traj.snapshots):
        r_mean = float(np.mean(np.linalg.norm(v.vertices, axis=1)))
        worst = max(worst, abs(r_mean - math.sqrt(1 - 4 * t))
                    / math.sqrt(1 - 4 * t))
    return (worst <= 0.02 and traj.valid,
            f"worst radius error {worst:.2e}, ledger valid {traj.valid}")


def suite_barrier(cfg) -> tuple:
    t_plane = coordinate_plane([0, 1], 3)
    b = sphere_barrier_from_scale(1.0, 2, t_plane)
    v = make_fixture("flat_stack", 1, 3, radius=3.0)
    traj = evolve(v, 0.05, DtPolicy(), snapshot_times=[0.0, 0.05])
    contact = barrier_monitor(traj, b)
    return contact is None, f"contact={contact}"


SUITES = {
    "grassmann": suite_grassmann,
    "profile": suite_profile,
    "heat": suite_heat,
    "squash": suite_squash,
    "nucleation": suite_nucleation,
    "sphere": suite_sphere,
    "barrier": suite_barrier,
}


def run_suites(cfg, suite: str | None = None) -> list:
    names = [suite] if suite else list(SUITES)
    out = []
    for name in names:
        ok, detail = SUITES[name](cfg)
        out.append((name, bool(ok), detail))
    return out
