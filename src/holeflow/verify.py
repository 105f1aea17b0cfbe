"""Spot checks of the paper's exact facts, one body each.

Each check is a deterministic (seeded) measurement of one fact the paper
rests on.  It takes its sample count or mesh level, its seed and the
configuration values it reads, and returns (ok, measured): its verdict and
a dict of the values it measured.  The acceptance criteria 01-05 and the
unit tests of these facts run these same bodies, with larger samples or
other seeds; the `verify` CLI command runs them at the smaller sizes in
SUITES and exits nonzero when any selected suite fails.
"""

from __future__ import annotations

import math

import numpy as np

from .fixtures import icosphere, make_fixture
from .flow import DtPolicy, barrier_monitor, evolve, sphere_barrier_from_scale
from .geom import coordinate_plane, grassmann_gap, random_plane
from .iteration import FIXTURE_RADIUS_FACTOR
from .kernels import HeatKernel, heat_identity_residual, make_profile
from .nucleation import (GrowthEnvelope, SquashMap, nucleate, squash_points,
                         verify_nucleation)


def grassmann(samples: int, seed: int) -> tuple:
    """The Grassmann inequalities on random pairs of lines or planes in R^3;
    `worst` is the largest slack, which must stay <= 1e-10."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        k = int(rng.integers(1, 3))
        s = random_plane(k, 3, rng)
        t = random_plane(k, 3, rng)
        g = grassmann_gap(s, t)
        v = rng.standard_normal(3)
        nv = np.linalg.norm(v)
        worst = max(
            worst,
            -g["perp_dot"],
            g["perp_dot"] - k * g["op_norm"] ** 2,
            g["op_norm"] ** 2 - g["hs_norm_sq"],
            abs(g["hs_norm_sq"] - 2.0 * float(np.sum(t.perp * s.proj))),
            np.linalg.norm(t.apply(s.apply_perp(v))) - g["op_norm"] * nv,
            np.linalg.norm(t.apply(s.apply_perp(t.apply(v))))
            - g["op_norm"] ** 2 * nv,
        )
    return worst <= 1e-10, {"worst": worst}


def profile(samples: int, zeta: float) -> tuple:
    """The cutoff profile's shape at `samples` radii in [0, 1.2]: values in
    [0, 1], 1 on the plateau r <= 1 - zeta, 0 for r >= 1, nonincreasing,
    and chi'^2 / chi <= rho where chi > 0."""
    prof = make_profile(zeta)
    r = np.linspace(0.0, 1.2, samples)
    vals = prof.value(r)
    band = (r > 0) & (vals > 1e-9)
    ok = bool(np.all((0.0 <= vals) & (vals <= 1.0))
              and np.all(vals[r <= 1.0 - zeta] == 1.0)
              and np.all(vals[r >= 1.0] == 0.0)
              and np.all(np.diff(vals) <= 1e-12)
              and np.all(prof.d1(r[band]) ** 2 / vals[band]
                         <= prof.rho * (1 + 1e-9)))
    return ok, {"rho": prof.rho}


def heat(samples: int, seed: int) -> tuple:
    """The heat-kernel identity at `samples` accepted (x, t, plane) tuples
    for each of k = 1, 2; `worst` is the largest residual relative to the
    kernel's scale, which must stay <= 1e-8."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in (1, 2):
        kern = HeatKernel(k=k, center=np.zeros(3), final_time=2.0)
        done = 0
        while done < samples:
            x = rng.standard_normal(3) * rng.uniform(0.2, 2.0)
            t = rng.uniform(0.0, 1.95)
            s = random_plane(k, 3, rng)
            res = heat_identity_residual(kern, x, t, s)
            if res is None:
                continue
            scale = (4.0 * math.pi * (2.0 - t)) ** (-k / 2.0)
            worst = max(worst, abs(float(res)) / scale)
            done += 1
    return worst <= 1e-8, {"worst": worst}


def squash(samples: int, seed: int, delta: float) -> tuple:
    """The squash map: a sampled Lipschitz constant <= 2 over `samples`
    pairs, normal heights that never grow, and idempotence on samples / 2
    points of the surgery's working domain, where it is exact: the
    height-bound slab |z| <= delta/2 together with the untouched zone
    |z| >= delta, in the ratio 7 : 3."""
    rng = np.random.default_rng(seed)
    t_plane = coordinate_plane([0, 1], 3)
    m = SquashMap(delta=delta)

    a = rng.uniform(-2.0, 2.0, size=(samples, 3))
    b = a + rng.standard_normal((samples, 3)) * 0.5
    ga = squash_points(m, t_plane, a)
    gb = squash_points(m, t_plane, b)
    den = np.linalg.norm(a - b, axis=1)
    keep = den > 1e-9
    lip = float(np.max(np.linalg.norm(ga - gb, axis=1)[keep] / den[keep]))
    shrinks = bool(np.all(np.abs(ga[:, 2]) <= np.abs(a[:, 2]) + 1e-15))

    n_slab, n_far = 7 * samples // 20, 3 * samples // 20
    xy = rng.uniform(-2.0, 2.0, size=(n_slab + n_far, 2))
    z = np.concatenate([rng.uniform(-delta / 2.0, delta / 2.0, n_slab),
                        rng.uniform(delta, 1.0, n_far)
                        * rng.choice([-1.0, 1.0], n_far)])
    once = squash_points(m, t_plane, np.column_stack([xy, z]))
    idempotent = bool(np.all(once == squash_points(m, t_plane, once)))
    return (lip <= 2.0 + 1e-9 and idempotent and shrinks,
            {"lipschitz": lip, "idempotent": idempotent, "shrinks": shrinks})


def nucleation(level: int, eps: float, delta: float, q: int, alpha: float,
               r0: float) -> tuple:
    """Nucleation properties (1), (3), (4) and (5) on a flat stack of q
    sheets: the outside is bitwise unchanged, the envelope excess is exactly
    0, the coarse mass is at most 0.7 of its bound (`coarse_slack`), the
    hole mass is at most 1.02 pi eps^2 (`hole_bound`), and the hole mass
    before surgery is within 2 % of q pi eps^2.  The measured dict also
    holds the whole `verify_nucleation` report."""
    t_plane = coordinate_plane([0, 1], 3)
    v0 = make_fixture("flat_stack", q, level,
                      radius=FIXTURE_RADIUS_FACTOR * eps, spacing=0.0)
    va = nucleate(v0, t_plane, eps, SquashMap(delta=delta))
    rep = verify_nucleation(v0, va, t_plane, eps,
                            GrowthEnvelope(alpha=alpha, r0=r0), q)
    coarse_slack = rep["prop4_mass"] / rep["prop4_bound"]
    hole_bound = rep["prop5_bound"] * 1.02
    sheets_mass = q * rep["prop5_bound"]
    ok = (rep["prop1_local"] and rep["prop3_excess"] == 0.0
          and coarse_slack <= 0.7 and rep["prop5_mass"] <= hole_bound
          and abs(rep["hole_mass_before"] - sheets_mass) <= 0.02 * sheets_mass)
    return ok, {**rep, "coarse_slack": coarse_slack, "hole_bound": hole_bound}


def sphere(level: int, c_stab: float) -> tuple:
    """The shrinking-sphere oracle: the unit icosphere flown to r = 1/2
    follows r^2 = 1 - 4t to a relative `r2_error` <= 0.02 at 16 snapshots,
    its ledger is valid, and mass plus dissipation stays within a relative
    `ledger_gap` <= 0.05 of the initial mass."""
    s = icosphere(level)
    t_end = 0.1875  # r = 0.5
    traj = evolve(s, t_end, DtPolicy(c_stab=c_stab),
                  snapshot_times=np.linspace(0.0, t_end, 16))
    r2_error = 0.0
    for t, v in zip(traj.times, traj.snapshots):
        r_sq = float(np.mean(np.linalg.norm(v.vertices, axis=1))) ** 2
        r2_error = max(r2_error, abs(r_sq - (1 - 4 * t)) / (1 - 4 * t))
    m0 = s.total_mass()
    ledger_gap = abs(traj.snapshots[-1].total_mass()
                     + traj.cumulative_dissipation[-1] - m0) / m0
    return (r2_error <= 0.02 and ledger_gap <= 0.05 and traj.valid,
            {"r2_error": r2_error, "ledger_gap": ledger_gap,
             "valid": traj.valid})


def barrier(level: int) -> tuple:
    """A flat sheet of radius 2 flown to t = 0.05 never touches the barrier
    ball of scale 1 above it (`contact` is None)."""
    t_plane = coordinate_plane([0, 1], 3)
    v = make_fixture("flat_stack", 1, level, radius=2.0)
    traj = evolve(v, 0.05, snapshot_times=[0.0, 0.05])
    contact = barrier_monitor(traj, sphere_barrier_from_scale(1.0, 2, t_plane))
    return contact is None, {"contact": contact}


# name: (the check at `holeflow verify`'s sizes, its detail line)
SUITES = {
    "grassmann": (lambda c: grassmann(500, c.seed),
                  "worst inequality slack {worst:.2e}"),
    "profile": (lambda c: profile(10_001, c.zeta), "rho={rho:.4g}"),
    "heat": (lambda c: heat(200, c.seed + 1),
             "worst relative residual {worst:.2e}"),
    "squash": (lambda c: squash(20_000, c.seed + 2, c.delta),
               "sampled Lipschitz {lipschitz:.6f}"),
    "nucleation": (lambda c: nucleation(min(c.mesh_level, 4), c.eps, c.delta,
                                        c.Q, max(c.alpha, 0.51), c.r0),
                   "hole mass {prop5_mass:.4g} within 1.02x of "
                   "{prop5_bound:.4g}"),
    "sphere": (lambda c: sphere(3, c.dt_factor),
               "worst r^2 error {r2_error:.2e}, ledger gap {ledger_gap:.2e}, "
               "ledger valid {valid}"),
    "barrier": (lambda c: barrier(3), "contact={contact}"),
}


def run_suites(cfg, suite: str | None = None) -> list:
    out = []
    for name in [suite] if suite else SUITES:
        check, detail = SUITES[name]
        ok, measured = check(cfg)
        out.append((name, bool(ok), detail.format(**measured)))
    return out
