"""The benchmark's four workloads.

Each workload turns the benchmark seed into inputs (``setup``), runs the
timed call on them (``call``), and reads the call's certified numbers
(``certified``) and its failed checks (``failures``).  The program only ever
receives the generated inputs: for the mesh workloads the seed rotates the
input mesh about the plane normal (the z axis), which keeps the reference
plane T = xy and the certificate; seed 0 means no rotation.
"""

from __future__ import annotations

import math

import numpy as np

from holeflow.estimates import ExpandingHolesConfig, expanding_holes_run
from holeflow.fixtures import make_fixture
from holeflow.flow import DtPolicy, FlowTrajectory, evolve
from holeflow.geom import coordinate_plane
from holeflow.iteration import (ExperimentConfig, choose_tail_start,
                                empty_spot_scale_log, orchestrate, tail_sum)
from holeflow.kernels import make_profile
from holeflow.nucleation import nucleate
from holeflow.varifold import parabolic_rescale

EPS = 0.05
T_PLANE = coordinate_plane([0, 1], 3)
SERIES_ALPHAS = (0.51, 0.6, 0.75, 1.0)
SERIES_R0 = 0.1
SERIES_CUTS = (10, 100, 1000)


def rotate_about_normal(v, seed: int):
    """Rotate a mesh about the z axis by a seed-drawn angle (seed 0: none)."""
    if seed == 0:
        return v
    angle = float(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi))
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return v.with_vertices(v.vertices @ rot.T)


def series_cuts(seed: int) -> tuple:
    """Three distinct tail cut points in [10, 1000] (seed 0: 10, 100, 1000)."""
    if seed == 0:
        return SERIES_CUTS
    rng = np.random.default_rng(seed)
    return tuple(int(k) for k in np.sort(rng.choice(np.arange(10, 1001), 3,
                                                    replace=False)))


def _finite(values) -> bool:
    """All numbers finite; None marks a quantity the run defines as absent."""
    return all(x is None or math.isfinite(x) for x in values)


class ReferenceL4:
    """orchestrate() at mesh level 4: the full certify-the-mass-drop path."""

    name = "reference_l4"

    def setup(self, seed):
        cfg = ExperimentConfig(mesh_level=4)
        v0 = make_fixture(cfg.kind, cfg.q, cfg.mesh_level,
                          radius=cfg.fixture_radius(), spacing=cfg.spacing)
        return cfg, rotate_about_normal(v0, seed)

    def call(self, inputs):
        cfg, v0 = inputs
        return orchestrate(cfg, v0=v0, keep_trajectory=True)

    def certified(self, res):
        out = {"mass_initial": res.mass_initial,
               "mass_after_nucleation": res.mass_after_nucleation,
               "mass_final": res.mass_final,
               "lef2_lhs": res.lef2_lhs, "lef2_rhs": res.lef2_rhs,
               "density_sup": res.density_sup,
               "final_ratio": res.final_ratio}
        for row in res.rows:
            h = row["h"]
            out[f"h{h}.mu_h_sq_measured"] = row["mu_h_sq_measured"]
            out[f"h{h}.ratio_before"] = row["ratio_before"]
            out[f"h{h}.ratio_after"] = row["ratio_after"]
            out[f"h{h}.empirical_M"] = row["M_empirical"]
        return out

    def failures(self, res):
        bad = []
        if not res.passes:
            bad.append("passes is false")
        if not res.trajectory.valid:
            bad.append("ledger invalid: " + res.trajectory.invalid_reason)
        if not all(c["pass"] for rep in res.reports for c in rep.dissipation):
            bad.append("dissipation check failed")
        if not _finite(self.certified(res).values()):
            bad.append("certified number not finite")
        return bad


class WindowL4:
    """The criterion-07 expanding-holes window at mesh level 4."""

    name = "window_l4"

    def setup(self, seed):
        v0 = make_fixture("perturbed_stack", 2, 4, radius=4 * EPS,
                          spacing=0.06)
        return nucleate(rotate_about_normal(v0, seed), T_PLANE, EPS)

    def call(self, v_nuc):
        cfg = ExpandingHolesConfig(
            t_plane=T_PLANE, t1=0.0, t2=1.0, r1=1.0, r2=math.sqrt(2.0),
            rhat1=math.sqrt(2.0), rhat2=2.0, profile=make_profile(0.1),
            subdiv=3)
        tgrid = np.linspace(0.0, 1.0, 21) * EPS**2
        traj = evolve(v_nuc, EPS**2, DtPolicy(), snapshot_times=tgrid)
        rtraj = FlowTrajectory(
            times=[t / EPS**2 for t in traj.times],
            snapshots=[parabolic_rescale(traj.snapshot_at(t), EPS)
                       for t in traj.times],
            cumulative_dissipation=[0.0] * len(traj.times), ledger=[],
            policy=traj.policy)
        return traj, expanding_holes_run(rtraj, cfg)

    def certified(self, res):
        traj, rep = res
        return {"mass_final": traj.snapshots[-1].total_mass(),
                "empirical_M": rep.empirical_M,
                "mass_ratio_start": rep.mass_ratio_start,
                "mass_ratio_end": rep.mass_ratio_end,
                "mu_bar_sq": rep.mu_bar_sq}

    def failures(self, res):
        traj, rep = res
        bad = []
        if not traj.valid:
            bad.append("ledger invalid: " + traj.invalid_reason)
        if not all(c["pass"] for c in rep.dissipation):
            bad.append("dissipation check failed")
        if rep.empirical_M is None:
            bad.append("no normal excess: empirical_M undefined")
        if not _finite(self.certified(res).values()):
            bad.append("certified number not finite")
        return bad


class FlowL5:
    """A nucleated level-5 flat stack evolved to eps^2/4; no measurement."""

    name = "flow_l5"

    def setup(self, seed):
        v0 = make_fixture("flat_stack", 2, 5, radius=4 * EPS)
        return nucleate(rotate_about_normal(v0, seed), T_PLANE, EPS)

    def call(self, v_nuc):
        t_end = EPS**2 / 4.0
        return evolve(v_nuc, t_end, DtPolicy(),
                      snapshot_times=np.linspace(0.0, t_end, 3))

    def certified(self, traj):
        return {"mass_final": traj.snapshots[-1].total_mass(),
                "dissipation_total": traj.cumulative_dissipation[-1],
                "remesh_delta_total": math.fsum(r["remesh_delta"]
                                                for r in traj.ledger),
                "steps": float(len(traj.ledger)),
                "faces_final": float(traj.snapshots[-1].num_faces)}

    def failures(self, traj):
        bad = []
        if not traj.valid:
            bad.append("ledger invalid: " + traj.invalid_reason)
        if not _finite(self.certified(traj).values()):
            bad.append("certified number not finite")
        return bad


class Series:
    """The series-overview computation: totals, tails, unit-budget start."""

    name = "series"

    def setup(self, seed):
        return series_cuts(seed)

    def call(self, cuts):
        out = {}
        for alpha in SERIES_ALPHAS:
            log_r1 = empty_spot_scale_log(2, SERIES_R0, alpha)
            out[alpha] = {
                "log_r1": log_r1,
                "tails": [(k, tail_sum(k, alpha, 2)) for k in (3,) + cuts],
                "k_unit": choose_tail_start(alpha, 2, 1.0, SERIES_R0,
                                            log_r1, 1.0),
            }
        return out

    def certified(self, res):
        out = {}
        for alpha, r in res.items():
            out[f"a{alpha}.log_r1"] = r["log_r1"]
            for k, tail in r["tails"]:
                out[f"a{alpha}.tail{k}"] = tail
            out[f"a{alpha}.k_unit"] = (float(r["k_unit"])
                                       if r["k_unit"] is not None else -1.0)
        return out

    def failures(self, res):
        bad = []
        for alpha, r in res.items():
            tails = [t for _, t in r["tails"]]
            if not all(math.isfinite(t) and t > 0 for t in tails):
                bad.append(f"alpha {alpha}: tail not finite and positive")
            elif not all(a > b for a, b in zip(tails, tails[1:])):
                bad.append(f"alpha {alpha}: tails not decreasing")
        return bad


WORKLOADS = {w.name: w for w in (ReferenceL4(), WindowL4(), FlowL5(),
                                 Series())}
