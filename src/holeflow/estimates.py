"""Mass-ratio and L^2 excess estimates along flow trajectories.

All inequality constants that the continuum theory leaves implicit are
treated as measured quantities: each check reports the minimal constant
making its inequality hold, and regression tests pin those measurements,
not theoretical values.  Everything here is pure over immutable
trajectories.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from .geom import UNIT_BALL_VOLUME, Plane
from .kernels import CutoffProfile, cylindrical_cutoff
from .varifold import (DiscreteVarifold, _face_sum, _normal_part, _row_max,
                       interpolate_vertex_field, mean_curvature,
                       weight_measure, MEASUREMENT_SUBDIV)
from .flow import FlowTrajectory

DISSIPATION_COEF = 320.0          # rho^2 R^-4 mu^2 coefficient in the bound
TOL_DISC_REL = 0.1
TOL_DISC_ABS = 1e-8
HEIGHT_BOUND_CONST = 50.0         # calibrated c(n,k) for the L^2 height bound
MU_FLOOR = 1e-30
CULL_SLACK = 1e-9                 # relative margin on culling radii


def height_excess_sq(v: DiscreteVarifold, t_plane: Plane, big_r: float,
                     quad_order: int = 3,
                     subdiv: int = MEASUREMENT_SUBDIV) -> float:
    """Integral of |T_perp(x)|^2 over the cylinder C(T, 0, R)."""
    if big_r <= 0:
        raise ValueError("radius must be positive")

    def integrand(p):
        inside = t_plane.tangential_norm(p) < big_r
        return t_plane.normal_norm(p) ** 2 * inside

    return weight_measure(v, integrand, quad_order, subdiv)


def curvature_l2_sq(v: DiscreteVarifold, h_field: np.ndarray, weight_fn,
                    quad_order: int = 3,
                    subdiv: int = MEASUREMENT_SUBDIV) -> float:
    """Integral of |h|^2 * w(x) with vertex-interpolated h."""
    if v.num_faces == 0:
        return 0.0
    pts, bary, w = v.quad_points(quad_order, subdiv)
    wt = weight_fn(pts.reshape(-1, v.ambient_dim)).reshape(v.num_faces, -1)
    hq = interpolate_vertex_field(v, h_field, bary)
    return _face_sum(v, wt * np.sum(hq * hq, axis=2), w)


@dataclass(frozen=True)
class ExpandingHolesConfig:
    """Window, radii, and profile for one expanding-holes measurement.

    R(t)^2 = R1^2 + sigma (t - t1) with sigma = (R2^2 - R1^2)/(t2 - t1);
    the flow support must avoid the annulus Rhat1 < |T_perp| < Rhat2.  The
    defaults are the paper's parabolic blow-up window of step one: t in
    [0, 1], R growing from 1 to sqrt(2), and the forbidden annulus
    sqrt(2) < |T_perp x| < 2.  The iteration windows h >= 2 start at
    t1 = 1/2 with the same radii.
    """

    t_plane: Plane
    profile: CutoffProfile
    t1: float = 0.0
    t2: float = 1.0
    r1: float = 1.0
    r2: float = math.sqrt(2.0)
    rhat1: float = math.sqrt(2.0)
    rhat2: float = 2.0
    quad_order: int = 3
    subdiv: int = MEASUREMENT_SUBDIV

    def __post_init__(self):
        if not (0 <= self.t1 < self.t2):
            raise ValueError("need 0 <= t1 < t2")
        if not (0 < self.r1 < self.r2 and 0 < self.rhat1 < self.rhat2):
            raise ValueError("radii must be positive and increasing")

    @property
    def sigma(self) -> float:
        return (self.r2**2 - self.r1**2) / (self.t2 - self.t1)

    def radius_at(self, t: float) -> float:
        return math.sqrt(self.r1**2 + self.sigma * (t - self.t1))


def support_annulus_violation(v: DiscreteVarifold, cfg: ExpandingHolesConfig) -> bool:
    """True when some face vertex falls in the forbidden normal annulus."""
    if v.num_faces == 0:
        return False
    used = np.unique(v.faces.ravel())
    heights = cfg.t_plane.normal_norm(v.vertices[used])
    return bool(np.any((heights > cfg.rhat1) & (heights < cfg.rhat2)))


def slab_weighted_mass(v: DiscreteVarifold, cfg: ExpandingHolesConfig,
                       t: float) -> float:
    """||V||(chi_{R(t)}^2 restricted to {|T_perp| <= Rhat1})."""
    big_r = cfg.radius_at(t)

    def integrand(p):
        chi = cylindrical_cutoff(cfg.profile, cfg.t_plane, big_r, p)
        slab = cfg.t_plane.normal_norm(p) <= cfg.rhat1 * (1.0 + 1e-12)
        return chi ** 2 * slab

    return weight_measure(v, integrand, cfg.quad_order, cfg.subdiv)


def _faces_reaching(v: DiscreteVarifold, vertex_dist: np.ndarray,
                    radius: float) -> np.ndarray:
    """Mask of the faces whose closed simplex may reach dist < radius.

    vertex_dist is a 1-Lipschitz function (|T x| or |x|) at the vertices.
    On a face it stays above its smallest corner value minus the longest
    edge, so a face whose bound reaches radius holds no such point and
    contributes exactly zero to an integrand supported in {dist < radius}.
    The slack keeps roundoff in the quadrature points from breaking that.
    """
    longest = _row_max(v._edge_lengths())
    lower = np.min(vertex_dist[v.faces], axis=1) - longest
    return lower < radius * (1.0 + CULL_SLACK)


def _window_pass(v: DiscreteVarifold, cfg: ExpandingHolesConfig, t: float,
                 h_field: np.ndarray):
    """lhs, mu_sq, alpha_sq and the slab mass of one snapshot in one pass.

    Every window integrand vanishes where |T x| >= R(t), so only faces that
    reach the cylinder C(T, 0, R) are integrated.  |T x|, |T_perp x|, chi,
    chi' and h are evaluated once per quadrature point.
    """
    big_r = cfg.radius_at(t)
    plane = cfg.t_plane
    keep = _faces_reaching(v, plane.tangential_norm(v.vertices), big_r)
    pts, bary, w = v.quad_points(cfg.quad_order, cfg.subdiv, keep)
    tx = plane.apply(pts)
    s = np.linalg.norm(tx, axis=-1)
    height = plane.normal_norm(pts)
    chi = cfg.profile.value(s / big_r)
    # grad chi = chi'(|Tx|/R) Tx / (R |Tx|), zero on the axis
    coef = np.zeros_like(s)
    nz = s > 0
    coef[nz] = cfg.profile.d1(s[nz] / big_r) / (big_r * s[nz])
    grad = 2.0 * chi[..., None] * (coef[..., None] * tx)
    grad_perp = _normal_part(v, grad, keep)
    hq = interpolate_vertex_field(v, h_field, bary, keep)
    h_sq = np.sum(hq * hq, axis=-1)
    chi_sq = chi ** 2

    def integral(f):
        return _face_sum(v, f, w, keep)

    return (integral(-chi_sq * h_sq + np.sum(hq * grad_perp, axis=-1)),
            integral(height ** 2 * (s < big_r)),
            integral(chi_sq * h_sq),
            integral(chi_sq * (height <= cfg.rhat1 * (1.0 + 1e-12))))


def dissipation_check(v: DiscreteVarifold, cfg: ExpandingHolesConfig,
                      t: float, h_field: Optional[np.ndarray] = None) -> dict:
    """Check the weighted dissipation inequality at one time.

    lhs = delta(V, chi^2)(h) must stay below
    rhs = -alpha^2/2 + 320 rho^2 R^-4 mu^2 up to the discretization
    allowance tol = 0.1 (|lhs| + |rhs|) + 1e-8.  The weighted variation uses
    the tangent-projected gradient form, which is what the continuum
    derivation actually controls; the plain form differs only through the
    junction defect of the lumped mean curvature.  The record also carries
    slab_mass = ||V||(chi^2 restricted to {|T_perp| <= Rhat1}), the
    numerator of the window's mass ratio at time t.
    """
    if support_annulus_violation(v, cfg):
        raise ValueError("support strays into forbidden annulus")
    if h_field is None:
        h_field = mean_curvature(v)
    big_r = cfg.radius_at(t)
    lhs, mu_sq, alpha_sq, slab_mass = _window_pass(v, cfg, t, h_field)
    rho = cfg.profile.rho
    rhs = -0.5 * alpha_sq + DISSIPATION_COEF * rho**2 * big_r**-4 * mu_sq
    tol = TOL_DISC_REL * (abs(lhs) + abs(rhs)) + TOL_DISC_ABS
    return {
        "t": t, "lhs": lhs, "rhs": rhs, "tol": tol,
        "mu_sq": mu_sq, "alpha_sq": alpha_sq, "slab_mass": slab_mass,
        "pass": bool(lhs <= rhs + tol),
    }


@dataclass
class ExcessReport:
    """Measured expanding-holes quantities over one window."""

    times: list
    mu_sq: list
    alpha_sq: list
    mass_ratio_start: float
    mass_ratio_end: float
    bound_rhs: float
    empirical_M: Optional[float]
    mu_bar_sq: float = 0.0
    dissipation: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    @property
    def ratio_gain(self) -> float:
        return self.mass_ratio_end - self.mass_ratio_start

    @property
    def dissipation_ok(self) -> bool:
        """Every per-snapshot dissipation check of the window passed."""
        return all(check["pass"] for check in self.dissipation)

    def to_json(self, **extra) -> str:
        payload = asdict(self)
        payload.update(extra)
        return json.dumps(payload, indent=2, sort_keys=True)


def expanding_holes_run(traj: FlowTrajectory,
                        cfg: ExpandingHolesConfig) -> ExcessReport:
    """Evaluate the mass-ratio bound over [t1, t2] of a trajectory.

    The gain of the normalized weighted mass between the window endpoints is
    compared against mu_bar^2 log(R2/R1); empirical_M is the minimal
    constant closing the inequality (None when the trajectory has no normal
    excess).
    """
    k = traj.snapshots[0].surface_dim
    times = [t for t in traj.times if cfg.t1 - 1e-12 <= t <= cfg.t2 + 1e-12]
    if not times or abs(times[0] - cfg.t1) > 1e-9 or abs(times[-1] - cfg.t2) > 1e-9:
        raise ValueError("trajectory does not cover [t1, t2] at its endpoints")

    checks = [dissipation_check(traj.snapshot_at(t), cfg, t) for t in times]

    mu_sq = [c["mu_sq"] for c in checks]
    alpha_sq = [c["alpha_sq"] for c in checks]
    mu_bar_sq = max(ms / cfg.radius_at(t) ** (k + 2)
                    for ms, t in zip(mu_sq, times))

    ratio_start = checks[0]["slab_mass"] / cfg.r1**k
    ratio_end = checks[-1]["slab_mass"] / cfg.r2**k

    log_ratio = math.log(cfg.r2 / cfg.r1)
    if mu_bar_sq > MU_FLOOR:
        emp_m = (ratio_end - ratio_start) / (mu_bar_sq * log_ratio)
    else:
        emp_m = None
    bound_rhs = ratio_start + (emp_m or 0.0) * mu_bar_sq * log_ratio
    return ExcessReport(
        times=list(times), mu_sq=mu_sq, alpha_sq=alpha_sq,
        mass_ratio_start=ratio_start, mass_ratio_end=ratio_end,
        bound_rhs=bound_rhs, empirical_M=emp_m, mu_bar_sq=mu_bar_sq,
        dissipation=checks,
        config={"t1": cfg.t1, "t2": cfg.t2, "R1": cfg.r1, "R2": cfg.r2,
                "Rhat1": cfg.rhat1, "Rhat2": cfg.rhat2, "sigma": cfg.sigma,
                "zeta": cfg.profile.zeta, "rho": cfg.profile.rho},
    )


def ball_height_excess_sq(v: DiscreteVarifold, t_plane: Plane, r: float,
                          quad_order: int = 3,
                          subdiv: int = MEASUREMENT_SUBDIV) -> float:
    def integrand(p):
        inside = np.linalg.norm(p, axis=1) < r
        return t_plane.normal_norm(p) ** 2 * inside

    return weight_measure(v, integrand, quad_order, subdiv)


def l2_height_bound_check(traj: FlowTrajectory, t_plane: Plane, r: float,
                          big_l: float, c_const: float = HEIGHT_BOUND_CONST,
                          quad_order: int = 3) -> dict:
    """Uniform-in-time L^2 height bound over [0, r^2] in the ball U_r.

    lhs = sup_t r^-(k+2) integral_{U_r} |T_perp|^2 d||V_t||
    rhs = e^(1/4) r^-(k+2) integral_{U_Lr} |T_perp|^2 d||V_0||
          + c L^(k+2) exp(-(L-1)^2/8) sup_t ||V_t||(U_Lr) / (Lr)^k.
    Also reports the minimal constant in place of c closing the inequality.
    """
    if big_l < 2:
        raise ValueError("need L >= 2")
    k = traj.snapshots[0].surface_dim
    t_max = r * r
    times = [t for t in traj.times if t <= t_max * (1 + 1e-12)]
    if not times or times[-1] < t_max * (1 - 1e-9):
        raise ValueError("trajectory too short for the height bound window")

    lhs = max(ball_height_excess_sq(traj.snapshot_at(t), t_plane, r, quad_order)
              for t in times) / r ** (k + 2)

    def big_ball_mass(t):
        vv = traj.snapshot_at(t)
        return weight_measure(
            vv, lambda p: (np.linalg.norm(p, axis=1) < big_l * r).astype(float),
            quad_order, MEASUREMENT_SUBDIV)

    first = math.exp(0.25) * ball_height_excess_sq(
        traj.snapshots[0], t_plane, big_l * r, quad_order) / r ** (k + 2)
    sup_mass_ratio = max(big_ball_mass(t) for t in times) / (big_l * r) ** k
    decay = big_l ** (k + 2) * math.exp(-(big_l - 1.0) ** 2 / 8.0)
    rhs = first + c_const * decay * sup_mass_ratio
    min_c = ((lhs - first) / (decay * sup_mass_ratio)
             if decay * sup_mass_ratio > 0 else 0.0)
    tol = 1e-9 + 0.01 * abs(rhs)
    return {"lhs": lhs, "rhs": rhs, "pass": bool(lhs <= rhs + tol),
            "min_c": min_c, "first_term": first, "L": big_l}


def gaussian_density_sup(traj: FlowTrajectory, r0: float, eps: float,
                         radii_grid: int = 12, quad_order: int = 3) -> float:
    """sup over times in [0, r0^2] and radii in [eps, r0] of the density ratio.

    Empirical stand-in for the heat-kernel-weighted density bound; the value
    is the experiment's operative density constant E0.  Per snapshot the
    quadrature points of the faces reaching the ball U_r0 are placed once
    and every radius is read from their distances.
    """
    if not 0 < eps <= r0:
        raise ValueError("need 0 < eps <= r0")
    radii = np.geomspace(eps, r0, radii_grid)
    out = 0.0
    for t, v in zip(traj.times, traj.snapshots):
        if t > r0 * r0 * (1 + 1e-12):
            continue
        keep = _faces_reaching(v, np.linalg.norm(v.vertices, axis=1),
                               np.max(radii))
        pts, _, w = v.quad_points(quad_order, MEASUREMENT_SUBDIV, keep)
        dist = np.linalg.norm(pts, axis=-1)
        n = v.surface_dim
        for r in radii:
            mass = _face_sum(v, (dist < r).astype(float), w, keep)
            out = max(out, mass / (UNIT_BALL_VOLUME[n] * r ** n))
    return out
