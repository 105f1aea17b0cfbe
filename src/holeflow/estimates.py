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

from .geom import UNIT_BALL_VOLUME, Plane, dot_last, norm_last
from .kernels import CutoffProfile, cylindrical_cutoff, radial_cutoff
from .varifold import (DiscreteVarifold, _corner_max, _faces_reaching,
                       _normal_part, _quad_sums,
                       interpolate_vertex_field, mean_curvature,
                       weight_measure, MEASUREMENT_SUBDIV, QUAD_ORDER)
from .flow import FlowTrajectory

DISSIPATION_COEF = 320.0          # rho^2 R^-4 mu^2 coefficient in the bound
TOL_DISC_REL = 0.1
TOL_DISC_ABS = 1e-8
MU_FLOOR = 1e-30
DENSITY_RADII = 12                # radii of the gaussian_density_sup sweep


def height_excess_sq(v: DiscreteVarifold, t_plane: Plane, big_r: float,
                     subdiv: int = MEASUREMENT_SUBDIV) -> float:
    """Integral of |T_perp(x)|^2 over the cylinder C(T, 0, R)."""
    if big_r <= 0:
        raise ValueError("radius must be positive")

    def integrand(p):
        inside = t_plane.tangential_norm(p) < big_r
        return t_plane.normal_norm(p) ** 2 * inside

    return weight_measure(v, integrand, subdiv=subdiv)


def curvature_l2_sq(v: DiscreteVarifold, h_field: np.ndarray, weight_fn,
                    quad_order: int = QUAD_ORDER,
                    subdiv: int = MEASUREMENT_SUBDIV) -> float:
    """Integral of |h|^2 * w(x) with vertex-interpolated h."""
    def integrand(pts, bary, sel):
        wt = weight_fn(pts.reshape(-1, v.ambient_dim)).reshape(pts.shape[:2])
        hq = interpolate_vertex_field(v, h_field, bary, sel)
        return [wt * dot_last(hq, hq)]

    return _quad_sums(v, quad_order, subdiv, integrand)[0]


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
    """True when some face meets the forbidden normal annulus
    Rhat1 < |T_perp x| < Rhat2.

    T is a hyperplane, so the signed normal coordinate x . nu is linear on a
    face: |T_perp x| takes every value between its corner extremes there,
    from 0 up when the corners lie on both sides of T.
    """
    side = v.vertices @ cfg.t_plane.unit_normal()
    height = np.abs(side)
    hi = _corner_max(height, v.faces)
    lo = -_corner_max(-height, v.faces)
    crosses = _corner_max(side > 0.0, v.faces) & _corner_max(side < 0.0,
                                                             v.faces)
    lo[crosses] = 0.0
    return bool(np.any((hi > cfg.rhat1) & (lo < cfg.rhat2)))


def slab_mass(v: DiscreteVarifold, profile: CutoffProfile, t_plane: Plane,
              big_r: float, rhat: float,
              subdiv: int = MEASUREMENT_SUBDIV) -> float:
    """||V||(chi_R^2 restricted to the closed slab {|T_perp| <= Rhat}).

    The slab is closed up to a relative 1e-12, as in the window's fused
    pass (``_window_pass``), so a sheet at height exactly Rhat counts.
    """

    def integrand(p):
        chi = cylindrical_cutoff(profile, t_plane, big_r, p)
        slab = t_plane.normal_norm(p) <= rhat * (1.0 + 1e-12)
        return chi ** 2 * slab

    # chi is +0.0 where |T x| >= R
    return weight_measure(v, integrand, subdiv=subdiv,
                          keep=_faces_reaching(
                              v, t_plane.tangential_norm(v.vertices), big_r))


def slab_weighted_mass(v: DiscreteVarifold, cfg: ExpandingHolesConfig,
                       t: float) -> float:
    """||V||(chi_{R(t)}^2 restricted to {|T_perp| <= Rhat1})."""
    return slab_mass(v, cfg.profile, cfg.t_plane, cfg.radius_at(t),
                     cfg.rhat1, cfg.subdiv)


def _window_pass(v: DiscreteVarifold, cfg: ExpandingHolesConfig, t: float,
                 h_field: np.ndarray):
    """lhs, mu_sq, alpha_sq and the slab mass of one snapshot in one pass.

    Every window integrand vanishes where |T x| >= R(t), so only faces that
    reach the cylinder C(T, 0, R) are integrated.  |T x|, |T_perp x|, chi,
    chi' and h are evaluated once per quadrature point, chi and chi' in one
    profile evaluation.
    """
    big_r = cfg.radius_at(t)
    plane = cfg.t_plane
    keep = _faces_reaching(v, plane.tangential_norm(v.vertices), big_r)

    def integrand(pts, bary, sel):
        s, chi, grad_chi = radial_cutoff(cfg.profile, plane.apply(pts), big_r)
        height = plane.normal_norm(pts)
        grad = 2.0 * chi[..., None] * grad_chi
        grad_perp = _normal_part(v, grad, sel)
        hq = interpolate_vertex_field(v, h_field, bary, sel)
        h_sq = dot_last(hq, hq)
        chi_sq = chi ** 2
        return (-chi_sq * h_sq + dot_last(hq, grad_perp),
                height ** 2 * (s < big_r), chi_sq * h_sq,
                chi_sq * (height <= cfg.rhat1 * (1.0 + 1e-12)))

    return _quad_sums(v, QUAD_ORDER, cfg.subdiv, integrand, keep)


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
    numerator of the window's mass ratio at time t, and margin = rhs - lhs,
    by how much the inequality holds (negative: by how much it fails).
    """
    if support_annulus_violation(v, cfg):
        raise ValueError("support strays into forbidden annulus")
    if h_field is None:
        h_field = mean_curvature(v)
    big_r = cfg.radius_at(t)
    lhs, mu_sq, alpha_sq, slab = _window_pass(v, cfg, t, h_field)
    rho = cfg.profile.rho
    rhs = -0.5 * alpha_sq + DISSIPATION_COEF * rho**2 * big_r**-4 * mu_sq
    tol = TOL_DISC_REL * (abs(lhs) + abs(rhs)) + TOL_DISC_ABS
    return {
        "t": t, "lhs": lhs, "rhs": rhs, "tol": tol,
        "mu_sq": mu_sq, "alpha_sq": alpha_sq, "slab_mass": slab,
        "margin": rhs - lhs, "pass": bool(lhs <= rhs + tol),
    }


@dataclass
class ExcessReport:
    """Measured expanding-holes quantities over one window."""

    times: list
    mu_sq: list
    alpha_sq: list
    mass_ratio_start: float
    mass_ratio_end: float
    empirical_M: Optional[float]
    mu_bar_sq: float = 0.0
    dissipation: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

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
    window = traj.between(cfg.t1, cfg.t2)
    times = [t for t, _ in window]
    if not times or abs(times[0] - cfg.t1) > 1e-9 or abs(times[-1] - cfg.t2) > 1e-9:
        raise ValueError("trajectory does not cover [t1, t2] at its endpoints")

    checks = [dissipation_check(v, cfg, t) for t, v in window]

    mu_sq = [c["mu_sq"] for c in checks]
    alpha_sq = [c["alpha_sq"] for c in checks]
    mu_bar_sq = max(ms / cfg.radius_at(t) ** (k + 2)
                    for ms, t in zip(mu_sq, times))

    ratio_start = checks[0]["slab_mass"] / cfg.r1**k
    ratio_end = checks[-1]["slab_mass"] / cfg.r2**k

    emp_m = None
    if mu_bar_sq > MU_FLOOR:
        emp_m = ((ratio_end - ratio_start)
                 / (mu_bar_sq * math.log(cfg.r2 / cfg.r1)))
    return ExcessReport(
        times=times, mu_sq=mu_sq, alpha_sq=alpha_sq,
        mass_ratio_start=ratio_start, mass_ratio_end=ratio_end,
        empirical_M=emp_m, mu_bar_sq=mu_bar_sq, dissipation=checks,
        config={"t1": cfg.t1, "t2": cfg.t2, "R1": cfg.r1, "R2": cfg.r2,
                "Rhat1": cfg.rhat1, "Rhat2": cfg.rhat2, "sigma": cfg.sigma,
                "zeta": cfg.profile.zeta, "rho": cfg.profile.rho},
    )


def gaussian_density_sup(traj: FlowTrajectory, r0: float,
                         eps: float) -> float:
    """sup over times in [0, r0^2] and radii in [eps, r0] of the density ratio.

    Empirical stand-in for the heat-kernel-weighted density bound; the value
    is the experiment's operative density constant E0.  Per snapshot the
    quadrature points of the faces reaching the ball U_r0 are placed once,
    one block at a time, and every radius is read from their distances.
    """
    if not 0 < eps <= r0:
        raise ValueError("need 0 < eps <= r0")
    radii = np.geomspace(eps, r0, DENSITY_RADII)

    def integrand(pts, bary, sel):
        dist = norm_last(pts)
        return [(dist < r).astype(float) for r in radii]

    out = 0.0
    for _, v in traj.between(0.0, r0 * r0):
        keep = _faces_reaching(v, norm_last(v.vertices),
                               np.max(radii))
        masses = _quad_sums(v, QUAD_ORDER, MEASUREMENT_SUBDIV, integrand,
                            keep)
        n = v.surface_dim
        for r, mass in zip(radii, masses):
            out = max(out, mass / (UNIT_BALL_VOLUME[n] * r ** n))
    return out
