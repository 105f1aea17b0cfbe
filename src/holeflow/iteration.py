"""Iteration schedule: error series, parameter conditions, orchestrator.

The per-step error series is

    a_q^2 = log^(n+2)(q) / log^(2a)(2^((q-1)/2) / log q)
          + log^(n+2)(q) * exp(-(log(q) - 1)^2 / 8),

summable exactly when a > 1/2.  Logarithms are natural by default with a
base-2 switch recorded in output metadata.  Inner logs are expanded as
(q-1)/2 * log 2 - log log q, which avoids overflow of 2^((q-1)/2) for large
q.  Admissibility of an index q requires

    (am1)  2^((-q+1)/2) * log(q) < r0,
    (am2)  2^((-q-1)/2) < r1,

where r1 is the empty-spot scale; for slow-growth exponents near 1/2 that
scale underflows double precision, so it is carried as its natural log.

Series tails are summed directly and closed by the integral of a_x^2,
computed in float64 with numpy alone: Gauss-Legendre panels in u = log x,
evaluated in log space, plus a closed-form remainder whose truncation
bound ``_tail_integral`` states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from .geom import UNIT_BALL_VOLUME, Plane, coordinate_plane
from .kernels import CutoffProfile, make_profile
from .varifold import DiscreteVarifold, parabolic_rescale
from .fixtures import make_fixture
from .nucleation import (GrowthEnvelope, SquashMap, envelope_check, nucleate,
                         nucleation_passes, verify_nucleation)
from .flow import (DtPolicy, FlowTrajectory, _empty_spot_d1, barrier_monitor,
                   evolve, sphere_barrier_from_scale)
from .estimates import (ExpandingHolesConfig, expanding_holes_run,
                        gaussian_density_sup, slab_mass)

LN2 = math.log(2.0)
MAX_TAIL_START = 10 ** 9
FIXTURE_RADIUS_FACTOR = 4.0   # fixture radius in units of eps
WINDOW_CADENCE = 20           # snapshots per unit of rescaled window time
PARTIAL_SUM_CHUNK = 1_000_000  # terms per vectorized block of partial_sum
EMPTY_SPOT_BISECT_ITERS = 200  # bisection steps of empty_spot_scale_log


def _check_q(q) -> None:
    if q < 3:
        raise ValueError("formula domain: need q >= 3")


def series_term(q, alpha: float, n: int, log_base: float = math.e):
    """a_q^2 for scalar or array q >= 3."""
    q_arr = np.asarray(q, dtype=float)
    if np.any(q_arr < 3):
        raise ValueError("formula domain: need q >= 3")
    lb = math.log(log_base)
    lq = np.log(q_arr) / lb
    inner = ((q_arr - 1.0) * 0.5 * LN2 - np.log(lq)) / lb
    power = lq ** (n + 2)
    first = power * inner ** (-2.0 * alpha)
    second = power * np.exp(-((lq - 1.0) ** 2) / 8.0)
    out = first + second
    return out if out.ndim else float(out)


def partial_sum(k_start: int, q_max: int, alpha: float, n: int) -> float:
    """Direct sum of a_q^2 for q in [k_start, q_max]; no convergence claim."""
    _check_q(k_start)
    total = 0.0
    q = k_start
    while q <= q_max:
        hi = min(q + PARTIAL_SUM_CHUNK, q_max + 1)
        total += float(np.sum(series_term(np.arange(q, hi), alpha, n)))
        q = hi
    return total


# Tail quadrature in u = log q: panel edges as offsets from u0, halving
# towards u0 (where the base-2 inner log is smallest), width 2 beyond 2.
_TAIL_FINE_EDGES = np.array([0.0, 0.125, 0.25, 0.5, 1.0])
_TAIL_PANEL_WIDTH = 2.0
_TAIL_SPAN = 60.0


@functools.cache
def _gauss_legendre() -> tuple:
    """20-node Gauss-Legendre rule on [-1, 1], built on the first tail so
    that ``import holeflow`` does not load ``numpy.polynomial``."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(20)


def _gaussian_cut(alpha: float, lb: float) -> float:
    """A U past which the Gaussian term is below e^-u times the leading term.

    Its ratio to the leading term (the remainder's integrand) is
    exp(-g(u)), with
    g(u) = (u/lb - 1)^2/8 - 2 alpha u - 2 alpha log(ln2 / (2 lb)); the
    returned U is the larger root of g(u) = u, beyond which g(u) >= u.
    """
    a = 8.0 * (2.0 * alpha + 1.0) * lb
    c = 2.0 * alpha * math.log(0.5 * LN2 / lb)
    disc = (2.0 + a) ** 2 - 4.0 * (1.0 - 8.0 * c)
    return lb * 0.5 * (2.0 + a + math.sqrt(max(disc, 0.0)))


def _tail_integral(q_from: float, alpha: float, n: int, log_base: float) -> float:
    """integral_{q_from}^inf a_x^2 dx in float64, via u = log x.

    On [u0, U], with u0 = log q_from and U = max(u0 + 60, the Gaussian cut
    of ``_gaussian_cut``), composite 20-node Gauss-Legendre panels integrate
    e^u a^2(e^u).  The integrand is formed in log space (``logaddexp`` of
    the two terms, the inner log as u + log(ln2 / (2 lb)) + log1p(-eps)
    with eps(u) = e^-u (1 + 2 log(u/lb) / ln2)), so e^u is never formed;
    for alpha = 0.51 the mass sits near u = 200.

    Past U the integrand is replaced by its leading term
    lb^(2a-k) (ln2/2)^(-2a) u^k e^(-cu), with k = n + 2, c = 2a - 1 and
    lb = ln(log_base), whose integral is the closed form
    lb^(2a-k) (ln2/2)^(-2a) k! e^(-cU) sum_{j<=k} (cU)^j/j! / c^(k+1).
    That drops the -1 and the log log q inner correction, which enter as
    the factor (1 - eps)^(-2a), and the Gaussian second term, which
    ``_gaussian_cut`` keeps below e^-u times the leading term.  For u >= U
    the dropped terms are therefore at most

        2a |eps(U)| / (1 - |eps(U)|)^(2a+1) + e^-U

    relative to the remainder, O(log U e^-U); with U >= 61 that is below
    1e-24 for every alpha <= 1.5 and log base e or 2.
    """
    lb = math.log(log_base)
    k = n + 2
    c = 2.0 * alpha - 1.0
    u0 = math.log(q_from)
    cut = max(u0 + _TAIL_SPAN, _gaussian_cut(alpha, lb))
    edges = u0 + np.concatenate([
        _TAIL_FINE_EDGES,
        np.arange(_TAIL_PANEL_WIDTH, cut - u0, _TAIL_PANEL_WIDTH),
        [cut - u0]])
    nodes, weights = _gauss_legendre()
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    u = (mid[:, None] + half[:, None] * nodes).ravel()
    w = (half[:, None] * weights).ravel()
    log_lq = np.log(u / lb)
    log_inner = (u + math.log(0.5 * LN2 / lb)
                 + np.log1p(-np.exp(-u) * (1.0 + 2.0 * log_lq / LN2)))
    log_f = u + k * log_lq + np.logaddexp(-2.0 * alpha * log_inner,
                                          -((u / lb - 1.0) ** 2) / 8.0)
    body = float(w @ np.exp(log_f))
    cu = c * cut
    poisson = sum(cu ** j / math.factorial(j) for j in range(k + 1))
    remainder = (lb ** (2.0 * alpha - k) * (0.5 * LN2) ** (-2.0 * alpha)
                 * math.factorial(k) * math.exp(-cu) * poisson / c ** (k + 1))
    return body + remainder


def tail_sum(k_start: int, alpha: float, n: int, rel_tol: float = 1e-6,
             log_base: float = math.e) -> float:
    """sum_{q >= k_start} a_q^2 for alpha > 1/2.

    Terms are summed directly until the current term is negligible at
    rel_tol, then the remainder is replaced by the float64 integral tail of
    ``_tail_integral``; the integral-test bracket keeps the total within
    rel_tol relative error.
    """
    if alpha <= 0.5:
        raise ValueError("series may diverge: need alpha > 1/2")
    _check_q(k_start)
    q = k_start
    total = 0.0
    chunk = 4096
    while True:
        hi = q + chunk
        total += float(np.sum(series_term(np.arange(q, hi), alpha, n, log_base)))
        q = hi
        last = float(series_term(q, alpha, n, log_base))
        tail = _tail_integral(q, alpha, n, log_base)
        if last <= rel_tol * (total + tail):
            return total + tail
        chunk = min(chunk * 2, 4_000_000)


def am1_holds(q: int, r0: float, log_base: float = math.e) -> bool:
    lhs_log = (-q + 1) * 0.5 * LN2 + math.log(math.log(q) / math.log(log_base))
    return lhs_log < math.log(r0)


def am2_holds(q: int, log_r1: float) -> bool:
    return (-q - 1) * 0.5 * LN2 < log_r1


def empty_spot_scale_log(n: int, r0: float, alpha: float) -> float:
    """log of the largest admissible empty-spot scale r1(n, r0, alpha).

    Defining conditions: d1 / log^alpha(1/(r1 d1)) < 1 and
    (sqrt(2) + 2 d1) r1 < r0 with d1 = (8n + 2)/(sqrt(2) - 1).  Both are
    monotone in r1; the sup is located by bisection on y = -log r1.  For
    alpha near 1/2 the scale is far below the double-precision floor, which
    is why the log is the carried quantity.
    """
    d1 = _empty_spot_d1(n)

    def admissible(y: float) -> bool:
        # y = -log r1
        log_arg = y - math.log(d1)            # log(1/(r1 d1))
        cond1 = log_arg > 0 and d1 < log_arg ** alpha
        cond2 = -y < math.log(r0 / (math.sqrt(2.0) + 2.0 * d1))
        return cond1 and cond2

    lo, hi = 1e-6, 10.0
    while not admissible(hi):
        hi *= 2.0
        if hi > 1e9:
            raise RuntimeError("empty-spot bisection failed to bracket")
    for _ in range(EMPTY_SPOT_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return -hi


def choose_tail_start(alpha: float, n: int, budget: float, r0: float,
                      log_r1: float, c_e0_m: float) -> Optional[int]:
    """Minimal admissible K with tail_sum(K) <= budget / c_e0_m, or None;
    the tails are summed to 1e-4 relative.

    None means no K up to 10^9 closes the budget (expected for exponents
    barely above 1/2, where the series total is astronomically large).
    """
    if budget <= 0 or c_e0_m <= 0:
        raise ValueError("budget and measured constant must be positive")
    target = budget / c_e0_m
    # am2 holds exactly for q > -1 - 2 log r1 / ln 2, and am1 and am2 are
    # monotone in q, so no admissible index lies below this start
    q = max(3, int(-1.0 - 2.0 * log_r1 / LN2) - 1)
    while q < MAX_TAIL_START and not (am1_holds(q, r0)
                                      and am2_holds(q, log_r1)):
        q += 1
    k_cond = q
    if k_cond >= MAX_TAIL_START:
        return None
    if tail_sum(k_cond, alpha, n, rel_tol=1e-4) <= target:
        return k_cond
    if tail_sum(MAX_TAIL_START, alpha, n, rel_tol=1e-4) > target:
        return None
    lo, hi = k_cond, MAX_TAIL_START
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail_sum(mid, alpha, n, rel_tol=1e-4) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def density_floor_check(gamma0: DiscreteVarifold, profile: CutoffProfile,
                        t_plane: Plane, r: float, q: int):
    """Weighted density floor at scale r: ratio >= 1 + (Q-1)/2.

    ratio = (omega_n r^n)^-1 * ||Gamma0||(chi_r^2 restricted to the closed
    slab {|T_perp| <= sqrt(2) r}).
    """
    n = gamma0.surface_dim
    mass = slab_mass(gamma0, profile, t_plane, r, math.sqrt(2.0) * r)
    ratio = mass / (UNIT_BALL_VOLUME[n] * r ** n)
    return ratio >= 1.0 + (q - 1) / 2.0, ratio


@dataclass
class IterationSchedule:
    """Full parameter set of the expansion scheme.

    depth J fixes the nucleation scale eps = 2^(-J/2); windows run from
    h = 1 to J - tail_start with window scales L_h = log(J - h).
    """

    depth: int                    # J
    tail_start: int               # K
    alpha: float
    n: int
    r0: float
    log_r1: float
    eps: float
    window_scales: list
    terms: list                   # a_q^2 for q = K .. J-1
    tail: float
    conditions_ok: bool
    log_base: float = math.e
    failed_conditions: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["r1"] = math.exp(self.log_r1) if self.log_r1 > -700 else 0.0
        return d


def build_schedule(depth: int, tail_start: int, alpha: float, n: int,
                   r0: float, log_base: float = math.e) -> IterationSchedule:
    if depth <= tail_start:
        raise ValueError("need depth J > tail start K")
    if tail_start < 3:
        raise ValueError("tail start must be >= 3")
    if depth - tail_start > 100_000:
        raise ValueError("schedule too deep to materialize")
    lb = math.log(log_base)
    log_r1 = empty_spot_scale_log(n, r0, alpha)
    eps = 2.0 ** (-depth / 2.0)
    windows = [math.log(depth - h) / lb for h in range(1, depth - tail_start + 1)]
    qs = np.arange(tail_start, depth)
    terms = list(series_term(qs, alpha, n, log_base))
    failed = [int(q) for q in qs
              if not (am1_holds(int(q), r0, log_base) and am2_holds(int(q), log_r1))]
    tail = tail_sum(tail_start, alpha, n, log_base=log_base)
    return IterationSchedule(
        depth=depth, tail_start=tail_start, alpha=alpha, n=n, r0=r0,
        log_r1=log_r1, eps=eps, window_scales=windows, terms=terms,
        tail=tail, conditions_ok=not failed, log_base=log_base,
        failed_conditions=failed)


@dataclass
class ExperimentConfig:
    """Desk-scale hole-expansion experiment parameters."""

    eps: float = 0.05
    j: int = 2
    q: int = 2
    alpha: float = 0.51
    r0: float = 0.1
    zeta: float = 0.1
    delta: float = 0.2
    mesh_level: int = 5
    kind: str = "flat_stack"
    spacing: float = 0.0
    dt_factor: float = 0.1
    log_base: float = math.e

    def fixture_radius(self) -> float:
        return FIXTURE_RADIUS_FACTOR * self.eps


@dataclass
class ExperimentResult:
    rows: list
    mass_initial: float
    mass_after_nucleation: float
    mass_final: float
    mass_drop_required: float
    lef2_lhs: float
    lef2_rhs: float
    final_ratio: float
    omega_n: float
    density_sup: float
    nucleation_report: dict
    chain_gaps: list
    barrier_contacts: list
    schedule_note: str
    passes: bool = False
    trajectory: FlowTrajectory = None
    reports: list = None

    @property
    def mass_drop_ok(self) -> bool:
        return self.mass_final <= self.mass_initial - self.mass_drop_required

    @property
    def lef2_ok(self) -> bool:
        return self.lef2_lhs < self.lef2_rhs


def window_start(h: int) -> float:
    """Rescaled start time t1 of window h: 0 for step one, 1/2 after."""
    return 0.0 if h == 1 else 0.5


def window_scale(eps: float, h: int) -> float:
    """Parabolic scale lambda_h = 2^((h-1)/2) eps of window h."""
    return 2.0 ** ((h - 1) / 2.0) * eps


def window_end(eps: float, h: int) -> float:
    """Flow time lambda_h^2 = 2^(h-1) eps^2 at which window h ends."""
    return 2.0 ** (h - 1) * eps ** 2


def window_times(eps: float, h: int) -> np.ndarray:
    """Flow times of the snapshots that window h measures."""
    t1 = window_start(h)
    npts = max(2, int(round(WINDOW_CADENCE * (1.0 - t1))) + 1)
    return np.linspace(t1, 1.0, npts) * window_end(eps, h)


def rescaled_window(traj: FlowTrajectory, eps: float,
                    h: int) -> FlowTrajectory:
    """The snapshots of window h blown up by 1/lambda_h, in rescaled time."""
    lam = window_scale(eps, h)
    lam_sq = window_end(eps, h)
    window = traj.between(window_start(h) * lam_sq, lam_sq)
    return FlowTrajectory(times=[t / lam_sq for t, _ in window],
                          snapshots=[parabolic_rescale(v, lam)
                                     for _, v in window],
                          cumulative_dissipation=[0.0] * len(window),
                          ledger=[], policy=traj.policy)


def _analytic_excess_bound(cfg: ExperimentConfig, h: int, e0: float,
                           n: int):
    """Flatness-driven bound on the window excess of an n-dimensional
    surface, unit c(n).

    Needs a window scale L >= 2 with 2 L lambda_h < r0; at coarse desk
    scales no such L exists and the bound is not applicable (NaN).
    """
    lam = window_scale(cfg.eps, h)
    l_max = cfg.r0 / (2.0 * lam)
    if l_max <= 2.0:
        return float("nan")
    big_l = min(l_max * (1.0 - 1e-9), max(2.0, math.log(max(3.0, 1.0 / lam))))
    lb = math.log(cfg.log_base)
    arg = 1.0 / (2.0 ** ((h + 1) / 2.0) * cfg.eps * big_l)
    logterm = (math.log(arg) / lb) ** (-2.0 * cfg.alpha) if arg > 1 else float("inf")
    return e0 * big_l ** (n + 2) * (logterm + math.exp(-(big_l - 1) ** 2 / 8.0))


def orchestrate(cfg: ExperimentConfig,
                v0: Optional[DiscreteVarifold] = None,
                keep_trajectory: bool = False) -> ExperimentResult:
    """Run nucleation followed by j hole-expansion windows.

    Per window h the flow is parabolically rescaled by 2^((h-1)/2) eps, the
    empty-spot barrier is monitored, and the expanding-holes quantities are
    measured with the step-one window (t in [0,1], R^2 from 1 to 2) for
    h = 1 and the iteration window (t in [1/2, 1]) for h >= 2.  The result
    chains the density ratios, compares the final weighted mass against the
    initial surface (strict-drop check), and records the total mass drop.

    Refuses (ValueError) a j whose last window's cylinder, of radius
    sqrt(2) lambda_j, reaches past the nearest fixed-boundary vertex of v0
    (in |T x|): that window would measure beyond the surface.
    """
    if v0 is None:
        v0 = make_fixture(cfg.kind, cfg.q, cfg.mesh_level,
                          radius=cfg.fixture_radius(), spacing=cfg.spacing)
    n = v0.surface_dim
    omega = UNIT_BALL_VOLUME[n]
    t_plane = coordinate_plane(list(range(n)), v0.ambient_dim)
    if np.any(v0.boundary):
        reach = math.sqrt(2.0) * window_scale(cfg.eps, cfg.j)
        rim = float(np.min(t_plane.tangential_norm(v0.vertices[v0.boundary])))
        if reach > rim * (1.0 + 1e-12):
            raise ValueError(
                f"window {cfg.j} reaches |Tx| = {reach:.4g}, past the fixed "
                f"boundary at {rim:.4g}; choose a smaller j")
    envelope = GrowthEnvelope(alpha=cfg.alpha, r0=cfg.r0)
    ok, excess = envelope_check(v0, envelope, t_plane)
    if not ok:
        raise ValueError(f"growth-envelope precheck failed (excess {excess:.3e})")
    profile = make_profile(cfg.zeta)
    r_f = 2.0 ** (cfg.j / 2.0) * cfg.eps
    floor_ok, floor_ratio = density_floor_check(v0, profile, t_plane,
                                                min(r_f, cfg.r0), cfg.q)
    if not floor_ok:
        raise ValueError(f"density floor precheck failed (ratio {floor_ratio:.4f})")

    v_nuc = nucleate(v0, t_plane, cfg.eps, SquashMap(delta=cfg.delta))
    nuc_report = verify_nucleation(v0, v_nuc, t_plane, cfg.eps, envelope,
                                   cfg.q)

    t_end = window_end(cfg.eps, cfg.j)
    snap_times = sorted({float(t) for h in range(1, cfg.j + 1)
                         for t in window_times(cfg.eps, h)})
    policy = DtPolicy(c_stab=cfg.dt_factor)
    traj = evolve(v_nuc, t_end, policy, snapshot_times=snap_times)

    e0 = gaussian_density_sup(traj, cfg.fixture_radius() / 2.0, cfg.eps)

    rows, reports, contacts, schedule_notes = [], [], [], []
    for h in range(1, cfg.j + 1):
        wtraj = rescaled_window(traj, cfg.eps, h)
        barrier = sphere_barrier_from_scale(1.0, n, t_plane)
        contact = barrier_monitor(wtraj, barrier)
        contacts.append(contact)
        cfg_h = ExpandingHolesConfig(t_plane=t_plane, profile=profile,
                                     t1=window_start(h))
        rep = expanding_holes_run(wtraj, cfg_h)
        reports.append(rep)
        bound = _analytic_excess_bound(cfg, h, e0, n)
        if math.isnan(bound):
            schedule_notes.append(
                f"h={h}: window-scale condition infeasible at this eps; "
                "analytic excess bound not applicable")
        rows.append({
            "h": h, "scale": window_scale(cfg.eps, h),
            "mu_h_sq_measured": rep.mu_bar_sq,
            "mu_h_sq_bound": bound,
            "ratio_before": rep.mass_ratio_start,
            "ratio_after": rep.mass_ratio_end,
            "M_empirical": rep.empirical_M,
        })

    rhat_f = math.sqrt(2.0) * r_f
    lef2_lhs = slab_mass(traj.snapshots[-1], profile, t_plane, r_f, rhat_f)
    lef2_rhs = slab_mass(v0, profile, t_plane, r_f, rhat_f)

    res = ExperimentResult(
        rows=rows, mass_initial=v0.total_mass(),
        mass_after_nucleation=v_nuc.total_mass(),
        mass_final=traj.snapshots[-1].total_mass(),
        mass_drop_required=0.5 * (cfg.q - 1) * omega * cfg.eps ** n,
        lef2_lhs=lef2_lhs, lef2_rhs=lef2_rhs,
        final_ratio=reports[-1].mass_ratio_end if reports else 0.0,
        omega_n=omega, density_sup=e0, nucleation_report=nuc_report,
        chain_gaps=[abs(b.mass_ratio_start - a.mass_ratio_end)
                    for a, b in zip(reports, reports[1:])],
        barrier_contacts=contacts,
        schedule_note="; ".join(schedule_notes),
        trajectory=traj if keep_trajectory else None,
        reports=reports)
    res.passes = (nucleation_passes(nuc_report)
                  and all(rep.dissipation_ok for rep in reports)
                  and all(c is None for c in contacts)
                  and res.lef2_ok and res.mass_drop_ok and traj.valid)
    return res
