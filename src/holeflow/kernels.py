"""Radial cutoff profiles, cylindrical cutoffs, and the backward heat kernel.

The cutoff profile is 1 on [0, 1-zeta], 0 on [1, inf), and transitions with
the normalized C-infinity bump smoothstep  B(1-u) / (B(u) + B(1-u)),
B(s) = exp(-1/s), which is smooth and strictly decreasing on the transition.
The derivative-bound constant rho = sup(|chi'| + 2 ||D^2 chi||) is obtained
by dense sampling with a small safety factor; all downstream inequality
constants are relative to the chosen profile and recorded in outputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geom import Plane, dot_last, norm_last

RHO_SAMPLES = 100_000
RHO_SAFETY = 1.01
# Samples the rho sweep evaluates at a time.  The joint profile evaluation
# holds about 17 arrays of its input's size: on all samples at once that is
# a 13.8 MB traced peak, above the 7.4 MB of the rest of a window_l4 call.
# In blocks it peaks at 2.2 MB and takes 7 ms instead of 20 ms (x86-64).
RHO_BLOCK = 2 ** 13


def _bump_jet(s: np.ndarray, order: int) -> list:
    """[B(s), B'(s), B''(s)] up to the given order for B(s) = exp(-1/s),
    zero where s <= 0, all from one exponential:  B' = B / s^2 and
    B'' = B (1/s^4 - 2/s^3).  Underflow-safe."""
    pos = s > 0
    sp = s[pos]
    out = [np.zeros_like(s) for _ in range(order + 1)]
    with np.errstate(under="ignore"):
        e = np.exp(-1.0 / sp)
        out[0][pos] = e
        if order >= 1:
            out[1][pos] = e / sp**2
        if order >= 2:
            out[2][pos] = e * (1.0 / sp**4 - 2.0 / sp**3)
    return out


@dataclass(frozen=True)
class CutoffProfile:
    """Radial cutoff with transition width zeta and derivative bound rho."""

    zeta: float
    rho: float

    def jet(self, r, order: int = 1) -> list:
        """[chi(r), chi'(r), chi''(r)] up to the given derivative order.

        The band 1 - zeta < r < 1 and its coordinate u are formed once, and
        the smoothstep B(1-u) / (B(u) + B(1-u)) and its derivatives share
        one exponential per side (``_bump_jet``).
        """
        r = np.asarray(r, dtype=float)
        band = (r > 1.0 - self.zeta) & (r < 1.0)
        u = (r[band] - (1.0 - self.zeta)) / self.zeta
        bu, bv = _bump_jet(u, order), _bump_jet(1.0 - u, order)
        n = bv[0]
        d = bu[0] + n
        chi = np.ones_like(r)
        chi[r >= 1.0] = 0.0
        chi[band] = n / d
        out = [chi]
        if order >= 1:
            n1 = -bv[1]
            d1 = bu[1] + n1
            out.append(np.zeros_like(r))
            out[1][band] = (n1 * d - n * d1) / d**2 / self.zeta
        if order >= 2:
            n2 = bv[2]
            d2 = bu[2] + n2
            out.append(np.zeros_like(r))
            out[2][band] = (n2 / d - 2 * n1 * d1 / d**2 - n * d2 / d**2
                            + 2 * n * d1**2 / d**3) / self.zeta**2
        return out

    def value(self, r):
        return self.jet(r, 0)[0]

    def d1(self, r):
        return self.jet(r, 1)[1]

    def d2(self, r):
        return self.jet(r, 2)[2]


@functools.cache
def make_profile(zeta: float) -> CutoffProfile:
    """Build the profile and sample its derivative-bound constant rho.

    rho bounds |chi'| + 2 ||D^2 chi|| for the radial extension to R^k; the
    Hessian operator norm of a radial function is max(|chi''|, |chi'| / r).
    The sweep is deterministic and the profile frozen, so one profile is
    built per zeta and returned again on every later call.
    """
    if not 0.0 < zeta < 0.5:
        raise ValueError("zeta must lie in (0, 1/2)")
    prof = CutoffProfile(zeta=zeta, rho=0.0)
    r = np.linspace(1.0 - zeta, 1.0, RHO_SAMPLES)[1:-1]
    sup = 0.0
    for lo in range(0, len(r), RHO_BLOCK):
        part = r[lo:lo + RHO_BLOCK]
        _, d1, d2 = prof.jet(part, 2)
        d1 = np.abs(d1)
        hess = np.maximum(np.abs(d2), d1 / part)
        sup = max(sup, float(np.max(d1 + 2.0 * hess)))
    return CutoffProfile(zeta=zeta, rho=RHO_SAFETY * sup)


def cylindrical_cutoff(profile: CutoffProfile, t: Plane, big_r: float,
                       x: np.ndarray) -> np.ndarray:
    """chi(|T(x)| / R) for points x of shape (..., d)."""
    if big_r <= 0:
        raise ValueError("cutoff scale must be positive")
    return profile.value(t.tangential_norm(x) / big_r)


def radial_cutoff(profile: CutoffProfile, y: np.ndarray, big_r: float):
    """(|y|, chi(|y| / R), grad chi) for vectors y of shape (..., d), from
    one profile evaluation: grad chi = chi'(|y| / R) y / (R |y|), zero at
    y = 0."""
    s = norm_last(y)
    chi, d1 = profile.jet(s / big_r)
    coef = np.zeros_like(s)
    nz = s > 0
    coef[nz] = d1[nz] / (big_r * s[nz])
    return s, chi, coef[..., None] * y


def cylindrical_cutoff_gradient(profile: CutoffProfile, t: Plane, big_r: float,
                                x: np.ndarray) -> np.ndarray:
    """Gradient of the cylindrical cutoff; lies in the plane T."""
    return radial_cutoff(profile, t.apply(np.asarray(x, dtype=float)),
                         big_r)[2]


@dataclass(frozen=True)
class HeatKernel:
    """k-dimensional backward heat kernel centered at (y, s)."""

    k: int
    center: np.ndarray
    final_time: float

    def _tau(self, t: float) -> float:
        tau = self.final_time - t
        if tau <= 0:
            raise ValueError("heat kernel requires t < final time")
        return tau

    def value(self, x: np.ndarray, t: float) -> np.ndarray:
        tau = self._tau(t)
        dx = np.asarray(x) - self.center
        d2 = dot_last(dx, dx)
        return (4.0 * np.pi * tau) ** (-self.k / 2.0) * np.exp(-d2 / (4.0 * tau))

    def gradient(self, x: np.ndarray, t: float) -> np.ndarray:
        tau = self._tau(t)
        dx = np.asarray(x) - self.center
        return self.value(x, t)[..., None] * (-dx / (2.0 * tau))

    def hessian(self, x: np.ndarray, t: float) -> np.ndarray:
        tau = self._tau(t)
        dx = np.asarray(x) - self.center
        d = dx.shape[-1]
        outer = dx[..., :, None] * dx[..., None, :] / (4.0 * tau**2)
        return self.value(x, t)[..., None, None] * (outer - np.eye(d) / (2.0 * tau))

    def time_derivative(self, x: np.ndarray, t: float) -> np.ndarray:
        tau = self._tau(t)
        dx = np.asarray(x) - self.center
        d2 = dot_last(dx, dx)
        return self.value(x, t) * (self.k / (2.0 * tau) - d2 / (4.0 * tau**2))


def heat_identity_residual(kernel: HeatKernel, x: np.ndarray, t: float,
                           s_plane: Plane):
    """(D^2 rho . S) + |S_perp(grad rho)|^2 / rho + d rho/dt at (x, t).

    Vanishes identically in exact arithmetic for every k-plane S.  Returns
    None (skip flag) when the kernel value underflows to 1e-300 or below.
    """
    val = kernel.value(x, t)
    if np.any(val <= 1e-300):
        return None
    hess = kernel.hessian(x, t)
    grad = kernel.gradient(x, t)
    gperp = s_plane.apply_perp(grad)
    term1 = np.sum(hess * s_plane.proj, axis=(-2, -1))
    term2 = np.sum(gperp * gperp, axis=-1) / val
    return term1 + term2 + kernel.time_derivative(x, t)
