"""Hot per-sample kernels, vectorized with numpy.

All kernels assume validated float64 inputs; shape checking belongs to
the callers.
"""

from __future__ import annotations

import numpy as np


def diff_central(y: np.ndarray, dt: float) -> np.ndarray:
    """Differentiate a sampled series (n,) or (n, m); n >= 3 assumed.

    2nd-order central differences inside, 2nd-order one-sided stencils
    at the two ends.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    dt = float(dt)
    out = np.empty_like(y)
    out[1:-1] = (y[2:] - y[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * dt)
    out[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * dt)
    return out


def bearing_kinematics(rel: np.ndarray, vel: np.ndarray, eps_speed: float,
                       chain_rule: bool):
    """Per-sample bearing geometry for relative positions ``rel`` (n, 3).

    Returns (unit bearing, angle between object direction and heading,
    rotational vector, its norm). With ``chain_rule`` the rotation comes
    from d(bearing)/dt by the chain rule on ``vel``, so it is exact
    whenever the velocity series is; without it the last two are None.
    """
    rel = np.ascontiguousarray(rel, dtype=np.float64)
    vel = np.ascontiguousarray(vel, dtype=np.float64)
    dist = np.sqrt(np.einsum("ij,ij->i", rel, rel))
    bearing = rel / dist[:, None]
    radial = np.einsum("ij,ij->i", bearing, vel)
    omega = q_norm = None
    if chain_rule:
        # d/dt of rel/|rel| given d(rel)/dt = vel
        didt = (vel - bearing * radial[:, None]) / dist[:, None]
        omega = np.cross(bearing, didt)
        q_norm = np.sqrt(np.einsum("ij,ij->i", omega, omega))
    speed = np.sqrt(np.einsum("ij,ij->i", vel, vel))
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_alpha = np.where(speed > float(eps_speed), -radial / speed, np.nan)
    alpha = np.arccos(np.clip(cos_alpha, -1.0, 1.0))
    return bearing, alpha, omega, q_norm


def windowed_rel_std(x: np.ndarray, valid: np.ndarray, half_width: int,
                     min_count: int) -> np.ndarray:
    """std/|mean| of valid entries in a centered window around each sample.

    NaN where the window holds fewer than ``min_count`` valid entries.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    valid = np.ascontiguousarray(valid, dtype=np.bool_)
    half_width = int(half_width)
    n = x.shape[0]
    xv = np.where(valid, x, 0.0)
    c1 = np.concatenate(([0.0], np.cumsum(xv)))
    c2 = np.concatenate(([0.0], np.cumsum(xv * xv)))
    cn = np.concatenate(([0], np.cumsum(valid.astype(np.int64))))
    k = np.arange(n)
    lo = np.maximum(k - half_width, 0)
    hi = np.minimum(k + half_width + 1, n)
    cnt = cn[hi] - cn[lo]
    s1 = c1[hi] - c1[lo]
    s2 = c2[hi] - c2[lo]
    out = np.full(n, np.nan)
    ok = cnt >= int(min_count)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(ok, s1 / np.maximum(cnt, 1), np.nan)
        var = np.where(ok, s2 / np.maximum(cnt, 1) - mean * mean, np.nan)
        var = np.where(var > 0.0, var, 0.0)
        std = np.sqrt(var)
        out = np.where(ok & (np.abs(mean) > 0.0), std / np.abs(mean), out)
        # consistent zero-mean samples (e.g. identically zero window): spread 0
        out = np.where(ok & (np.abs(mean) == 0.0) & (std == 0.0), 0.0, out)
    return out
