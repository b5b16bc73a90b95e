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


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (n, 3) arrays: the values of
    ``np.cross``, whose axis handling costs more than the products
    (three times the time at 40,001 rows, numpy 2.4)."""
    ax, ay, az = a[:, 0], a[:, 1], a[:, 2]
    bx, by, bz = b[:, 0], b[:, 1], b[:, 2]
    return np.column_stack([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx])


def bearing_kinematics(rel: np.ndarray, vel: np.ndarray, eps_speed: float,
                       chain_rule: bool):
    """Per-sample bearing geometry for relative positions ``rel`` (n, 3).

    Returns (unit bearing, angle between object direction and heading,
    rotational vector, its norm). The angle is the atan2 of the
    velocity's components across and along the bearing, so it keeps
    full precision near 0 and pi, and it is NaN where the speed is at
    or below ``eps_speed``. With ``chain_rule`` the rotation
    bearing x d(bearing)/dt comes from the chain rule on ``vel``, which
    reduces to (bearing x vel) / |rel|, so it is exact whenever the
    velocity series is; without it the last two are None.
    """
    rel = np.ascontiguousarray(rel, dtype=np.float64)
    vel = np.ascontiguousarray(vel, dtype=np.float64)
    dist = np.sqrt(np.einsum("ij,ij->i", rel, rel))
    bearing = rel / dist[:, None]
    radial = np.einsum("ij,ij->i", bearing, vel)
    across = cross(bearing, vel)
    across_norm = np.sqrt(np.einsum("ij,ij->i", across, across))
    speed = np.sqrt(np.einsum("ij,ij->i", vel, vel))
    alpha = np.where(speed > float(eps_speed), np.arctan2(across_norm, -radial), np.nan)
    if not chain_rule:
        return bearing, alpha, None, None
    return bearing, alpha, across / dist[:, None], across_norm / dist


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
