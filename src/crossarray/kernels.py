"""Hot per-sample kernels, vectorized with numpy.

All kernels assume validated float64 inputs; shape checking belongs to
the callers.

Layout: every (n, 3) series that the package creates is stored in
Fortran (column-major) order, so each column that a per-axis kernel
reads is contiguous and numpy runs its loops with SIMD: at 40,001 rows,
``x * y`` on two columns takes 29–34 µs, and 71–86 µs on the columns of
C-ordered rows, 24 bytes apart. Plain broadcasts such as
``rel / dist[:, None]`` and ``position - point`` keep the layout of the
series they are given. Results have the same bits in either layout,
except for two numpy operations whose summation order follows the
layout; each is pinned:

- row dot products use ``row_dot``, which keeps the order of
  ``np.einsum("ij,ij->i")`` on C-ordered rows;
- ``theta_dot``'s matrix-vector product reads a C-ordered copy of the
  rotation series, as BLAS follows no fixed summation order.

Timings below are at 40,001 rows (numpy 2.4, one Xeon core).
"""

from __future__ import annotations

import numpy as np


def diff_central(y: np.ndarray, dt: float) -> np.ndarray:
    """Differentiate a sampled series (n,) or (n, m); n >= 3 assumed.

    2nd-order central differences inside, 2nd-order one-sided stencils
    at the two ends.
    """
    y = np.asarray(y, dtype=np.float64)
    dt = float(dt)
    out = np.empty_like(y)
    out[1:-1] = (y[2:] - y[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * dt)
    out[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * dt)
    return out


def outer(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``np.outer(t, w)`` for an (n,) series and a 3-vector, with its
    bits, in Fortran order: column j is ``t * w[j]``. ``np.outer`` takes
    0.65–0.73 ms, and this 0.05 ms."""
    out = np.empty((t.shape[0], 3), order="F")
    for j in range(3):
        np.multiply(t, w[j], out=out[:, j])
    return out


def tile_rows(v: np.ndarray, n: int) -> np.ndarray:
    """``np.tile(v, (n, 1))`` for a 3-vector: n rows, each a copy of
    ``v``, in Fortran order. Filling the three columns takes 0.05 ms
    against 0.19–0.23 ms for ``np.tile``."""
    out = np.empty((n, 3), order="F")
    for j in range(3):
        out[:, j] = v[j]
    return out


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (n, 3) arrays: the values of
    ``np.cross``, whose axis handling costs more than the products. Each
    component is written into its column of a Fortran-ordered result. On
    Fortran rows this takes 0.30–0.37 ms, ``np.column_stack`` of the
    three components 0.43–0.53 ms and ``np.cross`` 0.64–0.73 ms; on
    C-ordered rows this took 0.67–0.82 ms."""
    ax, ay, az = a[:, 0], a[:, 1], a[:, 2]
    bx, by, bz = b[:, 0], b[:, 1], b[:, 2]
    out = np.empty((a.shape[0], 3), order="F")
    np.subtract(ay * bz, az * by, out=out[:, 0])
    np.subtract(az * bx, ax * bz, out=out[:, 1])
    np.subtract(ax * by, ay * bx, out=out[:, 2])
    return out


def row_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (n, 3) array.

    Returns the bits of ``np.linalg.norm(v, axis=1)``, which sums x², y²
    and z² in the same order; rows holding NaN, ±inf, subnormals or
    values whose squares overflow give the same results too. It skips
    numpy's reduction: on Fortran rows it takes 0.14–0.17 ms against
    0.19–0.26 ms, and on C-ordered rows 0.18–0.19 ms against 1.0–1.2 ms.
    Not ``sqrt(einsum("ij,ij->i", v, v))``: that is also cheap, but it
    sums in another order and differs in the last bit on about one row
    in eight.
    """
    x, y, z = v[:, 0], v[:, 1], v[:, 2]
    return np.sqrt(x * x + y * y + z * z)


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of two (n, 3) arrays, with the bits of
    ``np.einsum("ij,ij->i", a, b)`` on C-ordered rows: ``einsum`` adds
    ``(a0·b0 + a2·b2) + a1·b1`` to an output that starts at +0.0, which
    turns a sum of -0.0 into +0.0. On Fortran rows ``einsum`` sums
    ``(a0·b0 + a1·b1) + a2·b2`` instead. Like ``einsum``, it reports no
    floating-point error. On Fortran rows this takes 0.13–0.17 ms, and
    ``einsum`` on C-ordered rows 0.36–0.39 ms."""
    with np.errstate(all="ignore"):
        out = a[:, 0] * b[:, 0]
        part = a[:, 2] * b[:, 2]
        out += part
        np.multiply(a[:, 1], b[:, 1], out=part)
        out += part
    out += 0.0
    return out


def bearing_kinematics(rel: np.ndarray, dist: np.ndarray, vel: np.ndarray,
                       eps_speed: float, chain_rule: bool):
    """Per-sample bearing geometry for relative positions ``rel`` (n, 3)
    at distances ``dist`` (n,), ``sqrt(row_dot(rel, rel))``.

    Returns (unit bearing, angle between object direction and heading,
    rotational vector, its norm). The angle is the atan2 of the
    velocity's components across and along the bearing, so it keeps
    full precision near 0 and pi, and it is NaN where the speed is at
    or below ``eps_speed``. With ``chain_rule`` the rotation
    bearing x d(bearing)/dt comes from the chain rule on ``vel``, which
    reduces to (bearing x vel) / |rel|, so it is exact whenever the
    velocity series is; without it the last two are None.
    """
    rel = np.asarray(rel, dtype=np.float64)
    vel = np.asarray(vel, dtype=np.float64)
    bearing = rel / dist[:, None]
    radial = row_dot(bearing, vel)
    across = cross(bearing, vel)
    across_norm = np.sqrt(row_dot(across, across))
    speed = np.sqrt(row_dot(vel, vel))
    alpha = np.where(speed > float(eps_speed), np.arctan2(across_norm, -radial), np.nan)
    if not chain_rule:
        return bearing, alpha, None, None
    return bearing, alpha, across / dist[:, None], across_norm / dist


def _window_sums(v: np.ndarray, half_width: int) -> np.ndarray:
    """Sum of ``v`` over [k - half_width, k + half_width] ∩ [0, n) for
    each sample k, as ``c[hi] - c[lo]`` with ``c = [0, cumsum(v)]``.

    Both terms are slices of ``c`` shifted by the half width, so no
    index array is gathered; where the window is cut at the start,
    ``c[lo]`` is the leading 0 and is not subtracted.
    """
    n = v.shape[0]
    c = np.empty(n + 1, dtype=v.dtype)
    c[0] = 0
    np.cumsum(v, out=c[1:])
    inner = max(n - half_width, 0)
    out = np.empty(n, dtype=v.dtype)
    out[:inner] = c[half_width + 1:]
    out[inner:] = c[n]
    out[half_width:] -= c[:inner]
    return out


def windowed_rel_std(x: np.ndarray, valid: np.ndarray, half_width: int,
                     min_count: int) -> np.ndarray:
    """std/|mean| of valid entries in a centered window around each sample.

    NaN where the window holds fewer than ``min_count`` valid entries.
    The variance is ``E[x²] - E[x]²`` from running sums, clipped at 0.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    valid = np.ascontiguousarray(valid, dtype=np.bool_)
    half_width = int(half_width)
    xv = np.where(valid, x, 0.0)
    cnt = _window_sums(valid.astype(np.int64), half_width)
    s1 = _window_sums(xv, half_width)
    s2 = _window_sums(xv * xv, half_width)
    count = np.maximum(cnt, 1)
    out = np.full(x.shape[0], np.nan)
    with np.errstate(invalid="ignore"):
        mean = s1 / count
        var = s2 / count - mean * mean
        std = np.sqrt(np.where(var > 0.0, var, 0.0))
        abs_mean = np.abs(mean)
        np.divide(std, abs_mean, out=out, where=abs_mean > 0.0)
    # consistent zero-mean samples (e.g. identically zero window): spread 0
    out[(abs_mean == 0.0) & (std == 0.0)] = 0.0
    out[cnt < int(min_count)] = np.nan
    return out
