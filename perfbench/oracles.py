"""Reference computations the benchmark checks crossarray's outputs against.

Everything here is written from the formulas in crossarray's README and
docstrings, not by calling crossarray, so a fault in the program cannot
hide in its own oracle. Only numpy is used.
"""

from __future__ import annotations

import numpy as np

GRAVITY = np.array([0.0, 0.0, -9.81])
EPS_SPEED = 1e-6  # m/s; the program's default validity thresholds
EPS_RATE = 1e-6   # rad/s
TRACK_HEADER = ("t", "px", "py", "pz", "vx", "vy", "vz", "ax", "ay", "az")


# ---------------------------------------------------------------------------
# closed-form motion: (positions, velocities, accelerations), each (n, 3)
# ---------------------------------------------------------------------------

def lissajous(t, start, amplitude, frequency, phase):
    """Sway about ``start``: x_j = start_j + A_j sin(2 pi f_j t + phase_j)."""
    w = 2.0 * np.pi * np.asarray(frequency, dtype=float)
    arg = np.outer(t, w) + np.asarray(phase, dtype=float)
    amp = np.asarray(amplitude, dtype=float)
    return (np.asarray(start, dtype=float) + amp * np.sin(arg),
            amp * w * np.cos(arg),
            -amp * w * w * np.sin(arg))


def orbit(t, center, radius, speed, phase0):
    """Circle of ``radius`` about ``center`` in its z plane, at ``speed``."""
    w = speed / radius
    ang = w * t + phase0
    c, s, z = np.cos(ang), np.sin(ang), np.zeros_like(t)
    return (np.asarray(center, dtype=float) + radius * np.column_stack([c, s, z]),
            radius * w * np.column_stack([-s, c, z]),
            -radius * w * w * np.column_stack([c, s, z]))


def rectilinear(t, start, direction, speed):
    """Straight line from ``start`` along ``direction`` at constant speed."""
    unit = np.asarray(direction, dtype=float)
    unit = unit / np.linalg.norm(unit)
    n = len(t)
    return (np.asarray(start, dtype=float) + speed * np.outer(t, unit),
            np.tile(speed * unit, (n, 1)),
            np.zeros((n, 3)))


def distance(pos, obj):
    return np.sqrt(np.sum((pos - np.asarray(obj, dtype=float)) ** 2, axis=1))


def rotation_rate(pos, vel, obj):
    """|i x di/dt| of the bearing i = (p - obj)/|p - obj|, in closed form:
    i x di/dt = (r x v) / |r|^2 with r = p - obj."""
    rel = pos - np.asarray(obj, dtype=float)
    return np.linalg.norm(np.cross(rel, vel), axis=1) / np.sum(rel * rel, axis=1)


# ---------------------------------------------------------------------------
# the sampled-data distance and the detector's windowed spread
# ---------------------------------------------------------------------------

def central_diff(y, dt):
    """2nd-order central differences inside, 2nd-order one-sided ends."""
    out = np.empty_like(y)
    out[1:-1] = (y[2:] - y[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * dt)
    out[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * dt)
    return out


def sampled_d3d(pos_optics, vel_optics, vel_inertial, obj, dt):
    """d_3d = V |sin alpha| / q for optics seen from one sampled track and
    speed V felt by another; q from the differenced bearing series.

    Returns (d_3d, speed V, q), with d_3d NaN where V or q is below the
    validity thresholds.
    """
    rel = pos_optics - np.asarray(obj, dtype=float)
    bearing = rel / np.sqrt(np.sum(rel * rel, axis=1))[:, None]
    q = np.linalg.norm(np.cross(bearing, central_diff(bearing, dt)), axis=1)
    heading_speed = np.linalg.norm(vel_optics, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_alpha = -np.sum(bearing * vel_optics, axis=1) / heading_speed
        sin_alpha = np.sin(np.arccos(np.clip(cos_alpha, -1.0, 1.0)))
        speed = np.linalg.norm(vel_inertial, axis=1)
        d = speed * sin_alpha / q
    ok = (speed >= EPS_SPEED) & (heading_speed > EPS_SPEED) & (q >= EPS_RATE)
    return np.where(ok, d, np.nan), speed, q


def windowed_rel_std(x, valid, half_width, min_count):
    """std/|mean| of the valid entries in the window [k - h, k + h], by
    brute force with a two-pass (centered) variance; NaN where fewer than
    ``min_count`` entries are valid, 0 for an all-zero window."""
    n = len(x)
    width = 2 * half_width + 1
    xs = np.concatenate([np.zeros(half_width), np.where(valid, x, 0.0),
                         np.zeros(half_width)])
    vs = np.concatenate([np.zeros(half_width, bool), valid, np.zeros(half_width, bool)])
    xw = np.lib.stride_tricks.sliding_window_view(xs, width)[:n]
    vw = np.lib.stride_tricks.sliding_window_view(vs, width)[:n]
    count = vw.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(vw, xw, 0.0).sum(axis=1) / count
        var = np.where(vw, (xw - mean[:, None]) ** 2, 0.0).sum(axis=1) / count
        std = np.sqrt(var)
        out = np.where(np.abs(mean) > 0.0, std / np.abs(mean),
                       np.where(std == 0.0, 0.0, np.nan))
    return np.where(count >= min_count, out, np.nan)


# ---------------------------------------------------------------------------
# accuracy and slope
# ---------------------------------------------------------------------------

def accuracy(values, valid, truth, tolerance):
    """The accuracy entry of one estimator, or None with no valid sample."""
    valid = np.asarray(valid, dtype=bool)
    n_valid = int(valid.sum())
    if n_valid == 0:
        return None
    rel = np.abs(values[valid] - truth[valid]) / truth[valid]
    return {"valid_fraction": n_valid / len(values),
            "accurate_fraction": int(np.sum(rel <= tolerance)) / n_valid,
            "mean_abs_relative_error": float(np.mean(rel))}


def slope(acceleration, normal):
    """Angle between the direction of balance (along a - g) and ``normal``."""
    balance = acceleration - GRAVITY
    normal = np.broadcast_to(np.asarray(normal, dtype=float), balance.shape)
    return np.arctan2(np.linalg.norm(np.cross(balance, normal), axis=1),
                      np.sum(balance * normal, axis=1))


def tilted_normal(tilt):
    """The level normal (0, 0, 1) tilted by ``tilt`` rad about the y axis."""
    return np.array([np.sin(tilt), 0.0, np.cos(tilt)])


# ---------------------------------------------------------------------------
# the benchmark's own track CSV writer
# ---------------------------------------------------------------------------

def track_csv_text(t, pos, vel, acc):
    """Track CSV with shortest round-trip floats, written without fileio."""
    table = np.column_stack([t, pos, vel, acc]).tolist()
    lines = [",".join(TRACK_HEADER)]
    lines.extend(",".join(map(repr, row)) for row in table)
    return "\n".join(lines) + "\n"
