"""Frozen numpy reference for the FABRIK sweep.

A copy of fabrik.solve and its two phases as they ran on numpy arrays
before the sweep moved to Python float tuples: positions as one (n+1, 3)
array updated row by row, frames as numpy 3-vectors built by the frame
functions below (chain.advance_frame, angles_from_direction and
joint_frames as they were), link norms by `delta @ delta` and the residual
by np.linalg.norm. Each phase computes every link's entry direction up
front, the fallback for a link whose ends coincide.

fabrik.solve must give the same status, iterations and residual (==) and
the same positions and angles (array_equal) with the same chooser.
"""

import math

import numpy as np

from vofabrik.chain import ChainState, JointAngles, JointFrame
from vofabrik.fabrik import Phase, SolveOutcome, SolveStatus, clamp_to_limits
from vofabrik.geometry import DEGENERACY_THRESHOLD


def base_frame(model):
    f = model.base_direction
    up = model.world_up / np.linalg.norm(model.world_up)
    u = up - float(np.dot(up, f)) * f
    return JointFrame(f, u / np.linalg.norm(u))


def advance_frame(frame, pitch, yaw):
    fx, fy, fz = frame.forward.tolist()
    ux, uy, uz = frame.up.tolist()
    lx = uy * fz - uz * fy
    ly = uz * fx - ux * fz
    lz = ux * fy - uy * fx
    cy, sy = math.cos(yaw), math.sin(yaw)
    f1x = cy * fx + sy * lx
    f1y = cy * fy + sy * ly
    f1z = cy * fz + sy * lz
    cp, sp = math.cos(pitch), math.sin(pitch)
    f2 = np.array([cp * f1x + sp * ux, cp * f1y + sp * uy, cp * f1z + sp * uz])
    u2 = np.array([cp * ux - sp * f1x, cp * uy - sp * f1y, cp * uz - sp * f1z])
    return f2, JointFrame(f2, u2)


def angles_from_direction(frame, direction):
    fx, fy, fz = frame.forward.tolist()
    ux, uy, uz = frame.up.tolist()
    dx, dy, dz = direction.tolist()
    lx = uy * fz - uz * fy
    ly = uz * fx - ux * fz
    lz = ux * fy - uy * fx
    z = min(max(dx * ux + dy * uy + dz * uz, -1.0), 1.0)
    pitch = math.asin(z)
    yaw = math.atan2(dx * lx + dy * ly + dz * lz, dx * fx + dy * fy + dz * fz)
    if yaw <= -math.pi:
        yaw = math.pi
    return JointAngles(pitch, yaw)


def joint_frames(model, angles):
    frames = [base_frame(model)]
    for j in range(model.n_links - 1):
        _, nxt = advance_frame(frames[-1], angles[j, 0], angles[j, 1])
        frames.append(nxt)
    return frames


def _clamp(joint, desired, limits, frame, pivot):
    return clamp_to_limits(desired.pitch, desired.yaw, limits)


def _entry_directions(positions):
    diffs = np.diff(positions, axis=0)
    return diffs / np.linalg.norm(diffs, axis=1)[:, None]


def _direction(p_from, p_to, fallback):
    delta = p_to - p_from
    n = math.sqrt(float(delta @ delta))
    if n < DEGENERACY_THRESHOLD:
        return fallback
    return delta / n


def _backward_phase(model, p, dirs_entry, frames, target, chooser):
    p[-1] = target
    choose = chooser(Phase.BACKWARD, p)
    for i in range(model.n_links - 1, -1, -1):
        d = _direction(p[i], p[i + 1], dirs_entry[i])
        desired = angles_from_direction(frames[i], d)
        pitch, yaw = choose(i, desired, model.limits[i], frames[i], p[i + 1])
        chosen_dir = advance_frame(frames[i], pitch, yaw)[0]
        p[i] = p[i + 1] - model.lengths[i] * chosen_dir


def _forward_phase(model, p, dirs_entry, chooser):
    angles = np.empty((model.n_links, 2))
    frames = []
    p[0] = model.base
    choose = chooser(Phase.FORWARD, p)
    frame = base_frame(model)
    for i in range(model.n_links):
        frames.append(frame)
        d = _direction(p[i], p[i + 1], dirs_entry[i])
        desired = angles_from_direction(frame, d)
        pitch, yaw = choose(i, desired, model.limits[i], frame, p[i])
        chosen_dir, frame = advance_frame(frame, pitch, yaw)
        p[i + 1] = p[i] + model.lengths[i] * chosen_dir
        angles[i] = (pitch, yaw)
    return angles, frames


def solve(model, state, target, cfg, chooser=None):
    chooser = chooser or (lambda phase, positions: _clamp)
    target = np.asarray(target, dtype=float)
    residual = float(np.linalg.norm(state.positions[-1] - target))
    if residual < cfg.epsilon:
        return SolveOutcome(SolveStatus.CONVERGED, state.copy(), 0, residual)

    reachable = float(np.linalg.norm(target - model.base)) <= model.total_length
    budget = cfg.max_iterations if reachable else 1

    current = state
    frames = joint_frames(model, current.angles)
    for iteration in range(1, budget + 1):
        p = current.positions.copy()
        dirs = _entry_directions(p)
        _backward_phase(model, p, dirs, frames, target, chooser)
        dirs = _entry_directions(p)
        angles, frames = _forward_phase(model, p, dirs, chooser)
        current = ChainState(p, angles)
        residual = float(np.linalg.norm(p[-1] - target))
        if reachable and residual < cfg.epsilon:
            return SolveOutcome(SolveStatus.CONVERGED, current, iteration, residual)

    status = SolveStatus.MAX_ITERATIONS if reachable else SolveStatus.INFEASIBLE
    return SolveOutcome(status, current, budget, residual)
