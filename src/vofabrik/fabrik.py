"""Iterative backward/forward reaching IK with per-joint angle clamping.

One iteration runs a backward phase (tip pinned to the target, links
repositioned tip-to-base) then a forward phase (base re-anchored, links
repositioned base-to-tip). After every positional step the proposed link
direction is converted to (pitch, yaw) in the parent frame, pushed
through an angle chooser, and the position is recomputed from the chosen
angles — so joint limits hold after every half-iteration, not just at
convergence.

The chooser is the extension point the obstacle-aware planner hooks into.
It is called once per sweep, with the positions the sweep enters with
(backward: the tip already pinned to the target; forward: the base already
re-anchored), and returns the function that picks each joint's angles in
that sweep. The default chooser clamps into the joint limits and nothing
else. Both callers share every other instruction, which is what makes the
planner with no active constraints reproduce this solver bit for bit. A
chooser that finds no angle it may pick raises SafeSetEmpty; the solve
then ends BLOCKED with its last completed iterate.

Backward-phase clamping needs a parent frame before parents are updated;
the frames captured from the entry state are used for the whole phase.
Those are the frames the previous forward phase built, so only the first
iteration computes them from the state's angles.

The sweep carries positions and frames as Python float tuples and builds
the state's arrays only for on_iteration and for the outcome. Each link
norm and the residual round as np.linalg.norm does, through geometry.fma,
so the sweep is bit for bit the numpy sweep it replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .chain import (
    ChainModel,
    ChainState,
    JointAngles,
    JointFrame,
    JointLimits,
    advance_frame,
    angles_from_direction,
    joint_frames,
)
from .geometry import DEGENERACY_THRESHOLD, as_vec3, fma


class Phase(Enum):
    BACKWARD = "backward"
    FORWARD = "forward"


class SolveStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    INFEASIBLE = "infeasible"
    BLOCKED = "blocked"  # the chooser raised SafeSetEmpty


class SafeSetEmpty(RuntimeError):
    """A chooser finds every angle in the joint-limit rectangle forbidden."""


@dataclass(frozen=True)
class FabrikConfig:
    epsilon: float = 1e-3
    max_iterations: int = 100

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if type(self.max_iterations) is not int or self.max_iterations < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")


@dataclass
class SolveOutcome:
    status: SolveStatus
    state: ChainState
    iterations: int
    residual: float


# chooser(phase, positions) starts one sweep from the positions it enters
# with, a list of (x, y, z) tuples the sweep updates in place, and returns
# choose(joint, desired, limits, frame, pivot) -> (pitch, yaw)
AngleChooser = Callable[
    [Phase, list],
    Callable[[int, JointAngles, JointLimits, JointFrame, tuple], "tuple[float, float]"],
]


def clamp_to_limits(pitch: float, yaw: float, limits: JointLimits):
    """Clamp each axis independently into its interval."""
    return (
        min(max(pitch, limits.pitch_min), limits.pitch_max),
        min(max(yaw, limits.yaw_min), limits.yaw_max),
    )


def _clamp(joint, desired, limits, frame, pivot):
    return clamp_to_limits(desired.pitch, desired.yaw, limits)


def _default_chooser(phase, positions):
    return _clamp


def _entry_direction(entry, i):
    """Link i's unit direction in a phase's entry positions. Its norm sums
    the squares unfused, left to right, as np.linalg.norm(axis=1) does."""
    dx, dy, dz = (b - a for a, b in zip(entry[i], entry[i + 1]))
    n = math.sqrt(dx * dx + dy * dy + dz * dz)
    return dx / n, dy / n, dz / n


def _direction(p_from, p_to, entry, i):
    """Unit vector from p_from to p_to. If they coincide, link i's
    direction in the phase's entry positions."""
    dx, dy, dz = p_to[0] - p_from[0], p_to[1] - p_from[1], p_to[2] - p_from[2]
    n = math.sqrt(fma(dz, dz, fma(dy, dy, dx * dx)))
    if n < DEGENERACY_THRESHOLD:
        return _entry_direction(entry, i)
    return dx / n, dy / n, dz / n


def _backward_phase(model, p, entry, frames, target, chooser):
    p[-1] = target
    choose = chooser(Phase.BACKWARD, p)
    lengths = model.lengths.tolist()
    for i in range(model.n_links - 1, -1, -1):
        x, y, z = pivot = p[i + 1]
        desired = angles_from_direction(frames[i], _direction(p[i], pivot, entry, i))
        pitch, yaw = choose(i, desired, model.limits[i], frames[i], pivot)
        (dx, dy, dz), _ = advance_frame(frames[i], pitch, yaw)
        length = lengths[i]
        p[i] = (x - length * dx, y - length * dy, z - length * dz)


def _forward_phase(model, p, chooser):
    """Returns the chosen angles and every joint's parent frame, which are
    joint_frames of those angles."""
    angles, frames = [], []
    entry = p[:]
    p[0] = tuple(model.base.tolist())
    choose = chooser(Phase.FORWARD, p)
    frame = model.base_frame()
    for i, length in enumerate(model.lengths.tolist()):
        frames.append(frame)
        x, y, z = pivot = p[i]
        desired = angles_from_direction(frame, _direction(pivot, p[i + 1], entry, i))
        pitch, yaw = choose(i, desired, model.limits[i], frame, pivot)
        (dx, dy, dz), frame = advance_frame(frame, pitch, yaw)
        p[i + 1] = (x + length * dx, y + length * dy, z + length * dz)
        angles.append((pitch, yaw))
    return angles, frames


def solve(
    model: ChainModel,
    state: ChainState,
    target,
    cfg: Optional[FabrikConfig] = None,
    choose_angles: Optional[AngleChooser] = None,
    on_iteration=None,
) -> SolveOutcome:
    """Drive the end effector to the target, keeping limits at every step.

    The state must pass ChainState.validate (else InconsistentPositions).
    Out-of-reach targets run exactly one stretch iteration and come back
    with status INFEASIBLE and the best stretched state. A chooser may
    raise SafeSetEmpty: the solve then ends BLOCKED with its last completed
    iterate, the start state and 0 iterations in iteration 1. on_iteration,
    if given, is called with (iteration, backward_positions, state) after
    every full iteration — used by tests to watch per-iteration invariants.
    """
    state.validate(model)
    return _solve(model, state, target, cfg, choose_angles, on_iteration)


def _solve(model, state, target, cfg, choose_angles, on_iteration=None):
    """solve on a state known to be valid: plan's start, which plan
    validates, or a state an earlier solve returned."""
    cfg = cfg or FabrikConfig()
    chooser = choose_angles or _default_chooser
    # ChainModel keeps the chain's reach within COORDINATE_RANGE, as_vec3 the target
    target = as_vec3(target, "target")

    residual = float(np.linalg.norm(state.positions[-1] - target))
    if residual < cfg.epsilon:
        return SolveOutcome(SolveStatus.CONVERGED, state.copy(), 0, residual)

    reachable = float(np.linalg.norm(target - model.base)) <= model.total_length
    budget = cfg.max_iterations if reachable else 1

    tx, ty, tz = target = tuple(target.tolist())
    p = list(map(tuple, state.positions.tolist()))
    # later iterations reuse the frames the previous forward phase built
    frames = joint_frames(model, state.angles)
    status = SolveStatus.MAX_ITERATIONS if reachable else SolveStatus.INFEASIBLE
    angles = state.angles
    for iteration in range(1, budget + 1):
        entry = p[:]
        try:
            _backward_phase(model, p, entry, frames, target, chooser)
            backward_snapshot = np.array(p) if on_iteration is not None else None
            angles, frames = _forward_phase(model, p, chooser)
        except SafeSetEmpty:
            p, iteration, status = entry, iteration - 1, SolveStatus.BLOCKED
            break
        x, y, z = p[-1]
        dx, dy, dz = x - tx, y - ty, z - tz
        residual = math.sqrt(fma(dz, dz, fma(dy, dy, dx * dx)))
        if on_iteration is not None:
            on_iteration(iteration, backward_snapshot, ChainState(np.array(p), np.array(angles)))
        if reachable and residual < cfg.epsilon:
            status = SolveStatus.CONVERGED
            break
    return SolveOutcome(status, ChainState(np.array(p), np.array(angles)), iteration, residual)
