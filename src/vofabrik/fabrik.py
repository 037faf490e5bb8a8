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
planner with no active constraints reproduce this solver bit for bit.

Backward-phase clamping needs a parent frame before parents are updated;
the frames captured from the entry state are used for the whole phase.
Those are the frames the previous forward phase built, so only the first
iteration computes them from the state's angles.
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
from .geometry import DEGENERACY_THRESHOLD, as_vec3


class Phase(Enum):
    BACKWARD = "backward"
    FORWARD = "forward"


class SolveStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class FabrikConfig:
    epsilon: float = 1e-3
    max_iterations: int = 100

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass
class SolveOutcome:
    status: SolveStatus
    state: ChainState
    iterations: int
    residual: float


# chooser(phase, positions) starts one sweep from the positions it enters
# with and returns choose(joint, desired, limits, frame, pivot) -> (pitch, yaw)
AngleChooser = Callable[
    [Phase, np.ndarray],
    Callable[[int, JointAngles, JointLimits, JointFrame, np.ndarray], "tuple[float, float]"],
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


def _entry_directions(positions: np.ndarray) -> np.ndarray:
    diffs = np.diff(positions, axis=0)
    return diffs / np.linalg.norm(diffs, axis=1)[:, None]


def _direction(p_from: np.ndarray, p_to: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Unit vector from p_from to p_to; entry link direction if coincident."""
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
    """Returns the chosen angles and every joint's parent frame, which are
    joint_frames of those angles."""
    angles = np.empty((model.n_links, 2))
    frames = []
    p[0] = model.base
    choose = chooser(Phase.FORWARD, p)
    frame = model.base_frame()
    for i in range(model.n_links):
        frames.append(frame)
        d = _direction(p[i], p[i + 1], dirs_entry[i])
        desired = angles_from_direction(frame, d)
        pitch, yaw = choose(i, desired, model.limits[i], frame, p[i])
        chosen_dir, frame = advance_frame(frame, pitch, yaw)
        p[i + 1] = p[i] + model.lengths[i] * chosen_dir
        angles[i] = (pitch, yaw)
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

    Out-of-reach targets run exactly one stretch iteration and come back
    with status INFEASIBLE and the best stretched state. on_iteration, if
    given, is called with (iteration, backward_positions, state) after
    every full iteration — used by tests to watch per-iteration invariants.
    """
    cfg = cfg or FabrikConfig()
    chooser = choose_angles or _default_chooser
    target = as_vec3(target)

    residual = float(np.linalg.norm(state.positions[-1] - target))
    if residual < cfg.epsilon:
        return SolveOutcome(SolveStatus.CONVERGED, state.copy(), 0, residual)

    reachable = float(np.linalg.norm(target - model.base)) <= model.total_length
    budget = cfg.max_iterations if reachable else 1

    current = state
    # later iterations reuse the frames the previous forward phase built
    frames = joint_frames(model, current.angles)
    for iteration in range(1, budget + 1):
        p = current.positions.copy()
        dirs = _entry_directions(p)
        _backward_phase(model, p, dirs, frames, target, chooser)
        backward_snapshot = p.copy() if on_iteration is not None else None
        dirs = _entry_directions(p)
        angles, frames = _forward_phase(model, p, dirs, chooser)
        current = ChainState(p, angles)
        residual = float(np.linalg.norm(p[-1] - target))
        if on_iteration is not None:
            on_iteration(iteration, backward_snapshot, current)
        if reachable and residual < cfg.epsilon:
            return SolveOutcome(SolveStatus.CONVERGED, current, iteration, residual)

    status = SolveStatus.MAX_ITERATIONS if reachable else SolveStatus.INFEASIBLE
    return SolveOutcome(status, current, budget, residual)
