"""Kinematic chain model, joint state, and forward kinematics.

Every joint has two rotational degrees of freedom expressed in the parent
link's frame: yaw about the frame's up axis first, then pitch about the
yawed lateral axis. Positive yaw turns the link toward the frame's left
(up x forward), positive pitch tips it toward the frame's up. A 1-DoF
joint is modeled by collapsing the unused axis's limits to [0, 0].

Joint 0's parent frame is (base_direction, world_up) after projecting the
up vector orthogonal to the direction; each subsequent frame is carried
along by the joint rotations, so frames never roll about the link axis.

Decomposing a link direction back into angles is the inverse projection:
pitch = asin(d . up), yaw = atan2(d . left, d . forward). The antiparallel
fold (a link pointing straight back along its parent) comes out as yaw = pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import Capsule3, Segment3, as_vec3

# float-noise allowance of fk's limit check and ChainState.validate
_TOL = 1e-9


class AngleOutOfLimits(ValueError):
    """A joint angle violates its limits."""

    def __init__(self, joint: int, axis: str, value: float, lo: float, hi: float):
        self.joint = joint
        self.axis = axis
        self.value = value
        super().__init__(
            f"joint {joint} {axis} angle {value:.6g} rad outside [{lo:.6g}, {hi:.6g}]"
        )


class InconsistentPositions(ValueError):
    """Positions do not satisfy the rigid-link lengths."""


class JointAngles(NamedTuple):
    pitch: float
    yaw: float


class LinkSpec(NamedTuple):
    length: float
    thickness: float


@dataclass(frozen=True)
class JointLimits:
    """Independent pitch and yaw bounds for one joint, in radians."""

    pitch_min: float
    pitch_max: float
    yaw_min: float
    yaw_max: float

    def __post_init__(self):
        for lo, hi, name in (
            (self.pitch_min, self.pitch_max, "pitch"),
            (self.yaw_min, self.yaw_max, "yaw"),
        ):
            if not (-math.pi <= lo <= hi <= math.pi):
                raise ValueError(
                    f"{name} limits must satisfy -pi <= min <= max <= pi, got [{lo}, {hi}]"
                )

    @classmethod
    def unlimited(cls) -> "JointLimits":
        return cls(-math.pi, math.pi, -math.pi, math.pi)

    @classmethod
    def symmetric(cls, pitch: float, yaw: float) -> "JointLimits":
        return cls(-pitch, pitch, -yaw, yaw)

    def contains(self, pitch: float, yaw: float, tol: float = 0.0) -> bool:
        return (
            self.pitch_min - tol <= pitch <= self.pitch_max + tol
            and self.yaw_min - tol <= yaw <= self.yaw_max + tol
        )


class JointFrame(NamedTuple):
    """Orthonormal (forward, up) pair defining a joint's parent frame."""

    forward: np.ndarray
    up: np.ndarray


def advance_frame(frame: JointFrame, pitch: float, yaw: float):
    """Apply yaw about up, then pitch about the yawed lateral axis.

    Returns (link_direction, child_frame). The child frame's forward is the
    link direction; its up is the pitched copy of the parent up.
    """
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


def angles_from_direction(frame: JointFrame, direction: np.ndarray) -> JointAngles:
    """Recover (pitch, yaw) of a unit link direction in the parent frame.

    yaw comes out in (-pi, pi], pitch in [-pi/2, pi/2]. The direction is
    assumed unit length; no singularity check happens here.
    """
    fx, fy, fz = frame.forward.tolist()
    ux, uy, uz = frame.up.tolist()
    dx, dy, dz = direction.tolist()
    lx = uy * fz - uz * fy
    ly = uz * fx - ux * fz
    lz = ux * fy - uy * fx
    z = min(max(dx * ux + dy * uy + dz * uz, -1.0), 1.0)
    pitch = math.asin(z)
    yaw = math.atan2(
        dx * lx + dy * ly + dz * lz, dx * fx + dy * fy + dz * fz
    )
    if yaw <= -math.pi:
        yaw = math.pi
    return JointAngles(pitch, yaw)


@dataclass(frozen=True)
class ChainModel:
    """Immutable description of a serial chain.

    links[k] spans positions p_k to p_{k+1}; limits[k] bounds joint k, the
    joint at p_k that aims link k relative to link k-1 (or relative to
    base_direction for k = 0).
    """

    base: np.ndarray
    base_direction: np.ndarray
    links: tuple
    limits: tuple
    world_up: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        object.__setattr__(self, "base", as_vec3(self.base))
        object.__setattr__(self, "base_direction", as_vec3(self.base_direction))
        object.__setattr__(self, "world_up", as_vec3(self.world_up))
        object.__setattr__(self, "links", tuple(LinkSpec(*l) for l in self.links))
        object.__setattr__(self, "limits", tuple(self.limits))

        if len(self.links) < 2:
            raise ValueError(f"a chain needs at least 2 links, got {len(self.links)}")
        if len(self.limits) != len(self.links):
            raise ValueError(
                f"limits count {len(self.limits)} != link count {len(self.links)}"
            )
        for k, link in enumerate(self.links):
            if not link.length > 0.0:
                raise ValueError(f"link {k} length must be > 0, got {link.length}")
            if link.thickness < 0.0:
                raise ValueError(f"link {k} thickness must be >= 0, got {link.thickness}")
        n = float(np.linalg.norm(self.base_direction))
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"base_direction must be unit length, norm is {n:.17g}")
        up = self.world_up / np.linalg.norm(self.world_up)
        if abs(float(np.dot(self.base_direction, up))) > 1.0 - 1e-9:
            raise ValueError("base_direction must not be collinear with world_up")

        object.__setattr__(self, "lengths", np.array([l.length for l in self.links]))
        object.__setattr__(
            self, "thicknesses", np.array([l.thickness for l in self.links])
        )

    @property
    def n_links(self) -> int:
        return len(self.links)

    @property
    def total_length(self) -> float:
        return float(np.sum(self.lengths))

    def base_frame(self) -> JointFrame:
        f = self.base_direction
        up = self.world_up / np.linalg.norm(self.world_up)
        u = up - float(np.dot(up, f)) * f
        return JointFrame(f, u / np.linalg.norm(u))


@dataclass
class ChainState:
    """Joint positions and the angles that generate them.

    positions has n_links + 1 rows; angles has one (pitch, yaw) row per
    joint. The two are kept mutually consistent: positions == fk(angles).
    """

    positions: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.angles = np.asarray(self.angles, dtype=float)

    @property
    def end_effector(self) -> np.ndarray:
        return self.positions[-1]

    def copy(self) -> "ChainState":
        return ChainState(self.positions.copy(), self.angles.copy())

    def validate(self, model: ChainModel) -> None:
        """Check the rigid-link, base-anchor, and fk-consistency invariants."""
        if self.positions.shape != (model.n_links + 1, 3):
            raise InconsistentPositions(
                f"expected {model.n_links + 1} positions, got {self.positions.shape}"
            )
        if self.angles.shape != (model.n_links, 2):
            raise InconsistentPositions(
                f"expected {model.n_links} angle pairs, got {self.angles.shape}"
            )
        if float(np.linalg.norm(self.positions[0] - model.base)) > 1e-12:
            raise InconsistentPositions("p_0 does not coincide with the model base")
        seg = np.linalg.norm(np.diff(self.positions, axis=0), axis=1)
        err = np.abs(seg - model.lengths)
        if np.any(err > _TOL):
            k = int(np.argmax(err))
            raise InconsistentPositions(
                f"link {k} length {seg[k]:.12g} deviates from {model.lengths[k]:.12g}"
            )
        rebuilt = fk(model, self.angles, check_limits=False)
        if float(np.max(np.linalg.norm(rebuilt - self.positions, axis=1))) > _TOL:
            raise InconsistentPositions("positions are not fk(angles)")


def _as_angle_array(angles, n_links: int) -> np.ndarray:
    a = np.asarray(angles, dtype=float)
    if a.shape != (n_links, 2):
        raise ValueError(f"expected {n_links} (pitch, yaw) pairs, got shape {a.shape}")
    return a


def fk(model: ChainModel, angles, check_limits: bool = True) -> np.ndarray:
    """Forward kinematics: joint angles to the n_links + 1 joint positions."""
    a = _as_angle_array(angles, model.n_links)
    if check_limits:
        for j, lim in enumerate(model.limits):
            pitch, yaw = a[j]
            if not (lim.pitch_min - _TOL <= pitch <= lim.pitch_max + _TOL):
                raise AngleOutOfLimits(j, "pitch", pitch, lim.pitch_min, lim.pitch_max)
            if not (lim.yaw_min - _TOL <= yaw <= lim.yaw_max + _TOL):
                raise AngleOutOfLimits(j, "yaw", yaw, lim.yaw_min, lim.yaw_max)

    positions = np.empty((model.n_links + 1, 3))
    positions[0] = model.base
    frame = model.base_frame()
    for j in range(model.n_links):
        d, frame = advance_frame(frame, a[j, 0], a[j, 1])
        positions[j + 1] = positions[j] + model.lengths[j] * d
    return positions


def state_from_angles(model: ChainModel, angles, check_limits: bool = True) -> ChainState:
    """Build a consistent ChainState from joint angles."""
    a = _as_angle_array(angles, model.n_links)
    return ChainState(fk(model, a, check_limits=check_limits), a.copy())


def link_capsules(model: ChainModel, state: ChainState) -> list:
    """Volumetric link model: one capsule per link, radius = link thickness."""
    return [
        Capsule3(Segment3(state.positions[k], state.positions[k + 1]), model.links[k].thickness)
        for k in range(model.n_links)
    ]


def joint_frames(model: ChainModel, angles) -> list:
    """Parent frame of every joint for the given angle sequence.

    Entry j is the frame in which joint j's (pitch, yaw) are measured.
    """
    a = _as_angle_array(angles, model.n_links)
    frames = [model.base_frame()]
    for j in range(model.n_links - 1):
        _, nxt = advance_frame(frames[-1], a[j, 0], a[j, 1])
        frames.append(nxt)
    return frames
