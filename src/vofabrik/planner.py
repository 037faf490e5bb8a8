"""Obstacle-aware reaching: per-link forbidden angle cells folded into
the solver's angle chooser, plus the outer loop stepping the end effector
toward the goal under velocity-obstacle guidance.

Safe angles are computed by conservative rasterization. For each sphere
that could touch the link (real obstacles plus virtual self-collision
spheres at the closest points of non-adjacent links), the candidate
(pitch, yaw) grid over the joint-limit rectangle is scanned in a window
around the sphere's direction and cells whose link capsule would come
within the touch threshold are marked forbidden. The mark threshold is
inflated by the worst-case variation of the clearance function across one
cell (link length x half cell diagonal), which makes the forbidden region
a rigorous superset of the truly colliding set: any angle in an unmarked
cell keeps the capsule strictly clear of the inflated sphere.

The backward half-iteration reuses the same rasterizer by reflecting
sphere centers through the pivot: the link then extends from the pivot
toward the reflected center exactly when the real link (which extends
away from the pivot) would approach the real center.

When no cell is forbidden, the chooser falls through to the identical
limit clamp the plain solver uses, so with no obstacles in range the
planner reproduces plain FABRIK bit for bit.

Most link visits have no sphere within reach. A broad phase in plain
Python floats settles those before any array is built: it tests the
pivot against each obstacle and against a bounding ball (midpoint,
half-length) of each link the sweep has yet to place, with every bound
loosened past rounding, so it rejects only visits that the numpy broad
phase would also find empty.

min_clearance evaluates all non-adjacent link pairs in one batched
segment-segment kernel that repeats the scalar geometry path operation
for operation, so its result is bit-equal to it. The validator in
harness alone keeps the scalar geometry path, as an independent audit.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .chain import ChainModel, ChainState, cross3
from .fabrik import (
    FabrikConfig,
    Phase,
    SolveOutcome,
    clamp_to_limits,
    solve as fabrik_solve,
)
from .geometry import DEGENERACY_THRESHOLD, DegenerateSegment, as_vec3
from .velocity_obstacles import (
    NoAdmissibleVelocity,
    SphereObstacle,
    VOConfig,
    admissible_velocity,
    collision_cone,
)


class SafeSetEmpty(RuntimeError):
    """Every angle in the joint-limit rectangle is forbidden."""

    def __init__(self, joint: Optional[int] = None, phase: Optional[Phase] = None):
        self.joint = joint
        self.phase = phase
        where = "" if joint is None else f" at joint {joint} ({phase.value} phase)"
        super().__init__(f"no safe joint angles remain{where}")


class InitialStateInCollision(ValueError):
    """The starting configuration already violates clearance."""


class SweepOrderError(RuntimeError):
    """ConeConstraints was called at a later joint of a sweep that never
    started at its first joint."""

    def __init__(self, phase: Phase, joint: int, first: int):
        self.joint = joint
        self.phase = phase
        super().__init__(
            f"chooser called at joint {joint} of a {phase.value} sweep that was "
            f"never started: each sweep must begin at joint {first}, where the "
            "chooser caches the sweep's segment geometry"
        )


class PlanStatus(Enum):
    GOAL_REACHED = "GoalReached"
    STALLED = "Stalled"
    STEP_LIMIT = "StepLimit"
    SAFE_SET_EMPTY = "SafeSetEmpty"
    NO_ADMISSIBLE_VELOCITY = "NoAdmissibleVelocity"


@dataclass(frozen=True)
class PlannerConfig:
    """Outer-loop timing, tolerances, and the nested solver configs."""

    t_s: float = 0.2
    v_pref_speed: float = 0.1
    goal_tolerance: float = 5e-3
    max_steps: int = 300
    stall_window: int = 10
    stall_displacement: float = 1e-4
    angular_resolution: float = math.radians(0.5)
    clearance_margin: float = 5e-3
    ik: FabrikConfig = field(default_factory=FabrikConfig)
    vo: VOConfig = field(default_factory=VOConfig)

    def __post_init__(self):
        for name in (
            "t_s",
            "v_pref_speed",
            "goal_tolerance",
            "max_steps",
            "stall_displacement",
            "angular_resolution",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.stall_window < 1:
            raise ValueError(f"stall_window must be >= 1, got {self.stall_window}")
        if self.clearance_margin < 0:
            raise ValueError(
                f"clearance_margin must be >= 0, got {self.clearance_margin}"
            )


@dataclass
class StepMetrics:
    joint_displacements: np.ndarray  # per-axis |delta|, flattened (2 per joint)
    wall_time: float
    min_clearance: float


@dataclass
class PlanOutcome:
    status: PlanStatus
    trajectory: list  # ChainState per step, index 0 is the initial state
    per_step_metrics: list  # StepMetrics, one per transition


def _axis_grid(lo: float, hi: float, resolution: float):
    """Cell edges and centers covering [lo, hi] at most `resolution` wide."""
    if hi <= lo:
        return np.array([lo, lo]), np.array([lo])
    n = max(1, int(math.ceil((hi - lo) / resolution)))
    edges = lo + np.arange(n + 1) * ((hi - lo) / n)
    edges[-1] = hi
    centers = 0.5 * (edges[:-1] + edges[1:])
    return edges, centers


def _rect_difference(rects, cut):
    """Subtract one rectangle from a list of rectangles."""
    cplo, cphi, cylo, cyhi = cut
    out = []
    for plo, phi, ylo, yhi in rects:
        if phi < cplo or plo > cphi or yhi < cylo or ylo > cyhi:
            out.append((plo, phi, ylo, yhi))
            continue
        if plo < cplo:
            out.append((plo, cplo, ylo, yhi))
        if cphi < phi:
            out.append((cphi, phi, ylo, yhi))
        mp_lo, mp_hi = max(plo, cplo), min(phi, cphi)
        if ylo < cylo:
            out.append((mp_lo, mp_hi, ylo, cylo))
        if cyhi < yhi:
            out.append((mp_lo, mp_hi, cyhi, yhi))
    return out


def _window_spans(center: float, halfwidth: float, lo: float, hi: float):
    """Angle intervals around `center`, wrapped into (-pi, pi], clipped."""
    a, b = center - halfwidth, center + halfwidth
    if b - a >= 2.0 * math.pi:
        spans = [(-math.pi, math.pi)]
    elif a < -math.pi:
        spans = [(-math.pi, b), (a + 2.0 * math.pi, math.pi)]
    elif b > math.pi:
        spans = [(a, math.pi), (-math.pi, b - 2.0 * math.pi)]
    else:
        spans = [(a, b)]
    return [(max(s, lo), min(e, hi)) for s, e in spans if max(s, lo) <= min(e, hi)]


def _index_range(edges: np.ndarray, lo: float, hi: float):
    """Half-open cell index range whose cells intersect [lo, hi]."""
    n = len(edges) - 1
    if n == 1:
        return (0, 1) if hi >= edges[0] and lo <= edges[-1] else (0, 0)
    i0 = int(np.searchsorted(edges, lo, side="right")) - 1
    i1 = int(np.searchsorted(edges, hi, side="left"))
    return max(i0, 0), min(max(i1, 0), n)


def _cell_of(edges: np.ndarray, x: float) -> int:
    """Index of the cell containing x, clamped into range."""
    n = len(edges) - 1
    if n == 1:
        return 0
    return min(max(int(np.searchsorted(edges, x, side="right")) - 1, 0), n - 1)


def _loosen(bound: float) -> float:
    """A distance bound widened past the rounding of numpy and float sums."""
    return bound * (1.0 + 1e-9) + 1e-12


def _hit_cells(pitch, yaw, proj, length, reach):
    """Cells whose link segment passes within `reach` of a sphere center.

    proj = the center relative to the pivot, projected on the joint frame
    triad (forward, lateral, up) plus its squared norm; the candidate link
    direction at cell center (p, y) is
    cos(p)cos(y)*forward + cos(p)sin(y)*lateral + sin(p)*up.
    """
    rf, rl, ru, rr = proj
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    s = (
        np.outer(cp * rf, cy)
        + np.outer(cp * rl, sy)
        + np.outer(sp, np.ones_like(cy)) * ru
    )
    t = np.clip(s, 0.0, length)
    d2 = rr - 2.0 * t * s + t * t
    return d2 <= reach * reach


class ConeConstraints:
    """The planner's angle chooser (a fabrik AngleChooser).

    Forbids the (pitch, yaw) cells that would bring the link within touch
    of an obstacle or a virtual self-sphere, and returns the desired angles
    clamped to the limits, or the nearest safe angles when those fall in a
    forbidden cell. plan and ik_phase build one per call; fabrik.solve
    invokes it at every link visit with the sweep's working positions.

    Call order: each sweep must start at its first joint (backward: n - 1,
    forward: 0), as fabrik.solve does, because that call caches the
    sweep's segment geometry for the virtual self-spheres; a call at a
    later joint of a sweep never started raises SweepOrderError.
    """

    def __init__(self, model: ChainModel, obstacles: Sequence[SphereObstacle], cfg: PlannerConfig):
        self.model = model
        self.cfg = cfg
        self.real_centers = (
            np.array([o.center for o in obstacles], dtype=float)
            if obstacles
            else np.empty((0, 3))
        )
        self.real_radii = np.array([o.radius for o in obstacles], dtype=float)
        self.grids = [
            (
                _axis_grid(lim.pitch_min, lim.pitch_max, cfg.angular_resolution),
                _axis_grid(lim.yaw_min, lim.yaw_max, cfg.angular_resolution),
            )
            for lim in model.limits
        ]
        self._thick = np.asarray(model.thicknesses, dtype=float)
        # full-resolution diagonal on every joint: inside the sweep, extra
        # conservatism is cheap and keeps the margin uniform across joints
        # whose live axes differ
        self._lips = (
            np.asarray(model.lengths, dtype=float)
            * 0.5
            * cfg.angular_resolution
            * math.sqrt(2.0)
            * 1.0001
        )
        # a chain of two links has no non-adjacent pair, so no self-spheres
        self._has_virtual = model.n_links > 2 and bool((self._thick > 0.0).any())
        # the plain-float broad phase: per joint, the part of the touch
        # reach every sphere shares, and the real spheres as (x, y, z,
        # squared reach); each term is loosened, so every sum of them is
        self._reach = _loosen(
            np.asarray(model.lengths, dtype=float) + cfg.clearance_margin + self._thick + self._lips
        ).tolist()
        real = list(zip(self.real_centers.tolist(), self.real_radii.tolist()))
        self._real_reach = [
            [(x, y, z, (reach + _loosen(r)) ** 2) for (x, y, z), r in real]
            for reach in self._reach
        ]
        self._sweep = None
        self._sweep_diffs = None
        self._sweep_len2 = None
        self._sweep_balls = None

    def __call__(self, phase, joint, desired, limits, frame, pivot, positions):
        self._enter_sweep(phase, joint, positions)
        if self._out_of_reach(phase, joint, pivot):
            return clamp_to_limits(desired.pitch, desired.yaw, limits)
        centers, touch = self._touch_spheres(phase, joint, positions, pivot)
        if centers is None:
            return clamp_to_limits(desired.pitch, desired.yaw, limits)
        if phase is Phase.BACKWARD:
            centers = 2.0 * pivot - centers
        hits = self._rasterize(joint, frame, pivot, centers, touch)
        if not hits:
            return clamp_to_limits(desired.pitch, desired.yaw, limits)
        try:
            return self._nearest_safe(joint, limits, desired, hits)
        except SafeSetEmpty:
            raise SafeSetEmpty(joint=joint, phase=phase) from None

    def _enter_sweep(self, phase, joint, positions):
        """At a sweep's first joint, cache its segment geometry; at a later
        joint, require that this sweep was started.

        A sweep's virtual-sphere sources are its entry positions (the
        visited side is never read), so each link's direction, squared
        length and bounding ball (midpoint, half-length + thickness) hold
        for the whole sweep.
        """
        first = self.model.n_links - 1 if phase is Phase.BACKWARD else 0
        if joint != first:
            if self._sweep is not phase:
                raise SweepOrderError(phase, joint, first)
            return
        self._sweep = phase
        if self._has_virtual:
            diffs = np.diff(positions, axis=0)
            self._sweep_diffs = diffs
            self._sweep_len2 = np.einsum("ij,ij->i", diffs, diffs)
            mids = positions[:-1] + 0.5 * diffs
            halves = _loosen(0.5 * np.sqrt(self._sweep_len2) + self._thick)
            self._sweep_balls = [
                (x, y, z, h) for (x, y, z), h in zip(mids.tolist(), halves.tolist())
            ]

    def _out_of_reach(self, phase, joint, pivot):
        """True when no sphere can come within reach of the link, decided
        in plain floats before any array is built.

        Each bound over-estimates _touch_spheres' (a virtual sphere lies
        within its link's bounding ball) and is loosened past rounding, so
        this holds only when _touch_spheres would keep no sphere. Spheres of
        radius 0 count here although _touch_spheres drops them.
        """
        px, py, pz = pivot.tolist()
        for x, y, z, reach2 in self._real_reach[joint]:
            dx, dy, dz = x - px, y - py, z - pz
            if dx * dx + dy * dy + dz * dz <= reach2:
                return False
        if self._has_virtual:
            if phase is Phase.BACKWARD:
                balls = self._sweep_balls[: max(joint - 1, 0)]
            else:
                balls = self._sweep_balls[joint + 2 :]
            reach = self._reach[joint]
            for x, y, z, h in balls:
                dx, dy, dz = x - px, y - py, z - pz
                bound = reach + h
                if dx * dx + dy * dy + dz * dz <= bound * bound:
                    return False
        return True

    def _touch_spheres(self, phase, joint, positions, pivot):
        """Candidate spheres as (centers, touch distances): the link's
        center-line segment closer than `touch` to a center collides.
        None when no sphere can reach the link."""
        thick_k = float(self._thick[joint])
        if self._has_virtual:
            n = self.model.n_links
            if phase is Phase.BACKWARD:
                j0, j1 = 0, joint - 1
            else:
                j0, j1 = joint + 2, n
        else:
            j0 = j1 = 0
        if j1 > j0:
            a = positions[j0:j1]
            d = self._sweep_diffs[j0:j1]
            t = np.einsum("ij,ij->i", pivot[None, :] - a, d) / self._sweep_len2[j0:j1]
            np.clip(t, 0.0, 1.0, out=t)
            v_centers = a + t[:, None] * d
            v_radii = self._thick[j0:j1]
            if self.real_centers.size:
                centers = np.concatenate([self.real_centers, v_centers], axis=0)
                radii = np.concatenate([self.real_radii, v_radii])
            else:
                centers, radii = v_centers, v_radii
        elif self.real_centers.size:
            centers, radii = self.real_centers, self.real_radii
        else:
            return None, None

        length = float(self.model.lengths[joint])
        lip = float(self._lips[joint])
        delta = centers - pivot
        d2 = np.einsum("ij,ij->i", delta, delta)
        bound = length + radii + self.cfg.clearance_margin + thick_k + lip
        keep = (d2 <= bound * bound) & (radii > 0.0)
        if not keep.any():
            return None, None
        centers = centers[keep]
        radii = radii[keep]
        dist = np.sqrt(d2[keep])
        # shrink the margin where the pivot sits close, so the touch sphere
        # never swallows the pivot while true clearance is still positive
        margin = np.clip(
            np.minimum(self.cfg.clearance_margin, 0.5 * (dist - thick_k - radii)),
            0.0,
            None,
        )
        return centers, radii + margin + thick_k

    def _rasterize(self, joint, frame, pivot, centers, touch):
        """Forbidden cells per sphere: list of (i0, j0, hit bool array)."""
        (pe, pc), (ye, yc) = self.grids[joint]
        length = float(self.model.lengths[joint])
        lip = float(self._lips[joint])
        f, u = frame.forward, frame.up
        lat = cross3(u, f)
        hits = []
        for c, t_m in zip(centers, touch):
            rel = c - pivot
            dist = float(np.linalg.norm(rel))
            reach = t_m + lip
            if dist > length + reach:
                continue
            if dist <= reach:
                # pivot itself within touch: every direction collides
                hits.append(
                    (0, 0, np.ones((len(pc), len(yc)), dtype=bool))
                )
                continue
            if dist * dist <= length * length + reach * reach:
                beta = math.asin(reach / dist)
            else:
                beta = math.acos(
                    min(
                        max(
                            (dist * dist + length * length - reach * reach)
                            / (2.0 * dist * length),
                            -1.0,
                        ),
                        1.0,
                    )
                )
            axis = rel / dist
            pitch_c = math.asin(min(max(float(np.dot(axis, u)), -1.0), 1.0))
            yaw_c = math.atan2(float(np.dot(axis, lat)), float(np.dot(axis, f)))
            p_lo = max(pitch_c - beta, pe[0])
            p_hi = min(pitch_c + beta, pe[-1])
            if p_lo > p_hi:
                continue
            cos_min = min(math.cos(p_lo), math.cos(p_hi))
            if cos_min < 1e-9:
                yaw_spans = [(ye[0], ye[-1])]
            else:
                yaw_spans = _window_spans(yaw_c, beta / cos_min, ye[0], ye[-1])
            i0, i1 = _index_range(pe, p_lo, p_hi)
            proj = (
                float(np.dot(rel, f)),
                float(np.dot(rel, lat)),
                float(np.dot(rel, u)),
                float(np.dot(rel, rel)),
            )
            for s_lo, s_hi in yaw_spans:
                j0, j1 = _index_range(ye, s_lo, s_hi)
                if i1 <= i0 or j1 <= j0:
                    continue
                hit = _hit_cells(
                    pc[i0:i1], yc[j0:j1], proj, length, reach
                )
                if hit.any():
                    hits.append((i0, j0, hit))
        return hits

    def _nearest_safe(self, joint, limits, desired, hits):
        """Desired angles, or the closest cell/rect point outside all hits.

        Works on boolean masks over the union bounding box of the hit
        windows; everything outside that box is safe by construction.
        """
        (pe, _), (ye, _) = self.grids[joint]
        i0 = min(h[0] for h in hits)
        j0 = min(h[1] for h in hits)
        i1 = max(h[0] + h[2].shape[0] for h in hits)
        j1 = max(h[1] + h[2].shape[1] for h in hits)
        forbidden = np.zeros((i1 - i0, j1 - j0), dtype=bool)
        for hi, hj, hit in hits:
            forbidden[hi - i0 : hi - i0 + hit.shape[0], hj - j0 : hj - j0 + hit.shape[1]] |= hit

        p_clamp, y_clamp = clamp_to_limits(desired.pitch, desired.yaw, limits)
        ci = _cell_of(pe, p_clamp) - i0
        cj = _cell_of(ye, y_clamp) - j0
        inside_box = 0 <= ci < forbidden.shape[0] and 0 <= cj < forbidden.shape[1]
        if not inside_box or not forbidden[ci, cj]:
            return p_clamp, y_clamp

        # nearest among safe cells of the box, measured from the raw desired
        cp = np.minimum(np.maximum(desired.pitch, pe[i0:i1]), pe[i0 + 1 : i1 + 1])
        cy = np.minimum(np.maximum(desired.yaw, ye[j0:j1]), ye[j0 + 1 : j1 + 1])
        d2 = (cp - desired.pitch)[:, None] ** 2 + (cy - desired.yaw)[None, :] ** 2
        d2[forbidden] = np.inf
        best = None
        flat = int(np.argmin(d2))
        if np.isfinite(d2.flat[flat]):
            ii, jj = np.unravel_index(flat, d2.shape)
            ties = np.argwhere(d2 == d2[ii, jj])
            cands = sorted((cp[i], cy[j]) for i, j in ties)
            best = (float(d2[ii, jj]), cands[0][0], cands[0][1])

        # regions of the limit rectangle outside the union box
        box = (pe[i0], pe[i1], ye[j0], ye[j1])
        for plo, phi, ylo, yhi in _rect_difference(
            [(limits.pitch_min, limits.pitch_max, limits.yaw_min, limits.yaw_max)],
            box,
        ):
            p = min(max(desired.pitch, plo), phi)
            y = min(max(desired.yaw, ylo), yhi)
            key = ((p - desired.pitch) ** 2 + (y - desired.yaw) ** 2, p, y)
            if best is None or key < best:
                best = key
        if best is None:
            raise SafeSetEmpty()
        return best[1], best[2]


def ik_phase(
    model: ChainModel,
    state: ChainState,
    target_pn,
    obstacles: Sequence[SphereObstacle],
    cfg: PlannerConfig,
) -> SolveOutcome:
    """One constrained IK solve toward a nearby end-effector target."""
    chooser = ConeConstraints(model, obstacles, cfg)
    return fabrik_solve(model, state, target_pn, cfg.ik, choose_angles=chooser)


def _norms(v):
    # sqrt(vecdot) is bit-equal to np.linalg.norm of each row; einsum and
    # norm(axis=1) are not
    return np.sqrt(np.vecdot(v, v))


def _unit(x):
    # min(max(x, 0), 1), the scalar path's clamp
    return np.minimum(np.maximum(x, 0.0), 1.0)


def _segment_distances(a1, b1, a2, b2):
    """Distance between segments a1b1 and a2b2, row by row.

    Ericson's clamped closest points ("Real-Time Collision Detection",
    5.1.9) and the four endpoint projections, evaluated operation for
    operation as geometry._segment_pair_closest does for one pair, so each
    row is bit-equal to the scalar path called in the same argument order.
    """
    d1, d2, r = b1 - a1, b2 - a2, a1 - a2
    a = np.vecdot(d1, d1)
    e = np.vecdot(d2, d2)
    f = np.vecdot(d2, r)
    c = np.vecdot(d1, r)
    b = np.vecdot(d1, d2)
    denom = a * e - b * b
    s = np.zeros_like(denom)
    np.divide(b * f - c * e, denom, out=s, where=denom > 0.0)
    s = _unit(s)
    t = (b * s + f) / e
    below, above = t < 0.0, t > 1.0
    np.copyto(s, _unit(-c / a), where=below)
    np.copyto(s, _unit((b - c) / a), where=above)
    np.copyto(t, 0.0, where=below)
    np.copyto(t, 1.0, where=above)
    # one block of rows per candidate point pair: the clamped closest
    # points, then each endpoint and its projection onto the other segment
    # (base + u * dirs); the norm of a difference does not depend on its sign
    m = len(s)
    q = np.concatenate([a1 + s[:, None] * d1, a1, b1, a2, b2])
    base = np.concatenate([a2, a2, a2, a1, a1])
    dirs = np.concatenate([d2, d2, d2, d1, d1])
    u = np.concatenate([t, _unit(np.vecdot(q[m:] - base[m:], dirs[m:]) / np.concatenate([e, e, a, a]))])
    return _norms(q - (base + u[:, None] * dirs)).reshape(5, m).min(axis=0)


@functools.lru_cache(maxsize=None)
def _link_pairs(n):
    """Read-only index arrays (i, j) of the link pairs j >= i + 2, in the
    scalar loop's order."""
    pairs = np.triu_indices(n, 2)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def min_clearance(model: ChainModel, positions, obstacles) -> float:
    """Smallest clearance over link-obstacle and non-adjacent link pairs.

    The link pairs run through one batched kernel, bit-equal to
    geometry.segment_segment_distance on each pair; the validator keeps
    the scalar path as the independent audit. Non-finite positions raise
    ValueError and a zero-length link DegenerateSegment, as the scalar
    segments do.
    """
    n = model.n_links
    p = np.asarray(positions, dtype=float)
    if p.shape != (n + 1, 3):
        raise ValueError(f"expected {n + 1} joint positions of 3 coordinates, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("joint positions must be finite")
    a, b = p[:-1], p[1:]
    d = b - a
    if (_norms(d) < DEGENERACY_THRESHOLD).any():
        raise DegenerateSegment(f"segment endpoints coincide within {DEGENERACY_THRESHOLD} m")
    len2 = np.einsum("ij,ij->i", d, d)
    th = model.thicknesses
    best = math.inf
    for o in obstacles:
        t = np.clip(np.einsum("ij,ij->i", o.center[None, :] - a, d) / len2, 0.0, 1.0)
        gaps = np.linalg.norm(o.center[None, :] - (a + t[:, None] * d), axis=1) - th - o.radius
        best = min(best, float(np.min(gaps)))
    i, j = _link_pairs(n)
    if i.size:
        # segment_segment_distance evaluates each pair with the
        # lexicographically smaller (a, b) first; the first differing
        # coordinate decides, and identical keys keep the order
        ends = np.concatenate([a, b], axis=1)
        ei, ej = ends[i], ends[j]
        differ = ei != ej
        k = differ.argmax(axis=1)
        swap = (differ.any(axis=1) & (ends[j, k] < ends[i, k]))[:, None]
        e1, e2 = np.where(swap, ej, ei), np.where(swap, ei, ej)
        dist = _segment_distances(e1[:, :3], e1[:, 3:], e2[:, :3], e2[:, 3:])
        best = min(best, float(np.min(dist - th[i] - th[j])))
    return best


def _end_effector_velocity(model, state, goal, obstacles, cfg, remaining):
    """Velocity-obstacle filtered step velocity for the end effector."""
    v_pref = (cfg.v_pref_speed / remaining) * (goal - state.positions[-1])
    ee_radius = float(model.thicknesses[-1])
    cones = []
    for o in obstacles:
        d = float(np.linalg.norm(o.center - state.positions[-1]))
        margin = max(0.0, min(cfg.clearance_margin, 0.5 * (d - ee_radius - o.radius)))
        inflated = SphereObstacle(o.center, o.radius + margin, o.velocity)
        cones.append(collision_cone(state.positions[-1], ee_radius, inflated))
    return admissible_velocity(v_pref, cones, cfg.vo)


def plan(
    model: ChainModel,
    initial_state: ChainState,
    goal,
    obstacles: Sequence[SphereObstacle],
    cfg: Optional[PlannerConfig] = None,
    solver: str = "vofabrik",
) -> PlanOutcome:
    """Step the end effector to the goal, one VO-filtered IK solve per step.

    solver="vofabrik" avoids the obstacles; solver="fabrik" is the
    baseline that ignores them (obstacles still feed the clearance metric
    and the initial-state check). Each step targets at most
    v_pref_speed * t_s of end-effector motion along the admissible
    velocity, never overshooting the goal.
    """
    if solver not in ("vofabrik", "fabrik"):
        raise ValueError(f"unknown solver {solver!r}")
    cfg = cfg or PlannerConfig()
    goal = as_vec3(goal)
    obstacles = list(obstacles)

    initial_state.validate(model)
    if obstacles or model.n_links >= 3:
        clearance = min_clearance(model, initial_state.positions, obstacles)
        if clearance <= 0.0:
            raise InitialStateInCollision(
                f"initial clearance {clearance:.6g} m is not positive"
            )

    chooser = ConeConstraints(model, obstacles, cfg) if solver == "vofabrik" else None
    trajectory = [initial_state.copy()]
    metrics: list = []
    recent: list = []
    status = PlanStatus.STEP_LIMIT

    state = trajectory[0]
    for _ in range(cfg.max_steps):
        t0 = time.perf_counter()
        remaining = float(np.linalg.norm(goal - state.positions[-1]))
        try:
            if remaining <= cfg.goal_tolerance:
                target = state.positions[-1]
            elif solver == "vofabrik":
                v = _end_effector_velocity(model, state, goal, obstacles, cfg, remaining)
                speed = float(np.linalg.norm(v))
                target = state.positions[-1] + v * min(cfg.t_s, remaining / speed)
            else:
                v = (cfg.v_pref_speed / remaining) * (goal - state.positions[-1])
                target = state.positions[-1] + v * min(
                    cfg.t_s, remaining / cfg.v_pref_speed
                )
            outcome = fabrik_solve(model, state, target, cfg.ik, choose_angles=chooser)
        except NoAdmissibleVelocity:
            status = PlanStatus.NO_ADMISSIBLE_VELOCITY
            break
        except SafeSetEmpty:
            status = PlanStatus.SAFE_SET_EMPTY
            break
        wall = time.perf_counter() - t0

        new_state = outcome.state
        displacements = np.abs(new_state.angles - state.angles).reshape(-1)
        metrics.append(
            StepMetrics(
                joint_displacements=displacements,
                wall_time=wall,
                min_clearance=min_clearance(model, new_state.positions, obstacles),
            )
        )
        ee_disp = float(np.linalg.norm(new_state.positions[-1] - state.positions[-1]))
        trajectory.append(new_state)
        state = new_state

        if float(np.linalg.norm(goal - state.positions[-1])) <= cfg.goal_tolerance:
            status = PlanStatus.GOAL_REACHED
            break
        recent.append(ee_disp)
        if len(recent) > cfg.stall_window:
            recent.pop(0)
        if len(recent) == cfg.stall_window and all(
            d < cfg.stall_displacement for d in recent
        ):
            status = PlanStatus.STALLED
            break

    return PlanOutcome(status=status, trajectory=trajectory, per_step_metrics=metrics)
