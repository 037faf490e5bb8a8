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
cell keeps the capsule strictly clear of the inflated sphere. Where a
joint's pitch limits pass +-pi/2, the windows around the mirrored angles
(+-pi - pitch, yaw + pi), which aim the link the same way, are scanned too.
When the desired angles fall in a forbidden cell, the nearest safe point is
searched over the hit windows' union box grown by one cell on each side.

The backward half-iteration reuses the same rasterizer by reflecting
sphere centers through the pivot: the link then extends from the pivot
toward the reflected center exactly when the real link (which extends
away from the pivot) would approach the real center.

When no cell is forbidden, the chooser falls through to the identical
limit clamp the plain solver uses, so with no obstacles in range the
planner reproduces plain FABRIK bit for bit.

Each visit first gathers the spheres within reach in one pass in plain
Python floats; most visits keep none and end as a limit clamp before any
array is built. Its dot products are summed in the order numpy's einsum
sums a row of three, so the spheres are bit-equal to a numpy evaluation.
The rasterizer slices each joint's cell-center cosine and sine tables,
built once per (limits, resolution) and shared read-only by every
chooser, and keeps its 3-vector dot products in numpy (np.vecdot): numpy
rounds them with fused multiply-adds, which Python floats cannot repeat.

min_clearance evaluates all link-obstacle pairs in one batch and all
non-adjacent link pairs in one segment-segment kernel that repeats the
scalar geometry path operation for operation, so its result is bit-equal
to it. The validator in harness alone keeps the scalar geometry path, as
an independent audit.
"""

from __future__ import annotations

import bisect
import functools
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .chain import ChainModel, ChainState
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
    wall_time: float
    min_clearance: float


@dataclass
class PlanOutcome:
    status: PlanStatus
    trajectory: list  # ChainState per step, index 0 is the initial state
    per_step_metrics: list  # StepMetrics, one per transition


@functools.lru_cache(maxsize=256)
def _axis_grid(lo: float, hi: float, resolution: float):
    """One axis of a joint's cell grid over [lo, hi], cells at most
    `resolution` wide: the cell edges as an array and as a tuple (for
    bisect), and the cosine and sine of the cell centers. The arrays are
    read-only, because every chooser with these limits shares them."""
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        edges, centers = np.array([lo, lo]), np.array([lo])
    else:
        n = max(1, int(math.ceil((hi - lo) / resolution)))
        edges = lo + np.arange(n + 1) * ((hi - lo) / n)
        edges[-1] = hi
        centers = 0.5 * (edges[:-1] + edges[1:])
    cos, sin = np.cos(centers), np.sin(centers)
    for table in (edges, cos, sin):
        table.flags.writeable = False
    return edges, tuple(edges.tolist()), cos, sin


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


def _index_range(edges: tuple, lo: float, hi: float):
    """Half-open cell index range whose cells intersect [lo, hi]."""
    n = len(edges) - 1
    if n == 1:
        return (0, 1) if hi >= edges[0] and lo <= edges[-1] else (0, 0)
    i0 = bisect.bisect_right(edges, lo) - 1
    i1 = bisect.bisect_left(edges, hi)
    return max(i0, 0), min(max(i1, 0), n)


def _cell_of(edges: tuple, x: float) -> int:
    """Index of the cell containing x, clamped into range."""
    return min(max(bisect.bisect_right(edges, x) - 1, 0), len(edges) - 2)


def _loosen(bound: float) -> float:
    """A distance bound widened past the rounding of float sums."""
    return bound * (1.0 + 1e-9) + 1e-12


def _hit_cells(cp, sp, cy, sy, proj, length, reach):
    """Cells whose link segment passes within `reach` of a sphere center.

    cp, sp = cos and sin of the window's pitch cell centers, cy, sy of its
    yaw cell centers; proj = the center relative to the pivot, projected
    on the joint frame triad (forward, lateral, up) plus its squared norm.
    The candidate link direction at cell center (p, y) is
    cos(p)cos(y)*forward + cos(p)sin(y)*lateral + sin(p)*up.
    """
    rf, rl, ru, rr = proj
    s = (cp * rf)[:, None] * cy + (cp * rl)[:, None] * sy + (sp * ru)[:, None]
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

    Each visit first gathers the spheres within reach in one pass in plain
    Python floats (_touch_spheres), then rasterizes only those (_rasterize)
    from the joint's cached cosine and sine tables; its 3-vector dot
    products stay numpy, because np.vecdot rounds as np.dot and
    np.linalg.norm do (fused multiply-adds) and Python floats cannot.

    Call order: each sweep must start at its first joint (backward: n - 1,
    forward: 0), as fabrik.solve does, because that call caches the
    sweep's segment geometry for the virtual self-spheres; a call at a
    later joint of a sweep never started raises SweepOrderError.
    """

    def __init__(self, model: ChainModel, obstacles: Sequence[SphereObstacle], cfg: PlannerConfig):
        self.model = model
        self.cfg = cfg
        res = cfg.angular_resolution
        self.grids = [
            (_axis_grid(lim.pitch_min, lim.pitch_max, res), _axis_grid(lim.yaw_min, lim.yaw_max, res))
            for lim in model.limits
        ]
        lengths = np.asarray(model.lengths, dtype=float)
        thick = np.asarray(model.thicknesses, dtype=float)
        # full-resolution diagonal on every joint: inside the sweep, extra
        # conservatism is cheap and keeps the margin uniform across joints
        # whose live axes differ
        lips = lengths * 0.5 * res * math.sqrt(2.0) * 1.0001
        self._lengths, self._thick, self._lips = lengths.tolist(), thick.tolist(), lips.tolist()
        # a chain of two links has no non-adjacent pair, so no self-spheres
        self._has_virtual = model.n_links > 2 and bool((thick > 0.0).any())
        # per joint, the part of the touch reach every virtual sphere
        # shares, loosened, for the links' bounding-ball pre-test
        self._reach = _loosen(lengths + cfg.clearance_margin + thick + lips).tolist()
        # per joint, the real spheres as (x, y, z, radius, squared bound),
        # the bound summed in the order the keep test needs
        m = cfg.clearance_margin
        real = [(*o.center.tolist(), float(o.radius)) for o in obstacles]
        self._real = []
        for length, thick_k, lip in zip(self._lengths, self._thick, self._lips):
            bounds = [length + r + m + thick_k + lip for _, _, _, r in real]
            self._real.append([(x, y, z, r, b * b) for (x, y, z, r), b in zip(real, bounds)])
        self._sweep = None
        self._sweep_links = []

    def __call__(self, phase, joint, desired, limits, frame, pivot, positions):
        self._enter_sweep(phase, joint, positions)
        spheres = self._touch_spheres(phase, joint, pivot)
        hits = self._rasterize(joint, frame, pivot, spheres) if spheres else None
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
        visited side is never read), so each link's start, direction,
        squared length and bounding ball (midpoint, half-length +
        thickness, loosened) hold for the whole sweep.
        """
        first = self.model.n_links - 1 if phase is Phase.BACKWARD else 0
        if joint != first:
            if self._sweep is not phase:
                raise SweepOrderError(phase, joint, first)
            return
        self._sweep = phase
        if self._has_virtual:
            p = positions.tolist()
            self._sweep_links = []
            for (ax, ay, az), (bx, by, bz), thick in zip(p, p[1:], self._thick):
                dx, dy, dz = bx - ax, by - ay, bz - az
                len2 = (dx * dx + dz * dz) + dy * dy
                half = _loosen(0.5 * math.sqrt(len2) + thick)
                ball = (ax + 0.5 * dx, ay + 0.5 * dy, az + 0.5 * dz, half)
                self._sweep_links.append((ax, ay, az, dx, dy, dz, len2, thick, *ball))

    def _touch_spheres(self, phase, joint, pivot):
        """The spheres that can touch the link, as a list of (x, y, z,
        touch): the link's center-line segment closer than `touch` to
        (x, y, z) collides. Backward centers come reflected through the
        pivot, so the link extends toward them as toward forward ones.

        One pass in plain floats over the real spheres and the virtual
        self-spheres at the closest points of the sweep's unplaced links
        other than the neighbour. A sphere is kept when its center lies
        within length + radius + margin + thickness + lip of the pivot;
        the margin then shrinks where the pivot sits close, so the touch
        sphere never swallows the pivot while true clearance is still
        positive. Every 3-term dot product is summed as
        (x0*y0 + x2*y2) + x1*y1, the order of numpy's einsum over rows of
        three, so the spheres match a numpy evaluation bit for bit.
        """
        px, py, pz = pivot.tolist()
        length, thick_k, lip = self._lengths[joint], self._thick[joint], self._lips[joint]
        m = self.cfg.clearance_margin
        found = []
        for x, y, z, r, bound2 in self._real[joint]:
            ex, ey, ez = x - px, y - py, z - pz
            d2 = (ex * ex + ez * ez) + ey * ey
            if d2 <= bound2:
                found.append((x, y, z, r, d2))
        if phase is Phase.BACKWARD:
            links = self._sweep_links[: max(joint - 1, 0)]
        else:
            links = self._sweep_links[joint + 2 :]
        reach = self._reach[joint]
        for ax, ay, az, dx, dy, dz, len2, r, mx, my, mz, half in links:
            # bounding-ball pre-test: a virtual center lies within its
            # link's ball, and both bounds are loosened past rounding
            ex, ey, ez = mx - px, my - py, mz - pz
            b = reach + half
            if ex * ex + ey * ey + ez * ez > b * b:
                continue
            t = ((px - ax) * dx + (pz - az) * dz + (py - ay) * dy) / len2
            t = min(max(t, 0.0), 1.0)
            x, y, z = ax + t * dx, ay + t * dy, az + t * dz
            ex, ey, ez = x - px, y - py, z - pz
            d2 = (ex * ex + ez * ez) + ey * ey
            b = length + r + m + thick_k + lip
            if d2 <= b * b:
                found.append((x, y, z, r, d2))
        spheres = []
        for x, y, z, r, d2 in found:
            touch = r + max(min(m, 0.5 * (math.sqrt(d2) - thick_k - r)), 0.0) + thick_k
            if phase is Phase.BACKWARD:
                x, y, z = 2.0 * px - x, 2.0 * py - y, 2.0 * pz - z
            spheres.append((x, y, z, touch))
        return spheres

    def _rasterize(self, joint, frame, pivot, spheres):
        """Forbidden cells per sphere: list of (i0, j0, hit bool array)."""
        (_, pedges, pcos, psin), (_, yedges, ycos, ysin) = self.grids[joint]
        length, lip = self._lengths[joint], self._lips[joint]
        fx, fy, fz = frame.forward.tolist()
        ux, uy, uz = frame.up.tolist()
        # forward, lateral (up x forward), up
        triad = np.array(
            [[fx, fy, fz], [uy * fz - uz * fy, uz * fx - ux * fz, ux * fy - uy * fx], [ux, uy, uz]]
        )
        px, py, pz = pivot.tolist()
        hits = []
        for x, y, z, touch in spheres:
            rel = np.array([x - px, y - py, z - pz])
            rr = float(np.vecdot(rel, rel))
            dist = math.sqrt(rr)
            reach = touch + lip
            if dist > length + reach:
                continue
            if dist <= reach:
                # pivot itself within touch: every direction collides
                hits.append((0, 0, np.ones((len(pcos), len(ycos)), dtype=bool)))
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
            # rel and its unit axis on the triad
            (rf, rl, ru), (af, al, au) = np.vecdot(
                np.array([rel, rel / dist])[:, None, :], triad
            ).tolist()
            pitch_c = math.asin(min(max(au, -1.0), 1.0))
            yaw_c = math.atan2(al, af)
            centers = [(pitch_c, yaw_c, 1.0)]
            if pedges[0] < -0.5 * math.pi or pedges[-1] > 0.5 * math.pi:
                # (+-pi - pitch, yaw + pi) aims the link the same way, with
                # cos(pitch) negated
                yaw_m = yaw_c - math.pi if yaw_c > 0.0 else yaw_c + math.pi
                centers += [(math.pi - pitch_c, yaw_m, -1.0), (-math.pi - pitch_c, yaw_m, -1.0)]
            for p_c, y_c, sign in centers:
                p_lo = max(p_c - beta, pedges[0])
                p_hi = min(p_c + beta, pedges[-1])
                if p_lo > p_hi:
                    continue
                cos_min = min(sign * math.cos(p_lo), sign * math.cos(p_hi))
                if cos_min < 1e-9:
                    yaw_spans = [(yedges[0], yedges[-1])]
                else:
                    yaw_spans = _window_spans(y_c, beta / cos_min, yedges[0], yedges[-1])
                i0, i1 = _index_range(pedges, p_lo, p_hi)
                if i1 <= i0:
                    continue
                for s_lo, s_hi in yaw_spans:
                    j0, j1 = _index_range(yedges, s_lo, s_hi)
                    if j1 <= j0:
                        continue
                    hit = _hit_cells(
                        pcos[i0:i1], psin[i0:i1], ycos[j0:j1], ysin[j0:j1], (rf, rl, ru, rr), length, reach
                    )
                    if hit.any():
                        hits.append((i0, j0, hit))
        return hits

    def _nearest_safe(self, joint, limits, desired, hits):
        """Desired angles clamped to the limits, or the closest point of a
        safe cell to the raw desired angles.

        Works on a boolean mask over the union bounding box of the hit
        windows; every cell outside that box is safe. The search runs only
        when the clamped angles fall in a forbidden cell, so inside the box:
        the nearest point of the rest of the limit rectangle then lies on
        the box's edge, within its span, and the ring of cells one wider on
        each side holds it. Ties break on (pitch, yaw).
        """
        (pe, pedges, _, _), (ye, yedges, _, _) = self.grids[joint]
        i0 = min(h[0] for h in hits)
        j0 = min(h[1] for h in hits)
        i1 = max(h[0] + h[2].shape[0] for h in hits)
        j1 = max(h[1] + h[2].shape[1] for h in hits)
        forbidden = np.zeros((i1 - i0, j1 - j0), dtype=bool)
        for hi, hj, hit in hits:
            forbidden[hi - i0 : hi - i0 + hit.shape[0], hj - j0 : hj - j0 + hit.shape[1]] |= hit

        p_clamp, y_clamp = clamp_to_limits(desired.pitch, desired.yaw, limits)
        ci = _cell_of(pedges, p_clamp) - i0
        cj = _cell_of(yedges, y_clamp) - j0
        inside_box = 0 <= ci < forbidden.shape[0] and 0 <= cj < forbidden.shape[1]
        if not inside_box or not forbidden[ci, cj]:
            return p_clamp, y_clamp

        # the box grown by one cell on each side, clipped to the grid
        g0, h0 = max(i0 - 1, 0), max(j0 - 1, 0)
        g1, h1 = min(i1 + 1, len(pe) - 1), min(j1 + 1, len(ye) - 1)
        grown = np.zeros((g1 - g0, h1 - h0), dtype=bool)
        grown[i0 - g0 : i1 - g0, j0 - h0 : j1 - h0] = forbidden
        cp = np.minimum(np.maximum(desired.pitch, pe[g0:g1]), pe[g0 + 1 : g1 + 1])
        cy = np.minimum(np.maximum(desired.yaw, ye[h0:h1]), ye[h0 + 1 : h1 + 1])
        d2 = (cp - desired.pitch)[:, None] ** 2 + (cy - desired.yaw)[None, :] ** 2
        d2[grown] = np.inf
        best = d2.min()
        if best == np.inf:
            raise SafeSetEmpty()
        return min((cp[i], cy[j]) for i, j in np.argwhere(d2 == best))


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
    if obstacles:
        # every (obstacle, link) pair as one row, obstacle-major, through
        # the same row kernels as one obstacle at a time
        k = len(obstacles)
        centers = np.array([o.center for o in obstacles], dtype=float)
        radii = np.array([o.radius for o in obstacles], dtype=float)
        rel = (centers[:, None, :] - a).reshape(-1, 3)
        dk, ak = np.tile(d, (k, 1)), np.tile(a, (k, 1))
        t = np.clip(np.einsum("ij,ij->i", rel, dk) / np.tile(len2, k), 0.0, 1.0)
        gaps = np.linalg.norm(np.repeat(centers, n, axis=0) - (ak + t[:, None] * dk), axis=1)
        best = float(np.min(gaps - np.tile(th, k) - np.repeat(radii, n)))
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
        metrics.append(
            StepMetrics(
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
