"""Obstacle-aware reaching: per-link forbidden angle cells folded into
the solver's angle chooser, plus the outer loop stepping the end effector
toward the goal under velocity-obstacle guidance.

Safe angles come from a conservative cell test. For each sphere that
could touch the link (real obstacles plus virtual self-collision spheres
at the closest points of non-adjacent links), a cell of the candidate
(pitch, yaw) grid over the joint-limit rectangle is forbidden when the
link capsule at the cell's center would come within the touch threshold.
The threshold is inflated by the worst-case variation of the clearance
function across one cell (link length x half cell diagonal), which makes
the forbidden region a rigorous superset of the truly colliding set: any
angle in a cell the test passes keeps the capsule strictly clear of the
inflated sphere. The test reads only the cell's cosines and sines, so it
holds on the whole grid, pitch past +-pi/2 included. Cells are tested only
as the answer needs them: the clamped desired cell first, and only when it
is forbidden a search for the nearest safe cell that jumps over each
forbidden run by bisection.

The backward half-iteration reuses the same test by reflecting sphere
centers through the pivot: the link then extends from the pivot toward
the reflected center exactly when the real link (which extends away from
the pivot) would approach the real center.

When no cell is forbidden, the chooser falls through to the identical
limit clamp the plain solver uses, so with no obstacles in range the
planner reproduces plain FABRIK bit for bit. A visit with every cell
forbidden raises fabrik.SafeSetEmpty, which ends the solve, not the plan.

Each visit first gathers the spheres within reach in one pass in plain
Python floats, reading the sweep's float tuples; most visits keep none
and end as a limit clamp. Its dot products are summed in the order
numpy's einsum sums a row of three, so the spheres are bit-equal to a
numpy evaluation. A visit that keeps spheres then tests the clamped cell
in unfused floats against a loosened reach, and ends there when no sphere
marks it. Only otherwise are the cell test's inputs built, each dot
product rounded with geometry.fma as numpy's fused dot products are. The
cell test reads each joint's cell-center cosines and sines from float
tables built once per (limits, resolution) and shared by every chooser. A
visit builds no array.

min_clearance evaluates all link-obstacle pairs in one batch and all
non-adjacent link pairs in one segment-segment kernel, both through one
point-segment row kernel that repeats geometry operation for operation, so
every row is bit-equal to geometry.capsule_sphere_distance or
capsule_capsule_distance. The validator in harness alone keeps the scalar
geometry path, as an independent audit.
"""

from __future__ import annotations

import bisect
import collections
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
    SafeSetEmpty,
    SolveOutcome,
    _solve,
    clamp_to_limits,
    solve as fabrik_solve,
)
from .geometry import COORDINATE_RANGE, DEGENERACY_THRESHOLD, DegenerateSegment, _loosen, _norm, as_vec3, fma
from .velocity_obstacles import NoAdmissibleVelocity, SphereObstacle, VOConfig, _cone, _search

# a plan stalls when a solve returns after 0 iterations, or when the tip
# moved less than _STALL_DISPLACEMENT (m) on each of the last _STALL_WINDOW steps
_STALL_WINDOW = 10
_STALL_DISPLACEMENT = 1e-4


class InitialStateInCollision(ValueError):
    """The starting configuration already violates clearance."""


class PlanStatus(Enum):
    GOAL_REACHED = "GoalReached"
    STALLED = "Stalled"
    STEP_LIMIT = "StepLimit"
    NO_ADMISSIBLE_VELOCITY = "NoAdmissibleVelocity"
    COLLISION = "Collision"  # a step's clearance was not positive; not recorded


@dataclass(frozen=True)
class PlannerConfig:
    """Outer-loop timing, tolerances, and the nested solver configs."""

    t_s: float = 0.2
    v_pref_speed: float = 0.1
    goal_tolerance: float = 5e-3
    max_steps: int = 300
    angular_resolution: float = math.radians(0.5)
    clearance_margin: float = 5e-3
    ik: FabrikConfig = field(default_factory=FabrikConfig)
    vo: VOConfig = field(default_factory=VOConfig)

    def __post_init__(self):
        for name in (
            "t_s",
            "v_pref_speed",
            "goal_tolerance",
            "angular_resolution",
        ):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        # the preferred velocity is (v_pref_speed / remaining) * (goal - tip),
        # remaining > goal_tolerance: factor and velocity stay within 1e75, so
        # the filter's fma operands (velocities, offsets within 2e75) stay
        # where fma is exact, and _contact_time's b*b and a*c stay finite
        if self.v_pref_speed / min(self.goal_tolerance, 1.0) > 1e150 / COORDINATE_RANGE:
            raise ValueError(
                f"v_pref_speed / min(goal_tolerance, 1) must be <= {1e150 / COORDINATE_RANGE:g}, "
                f"got {self.v_pref_speed} / {min(self.goal_tolerance, 1.0)}"
            )
        # _axis_grid builds ceil(range / angular_resolution) cells per joint
        # axis, the range at most 2 pi: at most 10,000 cells (1.4 MB) each
        if 2.0 * math.pi / self.angular_resolution > 10_000:
            raise ValueError(
                f"angular_resolution must give at most 10000 cells over 2 pi, so be >= "
                f"{2.0 * math.pi / 10_000:.6g}, got {self.angular_resolution}"
            )
        if type(self.max_steps) is not int or self.max_steps < 1:
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")
        if not 0 <= self.clearance_margin < math.inf:
            raise ValueError(f"clearance_margin must be finite and >= 0, got {self.clearance_margin}")


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
    `resolution` wide, as float tuples shared by every chooser: the cell
    edges and centers, and np.cos and np.sin of the centers."""
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        edges, centers = np.array([lo, lo]), np.array([lo])
    else:
        n = max(1, int(math.ceil((hi - lo) / resolution)))
        edges = lo + np.arange(n + 1) * ((hi - lo) / n)
        edges[-1] = hi
        centers = 0.5 * (edges[:-1] + edges[1:])
    return tuple(tuple(a.tolist()) for a in (edges, centers, np.cos(centers), np.sin(centers)))


def _cell_of(edges: tuple, x: float) -> int:
    """Index of the cell containing x, clamped into range."""
    return min(max(bisect.bisect_right(edges, x) - 1, 0), len(edges) - 2)


def _hit(cp, sp, cy, sy, test, length):
    """Whether the link at the cell (cos and sin of its pitch, of its yaw)
    passes within reach of the test's sphere: s projects the center,
    (rf, rl, ru) on the frame triad, on cos(p)cos(y)*forward +
    cos(p)sin(y)*lateral + sin(p)*up, and rr is its squared norm."""
    rf, rl, ru, rr, reach2 = test
    s = (cp * rf) * cy + (cp * rl) * sy + sp * ru
    t = min(max(s, 0.0), length)
    return rr - 2.0 * t * s + t * t <= reach2


def _triad(frame):
    """The frame's forward, lateral (up x forward) and up float triples."""
    fx, fy, fz = frame.forward
    ux, uy, uz = frame.up
    return (fx, fy, fz), (uy * fz - uz * fy, uz * fx - ux * fz, ux * fy - uy * fx), (ux, uy, uz)


def _term(edges, k, d):
    """The point of cell k nearest d, and its squared distance from d."""
    v = min(max(d, edges[k]), edges[k + 1])
    return v, (v - d) * (v - d)


class ConeConstraints:
    """The planner's angle chooser (a fabrik AngleChooser).

    Forbids the (pitch, yaw) cells that would bring the link within touch
    of an obstacle or a virtual self-sphere, and returns the desired angles
    clamped to the limits, or the nearest safe angles when those fall in a
    forbidden cell, and raises SafeSetEmpty when every cell is. plan and
    ik_phase build one per call; fabrik.solve starts each sweep with the
    positions it enters with and visits every link through the function
    that start returns. Nothing in the chooser changes after it is built:
    a sweep's state lives in that function.

    Each visit first gathers the spheres within reach in one pass in plain
    Python floats (_touch_spheres). If it keeps any, _certify tests the
    clamped cell in unfused floats against a loosened reach; only when a
    sphere may mark it are the inputs of each one's cell test built
    (_cell_tests) and the cells its pick needs tested (_nearest_safe).
    Positions, the pivot and the frame arrive as the sweep's float tuples;
    on that exact path every 3-vector dot product is rounded with
    geometry.fma, as np.dot does.
    """

    def __init__(self, model: ChainModel, obstacles: Sequence[SphereObstacle], cfg: PlannerConfig):
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
        # per joint, the reach all virtual spheres share, for the ball pre-test
        self._reach = _loosen(lengths + cfg.clearance_margin + thick + lips, model.extent).tolist()
        self._extent = model.extent
        # per joint, the real spheres as (x, y, z, radius, squared bound),
        # the bound summed in the order the keep test needs
        m = cfg.clearance_margin
        real = [(*o.center.tolist(), float(o.radius)) for o in obstacles]
        self._real = []
        for length, thick_k, lip in zip(self._lengths, self._thick, self._lips):
            bounds = [length + r + m + thick_k + lip for _, _, _, r in real]
            self._real.append([(x, y, z, r, b * b) for (x, y, z, r), b in zip(real, bounds)])

    def __call__(self, phase, positions):
        """Start a sweep from the positions it enters with; returns the
        sweep's choose(joint, desired, limits, frame, pivot).

        A sweep's virtual-sphere sources are its entry positions (the
        visited side is never read), so each link's start, direction,
        squared length and bounding ball (midpoint, half-length +
        thickness, loosened) hold for the whole sweep.
        """
        links = []
        if self._has_virtual:
            for (ax, ay, az), (bx, by, bz), thick in zip(positions, positions[1:], self._thick):
                dx, dy, dz = bx - ax, by - ay, bz - az
                len2 = (dx * dx + dz * dz) + dy * dy
                half = _loosen(0.5 * math.sqrt(len2) + thick, self._extent)
                ball = (ax + 0.5 * dx, ay + 0.5 * dy, az + 0.5 * dz, half)
                links.append((ax, ay, az, dx, dy, dz, len2, thick, *ball))

        def choose(joint, desired, limits, frame, pivot):
            spheres = self._touch_spheres(phase, joint, pivot, links)
            if not spheres:
                return clamp_to_limits(desired.pitch, desired.yaw, limits)
            certified = self._certify(joint, desired, limits, frame, pivot, spheres)
            if certified is not None:
                return certified
            return self._nearest_safe(joint, limits, desired, self._cell_tests(joint, frame, pivot, spheres))

        return choose

    def _touch_spheres(self, phase, joint, pivot, links):
        """The spheres that can touch the link, as a list of (x, y, z,
        touch): the link's center-line segment closer than `touch` to
        (x, y, z) collides. Backward centers come reflected through the
        pivot, so the link extends toward them as toward forward ones.

        One pass in plain floats over the real spheres and the virtual
        self-spheres at the closest points of the sweep's unplaced links
        (`links`, built at the sweep's start) other than the neighbour. A
        sphere is kept when its center lies within length + radius +
        margin + thickness + lip of the pivot; the margin then shrinks
        where the pivot sits close, so the touch sphere never swallows the
        pivot while true clearance is still positive. Every 3-term dot
        product is summed as (x0*y0 + x2*y2) + x1*y1, the order of numpy's
        einsum over rows of three, so the spheres match a numpy evaluation
        bit for bit.
        """
        px, py, pz = pivot
        length, thick_k, lip = self._lengths[joint], self._thick[joint], self._lips[joint]
        m = self.cfg.clearance_margin
        found = []
        for x, y, z, r, bound2 in self._real[joint]:
            ex, ey, ez = x - px, y - py, z - pz
            d2 = (ex * ex + ez * ez) + ey * ey
            if d2 <= bound2:
                found.append((x, y, z, r, d2))
        if phase is Phase.BACKWARD:
            links = links[: max(joint - 1, 0)]
        else:
            links = links[joint + 2 :]
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

    def _certify(self, joint, desired, limits, frame, pivot, spheres):
        """The clamped desired angles when no sphere's _hit marks their cell
        in unfused floats against reach**2 loosened on rr + length**2; else
        None, for the exact path (_cell_tests, then _nearest_safe). Both
        evaluate g = rr - 2ts + t**2 within a few ulps of rr + length**2,
        thousands of times inside that margin, so a certified pick is the
        exact path's. g never exceeds rr: a sphere holding the pivot marks
        the cell, so SafeSetEmpty is never skipped."""
        clamped = clamp_to_limits(desired.pitch, desired.yaw, limits)
        (pe, _, pcos, psin), (ye, _, ycos, ysin) = self.grids[joint]
        i, j = _cell_of(pe, clamped[0]), _cell_of(ye, clamped[1])
        cp, sp, cy, sy = pcos[i], psin[i], ycos[j], ysin[j]
        length, lip = self._lengths[joint], self._lips[joint]
        (fx, fy, fz), (lx, ly, lz), (ux, uy, uz) = _triad(frame)
        px, py, pz = pivot
        for x, y, z, touch in spheres:
            rx, ry, rz = x - px, y - py, z - pz
            rr = rx * rx + ry * ry + rz * rz
            rf, rl, ru = rx * fx + ry * fy + rz * fz, rx * lx + ry * ly + rz * lz, rx * ux + ry * uy + rz * uz
            reach = touch + lip
            if _hit(cp, sp, cy, sy, (rf, rl, ru, rr, _loosen(reach * reach, rr + length * length)), length):
                return None
        return clamped

    def _cell_tests(self, joint, frame, pivot, spheres):
        """Per sphere that the link can reach, the inputs (rf, rl, ru, rr,
        reach**2) of its cell test _hit. A sphere holding the pivot forbids
        every cell: SafeSetEmpty."""
        length, lip = self._lengths[joint], self._lips[joint]
        triad = _triad(frame)
        px, py, pz = pivot
        tests = []
        for x, y, z, touch in spheres:
            rx, ry, rz = x - px, y - py, z - pz
            rr = fma(rz, rz, fma(ry, ry, rx * rx))
            dist = math.sqrt(rr)
            reach = touch + lip
            if dist > length + reach:
                continue
            if dist <= reach:
                raise SafeSetEmpty()
            # rel on the triad
            rf, rl, ru = (fma(rz, tz, fma(ry, ty, rx * tx)) for tx, ty, tz in triad)
            tests.append((rf, rl, ru, rr, reach * reach))
        return tests

    def _nearest_safe(self, joint, limits, desired, tests):
        """The desired angles clamped to the limits if their cell is safe,
        as most are, or else the closest point of a safe cell to the raw
        desired angles, ties broken on (pitch, yaw): lines along the longer
        axis u, outward from the clamped one while a line may hold a nearer
        point, each walked both ways from the clamped cell to a safe one.
        A cell is safe when no sphere's _hit marks it."""
        grids, length = self.grids[joint], self._lengths[joint]
        (_, _, pcos, psin), (_, _, ycos, ysin) = grids
        clamped = clamp_to_limits(desired.pitch, desired.yaw, limits)
        u = int(len(grids[1][0]) >= len(grids[0][0]))
        x = 1 - u
        (xe, _, xcos, xsin), (ue, uc, _, _) = grids[x], grids[u]
        xs, us = _cell_of(xe, clamped[x]), _cell_of(ue, clamped[u])

        def marks(w, c, a):
            i, j = (c, a) if u else (a, c)
            return _hit(pcos[i], psin[i], ycos[j], ysin[j], w, length)

        def marking(c, a):
            return next((w for w in tests if marks(w, c, a)), None)

        if marking(xs, us) is None:
            return clamped

        def run_end(w, c, a, side):
            # the end, from hit cell a in direction side, of w's run on line
            # c: s is P cos + Q sin + const along it, so short of cell z,
            # which holds the least s, cells from a hit and then miss; if z
            # itself hits, so does every cell
            end = len(uc) - 1 if side > 0 else 0
            rf, rl, ru = w[:3]
            P, Q = (xcos[c] * rf, xcos[c] * rl) if u else (rf * xcos[c] + rl * xsin[c], ru)
            least = math.atan2(-Q, -P)
            z = _cell_of(ue, least) if ue[0] <= least <= ue[-1] else None
            if z == a:
                return end
            m = z - side if z is not None and 0 < (z - a) * side <= (end - a) * side else end
            good, bad = a, m + side
            while abs(bad - good) > 1:
                mid = (good + bad) // 2
                good, bad = (mid, bad) if marks(w, c, mid) else (good, mid)
            return good

        def first_safe(c, a, side):
            while 0 <= a < len(uc):
                w = marking(c, a)
                if w is None:
                    return a
                a = run_end(w, c, a, side) + side

        nearest, best = _term(ue, us, desired[u])[1], (math.inf,)
        for lines in (range(xs, -1, -1), range(xs + 1, len(xe) - 1)):
            for c in lines:
                xv, g = _term(xe, c, desired[x])
                if g + nearest > best[0]:
                    break
                left = first_safe(c, us, -1)
                for a in (left, left if left == us else first_safe(c, us + 1, 1)):
                    if a is not None:
                        uv, f = _term(ue, a, desired[u])
                        best = min(best, (g + f, xv, uv) if u else (g + f, uv, xv))
        if best[0] == math.inf:
            raise SafeSetEmpty()
        return best[1:]


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
    operation as geometry._segment_pair_distance does for one pair, so each
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
    # one block of rows per endpoint against the other segment, then the
    # clamped closest points; the norm of a difference does not depend on
    # its sign
    ends = _point_segment_distances(
        np.concatenate([a1, b1, a2, b2]),
        np.concatenate([a2, a2, a1, a1]),
        np.concatenate([d2, d2, d1, d1]),
        np.concatenate([e, e, a, a]),
    )
    inner = _norms((a1 + s[:, None] * d1) - (a2 + t[:, None] * d2))
    return np.minimum(inner, ends.reshape(4, len(s)).min(axis=0))


def _point_segment_distances(q, base, dirs, dd):
    """Distance from each point q to the segment base + u * dirs, u in
    [0, 1], row by row (rows broadcast); dd = dirs . dirs. The operations
    of geometry._project and _norm, so each row is bit-equal to them."""
    u = _unit(np.vecdot(q - base, dirs) / dd)
    return _norms(q - (base + u[..., None] * dirs))


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

    Each row is bit-equal to geometry.capsule_sphere_distance (link and
    obstacle) or capsule_capsule_distance (link pair); the validator keeps
    the scalar path as the independent audit. Positions past
    COORDINATE_RANGE, NaN and inf raise ValueError and a zero-length link
    DegenerateSegment, as the scalar segments do.
    """
    n = model.n_links
    obstacles = list(obstacles)  # read once, so a one-shot iterable works
    p = np.asarray(positions, dtype=float)
    if p.shape != (n + 1, 3):
        raise ValueError(f"expected {n + 1} joint positions of 3 coordinates, got shape {p.shape}")
    if not (np.abs(p) <= COORDINATE_RANGE).all():
        raise ValueError(f"joint positions must lie within +-{COORDINATE_RANGE:g} and be finite")
    a, b = p[:-1], p[1:]
    d = b - a
    if (_norms(d) < DEGENERACY_THRESHOLD).any():
        raise DegenerateSegment(f"segment endpoints coincide within {DEGENERACY_THRESHOLD} m")
    th = model.thicknesses
    best = math.inf
    if obstacles:
        # every (obstacle, link) pair as one row of one batch
        centers = np.array([o.center for o in obstacles], dtype=float)
        radii = np.array([o.radius for o in obstacles], dtype=float)
        gaps = _point_segment_distances(centers[:, None, :], a, d, np.vecdot(d, d))
        best = float(np.min(gaps - th - radii[:, None]))
    i, j = _link_pairs(n)
    if i.size:
        # capsule_capsule_distance evaluates each pair with the
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


def _end_effector_velocity(model, state, goal, spheres, cfg, remaining):
    """Velocity-obstacle filtered step velocity for the end effector, with
    spheres the obstacles as (center float triple, radius). Each gives the
    cone of collision_cone(tip, ee_radius, SphereObstacle(center, radius +
    margin)), the margin shrunk to half the gap when the tip is close, in
    the same float operations, built by _cone; of the cone's checks only
    CollisionCone's truncation_distance > combined_radius is repeated."""
    tip = state.positions[-1]
    v_pref = (cfg.v_pref_speed / remaining) * (goal - tip)
    ee_radius = float(model.thicknesses[-1])
    (tx, ty, tz), cones = tip.tolist(), []
    for (x, y, z), r in spheres:
        offset = (x - tx, y - ty, z - tz)
        d = _norm(offset)
        combined = ee_radius + (r + max(0.0, min(cfg.clearance_margin, 0.5 * (d - ee_radius - r))))
        if d <= combined:
            raise ValueError(f"truncation_distance must exceed combined_radius ({d} <= {combined})")
        cones.append(_cone((offset[0] / d, offset[1] / d, offset[2] / d), d, combined))
    return _search(v_pref, cones, cfg.vo.time_horizon)


def plan(
    model: ChainModel,
    initial_state: ChainState,
    goal,
    obstacles: Sequence[SphereObstacle],
    cfg: Optional[PlannerConfig] = None,
    solver: str = "vofabrik",
) -> PlanOutcome:
    """Step the end effector to the goal, one VO-filtered IK solve per step.

    Each step targets at most v_pref_speed * t_s of end-effector motion
    along the admissible velocity, never overshooting the goal.
    solver="vofabrik" avoids the obstacles. solver="fabrik" is the
    baseline that ignores them: the same loop given no chooser and no
    cones, so its velocity is the preferred one (obstacles still feed the
    clearance metric and the initial-state check). A step whose clearance
    is not positive ends the plan with COLLISION before it is recorded. A
    solve of 0 iterations (blocked at once, or converged on a target
    within epsilon) returns its start state, so every later step would
    repeat it bit for bit: its step is recorded and, short of the goal,
    the plan ends STALLED. A step whose preferred velocity's norm
    underflows to zero targets the tip, as a step within the goal
    tolerance does, so it stalls the same way. The initial state is
    validated once, here, and each obstacle read once into (center float
    triple, radius) for the velocity filter; each step solves from a
    state a solve returned, so no step checks it again.
    """
    if solver not in ("vofabrik", "fabrik"):
        raise ValueError(f"unknown solver {solver!r}")
    cfg = cfg or PlannerConfig()
    goal = as_vec3(goal, "goal")
    obstacles = list(obstacles)

    initial_state.validate(model)
    clearance = min_clearance(model, initial_state.positions, obstacles)
    if clearance <= 0.0:
        raise InitialStateInCollision(
            f"initial clearance {clearance:.6g} m is not positive"
        )

    if solver == "vofabrik":
        chooser = ConeConstraints(model, obstacles, cfg)
        avoided = [(o.center.tolist(), o.radius) for o in obstacles]
    else:
        chooser, avoided = None, []
    trajectory = [initial_state.copy()]
    metrics: list = []
    recent = collections.deque(maxlen=_STALL_WINDOW)  # tip displacements
    status = PlanStatus.STEP_LIMIT

    state = trajectory[0]
    remaining = float(np.linalg.norm(goal - state.positions[-1]))
    for _ in range(cfg.max_steps):
        t0 = time.perf_counter()
        try:
            target = state.positions[-1]
            if remaining > cfg.goal_tolerance:
                v = _end_effector_velocity(model, state, goal, avoided, cfg, remaining)
                speed = float(np.linalg.norm(v))
                if speed > 0.0:  # else the preferred speed underflowed: stay
                    target = target + v * min(cfg.t_s, remaining / speed)
            outcome = _solve(model, state, target, cfg.ik, choose_angles=chooser)
        except NoAdmissibleVelocity:
            status = PlanStatus.NO_ADMISSIBLE_VELOCITY
            break
        wall = time.perf_counter() - t0
        new_state = outcome.state

        clearance = min_clearance(model, new_state.positions, obstacles)
        if clearance <= 0.0:
            status = PlanStatus.COLLISION
            break
        metrics.append(StepMetrics(wall_time=wall, min_clearance=clearance))
        recent.append(float(np.linalg.norm(new_state.positions[-1] - state.positions[-1])))
        trajectory.append(new_state)
        state = new_state

        remaining = float(np.linalg.norm(goal - state.positions[-1]))
        if remaining <= cfg.goal_tolerance:
            status = PlanStatus.GOAL_REACHED
            break
        if outcome.iterations == 0 or (
            len(recent) == _STALL_WINDOW and all(d < _STALL_DISPLACEMENT for d in recent)
        ):
            status = PlanStatus.STALLED
            break

    return PlanOutcome(status=status, trajectory=trajectory, per_step_metrics=metrics)
