"""Frozen numpy reference for the chooser's narrow phase and search.

A copy of ConeConstraints' sphere gathering (_touch_spheres) as it ran on
numpy arrays before the narrow phase moved to plain floats: einsum over
the candidate spheres, np.dot and np.linalg.norm per sphere. One thing
differs from that code: spheres of radius 0 are kept, because a
zero-thickness link in a chain with thick links is a virtual self-sphere
all the same (the touch distance still carries the visiting link's
thickness and the margin). Beside it, a dense rasterizer: every kept
sphere marks every cell of the joint's grid through np.cos / np.sin /
np.outer, so no cell escapes the test, pitch past +-pi/2 included.

Beside them, the nearest-safe search (_nearest_safe) as it ran before it
moved to one grown box: the union box of the forbidden cells, then the
regions of the limit rectangle outside that box by rectangle subtraction.

ConeConstraints must give the same spheres (==, after the backward
reflection), the same cell-test inputs (==) and the same pick (==) on
every visit.

Last, MaskChooser: the dense rasterizer and a boolean-mask search, the
nearest point of a safe cell over the whole grid. The lazy search must
give its pick (==) on every visit.
"""

import math

import numpy as np

from vofabrik.fabrik import Phase, clamp_to_limits
from vofabrik.planner import SafeSetEmpty


def axis_grid(lo, hi, resolution):
    """Cell edges and centers covering [lo, hi] at most `resolution` wide."""
    if hi <= lo:
        return np.array([lo, lo]), np.array([lo])
    n = max(1, int(math.ceil((hi - lo) / resolution)))
    edges = lo + np.arange(n + 1) * ((hi - lo) / n)
    edges[-1] = hi
    centers = 0.5 * (edges[:-1] + edges[1:])
    return edges, centers


def hit_cells(pitch, yaw, proj, length, reach):
    """Cells whose link segment passes within `reach` of a sphere center."""
    return cell_d2(pitch, yaw, proj, length) <= reach * reach


def cell_d2(pitch, yaw, proj, length):
    """Squared distance from a sphere center to the link segment of each
    cell."""
    rf, rl, ru, rr = proj
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    s = (
        np.outer(cp * rf, cy)
        + np.outer(cp * rl, sy)
        + np.outer(sp, np.ones_like(cy)) * ru
    )
    t = np.clip(s, 0.0, length)
    return rr - 2.0 * t * s + t * t


class ReferenceNarrowPhase:
    """The numpy narrow phase of one chooser; enter_sweep must run at each
    sweep's start, with the sweep's entry positions."""

    def __init__(self, model, obstacles, cfg):
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
                axis_grid(lim.pitch_min, lim.pitch_max, cfg.angular_resolution),
                axis_grid(lim.yaw_min, lim.yaw_max, cfg.angular_resolution),
            )
            for lim in model.limits
        ]
        self._thick = np.asarray(model.thicknesses, dtype=float)
        self._lips = (
            np.asarray(model.lengths, dtype=float)
            * 0.5
            * cfg.angular_resolution
            * math.sqrt(2.0)
            * 1.0001
        )
        self._has_virtual = model.n_links > 2 and bool((self._thick > 0.0).any())
        self._sweep_diffs = None
        self._sweep_len2 = None

    def enter_sweep(self, positions):
        if self._has_virtual:
            diffs = np.diff(positions, axis=0)
            self._sweep_diffs = diffs
            self._sweep_len2 = np.einsum("ij,ij->i", diffs, diffs)

    def touch_spheres(self, phase, joint, positions, pivot):
        """(centers, touch distances) of the spheres within reach, before
        the backward reflection; (None, None) when there are none."""
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
        keep = d2 <= bound * bound
        if not keep.any():
            return None, None
        centers = centers[keep]
        radii = radii[keep]
        dist = np.sqrt(d2[keep])
        margin = np.clip(
            np.minimum(self.cfg.clearance_margin, 0.5 * (dist - thick_k - radii)),
            0.0,
            None,
        )
        return centers, radii + margin + thick_k

    def rasterize(self, joint, frame, pivot, centers, touch, cell_tests=None):
        """Forbidden cells per kept sphere, each a bool array over the
        whole grid. cell_tests, if given, receives the inputs of every
        hit_cells call: (proj, length, reach)."""
        (_, pc), (_, yc) = self.grids[joint]
        length = float(self.model.lengths[joint])
        lip = float(self._lips[joint])
        f, u = frame.forward, frame.up
        lat = np.array([u[1] * f[2] - u[2] * f[1], u[2] * f[0] - u[0] * f[2], u[0] * f[1] - u[1] * f[0]])
        hits = []
        for c, t_m in zip(centers, touch):
            rel = c - pivot
            dist = float(np.linalg.norm(rel))
            reach = t_m + lip
            if dist > length + reach:
                continue
            if dist <= reach:
                hits.append(np.ones((len(pc), len(yc)), dtype=bool))
                continue
            proj = (
                float(np.dot(rel, f)),
                float(np.dot(rel, lat)),
                float(np.dot(rel, u)),
                float(np.dot(rel, rel)),
            )
            if cell_tests is not None:
                cell_tests.append((proj, length, reach))
            hits.append(hit_cells(pc, yc, proj, length, reach))
        return hits

    def nearest_safe(self, joint, limits, desired, hits):
        """(pitch, yaw, outside): the desired angles clamped to the limits,
        or the closest point of a safe cell; outside tells whether a region
        outside the union box of the forbidden cells gave the pick."""
        (pe, _), (ye, _) = self.grids[joint]
        union = np.logical_or.reduce(hits) if hits else np.zeros((len(pe) - 1, len(ye) - 1), dtype=bool)
        if not union.any():
            return (*clamp_to_limits(desired.pitch, desired.yaw, limits), False)
        rows, cols = np.flatnonzero(union.any(axis=1)), np.flatnonzero(union.any(axis=0))
        i0, i1, j0, j1 = rows[0], rows[-1] + 1, cols[0], cols[-1] + 1
        forbidden = union[i0:i1, j0:j1]

        p_clamp, y_clamp = clamp_to_limits(desired.pitch, desired.yaw, limits)
        ci = cell_of(pe, p_clamp) - i0
        cj = cell_of(ye, y_clamp) - j0
        inside_box = 0 <= ci < forbidden.shape[0] and 0 <= cj < forbidden.shape[1]
        if not inside_box or not forbidden[ci, cj]:
            return p_clamp, y_clamp, False

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
        outside = False
        box = (pe[i0], pe[i1], ye[j0], ye[j1])
        for plo, phi, ylo, yhi in rect_difference(
            [(limits.pitch_min, limits.pitch_max, limits.yaw_min, limits.yaw_max)],
            box,
        ):
            p = min(max(desired.pitch, plo), phi)
            y = min(max(desired.yaw, ylo), yhi)
            key = ((p - desired.pitch) ** 2 + (y - desired.yaw) ** 2, p, y)
            if best is None or key < best:
                best, outside = key, True
        if best is None:
            raise SafeSetEmpty()
        return best[1], best[2], outside


def cell_of(edges, x):
    """Index of the cell containing x, clamped into range."""
    n = len(edges) - 1
    if n == 1:
        return 0
    return min(max(int(np.searchsorted(edges, x, side="right")) - 1, 0), n - 1)


def rect_difference(rects, cut):
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


class MaskChooser:
    """The dense rasterizer and mask search of one chooser. rasterize takes
    the spheres the planner gathered for a visit, and pick its hits; pick
    returns the pick, or None where no cell is safe."""

    def __init__(self, model, cfg):
        res = cfg.angular_resolution
        self.grids = [
            (axis_grid(lim.pitch_min, lim.pitch_max, res), axis_grid(lim.yaw_min, lim.yaw_max, res))
            for lim in model.limits
        ]
        self.lengths = np.asarray(model.lengths, dtype=float)
        self.lips = self.lengths * 0.5 * res * math.sqrt(2.0) * 1.0001

    def rasterize(self, joint, frame, pivot, spheres):
        """Forbidden cells per kept sphere, each a bool array over the whole
        grid."""
        (_, pc), (_, yc) = self.grids[joint]
        length, lip = float(self.lengths[joint]), float(self.lips[joint])
        f, u = np.asarray(frame.forward), np.asarray(frame.up)
        lat = np.array([u[1] * f[2] - u[2] * f[1], u[2] * f[0] - u[0] * f[2], u[0] * f[1] - u[1] * f[0]])
        hits = []
        for *center, touch in spheres:
            rel = np.asarray(center) - pivot
            dist = float(np.linalg.norm(rel))
            reach = touch + lip
            if dist > length + reach:
                continue
            if dist <= reach:
                hits.append(np.ones((len(pc), len(yc)), dtype=bool))
                continue
            proj = (float(np.dot(rel, f)), float(np.dot(rel, lat)), float(np.dot(rel, u)), float(np.dot(rel, rel)))
            hits.append(hit_cells(pc, yc, proj, length, reach))
        return hits

    def pick(self, joint, desired, limits, hits):
        """The pick for a visit whose spheres rasterize to `hits`."""
        p_clamp, y_clamp = clamp_to_limits(desired.pitch, desired.yaw, limits)
        if not hits:
            return p_clamp, y_clamp
        (pe, _), (ye, _) = self.grids[joint]
        forbidden = np.logical_or.reduce(hits)
        if not forbidden[cell_of(pe, p_clamp), cell_of(ye, y_clamp)]:
            return p_clamp, y_clamp
        cp = np.minimum(np.maximum(desired.pitch, pe[:-1]), pe[1:])
        cy = np.minimum(np.maximum(desired.yaw, ye[:-1]), ye[1:])
        d2 = (cp - desired.pitch)[:, None] ** 2 + (cy - desired.yaw)[None, :] ** 2
        d2[forbidden] = np.inf
        best = d2.min()
        if best == np.inf:
            return None
        return min((cp[i], cy[j]) for i, j in np.argwhere(d2 == best))
