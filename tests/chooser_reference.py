"""Frozen numpy reference for the chooser: its narrow phase, a dense
rasterizer and a dense search.

A copy of ConeConstraints' sphere gathering (_touch_spheres) as it ran on
numpy arrays before the narrow phase moved to plain floats: einsum over
the candidate spheres, np.dot and np.linalg.norm per sphere. One thing
differs from that code: spheres of radius 0 are kept, because a
zero-thickness link in a chain with thick links is a virtual self-sphere
all the same (the touch distance still carries the visiting link's
thickness and the margin).

Beside it, a dense rasterizer: every kept sphere marks every cell of the
joint's grid through np.cos / np.sin / np.outer, so no cell escapes the
test, pitch past +-pi/2 included. Last, a dense search: the nearest point
of a safe cell over the whole grid, found on a boolean mask.

ConeConstraints must give the same spheres (==, after the backward
reflection), the same cell-test inputs (==) and the same pick (==) on
every visit, with SafeSetEmpty where no cell is safe.
"""

import math

import numpy as np

from vofabrik.fabrik import Phase, clamp_to_limits


def axis_grid(lo, hi, resolution):
    """Cell edges and centers covering [lo, hi] at most `resolution` wide."""
    if hi <= lo:
        return np.array([lo, lo]), np.array([lo])
    n = max(1, int(math.ceil((hi - lo) / resolution)))
    edges = lo + np.arange(n + 1) * ((hi - lo) / n)
    edges[-1] = hi
    centers = 0.5 * (edges[:-1] + edges[1:])
    return edges, centers


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


class ReferenceChooser:
    """The numpy narrow phase, dense rasterizer and dense search of one
    chooser; enter_sweep must run at each sweep's start, with the sweep's
    entry positions."""

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

    def rasterize(self, joint, frame, pivot, spheres, cell_tests=None):
        """Forbidden cells per sphere (x, y, z, touch) that the link can
        reach, each a bool array over the whole grid. cell_tests, if given,
        receives the inputs of every marking by cell_d2: (proj, length,
        reach)."""
        (_, pc), (_, yc) = self.grids[joint]
        length = float(self.model.lengths[joint])
        lip = float(self._lips[joint])
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
            if cell_tests is not None:
                cell_tests.append((proj, length, reach))
            hits.append(cell_d2(pc, yc, proj, length) <= reach * reach)
        return hits

    def pick(self, joint, desired, limits, hits):
        """The pick for a visit whose spheres rasterize to `hits`: the
        desired angles clamped to the limits when the cell holding them
        (the upper one on an edge) is safe, else the nearest point of a
        safe cell to the raw desired angles, ties broken on (pitch, yaw);
        None where no cell is safe."""
        p_clamp, y_clamp = clamp_to_limits(desired.pitch, desired.yaw, limits)
        if not hits:
            return p_clamp, y_clamp
        (pe, _), (ye, _) = self.grids[joint]
        forbidden = np.logical_or.reduce(hits)
        i = min(int(np.searchsorted(pe, p_clamp, side="right")) - 1, len(pe) - 2)
        j = min(int(np.searchsorted(ye, y_clamp, side="right")) - 1, len(ye) - 2)
        if not forbidden[i, j]:
            return p_clamp, y_clamp
        cp = np.minimum(np.maximum(desired.pitch, pe[:-1]), pe[1:])
        cy = np.minimum(np.maximum(desired.yaw, ye[:-1]), ye[1:])
        d2 = (cp - desired.pitch)[:, None] ** 2 + (cy - desired.yaw)[None, :] ** 2
        d2[forbidden] = np.inf
        best = d2.min()
        if best == np.inf:
            return None
        return min((cp[i], cy[j]) for i, j in np.argwhere(d2 == best))
