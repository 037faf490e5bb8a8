"""Frozen numpy reference for the chooser's narrow phase and search.

A copy of ConeConstraints' sphere gathering (_touch_spheres) and cell
rasterizer (_rasterize) as they ran on numpy arrays before the narrow
phase moved to plain floats: einsum over the candidate spheres, np.dot
and np.linalg.norm per sphere, np.cos / np.sin / np.outer over each cell
window and np.searchsorted for the window's index range. One thing
differs from that code: spheres of radius 0 are kept, because a
zero-thickness link in a chain with thick links is a virtual self-sphere
all the same (the touch distance still carries the visiting link's
thickness and the margin). The rasterizer scans no mirrored windows, so
it stands for joints whose pitch limits stay within +-pi/2.

Beside them, the nearest-safe search (_nearest_safe) as it ran before it
moved to one grown box: the union box of the hit windows, then the
regions of the limit rectangle outside that box by rectangle subtraction.

ConeConstraints must give the same spheres (==, after the backward
reflection), the same cell-test inputs (==), the same hit windows
(array_equal) and the same pick (==) on every visit.
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


def window_spans(center, halfwidth, lo, hi):
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


def index_range(edges, lo, hi):
    """Half-open cell index range whose cells intersect [lo, hi]."""
    n = len(edges) - 1
    if n == 1:
        return (0, 1) if hi >= edges[0] and lo <= edges[-1] else (0, 0)
    i0 = int(np.searchsorted(edges, lo, side="right")) - 1
    i1 = int(np.searchsorted(edges, hi, side="left"))
    return max(i0, 0), min(max(i1, 0), n)


def hit_cells(pitch, yaw, proj, length, reach):
    """Cells whose link segment passes within `reach` of a sphere center."""
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


class ReferenceNarrowPhase:
    """The numpy narrow phase of one chooser; enter_sweep must run at each
    sweep's first joint, with the sweep's entry positions."""

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
        """Forbidden cells per sphere: list of (i0, j0, hit bool array).
        cell_tests, if given, receives the arguments of every hit_cells
        call: (pitch, yaw, proj, length, reach)."""
        (pe, pc), (ye, yc) = self.grids[joint]
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
                hits.append((0, 0, np.ones((len(pc), len(yc)), dtype=bool)))
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
                yaw_spans = window_spans(yaw_c, beta / cos_min, ye[0], ye[-1])
            i0, i1 = index_range(pe, p_lo, p_hi)
            proj = (
                float(np.dot(rel, f)),
                float(np.dot(rel, lat)),
                float(np.dot(rel, u)),
                float(np.dot(rel, rel)),
            )
            for s_lo, s_hi in yaw_spans:
                j0, j1 = index_range(ye, s_lo, s_hi)
                if i1 <= i0 or j1 <= j0:
                    continue
                if cell_tests is not None:
                    cell_tests.append((pc[i0:i1], yc[j0:j1], proj, length, reach))
                hit = hit_cells(pc[i0:i1], yc[j0:j1], proj, length, reach)
                if hit.any():
                    hits.append((i0, j0, hit))
        return hits

    def nearest_safe(self, joint, limits, desired, hits):
        """(pitch, yaw, outside): the desired angles clamped to the limits,
        or the closest point outside all hits; outside tells whether a
        region outside the union box of the hits gave the pick."""
        (pe, _), (ye, _) = self.grids[joint]
        i0 = min(h[0] for h in hits)
        j0 = min(h[1] for h in hits)
        i1 = max(h[0] + h[2].shape[0] for h in hits)
        j1 = max(h[1] + h[2].shape[1] for h in hits)
        forbidden = np.zeros((i1 - i0, j1 - j0), dtype=bool)
        for hi, hj, hit in hits:
            forbidden[hi - i0 : hi - i0 + hit.shape[0], hj - j0 : hj - j0 + hit.shape[1]] |= hit

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
