"""Dense oracle for the planner's angle chooser, ConeConstraints.

Truth is recomputed here from the geometry alone. The link at `joint`
pivots at positions[joint + 1] in the backward phase, extending away from
the pivot along minus the chosen direction, and at positions[joint] in the
forward phase, extending along it. It must stay out of a touch sphere
around every obstacle and around every virtual self-sphere: the closest
point to the pivot of each link the sweep has not visited yet, other than
the neighbour, with that link's thickness as radius. The touch distance is
margin-inclusive: radius + m + thickness, where
m = clip(min(clearance_margin, (dist - thickness - radius) / 2), 0) and
dist is the sphere center's distance from the pivot.
"""

import numpy as np

from vofabrik import ConeConstraints, JointAngles, Phase
from vofabrik.chain import joint_frames


def touch_spheres(model, positions, phase, joint, obstacles, margin):
    """(pivot, centers, touch distances) the link must stay clear of."""
    backward = phase is Phase.BACKWARD
    pivot = positions[joint + 1] if backward else positions[joint]
    sources = [(o.center, o.radius) for o in obstacles]
    others = range(0, joint - 1) if backward else range(joint + 2, model.n_links)
    for j in others:
        a, b = positions[j], positions[j + 1]
        t = min(max(float(np.dot(pivot - a, b - a) / np.dot(b - a, b - a)), 0.0), 1.0)
        sources.append((a + t * (b - a), float(model.thicknesses[j])))
    thickness = float(model.thicknesses[joint])
    centers, touch = [], []
    for center, radius in sources:
        dist = float(np.linalg.norm(center - pivot))
        m = max(min(margin, 0.5 * (dist - thickness - radius)), 0.0)
        centers.append(center)
        touch.append(radius + m + thickness)
    return pivot, np.array(centers).reshape(-1, 3), np.array(touch)


def link_directions(frame, pitch, yaw):
    """Unit directions at (pitch, yaw) in the frame, one row per angle pair."""
    pitch, yaw = np.asarray(pitch, float), np.asarray(yaw, float)
    lateral = np.cross(frame.up, frame.forward)
    return (
        (np.cos(pitch) * np.cos(yaw))[:, None] * frame.forward
        + (np.cos(pitch) * np.sin(yaw))[:, None] * lateral
        + np.sin(pitch)[:, None] * frame.up
    )


class ChooserCase:
    """One chooser visit: a chain pose, a phase and a joint, with truth."""

    def __init__(self, model, state, obstacles, phase, joint, cfg):
        self.chooser = ConeConstraints(model, obstacles, cfg)
        self.model, self.state = model, state
        self.phase, self.joint = phase, joint
        self.frames = joint_frames(model, state.angles)
        self.length = float(model.lengths[joint])
        self.pivot, self.centers, self.touch = touch_spheres(
            model, state.positions, phase, joint, obstacles, cfg.clearance_margin
        )

    def clearance(self, pitch, yaw):
        """Per angle pair, the least gap between the link's center line and
        a touch sphere; zero or less means the link collides."""
        d = link_directions(self.frames[self.joint], pitch, yaw)
        if self.phase is Phase.BACKWARD:
            d = -d
        gaps = np.full(len(d), np.inf)
        for center, touch in zip(self.centers, self.touch):
            t = np.clip((center - self.pivot) @ d.T, 0.0, self.length)
            closest = self.pivot + t[:, None] * d
            gaps = np.minimum(gaps, np.linalg.norm(center - closest, axis=1) - touch)
        return gaps

    def choose(self, pitch, yaw):
        """The chooser's (pitch, yaw) for each desired pair, in a sweep
        started on the state's positions."""
        choose = self.chooser(self.phase, self.state.positions)
        picks = np.empty((len(pitch), 2))
        for k, (p, y) in enumerate(zip(pitch, yaw)):
            picks[k] = choose(
                self.joint,
                JointAngles(float(p), float(y)),
                self.model.limits[self.joint],
                self.frames[self.joint],
                self.pivot,
            )
        return picks
