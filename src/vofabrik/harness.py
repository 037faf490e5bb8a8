"""Scenario files, trajectory recording, and an independent safety validator.

A scenario is a single JSON document (``schema_version`` 1) describing a
chain, its home configuration, a goal point, spherical obstacles, and planner
overrides. All lengths are meters and all angles radians; the ``units`` block
restates that inside the file so assets are self-describing. Obstacles are
static: a nonzero ``velocity`` is a ValidationError, because the planner's
chooser, its clearance check and the validator all hold obstacles fixed.

Schema::

    {
      "schema_version": 1,
      "name": "cavity_19dof",
      "units": {"length": "m", "angle": "rad"},
      "chain": {
        "base": [x, y, z],
        "base_direction": [x, y, z],
        "world_up": [x, y, z],                        # optional, default +z
        "links":  [{"length": L, "thickness": r}, ...],
        "limits": [{"pitch": [lo, hi], "yaw": [lo, hi]}, ...]
      },
      "initial_angles": [[pitch, yaw], ...],
      "goal": [x, y, z],
      "obstacles": [{"center": [x, y, z], "radius": r,
                     "velocity": [0, 0, 0]}, ...],  # optional, must be zero
      "planner": {"max_steps": 500, "ik": {"max_iterations": 40}, ...}
    }

Trajectories are CSV with a mandatory header row ``step, t, alpha_0_pitch,
alpha_0_yaw, ..., ee_x, ee_y, ee_z, min_clearance, wall_time`` and every float
printed with 17 significant digits, so a written file parses back to
bit-identical values (wall times are measurements and differ between runs;
everything else is deterministic).

``validate_trajectory`` re-checks a recorded trajectory against the
volumetric model using the geometry primitives only. It shares no code with
the planner, so a clean validation is an independent safety check rather than
the planner grading its own work.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, is_dataclass, replace, fields as dataclass_fields
from importlib import resources
from pathlib import Path

import numpy as np

from .chain import (
    ChainModel,
    ChainState,
    JointLimits,
    LinkSpec,
    fk,
    link_capsules,
    state_from_angles,
)
from .geometry import capsule_capsule_distance, capsule_sphere_distance
from .planner import PlannerConfig, PlanStatus, min_clearance, plan
from .velocity_obstacles import SphereObstacle

SCHEMA_VERSION = 1

# validator tolerances: exact invariants get a float-noise allowance only
LIMIT_TOL = 1e-9
RIGID_TOL = 1e-9


class ParseError(ValueError):
    """The document is malformed: bad JSON, missing field, wrong type."""


class ValidationError(ValueError):
    """The document parsed but violates a scenario invariant."""


# ---------------------------------------------------------------------------
# schema walking


def _require(mapping, key, where):
    if not isinstance(mapping, dict):
        raise ParseError(f"{where}: expected an object")
    if key not in mapping:
        raise ParseError(f"{where}.{key}: missing field")
    return mapping[key]


def _number(value, where) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _integer(value, where) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _vec3(value, where) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ParseError(f"{where}: expected [x, y, z]")
    return np.array([_number(v, f"{where}[{i}]") for i, v in enumerate(value)])


def _interval(value, where):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ParseError(f"{where}: expected [lo, hi]")
    return _number(value[0], f"{where}[0]"), _number(value[1], f"{where}[1]")


def _list_of(value, where):
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list")
    return value


# ---------------------------------------------------------------------------
# planner-config overrides


def config_with_overrides(base: PlannerConfig, overrides, where="planner") -> PlannerConfig:
    """Apply a (possibly nested) dict of overrides onto a PlannerConfig.

    Keys name fields of the config; a field holding a nested config (``ik``
    and ``vo``, the FabrikConfig / VOConfig it wraps) takes a nested dict.
    Unknown keys and values the config constructors reject are reported as
    ParseError with the field path.
    """
    if not isinstance(overrides, dict):
        raise ParseError(f"{where}: expected an object")
    by_name = {f.name: f for f in dataclass_fields(base)}
    kwargs = {}
    for key, value in overrides.items():
        path = f"{where}.{key}"
        if key not in by_name:
            raise ParseError(f"{path}: unknown field")
        if is_dataclass(getattr(base, key)):
            kwargs[key] = config_with_overrides(getattr(base, key), value, path)
        elif by_name[key].type in ("int", int):
            kwargs[key] = _integer(value, path)
        else:
            kwargs[key] = _number(value, path)
    try:
        return replace(base, **kwargs)
    except (TypeError, ValueError) as e:
        raise ParseError(f"{where}: {e}") from e


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class Scenario:
    """A declarative planning problem: chain, home pose, goal, obstacles."""

    name: str
    chain: ChainModel
    initial_angles: np.ndarray  # (n_links, 2) pitch/yaw home configuration
    goal: np.ndarray  # (3,)
    obstacles: tuple  # of SphereObstacle
    planner: PlannerConfig

    def initial_state(self):
        return state_from_angles(self.chain, self.initial_angles)


def load_scenario(path) -> Scenario:
    """Parse and fully validate a scenario file.

    Raises ParseError with ``file:line:column`` or field-path diagnostics for
    malformed documents, ValidationError naming the violated invariant for
    well-formed documents that do not describe a usable problem.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror or e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    return scenario_from_dict(doc, where=path.name)


def scenario_from_dict(doc, where="scenario") -> Scenario:
    """Build a validated Scenario from an already-parsed document."""
    version = _require(doc, "schema_version", where)
    if version != SCHEMA_VERSION:
        raise ParseError(
            f"{where}.schema_version: unsupported version {version!r} "
            f"(this reader handles {SCHEMA_VERSION})"
        )
    name = _require(doc, "name", where)
    if not isinstance(name, str) or not name:
        raise ParseError(f"{where}.name: expected a non-empty string")
    units = doc.get("units")
    if units is not None and units != {"length": "m", "angle": "rad"}:
        raise ParseError(f"{where}.units: only meters and radians are supported, got {units!r}")

    model = _parse_chain(_require(doc, "chain", where), f"{where}.chain")
    n = model.n_links

    raw_angles = _list_of(_require(doc, "initial_angles", where), f"{where}.initial_angles")
    if len(raw_angles) != n:
        raise ValidationError(
            f"initial_angles count {len(raw_angles)} does not match link count {n}"
        )
    initial = np.array(
        [_interval(row, f"{where}.initial_angles[{k}]") for k, row in enumerate(raw_angles)]
    )

    goal = _vec3(_require(doc, "goal", where), f"{where}.goal")
    obstacles = _parse_obstacles(_require(doc, "obstacles", where), f"{where}.obstacles")
    planner = config_with_overrides(PlannerConfig(), doc.get("planner", {}), f"{where}.planner")

    try:
        state = state_from_angles(model, initial)
    except ValueError as e:
        raise ValidationError(f"initial_angles: {e}") from e
    clearance = min_clearance(model, state.positions, obstacles)
    if clearance <= 0.0:
        raise ValidationError(f"initial state in collision (clearance {clearance:.6g} m)")

    return Scenario(
        name=name,
        chain=model,
        initial_angles=initial,
        goal=goal,
        obstacles=tuple(obstacles),
        planner=planner,
    )


def _parse_chain(doc, where) -> ChainModel:
    base = _vec3(_require(doc, "base", where), f"{where}.base")
    direction = _vec3(_require(doc, "base_direction", where), f"{where}.base_direction")
    up = _vec3(doc["world_up"], f"{where}.world_up") if "world_up" in doc else np.array([0.0, 0.0, 1.0])

    links = []
    for k, entry in enumerate(_list_of(_require(doc, "links", where), f"{where}.links")):
        links.append(
            LinkSpec(
                _number(_require(entry, "length", f"{where}.links[{k}]"), f"{where}.links[{k}].length"),
                _number(_require(entry, "thickness", f"{where}.links[{k}]"), f"{where}.links[{k}].thickness"),
            )
        )

    raw_limits = _list_of(_require(doc, "limits", where), f"{where}.limits")
    if len(raw_limits) != len(links):
        raise ValidationError(
            f"limits count {len(raw_limits)} does not match link count {len(links)}"
        )
    limits = []
    for k, entry in enumerate(raw_limits):
        plo, phi = _interval(_require(entry, "pitch", f"{where}.limits[{k}]"), f"{where}.limits[{k}].pitch")
        ylo, yhi = _interval(_require(entry, "yaw", f"{where}.limits[{k}]"), f"{where}.limits[{k}].yaw")
        try:
            limits.append(JointLimits(plo, phi, ylo, yhi))
        except ValueError as e:
            raise ValidationError(f"joint {k} limits ordering: {e}") from e

    try:
        return ChainModel(base=base, base_direction=direction, links=links, limits=limits, world_up=up)
    except ValueError as e:
        raise ValidationError(str(e)) from e


def _parse_obstacles(raw, where):
    obstacles = []
    for i, entry in enumerate(_list_of(raw, where)):
        center = _vec3(_require(entry, "center", f"{where}[{i}]"), f"{where}[{i}].center")
        radius = _number(_require(entry, "radius", f"{where}[{i}]"), f"{where}[{i}].radius")
        if "velocity" in entry and _vec3(entry["velocity"], f"{where}[{i}].velocity").any():
            raise ValidationError(f"{where}[{i}].velocity: obstacle {i} must be static (zero velocity)")
        try:
            obstacles.append(SphereObstacle(center, radius))
        except ValueError as e:
            raise ParseError(f"{where}[{i}]: {e}") from e
    return obstacles


def scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped with the package."""
    root = Path(str(resources.files(__package__))) / "scenarios"
    path = root / f"{name}.json"
    if not path.is_file():
        available = ", ".join(sorted(p.stem for p in root.glob("*.json")))
        raise FileNotFoundError(f"no shipped scenario {name!r} (available: {available})")
    return path


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class TrajectoryRecord:
    """Per-step planning output: one row per recorded state.

    Row 0 is the home configuration (zero wall time); row k is the state
    after planner step k. All arrays share the leading dimension.
    """

    scenario: str
    steps: np.ndarray  # (S,) int step indices, 0..S-1
    t: np.ndarray  # (S,) commanded time, step * t_s
    angles: np.ndarray  # (S, n_links, 2)
    end_effector: np.ndarray  # (S, 3)
    min_clearance: np.ndarray  # (S,)
    wall_time: np.ndarray  # (S,) planner seconds per step, 0 for row 0

    def __post_init__(self):
        self.steps = np.asarray(self.steps, dtype=int)
        self.t = np.asarray(self.t, dtype=float)
        self.angles = np.asarray(self.angles, dtype=float)
        self.end_effector = np.asarray(self.end_effector, dtype=float)
        self.min_clearance = np.asarray(self.min_clearance, dtype=float)
        self.wall_time = np.asarray(self.wall_time, dtype=float)
        s = self.steps.shape[0]
        if s < 1:
            raise ValueError("a trajectory needs at least one row")
        if np.any(np.diff(self.steps) <= 0):
            raise ValueError("step indices must be strictly increasing")
        if self.angles.ndim != 3 or self.angles.shape[2] != 2 or self.angles.shape[0] != s:
            raise ValueError(f"angles must be (steps, n_links, 2), got {self.angles.shape}")
        for arr, name, shape in (
            (self.t, "t", (s,)),
            (self.end_effector, "end_effector", (s, 3)),
            (self.min_clearance, "min_clearance", (s,)),
            (self.wall_time, "wall_time", (s,)),
        ):
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")

    @property
    def n_links(self) -> int:
        return self.angles.shape[1]

    def header(self):
        return _header(self.n_links)

    def write_csv(self, path) -> None:
        """17-significant-digit CSV; round-trips through read_csv bit-exactly."""
        with open(path, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(self.header())
            for i in range(self.steps.shape[0]):
                row = [str(int(self.steps[i])), _fmt(self.t[i])]
                row += [_fmt(v) for v in self.angles[i].ravel()]
                row += [_fmt(v) for v in self.end_effector[i]]
                row += [_fmt(self.min_clearance[i]), _fmt(self.wall_time[i])]
                writer.writerow(row)

    @classmethod
    def read_csv(cls, path, scenario=None) -> "TrajectoryRecord":
        path = Path(path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        if not rows:
            raise ParseError(f"{path}: empty file")
        header = rows[0]
        if len(header) < 9 or (len(header) - 7) % 2 != 0:
            raise ParseError(f"{path}: header has {len(header)} columns, expected 2n+7")
        n = (len(header) - 7) // 2
        expected = _header(n)
        if header != expected:
            bad = next(i for i, (a, b) in enumerate(zip(header, expected)) if a != b)
            raise ParseError(f"{path}: column {bad} is {header[bad]!r}, expected {expected[bad]!r}")
        data = []
        for lineno, row in enumerate(rows[1:], start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: {len(row)} fields, expected {len(header)}")
            try:
                data.append([float(v) for v in row])
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from e
        if not data:
            raise ParseError(f"{path}: no data rows")
        table = np.array(data)
        return cls(
            scenario=scenario if scenario is not None else path.stem,
            steps=table[:, 0].astype(int),
            t=table[:, 1],
            angles=table[:, 2 : 2 + 2 * n].reshape(-1, n, 2),
            end_effector=table[:, 2 + 2 * n : 5 + 2 * n],
            min_clearance=table[:, 5 + 2 * n],
            wall_time=table[:, 6 + 2 * n],
        )


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _header(n_links):
    cols = ["step", "t"]
    for k in range(n_links):
        cols += [f"alpha_{k}_pitch", f"alpha_{k}_yaw"]
    return cols + ["ee_x", "ee_y", "ee_z", "min_clearance", "wall_time"]


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    """One broken invariant at one trajectory step. Violations are data."""

    step: int
    kind: str  # "rigid_link" | "joint_limit" | "obstacle_clearance" | "self_clearance"
    detail: str
    value: float


def validate_trajectory(model: ChainModel, trajectory: TrajectoryRecord, obstacles):
    """Re-check every recorded step against the volumetric model.

    Uses geometry primitives and forward kinematics only — no planner code.
    Checks: joint limits, rigid links (the recorded end effector must match
    what the recorded angles produce), positive capsule-obstacle clearance,
    and positive clearance between non-adjacent links. Returns a list of
    Violations; empty means the trajectory is safe.
    """
    out = []
    for i in range(trajectory.steps.shape[0]):
        step = int(trajectory.steps[i])
        angles = trajectory.angles[i]
        for k, lim in enumerate(model.limits):
            for axis, value, lo, hi in (
                ("pitch", float(angles[k, 0]), lim.pitch_min, lim.pitch_max),
                ("yaw", float(angles[k, 1]), lim.yaw_min, lim.yaw_max),
            ):
                if value < lo - LIMIT_TOL or value > hi + LIMIT_TOL:
                    out.append(
                        Violation(
                            step,
                            "joint_limit",
                            f"joint {k} {axis} {value:.6g} outside [{lo:.6g}, {hi:.6g}]",
                            value,
                        )
                    )
        positions = fk(model, angles, check_limits=False)
        deviation = float(np.linalg.norm(positions[-1] - trajectory.end_effector[i]))
        if deviation > RIGID_TOL:
            out.append(
                Violation(
                    step,
                    "rigid_link",
                    f"link {model.n_links - 1} tip deviates from the recorded "
                    f"end effector by {deviation:.6g} m",
                    deviation,
                )
            )
        out.extend(_clearance_violations(model, positions, angles, obstacles, step))
    return out


def _clearance_violations(model, positions, angles, obstacles, step):
    """Obstacle and self-collision checks for one state, via capsules."""
    capsules = link_capsules(model, ChainState(positions, angles))
    out = []
    for k, capsule in enumerate(capsules):
        for j, obstacle in enumerate(obstacles):
            clearance = capsule_sphere_distance(capsule, obstacle.center, obstacle.radius)
            if clearance <= 0.0:
                out.append(
                    Violation(
                        step,
                        "obstacle_clearance",
                        f"link {k} overlaps obstacle {j} (clearance {clearance:.6g} m)",
                        clearance,
                    )
                )
    for k in range(len(capsules)):
        for j in range(k + 2, len(capsules)):
            clearance = capsule_capsule_distance(capsules[k], capsules[j])
            if clearance <= 0.0:
                out.append(
                    Violation(
                        step,
                        "self_clearance",
                        f"link {k} overlaps link {j} (clearance {clearance:.6g} m)",
                        clearance,
                    )
                )
    return out


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class RunReport:
    """Summary statistics for one run, mirroring the trajectory record."""

    status: str
    joint_disp_mean: float  # rad, per-axis deltas pooled over joints and steps
    joint_disp_std: float
    time_per_step_mean: float  # s, planner work only
    time_per_step_std: float
    min_clearance: float  # m, worst over the whole run
    step_count: int  # planner steps executed (rows minus the home row)

    def __post_init__(self):
        if self.joint_disp_std < 0.0 or self.time_per_step_std < 0.0:
            raise ValueError("standard deviations cannot be negative")

    def to_dict(self):
        return {
            "status": self.status,
            "joint_disp_mean": self.joint_disp_mean,
            "joint_disp_std": self.joint_disp_std,
            "time_per_step_mean": self.time_per_step_mean,
            "time_per_step_std": self.time_per_step_std,
            "min_clearance": self.min_clearance,
            "step_count": self.step_count,
        }

    @classmethod
    def from_dict(cls, doc) -> "RunReport":
        return cls(**{f.name: doc[f.name] for f in dataclass_fields(cls)})


def make_report(record: TrajectoryRecord, status) -> RunReport:
    """Summarize a trajectory; a pure function of the record plus status.

    Joint displacement statistics pool the per-axis deltas |Δpitch|, |Δyaw|
    over all joints and all steps (population std). Step timing skips row 0,
    which carries no planner work.
    """
    deltas = np.abs(np.diff(record.angles, axis=0)).ravel()
    walls = record.wall_time[1:]
    status_str = status.value if isinstance(status, PlanStatus) else str(status)
    return RunReport(
        status=status_str,
        joint_disp_mean=float(deltas.mean()) if deltas.size else 0.0,
        joint_disp_std=float(deltas.std()) if deltas.size else 0.0,
        time_per_step_mean=float(walls.mean()) if walls.size else 0.0,
        time_per_step_std=float(walls.std()) if walls.size else 0.0,
        min_clearance=float(record.min_clearance.min()),
        step_count=record.steps.shape[0] - 1,
    )


def record_from_outcome(scenario: Scenario, outcome) -> TrajectoryRecord:
    """Pack a plan outcome into the flat per-step record format."""
    states = outcome.trajectory
    metrics = outcome.per_step_metrics
    s = len(states)
    clearances = np.empty(s)
    clearances[0] = min_clearance(scenario.chain, states[0].positions, scenario.obstacles)
    walls = np.zeros(s)
    for k, m in enumerate(metrics, start=1):
        clearances[k] = m.min_clearance
        walls[k] = m.wall_time
    steps = np.arange(s)
    return TrajectoryRecord(
        scenario=scenario.name,
        steps=steps,
        t=steps * scenario.planner.t_s,
        angles=np.stack([st.angles for st in states]),
        end_effector=np.stack([st.end_effector for st in states]),
        min_clearance=clearances,
        wall_time=walls,
    )


def run_and_report(scenario: Scenario, solver="vofabrik", out_dir=None):
    """Run one scenario end to end and summarize it.

    ``solver`` is ``"vofabrik"`` (cone-constrained) or ``"fabrik"`` (plain).
    A non-GoalReached finish is reported in the returned RunReport, not
    raised. When ``out_dir`` is given, ``<name>_<solver>_trajectory.csv`` and
    ``<name>_<solver>_report.json`` are written there; timing always excludes
    all I/O and validation.
    """
    outcome = plan(
        scenario.chain,
        scenario.initial_state(),
        scenario.goal,
        scenario.obstacles,
        scenario.planner,
        solver=solver,
    )
    record = record_from_outcome(scenario, outcome)
    report = make_report(record, outcome.status)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        record.write_csv(out / f"{scenario.name}_{solver}_trajectory.csv")
        payload = {"scenario": scenario.name, "solver": solver, **report.to_dict()}
        (out / f"{scenario.name}_{solver}_report.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )
    return record, report
