"""The package's public surface: every name the benchmark scripts call is
exported, every exported function has a caller, and the quick demos run
to completion."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import vofabrik

ROOT = Path(__file__).resolve().parents[1]


def benchmark_names():
    """Every vf.<name> the benchmark scripts use, dunders aside."""
    names = set()
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        names.update(re.findall(r"\bvf\.([A-Za-z]\w*)", path.read_text()))
    return names


def test_benchmark_names_are_exported():
    names = benchmark_names()
    assert {"plan", "solve", "ik_phase", "min_clearance"} <= names
    assert sorted(names - set(vofabrik.__all__)) == []


def package_calls():
    """The name of every function called in the package (through import
    aliases), except a call inside the function it names."""
    called = set()
    for path in sorted((ROOT / "src" / "vofabrik").glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {a.asname: a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names if a.asname}
        # the innermost function around each node; ast.walk goes outside in
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                owner.update(dict.fromkeys(ast.walk(node), node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                name = aliases.get(name, name)
                if name != owner.get(node):
                    called.add(name)
    return called


def test_every_exported_function_has_a_caller():
    """No public function exists that the planner does not use: each
    function in __all__ is called in the package outside its own
    definition, or named as vf.<name> by a benchmark script."""
    functions = {name for name in vofabrik.__all__ if inspect.isfunction(getattr(vofabrik, name))}
    assert {"plan", "min_clearance", "capsule_capsule_distance"} <= functions
    assert sorted(functions - package_calls() - benchmark_names()) == []


def test_planner_builds_its_cones_directly():
    """The planner's step builds the filter kernel's cones itself: planner.py
    calls no CollisionCone, SphereObstacle or admissible_velocity, names no
    collision_cone, and its step velocity calls _cone and the private
    search. Exactly one function of velocity_obstacles.py, _cone, returns
    the kernel's cone tuple (axis, center, c, limit), and
    admissible_velocity reaches it."""
    tree = ast.parse((ROOT / "src" / "vofabrik" / "planner.py").read_text())
    calls = {n.func.id for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not {"CollisionCone", "SphereObstacle", "admissible_velocity"} & calls
    assert "collision_cone" not in names
    (step,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_end_effector_velocity"]
    assert {"_cone", "_search"} <= {n.func.id for n in ast.walk(step) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}

    tree = ast.parse((ROOT / "src" / "vofabrik" / "velocity_obstacles.py").read_text())
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    builders = [
        name
        for name, node in functions.items()
        if any(isinstance(r, ast.Return) and isinstance(r.value, ast.Tuple) and len(r.value.elts) == 4 for r in ast.walk(node))
    ]
    assert builders == ["_cone"]
    reached, todo = set(), ["admissible_velocity"]
    while todo:
        name = todo.pop()
        reached.add(name)
        used = {n.func.id for n in ast.walk(functions[name]) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        todo.extend(sorted((used & functions.keys()) - reached))
    assert {"_cone", "_search", "_blocked"} <= reached


def test_validator_uses_no_planner_name():
    """validate_trajectory audits the planner, so neither it nor any harness
    function it reaches may use a name imported from the planner module."""
    tree = ast.parse((ROOT / "src" / "vofabrik" / "harness.py").read_text())
    planner_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "planner":
                planner_names.update(alias.asname or alias.name for alias in node.names)
            elif node.module is None:
                planner_names.update(alias.asname or alias.name for alias in node.names if alias.name == "planner")
    assert {"plan", "min_clearance"} <= planner_names
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["validate_trajectory"]
    while todo:
        name = todo.pop()
        reached.add(name)
        used = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
        assert not used & planner_names, (name, sorted(used & planner_names))
        todo.extend(sorted((used & functions.keys()) - reached))
    assert {"validate_trajectory", "_clearance_violations"} <= reached


def test_one_loosening_rule():
    """geometry alone defines _loosen; the planner's and the validator's
    bounding-ball tests import it from there, and every call outside
    geometry passes a scale, since both tests compare midpoints whose
    rounding grows with the chain's extent. The validator's clearance
    check widens its reject bound with it and names no np attribute, so
    the audit stays in plain floats."""
    defined, imported = [], {}
    trees = {}
    for path in sorted((ROOT / "src" / "vofabrik").glob("*.py")):
        trees[path.stem] = tree = ast.parse(path.read_text())
        defined += [path.stem for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_loosen"]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and "_loosen" in {alias.name for alias in node.names}:
                imported[path.stem] = node.module
    assert defined == ["geometry"]
    assert imported == {"harness": "geometry", "planner": "geometry"}
    calls = [
        (stem, len(node.args) + len(node.keywords))
        for stem, tree in trees.items()
        if stem != "geometry"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_loosen"
    ]
    assert {stem for stem, _ in calls} == {"harness", "planner"}
    assert all(count == 2 for _, count in calls), calls
    check = next(n for n in trees["harness"].body if isinstance(n, ast.FunctionDef) and n.name == "_clearance_violations")
    nodes = list(ast.walk(check))
    assert "_loosen" in {n.id for n in nodes if isinstance(n, ast.Name)}
    assert not {n.attr for n in nodes if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "np"}


def test_validator_checks_each_link_once():
    """The validator checks every link in plain floats and runs geometry's
    kernels on the float triples it checked: _clearance_violations builds
    no Capsule3 and calls Segment3 once, as the sole statement of the
    range and length fallback (an if testing DEGENERACY_THRESHOLD), whose
    Segment3 raises."""
    tree = ast.parse((ROOT / "src" / "vofabrik" / "harness.py").read_text())
    check = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_clearance_violations")
    calls = [getattr(n.func, "id", None) for n in ast.walk(check) if isinstance(n, ast.Call)]
    assert "Capsule3" not in calls and "capsule_capsule_distance" not in calls
    assert {"_segment_pair_distance", "_segment_point_distances"} <= set(calls)
    assert calls.count("Segment3") == 1
    fallbacks = [
        n
        for n in ast.walk(check)
        if isinstance(n, ast.If) and "DEGENERACY_THRESHOLD" in {m.id for m in ast.walk(n.test) if isinstance(m, ast.Name)}
    ]
    assert len(fallbacks) == 1 and not fallbacks[0].orelse
    (only,) = fallbacks[0].body
    assert isinstance(only, ast.Expr) and getattr(only.value.func, "id", None) == "Segment3"


def test_a_blocked_visit_ends_only_the_solve():
    """SafeSetEmpty is caught in one place, fabrik._solve (the sweep loop
    under solve), which ends the solve BLOCKED: no other handler in the
    package, the planner's included, names it, so it never reaches
    ik_phase or plan."""
    catchers = []
    for path in sorted((ROOT / "src" / "vofabrik").glob("*.py")):
        tree = ast.parse(path.read_text())
        # the innermost function around each node; ast.walk goes outside in
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                owner.update(dict.fromkeys(ast.walk(node), node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type and "SafeSetEmpty" in ast.dump(node.type):
                catchers.append((path.stem, owner.get(node, "<module>")))
    assert catchers == [("fabrik", "_solve")]


def test_obstacles_are_static_everywhere():
    """Obstacles have one meaning: no module names apex_velocity_offset,
    and the one .velocity read in the package is SphereObstacle's own
    check that it is zero, so the field cannot regain a meaning while it
    stays."""

    def velocity_reads(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "velocity":
                yield where
            inner = f"{where}.{child.name}" if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else where
            yield from velocity_reads(child, inner)

    reads = []
    for path in sorted((ROOT / "src" / "vofabrik").glob("*.py")):
        text = path.read_text()
        assert "apex_velocity_offset" not in text, path.name
        reads += velocity_reads(ast.parse(text), path.stem)
    assert set(reads) == {"velocity_obstacles.SphereObstacle.__post_init__"}


def test_chooser_visit_path_uses_no_numpy():
    """A chooser visit runs in plain floats: ConeConstraints.__call__, the
    choose function it returns, and every method or package function they
    reach name no np attribute. Nor do they call math.asin or math.acos:
    the cell test alone decides which cells are forbidden, with no angular
    window drawn around a sphere."""
    functions = {}
    for module in ("planner", "fabrik", "geometry"):
        for node in ast.parse((ROOT / "src" / "vofabrik" / f"{module}.py").read_text()).body:
            if isinstance(node, ast.FunctionDef):
                functions.setdefault(node.name, node)
            elif isinstance(node, ast.ClassDef) and node.name == "ConeConstraints":
                functions.update({f"self.{f.name}": f for f in node.body if isinstance(f, ast.FunctionDef)})

    def attributes(node, owner):
        return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == owner}

    reached, todo = set(), ["self.__call__"]
    while todo:
        name = todo.pop()
        reached.add(name)
        node = functions[name]
        assert not attributes(node, "np"), (name, sorted(attributes(node, "np")))
        assert not attributes(node, "math") & {"asin", "acos"}, (name, sorted(attributes(node, "math")))
        used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        used |= {f"self.{a}" for a in attributes(node, "self")}
        todo.extend(sorted((used & functions.keys()) - reached))
    assert {"self._touch_spheres", "self._certify", "self._cell_tests", "self._nearest_safe"} <= reached
    assert {"_hit", "clamp_to_limits", "fma"} <= reached


def test_certificate_runs_the_one_cell_test_unfused():
    """The chooser's certificate of the clamped cell has no cell test of
    its own: it calls _hit, widens reach**2 through the one loosening rule
    (_loosen with a scale), and names no fma and no np, so it costs plain
    float products."""
    tree = ast.parse((ROOT / "src" / "vofabrik" / "planner.py").read_text())
    chooser = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ConeConstraints")
    certify = next(n for n in chooser.body if isinstance(n, ast.FunctionDef) and n.name == "_certify")
    nodes = list(ast.walk(certify))
    calls = {}
    for node in nodes:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            calls.setdefault(node.func.id, []).append(len(node.args) + len(node.keywords))
    assert {"_hit", "_loosen"} <= calls.keys() and calls["_loosen"] == [2], calls
    names = {n.id for n in nodes if isinstance(n, ast.Name)}
    assert not names & {"fma", "np"}, sorted(names & {"fma", "np"})


def test_velocity_filter_checks_each_value_once():
    """The velocity filter checks v_pref once and runs one kernel in plain
    floats: _blocked, _cone (the one cone form), and every package function
    they reach name no np attribute and call no as_vec3 or as_length;
    admissible_velocity calls as_vec3 once and as_length never before it
    hands its cones to _search, which checks nothing again."""
    functions = {}
    for module in ("velocity_obstacles", "geometry"):
        tree = ast.parse((ROOT / "src" / "vofabrik" / f"{module}.py").read_text())
        functions.update({n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)})

    def calls(node):
        return [getattr(n.func, "id", None) for n in ast.walk(node) if isinstance(n, ast.Call)]

    reached, todo = set(), ["_blocked", "_cone"]
    while todo:
        name = todo.pop()
        reached.add(name)
        nodes = list(ast.walk(functions[name]))
        np_names = {n.attr for n in nodes if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "np"}
        assert not np_names, (name, sorted(np_names))
        assert not {"as_vec3", "as_length"} & set(calls(functions[name])), name
        used = {n.id for n in nodes if isinstance(n, ast.Name)}
        todo.extend(sorted((used & functions.keys()) - reached))
    assert {"_blocked", "_cone", "_contact_time", "_dot", "fma"} <= reached
    filter_calls = calls(functions["admissible_velocity"])
    assert filter_calls.count("as_vec3") == 1 and "as_length" not in filter_calls
    assert {"_cone", "_search"} <= set(filter_calls)
    search_calls = calls(functions["_search"])
    assert "_blocked" in search_calls and not {"as_vec3", "as_length", "_cone"} & set(search_calls)


def test_min_clearance_has_one_row_arithmetic():
    """min_clearance and every planner function it reaches name no einsum,
    clip or linalg: their point-segment rows all run through one kernel,
    so no second row arithmetic can drift from the scalar geometry."""
    tree = ast.parse((ROOT / "src" / "vofabrik" / "planner.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["min_clearance"]
    while todo:
        name = todo.pop()
        reached.add(name)
        nodes = list(ast.walk(functions[name]))
        used = {n.id for n in nodes if isinstance(n, ast.Name)} | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        assert not used & {"einsum", "clip", "linalg"}, (name, sorted(used & {"einsum", "clip", "linalg"}))
        todo.extend(sorted((used & functions.keys()) - reached))
    assert {"_segment_distances", "_point_segment_distances", "_norms", "_unit", "_link_pairs"} <= reached


def test_one_vector_check():
    """geometry.as_vec3 is the one 3-vector check: no module defines or
    calls an as_point, np.isfinite checks only whole angle arrays, in
    ChainState.validate and validate_trajectory, and no module calls
    np.errstate, which a vector within COORDINATE_RANGE never needs."""
    uses = set()
    for path in sorted((ROOT / "src" / "vofabrik").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert "as_point" not in names, path.name
        # the innermost function around each node; ast.walk goes outside in
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                owner.update(dict.fromkeys(ast.walk(node), node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "np":
                if node.attr in ("isfinite", "errstate"):
                    uses.add((node.attr, f"{path.stem}.{owner.get(node, '<module>')}"))
    assert sorted(uses) == [("isfinite", "chain.validate"), ("isfinite", "harness.validate_trajectory")]


def test_every_test_helper_has_a_user():
    """No dead reference code: every top-level function or class of a
    helper module under tests/ (one not named test_*.py) is named in a
    test_*.py file, or in a helper definition that is itself so named; and
    every method of such a class is a dunder or is named as an attribute
    there. A frozen reference that nothing calls any more checks nothing,
    and keeping it costs a reader its lines."""

    names, attrs = set(), set()

    def use(node):
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.alias):
                names.add(n.name)
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)

    helpers = {}  # (module, class or None, name) -> definition
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name.startswith("test_"):
            use(tree)
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                helpers[path.stem, None, node.name] = node
            if isinstance(node, ast.ClassDef):
                helpers.update({(path.stem, node.name, m.name): m for m in node.body if isinstance(m, ast.FunctionDef)})

    def reached(module, owner, name):
        if owner is None:
            # named directly, or as an attribute of its module
            return name in names or name in attrs
        return reached(module, None, owner) and (name.startswith("__") or name in attrs)

    done = set()
    while todo := [key for key in helpers if key not in done and reached(*key)]:
        for key in todo:
            done.add(key)
            node = helpers[key]
            if isinstance(node, ast.FunctionDef):
                use(node)
                continue
            # a class's methods count once they are reached themselves
            for part in node.body:
                if not isinstance(part, ast.FunctionDef):
                    use(part)
    assert [".".join(filter(None, key)) for key in helpers if key not in done] == []
    assert {("chooser_reference", "ReferenceChooser", "pick"), ("validator_reference", None, "bits")} <= done


def test_demos_import_only_public_names():
    """Every name a demo imports from vofabrik is in vofabrik.__all__, and
    it imports no private name from a vofabrik module, so a demo shows
    the public API and cannot lean on internals."""
    imported = []
    for path in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "vofabrik":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert any(module == "vofabrik" for _, module, _ in imported)
    private = [entry for entry in imported if entry[2].startswith("_")]
    unexported = [entry for entry in imported if entry[1] == "vofabrik" and entry[2] not in vofabrik.__all__]
    assert private == [] and unexported == []


# 04 plans the full cavity scenario (about 10 s); the acceptance tests
# cover that plan
@pytest.mark.parametrize(
    "demo",
    [
        "01_chain_basics.py",
        "02_reaching_with_fabrik.py",
        "03_velocity_obstacles.py",
        "05_custom_scenario.py",
    ],
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # demo 05 writes its artifacts under a temporary directory it removes
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env["TMPDIR"] = str(tmp)
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert sorted(tmp.iterdir()) == []
