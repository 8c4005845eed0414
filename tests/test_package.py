"""The package's public surface: each name in ``cfcomm.__all__`` is its home
module's object, loaded on first use, and a bare ``import cfcomm`` loads no
submodule and no numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cfcomm
from cfcomm import chip, histories, modes, protocol

SUBMODULES = {"chip": chip, "histories": histories, "modes": modes, "protocol": protocol}

EXPORTS = {
    chip: [
        "InsufficientStatisticsError", "MeshEquivalenceReport", "MeshProgram", "MziSetting", "TomographyResult",
        "compile_program", "mesh_unitary", "simulate_tomography", "verify",
    ],
    histories: [
        "CounterfactualityReport", "EnumerationLimitError", "History", "amplitude_by_paths",
        "counterfactuality_report", "enumerate_histories",
    ],
    modes: ["ModeBasis", "PureState", "UnitaryOp"],
    protocol: [
        "BLOCK", "PASS", "BobAction", "OutcomeDistribution", "PostselectionError", "ProtocolConfig", "SweepRow",
        "alice_reduced_state", "closed_form", "evolution_unitary", "run", "splitter", "sweep",
    ],
}
HOMES = {name: module for module, names in EXPORTS.items() for name in names}


def test_all_is_the_31_exports():
    assert len(HOMES) == 31
    assert sorted(cfcomm.__all__) == sorted(HOMES)


@pytest.mark.parametrize("name", sorted(HOMES))
def test_each_name_is_its_home_modules_object(name):
    assert getattr(cfcomm, name) is getattr(HOMES[name], name)


def test_submodules_and_version():
    for name, module in SUBMODULES.items():
        assert getattr(cfcomm, name) is module
    assert cfcomm.__dict__["__version__"] == "0.1.0"


def test_dir_lists_every_export_and_submodule():
    dunders = [
        "__all__", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__", "__package__",
        "__path__", "__spec__", "__version__",
    ]
    assert set(dir(cfcomm)) >= {*HOMES, *SUBMODULES, *dunders}


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError) as err:
        cfcomm.no_such_name
    assert str(err.value) == "module 'cfcomm' has no attribute 'no_such_name'"


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from cfcomm import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(HOMES[name], name) for name in HOMES}


def test_bare_import_loads_no_submodule_and_no_numpy():
    src = str(Path(cfcomm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, cfcomm\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.', 'cfcomm.'))))\n"
        "print(sorted({*cfcomm.__all__, 'chip', 'histories', 'modes', 'protocol'} - set(dir(cfcomm))))\n"
        "cfcomm.ProtocolConfig\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.', 'cfcomm.'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # The first use of a protocol name loads its home module and what that
    # imports, and still no numpy.
    assert proc.stdout.splitlines() == ["[]", "[]", "['cfcomm.modes', 'cfcomm.protocol']"]


def test_run_and_sweep_load_neither_chip_nor_histories():
    src = str(Path(cfcomm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import contextlib, io, sys\n"
        "from cfcomm import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    codes = [cli.main(['run', '--k', '3', '--bob', 'block']),\n"
        "             cli.main(['sweep', '--k', '1:4', '--delta', '0:0.3', '--bob', 'split:0.7', '--final-block'])]\n"
        "print(codes, out.getvalue().count('\\n'))\n"
        "print(sorted(m for m in sys.modules if m.startswith('cfcomm.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # The run record is 11 JSON lines, the sweep a header and 4 x 4 rows.
    assert proc.stdout.splitlines() == ["[0, 0] 28", "['cfcomm.cli', 'cfcomm.modes', 'cfcomm.protocol']"]


def test_run_and_trace_load_no_numpy_and_the_rest_load_it_on_first_use():
    src = str(Path(cfcomm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import contextlib, io, sys\n"
        "from cfcomm import cli\n"
        "runs = [['run', '--k', '1', '--bob', 'block'],\n"
        "        ['run', '--k', '4096', '--bob', 'split:0.7', '--final-block']]\n"
        "runs += [argv + ['--format', 'csv'] for argv in runs]\n"
        "traces = [['trace', '--k', '4', '--bob', 'block', '--outcome', o] for o in ('A', 'B', 'C', 'L1')]\n"
        "rest = [['sweep', '--k', '1:4', '--delta', '0:0.3', '--bob', 'split:0.7'],\n"
        "        ['chip', '--k', '4', '--bob', 'block'],\n"
        "        ['tomo', '--k', '4', '--delta', '0.3', '--bob', 'block', '--shots', '0']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    first = [cli.main(argv) for argv in runs + traces], 'numpy' in sys.modules\n"
        "    then = [cli.main(argv) for argv in rest], 'numpy' in sys.modules\n"
        "print(first, then)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # Under block, C and L1 are reached only through C: verdict false, exit 3.
    assert proc.stdout == "([0, 0, 0, 0, 0, 0, 3, 3], False) ([0, 0, 0], True)\n"


def test_chip_all_is_its_exports_roles_and_mzi_block():
    roles = ["ROLE_BLOCKER", "ROLE_INNER", "ROLE_OUTER", "ROLE_ROUTER"]
    assert sorted(chip.__all__) == sorted([*EXPORTS[chip], *roles, "mzi_block"])


def names_read(path):
    """The dotted parts of every name a module imports or imports from, and every attribute it reads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        field = {ast.alias: "name", ast.ImportFrom: "module", ast.Attribute: "attr"}.get(type(node))
        if field:
            names.update((getattr(node, field) or "").split("."))
    return names


def test_no_module_of_the_package_reads_numpy_linalg():
    paths = sorted(Path(cfcomm.__file__).parent.glob("*.py"))
    assert len(paths) == 7
    assert [path.name for path in paths if "linalg" in names_read(path)] == []


def imports_run_at_import(path):
    """The top-level package of every module a file imports outside a function body."""
    names, nodes = set(), list(ast.parse(path.read_text()).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nodes.extend(ast.iter_child_nodes(node))
    return names


def test_modules_on_the_run_and_trace_path_import_numpy_only_in_functions():
    package = Path(cfcomm.__file__).parent
    seam = ["__main__.py", "cli.py", "histories.py", "modes.py", "protocol.py"]
    assert [name for name in seam if "numpy" in imports_run_at_import(package / name)] == []
    # The scan sees module-level imports, and the seam modules import numpy in functions.
    assert "numpy" in imports_run_at_import(package / "chip.py")
    assert all("numpy" in names_read(package / name) for name in ("modes.py", "protocol.py"))


def test_the_test_oracle_uses_none_of_the_dense_helpers():
    names = names_read(Path(__file__).with_name("oracle.py"))
    assert "step_ops" in names
    assert names.isdisjoint({"embed", "apply", "basis_state", "Step", "build_steps"})


# The dense step records and matrix-vector helpers that
# perfbench/workloads.py:steps_probe replays; no module of the package calls them.
PROBE_SHIMS = {"Step", "build_steps", "apply", "basis_state"}


def shim_definitions_and_reads(path):
    """The shims a module defines, and every name it reads (names, attributes
    and imports) outside those definitions; any definition of ``embed`` counts."""
    defined, read = set(), set()
    nodes = list(ast.parse(path.read_text()).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in {*PROBE_SHIMS, "embed"}:
            defined.add(node.name)
            continue
        if isinstance(node, ast.Name):
            (read if isinstance(node.ctx, ast.Load) else defined).add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
            defined.add(node.asname or node.name)
        nodes.extend(ast.iter_child_nodes(node))
    return defined, read


def test_no_module_of_the_package_reads_the_probe_shims_or_has_embed():
    found = {path.name: shim_definitions_and_reads(path) for path in Path(cfcomm.__file__).parent.glob("*.py")}
    assert len(found) == 7
    assert "compose_unitary" in found["protocol.py"][1]  # the scan sees reads
    names = {*PROBE_SHIMS, "embed"}
    defined = {module: sorted(d & names) for module, (d, _) in found.items() if d & names}
    read = {module: sorted(r & names) for module, (_, r) in found.items() if r & names}
    assert defined == {"modes.py": ["apply", "basis_state"], "protocol.py": ["Step", "build_steps"]}
    assert read == {}
