"""What each command and the package namespace import, read from the modules themselves.

A command loads only the layers it reads, so a cold `python -m pauli_dilate`
pays for those alone.  The layering test reads the import statements of every
module, so a new top-level import that breaks the graph fails here.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pauli_dilate

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE_DIR = SRC / "pauli_dilate"

# runs `python -m pauli_dilate <argv>` and prints its exit code, the package's loaded modules
# and whether numpy was loaded
PROBE = """
import contextlib, io, json, runpy, sys
sys.argv = ["pauli-dilate", *json.loads(sys.argv[1])]
code = None
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("pauli_dilate", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "modules": sorted(m[len("pauli_dilate."):] for m in sys.modules
                                    if m.startswith("pauli_dilate."))}))
"""

# what every command loads; commutant does no numerical work, and channel, dilate, rep and
# the closed-form evolve of a builder work in Python floats, so these load neither linalg nor
# numpy.  An evolve Hamiltonian off the closed form ([["XI", 1.0]] leaks) is fitted with numpy
BASE = {"cli", "validation"}
PROBES = {
    "commutant": (["commutant", "--in", '{"generators": ["ZZ", "XX"], "qubits": 2}'],
                  {"pauli"}, False),
    "channel": (["channel", "--in", '{"type": "liouvillian", "gamma": [0.1, 0.2, 0.3]}'],
                {"pauli", "channels"}, False),
    "dilate": (["dilate", "--in", '{"type": "pauli", "p": [0.4, 0.3, 0.2, 0.1]}'],
               {"pauli", "channels"}, False),
    "rep": (["rep", "--in", '{"type": "depolarizing", "p": 0.3}'], {"pauli", "channels"}, False),
    "collide": (["collide", "--in", '{"a": [0.5, 0.4, 0.3], "zeta": 1.0, "dts": [0.1, 0.05], '
                 '"t_final": 0.5}'], {"pauli", "channels", "collisions"}, True),
    "evolve": (["evolve", "--in", '{"builder": "generic", "a": [0.5, 0.4, 0.3]}',
                "--samples", "3"], {"pauli", "channels"}, False),
    "evolve-fitted": (["evolve", "--in", '{"hamiltonian": [["XI", 1.0]], "psiE": "1"}',
                       "--samples", "3"],
                      {"linalg", "pauli", "channels", "dilations", "dynamics"}, True),
    "verify": (["verify"], {"linalg", "pauli", "channels", "dilations", "dynamics",
                            "collisions", "verify"}, True),
}


def _run(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("command", list(PROBES))
def test_command_loads_only_its_layers(command):
    argv, layers, numpy = PROBES[command]
    got = json.loads(_run(PROBE, json.dumps(argv)))
    assert got["code"] == 0
    assert set(got["modules"]) == BASE | layers
    assert got["numpy"] == numpy


def test_importing_the_package_loads_no_module():
    loaded = _run("import sys, pauli_dilate\n"
                  "print(sorted(m for m in sys.modules if m.startswith('pauli_dilate.')))")
    assert loaded.strip() == "[]"


# the public names of the package and the modules that define them
PUBLIC = {
    "channels": ["PauliChannel", "PauliLiouvillian", "bloch_state", "channel_from_descriptor",
                 "probs_from_scaling", "semigroup_channel", "semigroup_rates"],
    "collisions": ["CollisionConfig", "collision_channel", "convergence_report"],
    "dilations": ["GroupRep", "Isometry", "SU2Generators", "channel_of_isometry",
                  "defining_pauli_rep", "solve_env_rep", "solve_su2_generators"],
    "dynamics": ["ChannelGrid", "KrylovSubspace", "PhysicalDilation", "Schedule",
                 "build_depolarizing_dilation", "build_generic_pauli_dilation",
                 "build_phase_damping_dilation", "channels_on_grid", "isometry_at",
                 "krylov_subspace", "replay_schedule", "restricted_commutator_norm",
                 "schedule_for_target", "symmetrize_full"],
    "linalg": ["basis_state", "frob_dist", "kron", "mat_exp_hermitian"],
    "pauli": ["PauliString", "commutes", "multiply", "pauli_commutant", "to_matrix"],
    "validation": ["ToleranceError"],
}


class TestNamespace:
    def test_every_public_name_is_its_modules_object(self):
        public = [name for names in PUBLIC.values() for name in names]
        assert sorted(pauli_dilate.__all__) == sorted(public)
        for module, names in PUBLIC.items():
            mod = __import__(f"pauli_dilate.{module}", fromlist=["_"])
            for name in names:
                assert getattr(pauli_dilate, name) is getattr(mod, name), name

    def test_dir_lists_the_public_names(self):
        listing = dir(pauli_dilate)
        assert set(pauli_dilate.__all__) <= set(listing)
        assert "__version__" in listing and listing == sorted(listing)

    def test_star_import(self):
        namespace = {}
        exec("from pauli_dilate import *", namespace)
        assert set(pauli_dilate.__all__) <= set(namespace)
        assert namespace["Isometry"] is pauli_dilate.dilations.Isometry

    def test_modules_are_attributes(self):
        for module in ("verify", "cli"):
            assert getattr(pauli_dilate, module) is sys.modules[f"pauli_dilate.{module}"]

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match=r"^module 'pauli_dilate' has no attribute "
                                                 r"'no_such_name'$"):
            pauli_dilate.no_such_name
        with pytest.raises(ImportError):
            exec("from pauli_dilate import no_such_name", {})


def test_every_public_name_is_read_by_the_program():
    # a name that only the tests read belongs in the tests: every public name is read by a
    # module of the package (a command, verify) or by a script, outside imports and docstrings
    read = set()
    for path in [*(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py"),
                 *(SRC.parent / "scripts").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(set(pauli_dilate._SOURCES) - read) == []


# module -> the package modules it may import; `cli` may import any layer inside a
# command, where the command reads it, and nowhere else
LAYERS = {
    "validation": set(),
    "linalg": set(),
    "pauli": set(),
    "channels": {"linalg", "pauli", "validation"},
    "dilations": {"linalg", "pauli", "validation"},
    "dynamics": {"linalg", "pauli", "channels", "dilations", "validation"},
    "collisions": {"channels", "pauli"},
    "verify": {"linalg", "pauli", "channels", "dilations", "dynamics", "collisions",
               "validation"},
    "cli": {"validation"},
    "__main__": {"cli"},
    "__init__": set(),
}


def _package_imports(nodes) -> set[str]:
    """The package modules imported by the import statements among `nodes`."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] != "pauli_dilate":
                continue
            module = (node.module or "").removeprefix("pauli_dilate").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("pauli_dilate."))
    return found


def _top_level(tree: ast.Module):
    """Every node outside function bodies: what runs when the module is imported."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.stem)
def test_layering(path):
    assert path.stem in LAYERS, f"{path.name} needs a row in the layering table"
    tree = ast.parse(path.read_text())
    assert _package_imports(_top_level(tree)) <= LAYERS[path.stem]
    if path.stem != "cli":  # a function-level import is still an import of the layer
        assert _package_imports(ast.walk(tree)) <= LAYERS[path.stem]


def test_layering_reads_every_import_form():
    tree = ast.parse("from . import verify, dynamics\nfrom .pauli import pauli\n"
                     "import pauli_dilate.channels\nfrom pauli_dilate.linalg import kron\n"
                     "import numpy\nfrom typing import Sequence\n"
                     "def f():\n    from .collisions import collide\n")
    assert _package_imports(_top_level(tree)) == {"verify", "dynamics", "pauli", "channels",
                                                  "linalg"}
    assert _package_imports(ast.walk(tree)) == {"verify", "dynamics", "pauli", "channels",
                                                "linalg", "collisions"}
