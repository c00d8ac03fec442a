import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pauli_dilate import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
# scripts whose whole stdout is pinned
GOLDEN_STDOUT = {"representation_tables.py": "representation_tables.txt"}
RESIDUAL = re.compile(r"\(max residual (\S+)\)$")


def split_values(line):
    """A printed line as its text and its numbers: a table row's entries as one
    complex array, a residual as one float."""
    head, bracket, row = line.partition("[")
    if bracket:
        return head, np.array(ast.literal_eval(bracket + row), dtype=complex).ravel()
    m = RESIDUAL.search(line)
    if m:
        return line[:m.start()], np.array([float(m.group(1))])
    return line, np.zeros(0)


def assert_matches_golden(out, path):
    # the text of every line is exact; its numbers may move by rounding, and the
    # sign of a zero may flip, but a table entry that moves by 1e-10 fails
    got, want = out.splitlines(), path.read_text().splitlines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        (g_text, g_values), (w_text, w_values) = split_values(g), split_values(w)
        assert g_text == w_text
        assert g_values.shape == w_values.shape
        assert np.all(np.abs(g_values - w_values) <= 1e-13), (g, w)


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_script_runs(tmp_path, script):
    # each script writes into out/ under its working directory or only prints
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / script)], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout
    if script in GOLDEN_STDOUT:
        assert_matches_golden(run.stdout, GOLDEN / GOLDEN_STDOUT[script])


def test_evolve_builders_writes_what_evolve_prints(tmp_path, capsys):
    # the script forwards its grid and weights to evolve, one descriptor per builder
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["--outdir", "sweep", "--tmax", "3.3", "--samples", "7", "--a", "0.1", "-0.4", "0.25"]
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "evolve_builders.py"), *argv],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    descriptors = {"phase_damping": '{"builder":"phase_damping"}',
                   "depolarizing": '{"builder":"depolarizing"}',
                   "generic": '{"builder":"generic","a":[0.1,-0.4,0.25]}'}
    for name, desc in descriptors.items():
        assert cli.main(["evolve", "--in", desc, "--tmax", "3.3", "--samples", "7"]) == 0
        want = capsys.readouterr().out
        assert len(want.splitlines()) == 8
        assert (tmp_path / "sweep" / f"evolve_{name}.csv").read_text() == want
