import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from pauli_dilate import cli

ROOT = Path(__file__).resolve().parents[1]


def run_script(tmp_path, script, *argv):
    """The script run in a fresh interpreter with tmp_path as its working directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_script_runs(tmp_path, script):
    # each script writes into out/ under its working directory or only prints
    run = run_script(tmp_path, script)
    assert run.returncode == 0, run.stderr
    assert run.stdout


def test_evolve_builders_writes_what_evolve_prints(tmp_path, capsys):
    # the script forwards its grid and weights to evolve, one descriptor per builder
    argv = ["--outdir", "sweep", "--tmax", "3.3", "--samples", "7", "--a", "0.1", "-0.4", "0.25"]
    run = run_script(tmp_path, "evolve_builders.py", *argv)
    assert run.returncode == 0, run.stderr
    descriptors = {"phase_damping": '{"builder":"phase_damping"}',
                   "depolarizing": '{"builder":"depolarizing"}',
                   "generic": '{"builder":"generic","a":[0.1,-0.4,0.25]}'}
    for name, desc in descriptors.items():
        assert cli.main(["evolve", "--in", desc, "--tmax", "3.3", "--samples", "7"]) == 0
        want = capsys.readouterr().out
        assert len(want.splitlines()) == 8
        assert (tmp_path / "sweep" / f"evolve_{name}.csv").read_text() == want


def test_representation_tables_prints_what_rep_prints(capsys):
    # one rep report per channel family, in this order; test_script_runs runs it cold
    runpy.run_path(str(ROOT / "scripts" / "representation_tables.py"), run_name="__main__")
    got = capsys.readouterr().out
    want = ""
    for desc in ('{"type":"phase_damping","p":0.3}', '{"type":"depolarizing","p":0.3}',
                 '{"type":"pauli","p":[0.4,0.3,0.2,0.1]}'):
        assert cli.main(["rep", "--in", desc]) == 0
        want += capsys.readouterr().out
    assert want.count('"su2_generators"') == 1
    assert got == want
