import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pauli_dilate import cli, dynamics
from pauli_dilate.cli import GRID_CHUNK, MAX_SAMPLES, _csv_rows, _fmt_real, _render_json, main
from pauli_dilate.collisions import convergence_report
from pauli_dilate.dynamics import MAX_HAMILTONIAN_QUBITS
from pauli_dilate.pauli import MAX_COMMUTANT_QUBITS, PAULI_BASIS, pauli, to_matrix
from pauli_dilate.validation import as_reals
from reference_ops import fit_at

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    return json.loads(out)


class TestChannelCommand:
    def test_phase_damping_report(self, capsys):
        report = run_json(["channel", "--in", '{"type":"phase_damping","p":0.3}'], capsys)
        assert report["probabilities"] == [0.7, 0.0, 0.0, 0.3]
        assert report["bloch_scaling"] == [0.4, 0.4, 1.0]
        assert report["kraus_rank"] == 2

    def test_identity_channel(self, capsys):
        report = run_json(["channel", "--in", '{"type":"pauli","p":[1,0,0,0]}'], capsys)
        assert report["kraus_rank"] == 1
        assert report["bloch_scaling"] == [1.0, 1.0, 1.0]

    def test_full_depolarization(self, capsys):
        report = run_json(["channel", "--in", '{"type":"depolarizing","p":0.75}'], capsys)
        assert np.allclose(report["bloch_scaling"], [0.0, 0.0, 0.0])

    def test_tolerated_negative_weight_prints_zero(self, capsys):
        # -1e-13 is within PROB_TOL of 0 and is stored as 0
        report = run_json(["channel", "--in",
                           '{"type":"pauli","p":[0.5,0.5000000000001,0,-1e-13]}'], capsys)
        assert report["probabilities"] == [0.5, 0.5, 0, 0]
        assert report["choi_eigenvalues"] == [1, 1, 0, 0]
        assert report["kraus_rank"] == 2

    def test_liouvillian_needs_time(self, capsys):
        report = run_json(["channel", "--in",
                           '{"type":"liouvillian","gamma":[0,0,1]}', "--tmax", "0.5"], capsys)
        assert abs(report["probabilities"][3] - 0.5 * (1 - math.exp(-1.0))) < 1e-12

    def test_malformed_descriptor_exits_one(self, capsys):
        code, _, err = run_cli(["channel", "--in", '{"type":"nope"}'], capsys)
        assert code == 1
        assert "error" in err

    def test_invalid_json_exits_one(self, capsys):
        code, _, err = run_cli(["channel", "--in", "{not json"], capsys)
        assert code == 1


class TestDilateCommand:
    def test_phase_damping_isometry(self, capsys):
        report = run_json(["dilate", "--in", '{"type":"phase_damping","p":0.3}'], capsys)
        assert report["dim_env"] == 2
        assert report["kraus_rank"] == 2
        v = np.array([[complex(re, im) for re, im in row] for row in report["isometry"]])
        assert abs(v[0, 0] - math.sqrt(0.7)) < 1e-12
        assert abs(v[3, 1] + math.sqrt(0.3)) < 1e-12

    def test_rejects_liouvillian(self, capsys):
        code, _, _ = run_cli(["dilate", "--in", '{"type":"liouvillian","gamma":[1,1,1]}'], capsys)
        assert code == 1

    def test_non_minimal_rejected_like_rep(self, capsys):
        # the 1e-11 weight keeps a slot that the Kraus rank (3) does not count
        desc = '{"type":"pauli","p":[0.5,0.25,0.24999999999,1e-11]}'
        code, out, err = run_cli(["dilate", "--in", desc], capsys)
        assert (code, out) == (1, "")
        assert err == ("error: dilation is not minimal (Kraus rank 3, environment dim 4); "
                       "remove vanishing probabilities first\n")
        assert run_cli(["rep", "--in", desc], capsys) == (code, out, err)


RANK_DEFICIENT = [
    ('{"type":"pauli","p":[0.5,0.5,0,0]}', (0.5, 0.5, 0, 0)),
    ('{"type":"pauli","p":[0.5,0.3,0.2,0]}', (0.5, 0.3, 0.2, 0)),
    ('{"type":"depolarizing","p":0}', (1, 0, 0, 0)),
    ('{"type":"phase_damping","p":1}', (0, 0, 0, 1)),
]


class TestRepCommand:
    def test_phase_damping_table(self, capsys):
        report = run_json(["rep", "--in", '{"type":"phase_damping","p":0.3}'], capsys)
        assert report["max_residual"] < 1e-10
        mats = {e["label"]: np.array([[complex(re, im) for re, im in row]
                                      for row in e["matrix"]])
                for e in report["elements"]}
        assert np.allclose(mats["Z"], np.eye(2), atol=1e-10)
        assert np.allclose(mats["X"], np.diag([1, -1]), atol=1e-10)
        assert np.allclose(mats["-iY"], np.diag([1, -1]), atol=1e-10)

    def test_depolarizing_includes_rotation_generators(self, capsys):
        report = run_json(["rep", "--in", '{"type":"depolarizing","p":0.3}'], capsys)
        assert "su2_generators" in report
        jz = np.array([[complex(re, im) for re, im in row]
                       for row in report["su2_generators"]["jz"]])
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 2], expected[2, 1] = -2j, 2j
        assert np.allclose(jz, expected, atol=1e-10)

    def test_generic_rep_matches_depolarizing(self, capsys):
        generic = run_json(["rep", "--in", '{"type":"pauli","p":[0.4,0.3,0.2,0.1]}'], capsys)
        dep = run_json(["rep", "--in", '{"type":"depolarizing","p":0.3}'], capsys)
        assert "su2_generators" not in generic
        for a, b in zip(generic["elements"], dep["elements"]):
            assert a["label"] == b["label"]
            assert np.allclose(np.array(a["matrix"]), np.array(b["matrix"]), atol=1e-10)

    def test_non_minimal_rejected(self, capsys):
        # a weight of 1e-11 keeps its slot but puts the Choi eigenvalue 2e-11 below 1e-10
        desc = '{"type":"pauli","p":[0.5,0.25,0.24999999999,1e-11]}'
        code, _, err = run_cli(["rep", "--in", desc], capsys)
        assert code == 1
        assert "minimal" in err

    def test_table_is_exact_so_any_tolerance_passes(self, capsys):
        # every residual is computed from exact +-1 characters and exact products, so it is 0
        report = run_json(["rep", "--in", '{"type":"depolarizing","p":0.3}', "--tol", "0"], capsys)
        assert report["max_residual"] == 0
        assert report["su2_generators"]["residuals"] == [0, 0, 0]
        assert {v for e in report["elements"] for row in e["matrix"] for z in row for v in z} \
            == {-1, 0, 1}

    def test_zero_weight_slot_is_dropped(self, capsys):
        # the channel above with its 1e-11 weight set to 0 (and moved to py to keep the sum)
        report = run_json(["rep", "--in", '{"type":"pauli","p":[0.5,0.25,0.25,0]}'], capsys)
        assert report["dim_env"] == 3

    @pytest.mark.parametrize("desc, probs", RANK_DEFICIENT, ids=[d for d, _ in RANK_DEFICIENT])
    def test_rank_deficient_channels(self, capsys, desc, probs):
        slots = [a for a, q in enumerate(probs) if q > 0]
        dilation = run_json(["dilate", "--in", desc], capsys)
        assert dilation["dim_env"] == dilation["kraus_rank"] == len(slots)
        report = run_json(["rep", "--in", desc], capsys)
        assert report["dim_env"] == len(slots)
        for element in report["elements"]:
            g = to_matrix(pauli(element["label"]))
            # pi_E(g) = diag(chi_a(g)): +1 where g commutes with sigma_a, -1 where not
            chi = [1 if np.allclose(g @ PAULI_BASIS[a], PAULI_BASIS[a] @ g) else -1 for a in slots]
            got = np.array([[complex(re, im) for re, im in row] for row in element["matrix"]])
            assert np.allclose(got, np.diag(chi), atol=1e-12)


class TestCommutantCommand:
    def test_phase_damping_set(self, capsys):
        desc = '{"generators":["ZI","XZ","YZ"],"qubits":2}'
        report = run_json(["commutant", "--in", desc], capsys)
        assert report["commutant"] == ["II", "IZ", "ZX", "ZY"]
        assert report["count"] == 4

    def test_depolarizing_set(self, capsys):
        desc = '{"generators":["ZZZ","XZI","YIZ"],"qubits":3}'
        report = run_json(["commutant", "--in", desc], capsys)
        assert report["count"] == 16
        for member in ("XIX", "YXI", "ZXX"):
            assert member in report["commutant"]

    def test_rejects_bad_descriptor(self, capsys):
        code, _, _ = run_cli(["commutant", "--in", '{"generators":"ZI"}'], capsys)
        assert code == 1


class TestEvolveCommand:
    def test_phase_damping_curve(self, capsys, tmp_path):
        out = tmp_path / "evolve.csv"
        code, _, err = run_cli(["evolve", "--in", '{"builder":"phase_damping"}',
                                "--tmax", str(math.pi), "--samples", "9",
                                "--out", str(out)], capsys)
        assert code == 0, err
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,pI,px,py,pz,leakage"
        for line in lines[1:]:
            t, pi, px, py, pz, leak = (float(v) for v in line.split(","))
            assert abs(pz - 0.5 * (1 - math.cos(2 * t))) < 1e-10
            assert leak < 1e-10

    def test_depolarizing_curve(self, capsys):
        code, out, _ = run_cli(["evolve", "--in", '{"builder":"depolarizing"}',
                                "--tmax", "2.0", "--samples", "5"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        for row in rows:
            t, pi = float(row[0]), float(row[1])
            assert abs((1 - pi) - 0.5 * (1 - math.cos(2 * math.sqrt(3) * t))) < 1e-10

    def test_zero_hamiltonian_constant_rows(self, capsys):
        code, out, _ = run_cli(["evolve", "--in",
                                '{"hamiltonian":[["ZX",0.0]],"psiE":"1"}',
                                "--tmax", "1.0", "--samples", "3"], capsys)
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert line.split(",")[1:] == ["1", "0", "0", "0", "0"]

    def test_phase_prefix_is_no_qubit(self, capsys):
        curves = []
        for label in ("ZX", "-ZX"):
            desc = json.dumps({"hamiltonian": [[label, 1.0]], "psiE": "1"})
            code, out, err = run_cli(["evolve", "--in", desc], capsys)
            assert code == 0, err
            curves.append([[float(v) for v in line.split(",")[1:5]]
                           for line in out.splitlines()[1:]])
        assert len(curves[0]) == 25
        assert np.max(np.abs(np.array(curves[0]) - np.array(curves[1]))) < 1e-12

    def test_strict_mode_flags_non_pauli_dynamics(self, capsys):
        # a pure system rotation is unitary, not a Pauli mixture
        args = ["evolve", "--in", '{"hamiltonian":[["XI",1.0]],"psiE":"1"}',
                "--tmax", "1.0", "--samples", "5", "--strict"]
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert "leakage" in err

    @pytest.mark.parametrize("n", [MAX_HAMILTONIAN_QUBITS, MAX_HAMILTONIAN_QUBITS + 1, 26])
    def test_hamiltonian_qubit_cap(self, capsys, monkeypatch, n):
        desc = json.dumps({"hamiltonian": [["Z" + "X" * (n - 1), 1.0]], "psiE": "1" * (n - 1)})
        argv = ["evolve", "--in", desc, "--samples", "3"]
        if n <= MAX_HAMILTONIAN_QUBITS:
            code, out, err = run_cli(argv, capsys)
            assert code == 0 and err == "" and len(out.splitlines()) == 4
            return

        def unreachable(*args):
            raise AssertionError("allocated before the qubit cap was checked")
        # the cap is checked before any state or matrix of that size is built
        monkeypatch.setattr(dynamics, "basis_state", unreachable)
        monkeypatch.setattr(dynamics, "string_hamiltonian", unreachable)
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err == (f"error: Hamiltonian strings act on {n} qubits, more than the cap of "
                       f"{MAX_HAMILTONIAN_QUBITS}\n")

    @pytest.mark.parametrize("samples", [0, 1, 255, 256, 257, 513])
    @pytest.mark.parametrize("desc", ['{"builder":"generic","a":[0.6,0.5,0.3]}',
                                      '{"hamiltonian":[["ZX",1.3]],"psiE":"1"}'],
                             ids=["generic", "zx"])
    def test_grid_rows_match_per_sample_oracle(self, capsys, monkeypatch, desc, samples):
        # the chunked rows are one unchunked grid bit for bit, and each row is the
        # per-time oracle's fit: its own propagator and an einsum transfer matrix
        monkeypatch.setattr(cli, "GRID_CHUNK", 256)
        tables = []

        def recording(table, prefix=""):
            tables.append(table.copy())
            return _csv_rows(table, prefix)
        monkeypatch.setattr(cli, "_csv_rows", recording)
        code, out, err = run_cli(["evolve", "--in", desc, "--tmax", "3.7",
                                  "--samples", str(samples)], capsys)
        assert code == 0 and err == ""
        table = np.concatenate(tables) if tables else np.empty((0, 6))
        assert out == "t,pI,px,py,pz,leakage\n" + _csv_rows(table)
        ts = np.linspace(0.0, 3.7, samples)
        assert np.array_equal(table[:, 0], ts)
        pd = dynamics.dilation_from_descriptor(json.loads(desc))
        whole = dynamics.channels_on_grid(pd, ts)
        assert np.array_equal(table[:, 1:5], whole.probs)
        assert np.array_equal(table[:, 5], whole.leakage)
        for row, t in zip(table, ts):
            probs, leakage = fit_at(pd, t)
            assert np.max(np.abs(row[1:5] - probs)) <= 1e-12
            assert abs(row[5] - leakage) <= 1e-12

    def test_grid_is_fitted_in_chunks_of_at_most_256_times(self, capsys, monkeypatch):
        chunks = []
        on_grid = dynamics.channels_on_grid

        def spy(pd, times):
            chunks.append(np.array(times))
            return on_grid(pd, times)
        monkeypatch.setattr(dynamics, "channels_on_grid", spy)
        monkeypatch.setattr(cli, "GRID_CHUNK", 256)
        code, out, err = run_cli(["evolve", "--in", '{"builder":"depolarizing"}',
                                  "--tmax", "2.0", "--samples", "600", "--strict"], capsys)
        assert code == 0, err
        assert len(out.splitlines()) == 601
        assert [len(c) for c in chunks] == [256, 256, 88]
        assert np.array_equal(np.concatenate(chunks), np.linspace(0.0, 2.0, 600))

    @pytest.mark.parametrize("argv", [
        ["evolve", "--in", '{"builder":"depolarizing"}', "--tmax", "3.14", "--samples", "50"],
        ["evolve", "--in", '{"hamiltonian":[["ZX",1.0]],"psiE":"1"}', "--strict"],
        ["evolve", "--in", '{"hamiltonian":[["XIXZY",0.3],["YZIXX",0.8],["ZXYIZ",-0.6],'
                           '["IXZYX",0.5]],"psiE":"1010"}', "--tmax", "7.5", "--samples", "1500"],
    ], ids=["depolarizing", "zx", "five-qubits"])
    def test_output_does_not_depend_on_the_chunk(self, capsys, monkeypatch, argv):
        chunks = []
        on_grid = dynamics.channels_on_grid

        def spy(pd, times):
            chunks.append(len(times))
            return on_grid(pd, times)
        monkeypatch.setattr(dynamics, "channels_on_grid", spy)
        outs = set()
        for chunk in (1, 7, 256, 1024, GRID_CHUNK):
            monkeypatch.setattr(cli, "GRID_CHUNK", chunk)
            chunks.clear()
            code, out, err = run_cli(argv, capsys)
            assert code == 0, err
            assert max(chunks) <= chunk and sum(chunks) == len(out.splitlines()) - 1
            outs.add(out)
        assert len(outs) == 1

    def test_strict_reads_the_leakage_of_every_chunk(self, capsys, monkeypatch):
        # a system rotation leaks more as t grows up to pi/4, so the worst row of the
        # grid lies past the first chunk of 256
        monkeypatch.setattr(cli, "GRID_CHUNK", 256)
        desc = '{"hamiltonian":[["XI",1.0]],"psiE":"1"}'
        pd = dynamics.dilation_from_descriptor(json.loads(desc))
        leaks = dynamics.channels_on_grid(pd, np.linspace(0.0, 0.5, 600)).leakage
        first, rest = float(leaks[:256].max()), float(leaks[256:].max())
        assert first < rest
        argv = ["evolve", "--in", desc, "--tmax", "0.5", "--samples", "600",
                "--tol", repr((first + rest) / 2)]
        assert run_cli(argv, capsys)[0] == 0
        code, _, err = run_cli(argv + ["--strict"], capsys)
        assert code == 2 and "leakage" in err

    def test_non_strict_reports_leakage_quietly(self, capsys):
        args = ["evolve", "--in", '{"hamiltonian":[["XI",1.0]],"psiE":"1"}',
                "--tmax", "1.0", "--samples", "5"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        leaks = [float(line.split(",")[-1]) for line in out.strip().splitlines()[1:]]
        assert max(leaks) > 0.1


class TestCollideCommand:
    def test_single_run_trajectory(self, capsys):
        desc = '{"a":[0,0,1],"zeta":1.0,"dt":0.1,"n":10}'
        code, out, _ = run_cli(["collide", "--in", desc], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "dt,t,trace_distance"
        assert len(lines) == 12  # header + n + 1 states

    def test_long_trajectory_renders_in_slices_as_one_table(self, capsys, tmp_path):
        n = 2 * GRID_CHUNK + 5  # three slices, the last one short
        desc = f'{{"a":[0.5,0.4,0.3],"zeta":1.0,"dt":0.001,"n":{n}}}'
        errors = convergence_report((0.5, 0.4, 0.3), 1.0, [0.001], n * 0.001)[0].errors
        want = "dt,t,trace_distance\n" + _csv_rows(errors, "0.001,")
        assert run_cli(["collide", "--in", desc], capsys)[:2] == (0, want)
        path = tmp_path / "trajectory.csv"
        assert run_cli(["collide", "--in", desc, "--out", str(path)], capsys)[:2] == (0, "")
        assert path.read_text() == want

    def test_convergence_table(self, capsys):
        desc = '{"a":[0,0,1],"zeta":1.0,"dts":[0.1,0.05],"t_final":1.0}'
        code, out, _ = run_cli(["collide", "--in", desc], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "dt,max_trace_distance"
        errs = [float(line.split(",")[1]) for line in lines[1:]]
        assert errs[1] < errs[0]

    def test_rejects_zero_collisions(self, capsys):
        desc = '{"a":[0,0,1],"zeta":1.0,"dt":0.1,"n":0}'
        code, _, _ = run_cli(["collide", "--in", desc], capsys)
        assert code == 1

    def test_rejects_missing_fields(self, capsys):
        code, _, _ = run_cli(["collide", "--in", '{"a":[0,0,1],"zeta":1.0}'], capsys)
        assert code == 1

    @pytest.mark.parametrize("desc, message", [
        ('"dt":0.1,"n":0', "need at least one collision"),
        ('"dt":0.1,"n":-3', "need at least one collision"),
        ('"dt":0.1,"n":2.5', '"n" must be a whole number of collisions, got 2.5'),
        ('"dt":0,"n":3', "collision duration must be finite and positive, got 0.0"),
        ('"dt":0,"n":0', "collision duration must be finite and positive, got 0.0"),
        ('"dt":1e-6,"n":1000001', "1e+06 collisions exceed the cap of 1000000 per trajectory"),
        ('"dts":[],"t_final":1', '"dts" must be a non-empty list of collision durations'),
        ('"dts":[0.1],"t_final":0', "t_final must be finite and positive, got 0.0"),
        ('"dts":[1e-300],"t_final":1', "1e+300 collisions exceed the cap of 1000000 per "
                                       "trajectory"),
    ])
    def test_edge_cases_keep_their_messages(self, capsys, desc, message):
        desc = '{"a":[0.5,0.4,0.3],"zeta":1.0,' + desc + "}"
        assert run_cli(["collide", "--in", desc], capsys) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("desc, message", [
        ('"zeta":-1,"dts":[0.1],"t_final":0', "zeta must be finite and nonnegative, got -1.0"),
        ('"zeta":1,"dts":[0],"t_final":0',
         "collision duration must be finite and positive, got 0.0"),
        ('"zeta":1,"dts":[0.1,0],"t_final":0', "t_final must be finite and positive, got 0.0"),
        ('"zeta":-1,"dt":0,"n":0', "zeta must be finite and nonnegative, got -1.0"),
    ])
    def test_model_faults_are_named_before_the_ladder_or_trajectory_length(self, capsys, desc,
                                                                           message):
        desc = '{"a":[0.5,0.4,0.3],' + desc + "}"
        assert run_cli(["collide", "--in", desc], capsys) == (1, "", f"error: {message}\n")

    def test_one_collision_of_a_tiny_duration_runs(self, capsys):
        code, out, _ = run_cli(["collide", "--in",
                                '{"a":[0.5,0.4,0.3],"zeta":1.0,"dt":1e-300,"n":3}'], capsys)
        assert code == 0 and out.splitlines()[1:] == ["1e-300,0,0", "1e-300,1e-300,0",
                                                      "1e-300,2e-300,0", "1e-300,3e-300,0"]

    @pytest.mark.parametrize("desc", [
        '{"a":[NaN,0,0],"zeta":1,"dt":0.1,"n":3}',
        '{"a":[0,Infinity,0],"zeta":1,"dt":0.1,"n":3}',
        '{"a":[0,0,1],"zeta":NaN,"dt":0.1,"n":3}',
        '{"a":[0,0,1],"zeta":Infinity,"dt":0.1,"n":3}',
        '{"a":[0,0,1],"zeta":1,"dt":NaN,"n":3}',
        '{"a":[0,0,1],"zeta":1,"dt":Infinity,"n":3}',
        '{"a":[0,0,1],"zeta":1,"dt":0.1,"n":Infinity}',
        '{"a":[0,0,1],"zeta":1,"dt":0.1,"n":NaN}',
        '{"a":[0,0,1],"zeta":1,"dt":0.1,"n":2.5}',
        '{"a":[0,0,1],"zeta":1,"dts":[],"t_final":1}',
        '{"a":[0,0,1],"zeta":1,"dts":0.1,"t_final":1}',
        '{"a":[0,0,1],"zeta":1,"dts":[0.1,0],"t_final":1}',
        '{"a":[0,0,1],"zeta":1,"dts":[0.1,-0.05],"t_final":1}',
        '{"a":[0,0,1],"zeta":1,"dts":[0.1,NaN],"t_final":1}',
        '{"a":[0,0,1],"zeta":1,"dts":[0.1,Infinity],"t_final":1}',
        '{"a":[0,0,1],"zeta":1,"dts":[0.1],"t_final":0}',
        '{"a":[0,0,1],"zeta":1,"dts":[0.1],"t_final":-1}',
        '{"a":[0,0,1],"zeta":1,"dts":[0.1],"t_final":NaN}',
        '{"a":[0,0,1],"zeta":1,"dts":[0.1],"t_final":Infinity}',
        '{"a":[0,0,1],"zeta":1,"dts":[1e-9],"t_final":1}',
        '{"a":[0,0,1],"zeta":1,"dt":1e-9,"n":10000000}',
        '{"a":[0,0,1],"zeta":1,"dts":[2e-6,2e-6,1],"t_final":1}',
        '{"a":[0,0,1],"zeta":1,"dts":[' + ",".join(["1e-6"] * 10000) + '],"t_final":1}',
        '{"a":[0,0,1],"zeta":null,"dt":0.1,"n":3}',
        '{"a":[0,0,1],"zeta":1,"dts":[null],"t_final":1}',
        '{"a":[0,0,1],"zeta":1,"dt":null,"n":3}',
    ])
    def test_rejects_bad_values_with_one_line(self, capsys, desc):
        code, out, err = run_cli(["collide", "--in", desc], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("golden, argv", [
        pytest.param("collide_trajectory.csv",
                     ["collide", "--in", '{"a":[0,0,1],"zeta":1.0,"dt":0.05,"n":20}'],
                     id='collide_trajectory.csv-{"a":[0,0,1],"zeta":1.0,"dt":0.05,"n":20}'),
        pytest.param("collide_ladder.csv",
                     ["collide", "--in",
                      '{"a":[1,1,1],"zeta":1.0,"dts":[0.1,0.05,0.025],"t_final":1.0}'],
                     id='collide_ladder.csv-'
                        '{"a":[1,1,1],"zeta":1.0,"dts":[0.1,0.05,0.025],"t_final":1.0}'),
        pytest.param("evolve_depolarizing.csv",
                     ["evolve", "--in", '{"builder":"depolarizing"}',
                      "--tmax", "3.14", "--samples", "50"],
                     id="evolve_depolarizing.csv"),
        pytest.param("evolve_phase_damping.csv",
                     ["evolve", "--in", '{"hamiltonian":[["ZX",1.0]],"psiE":"1"}', "--strict"],
                     id="evolve_phase_damping.csv"),
    ])
    def test_readme_examples_match_golden(self, capsys, golden, argv):
        # the dt and t columns are exact; computed columns may move by rounding
        # in the last digits
        want = (GOLDEN / golden).read_text().splitlines()
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        got = out.splitlines()
        assert got[0] == want[0]
        assert len(got) == len(want)
        exact = [name in ("dt", "t") for name in want[0].split(",")]
        for got_row, want_row in zip(got[1:], want[1:]):
            for is_exact, g, w in zip(exact, got_row.split(","), want_row.split(",")):
                if is_exact:
                    assert g == w
                else:
                    assert abs(float(g) - float(w)) <= 1e-13

    @pytest.mark.parametrize("golden, argv", [
        ("channel_phase_damping.json",
         ["channel", "--in", '{"type":"phase_damping","p":0.3}']),
        ("dilate_depolarizing.json", ["dilate", "--in", '{"type":"depolarizing","p":0.3}']),
        ("rep_pauli.json", ["rep", "--in", '{"type":"pauli","p":[0.4,0.3,0.2,0.1]}']),
        ("commutant_phase_damping.json",
         ["commutant", "--in", '{"generators":["ZI","XZ","YZ"],"qubits":2}']),
        ("verify.txt", ["verify"]),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_readme_reports_match_golden(self, capsys, golden, argv):
        # channel, dilate, rep and commutant compute with fixed-order Python floats,
        # so their reports are exact; in the numpy-backed verify report, names,
        # statuses, tolerances and the summary line are exact, and computed reals
        # may move by rounding
        want = (GOLDEN / golden).read_text()
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        if golden.endswith(".json"):
            assert out == want
            return
        got_lines, want_lines = out.splitlines(), want.splitlines()
        assert len(got_lines) == len(want_lines)
        assert got_lines[-1] == want_lines[-1]
        number = r"-?\d+\.?\d*(?:e[-+]\d+)?"
        for g, w in zip(got_lines[:-1], want_lines[:-1]):
            g_head, g_res, g_tol, g_detail = re.fullmatch(
                rf"(\S+ \S+ +)residual=({number}) (tol=\S+)(.*)", g).groups()
            w_head, w_res, w_tol, w_detail = re.fullmatch(
                rf"(\S+ \S+ +)residual=({number}) (tol=\S+)(.*)", w).groups()
            assert (g_head, g_tol) == (w_head, w_tol)
            assert re.sub(number, "#", g_detail) == re.sub(number, "#", w_detail)
            for a, b in zip([g_res, *re.findall(number, g_detail)],
                            [w_res, *re.findall(number, w_detail)]):
                assert abs(float(a) - float(b)) <= 1e-13


class TestVerifyCommand:
    def test_full_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert "all checks passed" in lines[-1]

    def test_report_goes_to_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "verify.txt"
        code, out, _ = run_cli(["verify", "--out", str(out_file)], capsys)
        assert code == 0 and out == ""
        assert out_file.read_text().splitlines()[-1] == "all checks passed (25 total)"

    def test_negative_seed_names_the_flag(self, capsys):
        code, out, err = run_cli(["verify", "--seed", "-1"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: --seed must be a nonnegative integer, got -1\n"


class TestCliContract:
    def test_unknown_command_exits_one(self, capsys):
        assert run_cli(["bogus"], capsys)[0] == 1

    @pytest.mark.parametrize("value", [
        np.int8(-5), np.uint32(7), np.int64(2**62), np.float16(0.1), np.float32(1 / 3),
        np.float64(-0.0), np.float64(1e-300), np.complex64(0.1 - 2j),
        np.complex128(complex(-0.0, 1e300)),
    ], ids=repr)
    def test_numpy_scalars_render_as_the_python_values_they_hold(self, value):
        held = value.item()
        assert type(held) in (int, float, complex)
        assert _render_json(value) == _render_json(held)
        assert _render_json({"k": [value, value]}) == _render_json({"k": [held, held]})

    def test_missing_input_exits_one(self, capsys):
        assert run_cli(["channel"], capsys)[0] == 1

    def test_reads_descriptor_from_file(self, capsys, tmp_path):
        path = tmp_path / "desc.json"
        path.write_text('{"type":"phase_damping","p":0.5}')
        report = run_json(["channel", "--in", str(path)], capsys)
        assert report["bloch_scaling"][0] == 0.0

    def test_missing_file_exits_one(self, capsys):
        assert run_cli(["channel", "--in", "/nonexistent.json"], capsys)[0] == 1

    @pytest.mark.parametrize("command", ["channel", "commutant", "collide"])
    def test_deeply_nested_json_ends_in_one_line(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text('{"a": ' + "[" * 50000)
        for arg in ("[" * 3000, '{"generators": ' + "[" * 3000 + "]" * 3000 + "}", str(path)):
            code, out, err = run_cli([command, "--in", arg], capsys)
            assert (code, out) == (1, "")
            assert err.startswith("error: malformed JSON descriptor: maximum recursion depth")
            assert err.count("\n") == 1

    def test_huge_field_ends_in_one_short_line(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"a": [0] * 10**6, "zeta": 1, "dt": 0.1, "n": 2}))
        code, out, err = run_cli(["collide", "--in", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and len(err.encode()) <= 300
        assert err.startswith('error: "a" must be a list of 3 numbers, got [0, 0, 0, ')
        assert err.endswith(", ... (3000000 characters)\n")

    @pytest.mark.parametrize("value", [[0] * 53, [0] * 54, "x" * 158, "x" * 159, 10**4000],
                             ids=["159-list", "162-list", "160-str", "161-str", "4001-int"])
    def test_field_repr_is_cut_after_160_characters(self, value):
        shown = repr(value)
        with pytest.raises(ValueError) as exc:
            as_reals(value, '"a"', 3)
        if len(shown) <= 160:
            assert str(exc.value) == f'"a" must be a list of 3 numbers, got {shown}'
        else:
            assert str(exc.value) == (f'"a" must be a list of 3 numbers, got {shown[:160]}... '
                                      f"({len(shown)} characters)")

    def test_twelve_significant_digits(self, capsys):
        code, out, _ = run_cli(["channel", "--in", '{"type":"phase_damping","p":0.1}'], capsys)
        assert '"probabilities": [0.9, 0, 0, 0.1]' in out

    @pytest.mark.parametrize("argv, needle", [
        (["evolve", "--in", '{"hamiltonian":[[1,2]]}'], "[1, 2]"),
        (["evolve", "--in", '{"hamiltonian":[["ZX",null]],"psiE":"1"}'], "'ZX'"),
        (["evolve", "--in", '{"builder":"generic","a":[1,null,2]}'], '"a"'),
        (["channel", "--in", '{"type":"phase_damping"}'], '"p"'),
        (["channel", "--in", '{"type":"pauli","p":[null,0,0,1]}'], '"p"'),
        (["channel", "--in", '{"type":"pauli","p":[NaN,0,0,0]}'], "finite"),
        (["channel", "--in", '{"type":"phase_damping","p":NaN}'], "finite"),
        (["channel", "--in", '{"type":"liouvillian","gamma":[NaN,0,0]}'], "finite"),
        (["channel", "--in", "[1]"], "must be an object"),
        (["channel", "--in", " [1]"], "must be an object"),
        (["commutant", "--in", '{"generators":[1],"qubits":1}'], "generators"),
        (["evolve", "--in", '{"builder":"depolarizing"}', "--tmax", "inf"], "--tmax"),
        (["evolve", "--in", '{"builder":"depolarizing"}', "--tmax", "nan"], "--tmax"),
        (["evolve", "--in", '{"builder":"depolarizing"}', "--tmax", "-1"], "--tmax"),
        (["channel", "--in", '{"type":"liouvillian","gamma":[0,0,1]}', "--tmax", "nan"],
         "--tmax"),
        (["evolve", "--in", '{"builder":"depolarizing"}', "--samples", str(MAX_SAMPLES + 1)],
         "--samples"),
        (["commutant", "--in", json.dumps({"generators": ["Z" * (MAX_COMMUTANT_QUBITS + 1)],
                                           "qubits": MAX_COMMUTANT_QUBITS + 1})], "qubits"),
        (["commutant", "--in", '{"generators":["Z"],"qubits":true}'], "qubits"),
        (["channel", "--in", '{"type":"phase_damping","p":0.3}', "--tmax", "nan"], "--tmax"),
        (["evolve", "--in", '{"builder":"depolarizing"}', "--strict", "--tol", "nan"], "--tol"),
        (["rep", "--in", '{"type":"depolarizing","p":0.3}', "--tol", "-1"], "--tol"),
        (["evolve", "--in", '{"hamiltonian":[["Z",1.0]],"psiE":""}'], "psiE"),
        (["collide", "--in", '{"a":[1e200,1,1],"zeta":1,"dt":0.1,"n":3}'], "weights a"),
        (["collide", "--in", '{"a":[1,1,1],"zeta":1e308,"dt":0.1,"n":3}'], "zeta"),
        (["collide", "--in", '{"a":[1,1,1],"zeta":1e308,"dts":[0.1],"t_final":1}'], "zeta"),
        (["channel", "--in", '{"type":"liouvillian","gamma":[1e308,1e308,1]}'], "gamma"),
        (["evolve", "--in", '{"hamiltonian":[["ZX",1e308],["ZX",1e308]],"psiE":"1"}'],
         "coefficients"),
        (["evolve", "--in", '{"hamiltonian":[["ZX",1e308]],"psiE":"1"}'], "overflows"),
        (["collide", "--in", '{"a":[1,1,1],"zeta":1,"dts":[0.1],"t_final":0.2,"dt":-5,"n":"x"}'],
         "'dt'"),
        (["collide", "--in", '{"a":[1,1,1],"zeta":1,"dt":0.1,"n":3,"t_final":1}'], "'t_final'"),
        (["collide", "--in", '{"a":[1,1,1],"zeta":1,"dt":0.1,"n":3,"gamma":1}'], "'gamma'"),
        (["evolve", "--in", '{"builder":"depolarizing","a":[1,2,3]}'], "'a'"),
        (["evolve", "--in", '{"builder":"phase_damping","psiE":"1"}'], "'psiE'"),
        (["evolve", "--in", '{"builder":"generic","a":[1,2,3],"hamiltonian":[["ZX",1]]}'],
         "'hamiltonian'"),
        (["evolve", "--in", '{"hamiltonian":[["ZX",1.0]],"psiE":"1","a":[1,2,3]}'], "'a'"),
        (["channel", "--in", '{"type":"depolarizing","p":0.3,"gamma":[1,1,1]}'], "'gamma'"),
        (["channel", "--in", '{"type":"liouvillian","gamma":[1,1,1],"p":0.3}'], "'p'"),
        (["dilate", "--in", '{"type":"pauli","p":[1,0,0,0],"tmax":1}'], "'tmax'"),
        (["rep", "--in", '{"type":"phase_damping","p":0.3,"q":0.1}'], "'q'"),
        (["commutant", "--in", '{"generators":["ZX"],"qubits":2,"type":"pauli"}'], "'type'"),
        # an int past the float range, strings and booleans are not numbers, in any
        # numeric field of any command
        (["channel", "--in", '{"type":"phase_damping","p":1%s}' % ("0" * 400)], '"p"'),
        (["channel", "--in", '{"type":"phase_damping","p":"0.3"}'], "got '0.3'"),
        (["channel", "--in", '{"type":"phase_damping","p":true}'], "got True"),
        (["channel", "--in", '{"type":"liouvillian","gamma":[0.1,"0.2",0.3]}'], '"gamma"'),
        (["channel", "--in", '{"type":"liouvillian","gamma":[0.1,false,0.3]}'], '"gamma"'),
        (["dilate", "--in", '{"type":"depolarizing","p":"0.3"}'], "got '0.3'"),
        (["dilate", "--in", '{"type":"depolarizing","p":false}'], "got False"),
        (["rep", "--in", '{"type":"pauli","p":[0.4,0.3,0.2,"0.1"]}'], '"p"'),
        (["rep", "--in", '{"type":"pauli","p":[true,false,false,false]}'], '"p"'),
        (["commutant", "--in", '{"generators":["ZX"],"qubits":"2"}'], "qubits"),
        (["evolve", "--in", '{"builder":"generic","a":["0.6",0.5,0.3]}'], '"a"'),
        (["evolve", "--in", '{"builder":"generic","a":[true,0.5,0.3]}'], '"a"'),
        (["evolve", "--in", '{"hamiltonian":[["ZX","1.0"]],"psiE":"1"}'], "got '1.0'"),
        (["evolve", "--in", '{"hamiltonian":[["ZX",true]],"psiE":"1"}'], "got True"),
        (["collide", "--in", '{"a":[0,0,"1"],"zeta":1,"dt":0.1,"n":3}'], '"a"'),
        (["collide", "--in", '{"a":[0,0,1],"zeta":"1","dt":0.1,"n":3}'], "got '1'"),
        (["collide", "--in", '{"a":[0,0,1],"zeta":1,"dt":true,"n":3}'], "got True"),
        (["collide", "--in", '{"a":[0,0,1],"zeta":1,"dt":0.1,"n":true}'], "got True"),
        (["collide", "--in", '{"a":[0,0,1],"zeta":1,"dt":0.1,"n":"3"}'], "got '3'"),
        (["collide", "--in", '{"a":[0,0,1],"zeta":1,"dts":["0.1"],"t_final":1}'], "got '0.1'"),
        (["collide", "--in", '{"a":[0,0,1],"zeta":1,"dts":[0.1],"t_final":true}'], "got True"),
    ])
    def test_bad_descriptors_exit_one_with_one_line(self, capsys, argv, needle):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    @pytest.mark.parametrize("argv", [
        ["channel", "--in", '{"type":"depolarizing","p":0.3}', "--tol", "1e-3"],
        ["dilate", "--in", '{"type":"depolarizing","p":0.3}', "--seed", "3"],
        ["rep", "--in", '{"type":"depolarizing","p":0.3}', "--seed", "3"],
        ["commutant", "--in", '{"generators":["ZX"],"qubits":2}', "--tol", "1e-3"],
        ["collide", "--in", '{"a":[0,0,1],"zeta":1.0,"dt":0.05,"n":2}', "--seed", "3"],
        ["verify", "--tol", "1e-3"],
    ])
    def test_unread_flags_are_rejected(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err

    def test_liouvillian_at_huge_time_decays_fully(self, capsys):
        # the exponent overflows to -inf; exp takes it to the limit 0, with no NaN
        report = run_json(["channel", "--in", '{"type":"liouvillian","gamma":[0,0,1]}',
                           "--tmax", "1e308"], capsys)
        assert report["bloch_scaling"] == [0.0, 0.0, 1.0]

    def test_cli_never_loads_scipy(self):
        # scipy is a test-only dependency: importing and running the CLI must not pull it in
        code = ("import os, sys\n"
                "from pauli_dilate.cli import main\n"
                "main(['evolve', '--in', '{\"builder\":\"depolarizing\"}', '--samples', '3',"
                " '--out', os.devnull])\n"
                "print('scipy' in sys.modules)\n")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "False\n"

    def test_deterministic_output(self, tmp_path):
        # byte-identical CSV and JSON across runs of the installed module
        cmds = [
            ["evolve", "--in", '{"builder":"generic","a":[0.6,0.5,0.3]}',
             "--tmax", "3.0", "--samples", "11"],
            ["rep", "--in", '{"type":"depolarizing","p":0.3}'],
        ]
        for cmd in cmds:
            runs = [
                subprocess.run([sys.executable, "-m", "pauli_dilate", *cmd],
                               capture_output=True, text=True)
                for _ in range(2)
            ]
            assert runs[0].returncode == 0, runs[0].stderr
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stdout


# the commands that run without numpy: a Pauli and a Liouvillian channel, dilate, and an
# isotropic rep, whose report includes the SU(2) generators
NUMPY_FREE = [
    ["channel", "--in", '{"type":"pauli","p":[0.4,0.3,0.2,0.1]}'],
    ["channel", "--in", '{"type":"liouvillian","gamma":[0.1,0.2,0.3]}', "--tmax", "2.5"],
    ["dilate", "--in", '{"type":"pauli","p":[0.5,0.3,0.2,0]}'],
    ["rep", "--in", '{"type":"depolarizing","p":0.3}'],
]

README_CSV = [
    ["collide", "--in", '{"a":[0,0,1],"zeta":1.0,"dt":0.05,"n":20}'],
    ["collide", "--in", '{"a":[1,1,1],"zeta":1.0,"dts":[0.1,0.05,0.025],"t_final":1.0}'],
    ["evolve", "--in", '{"builder":"depolarizing"}', "--tmax", "3.14", "--samples", "50"],
    ["evolve", "--in", '{"hamiltonian":[["ZX",1.0]],"psiE":"1"}', "--strict"],
]


def fresh_process(argv):
    run = subprocess.run([sys.executable, "-m", "pauli_dilate", *argv],
                         capture_output=True, text=True, timeout=120)
    return run.returncode, run.stdout


class TestParserReuse:
    """main() builds its parser once per process and keeps nothing else between calls."""

    reals = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
        [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300,
         1.0, -3.0, 1e15, 2.0 ** 60])

    @given(cols=st.integers(1, 6), data=st.data())
    def test_csv_rows_match_fmt_real(self, cols, data):
        rows = data.draw(st.lists(st.lists(self.reals, min_size=cols, max_size=cols), max_size=8))
        # any 64-bit pattern: NaN payloads, subnormals and both zeros included
        n, seed = data.draw(st.integers(0, 600)), data.draw(st.integers(0, 2**32 - 1))
        bits = np.random.default_rng(seed).integers(0, 2**64, (n, cols), dtype=np.uint64)
        # NaNs made quiet: adding 0.0 to a signaling NaN warns, and the program makes none
        bits[np.isnan(bits.view(np.float64))] |= np.uint64(1 << 51)
        prefix = data.draw(st.sampled_from(["", "0.05,", "5%,", "%s%%,", "%.12g,", "%(x)s,"]))
        for table in (np.array(rows, dtype=float).reshape(-1, cols), bits.view(np.float64)):
            want = "".join(",".join(_fmt_real(v) for v in row) + "\n" for row in table)
            assert _csv_rows(table) == want
            assert _csv_rows(table, prefix) == "".join(
                prefix + line + "\n" for line in want.splitlines())

    def test_parser_built_once_and_failure_leaves_no_trace(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        monkeypatch.setattr(cli, "_parser", None)
        argv = README_CSV[0]
        assert run_cli(["collide", "--bogus"], capsys)[0] == 1
        code, out, _ = run_cli(argv, capsys)
        assert (code, out) == fresh_process(argv)
        assert built == [1]

    @pytest.mark.parametrize("argv", README_CSV, ids=lambda a: a[2])
    def test_second_in_process_call_matches_fresh_process(self, capsys, argv):
        first = run_cli(argv, capsys)
        assert run_cli(argv, capsys) == first
        assert first[:2] == fresh_process(argv)


@pytest.mark.parametrize("argv", NUMPY_FREE, ids=lambda a: a[0] + "-" + a[2])
def test_numpy_free_commands_print_the_same_bytes_cold_and_in_process(capsys, argv):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and out
    assert fresh_process(argv) == fresh_process(argv) == (code, out)


def test_verify_seed_changes_nothing_substantive(capsys):
    code_a, out_a, _ = run_cli(["verify", "--seed", "7"], capsys)
    assert code_a == 0
