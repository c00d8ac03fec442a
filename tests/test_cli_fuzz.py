"""Random descriptors through every command: each run ends in exit 0, 1 or 2.

Values mix the well-formed with NaN/inf, numbers past the float range, nulls,
booleans, strings and nested lists.  Sizes stay small (at most three qubits,
the default 25 evolve samples), so the whole module runs in a few seconds.
Any exception other than the CLI's own validation errors, a RuntimeWarning
included (pyproject.toml makes it an error), fails the test.
"""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pauli_dilate.cli import main

NUMBERS = [0, 1, -1, 2, 3, 0.3, 0.5, 1e-3, 1e-320, 1e200, 1e308, -1e308, 10**400,
           math.nan, math.inf, -math.inf]
STRINGS = ["", "Z", "ZX", "-ZX", "iZX", "XIX", "IXYZ", "1", "11", "01", "Q", "pauli",
           "generic"]
reals = st.floats(0.05, 2.0)
numbers = st.one_of(st.sampled_from(NUMBERS), reals)
scalars = st.one_of(numbers, st.sampled_from(STRINGS), st.none(), st.booleans())
values = st.one_of(
    scalars,
    st.lists(scalars, max_size=4),
    st.lists(st.lists(scalars, max_size=3), max_size=2),
)


def field(well_formed):
    """A descriptor value: well formed four times in five, anything otherwise."""
    return st.sampled_from(range(5)).flatmap(lambda i: well_formed if i else values)


def triples(elements):
    return st.lists(elements, min_size=3, max_size=3)


probabilities = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
    lambda w: sum(w) > 0).map(lambda w: [v / sum(w) for v in w])
strings = st.sampled_from(["Z", "X", "ZX", "XY", "-ZX", "iZ", "XIX", "YXI", "ZXX"])
CHANNEL = {
    "type": field(st.sampled_from(["pauli", "phase_damping", "depolarizing", "liouvillian"])),
    "p": field(st.one_of(st.floats(0.0, 1.0), probabilities)),
    "gamma": field(triples(st.one_of(reals, numbers))),
}
DESCRIPTORS = {
    "channel": CHANNEL,
    "dilate": CHANNEL,
    "rep": CHANNEL,
    "commutant": {"generators": field(st.lists(strings, min_size=1, max_size=3)),
                  "qubits": field(st.integers(1, 3))},
    "evolve": {"builder": field(st.sampled_from(["phase_damping", "depolarizing", "generic"])),
               "a": field(triples(numbers)),
               "hamiltonian": field(st.lists(st.tuples(strings, numbers).map(list),
                                             min_size=1, max_size=3)),
               "psiE": field(st.sampled_from(["", "1", "0", "11", "01"]))},
    "collide": {"a": field(triples(st.one_of(reals, numbers))),
                "zeta": field(numbers), "dt": field(numbers), "n": field(st.integers(1, 50)),
                "dts": field(st.lists(numbers, min_size=1, max_size=3)),
                "t_final": field(numbers)},
}
# keys of other forms, and one no form reads, added to a quarter of the descriptors of
# every command: a key that the descriptor's form does not read exits 1
STRAY_KEYS = ["type", "builder", "a", "dt", "n", "dts", "t_final", "psiE", "tmax", "unknown"]
FLAGS = {
    "channel": ["--tmax"],
    "rep": ["--tol"],
    "evolve": ["--tmax", "--tol", "--strict"],
}
FLAG_VALUES = ["0", "0.5", "3", "1e-3", "0.5", "3", "1e-3", "-1", "1e308", "nan", "inf"]


@st.composite
def argvs(draw, command):
    desc = {k: draw(v) for k, v in DESCRIPTORS[command].items() if draw(st.integers(0, 3))}
    if draw(st.integers(0, 3)) == 0:
        desc[draw(st.sampled_from(STRAY_KEYS))] = draw(values)
    argv = [command, "--in", json.dumps(desc)]
    flags = FLAGS.get(command, [])
    for flag in draw(st.lists(st.sampled_from(flags), unique=True, max_size=2)) if flags else []:
        argv += [flag] if flag == "--strict" else [flag, draw(st.sampled_from(FLAG_VALUES))]
    return argv


@pytest.mark.parametrize("command", sorted(DESCRIPTORS))
def test_random_descriptors_end_in_an_exit_code(command, capsys):
    @given(argvs(command))
    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        if code == 0:
            assert err == "", argv
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        if code == 1:
            assert out == "", argv

    run()
