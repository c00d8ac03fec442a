#!/usr/bin/env python3
"""Print the environment representations of the three channel families.

For phase damping and depolarizing at p = 0.3 and the generic channel
(0.4, 0.3, 0.2, 0.1), prints what `pauli-dilate rep --in` prints for each, one
JSON report after another: the 16-element table pi_E(g) in closed form, and for
the depolarizing channel the rotation generators on its environment.  The
generic channel shares the depolarizing table.
"""

import json

from pauli_dilate import cli

CHANNELS = (
    {"type": "phase_damping", "p": 0.3},
    {"type": "depolarizing", "p": 0.3},
    {"type": "pauli", "p": [0.4, 0.3, 0.2, 0.1]},
)


def main():
    for desc in CHANNELS:
        code = cli.main(["rep", "--in", json.dumps(desc)])
        if code:
            raise SystemExit(code)


if __name__ == "__main__":
    main()
