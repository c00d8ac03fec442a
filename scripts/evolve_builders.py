#!/usr/bin/env python3
"""Sweep the three dilation builders and write their probability curves.

Produces one CSV per builder (t, pI, px, py, pz, leakage), suitable for
plotting the trigonometric probability laws.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from pauli_dilate.dynamics import (
    build_depolarizing_dilation,
    build_generic_pauli_dilation,
    build_phase_damping_dilation,
    channels_on_grid,
)


def sweep(pd, times):
    grid = channels_on_grid(pd, times)
    table = np.column_stack((grid.t, grid.probs, grid.leakage)).tolist()
    rows = ["t,pI,px,py,pz,leakage"]
    rows += [",".join(f"{v:.12g}" for v in row) for row in table]
    return "\n".join(rows) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="output directory")
    parser.add_argument("--tmax", type=float, default=2 * math.pi)
    parser.add_argument("--samples", type=int, default=201)
    parser.add_argument("--a", type=float, nargs=3, default=(0.6, 0.5, 0.3),
                        help="weights of the generic builder")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    times = np.linspace(0.0, args.tmax, args.samples)
    builders = {
        "phase_damping": build_phase_damping_dilation(),
        "depolarizing": build_depolarizing_dilation(),
        "generic": build_generic_pauli_dilation(*args.a),
    }
    for name, pd in builders.items():
        path = outdir / f"evolve_{name}.csv"
        path.write_text(sweep(pd, times))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
