#!/usr/bin/env python3
"""Sweep the three dilation builders and write their probability curves.

Produces one CSV per builder (t, pI, px, py, pz, leakage), suitable for
plotting the trigonometric probability laws.  Each file is what
`pauli-dilate evolve --out` writes for the builder's descriptor.
"""

import argparse
import json
import math
from pathlib import Path

from pauli_dilate import cli


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
    builders = {
        "phase_damping": {"builder": "phase_damping"},
        "depolarizing": {"builder": "depolarizing"},
        "generic": {"builder": "generic", "a": list(args.a)},
    }
    for name, desc in builders.items():
        path = outdir / f"evolve_{name}.csv"
        code = cli.main(["evolve", "--in", json.dumps(desc), "--tmax", repr(args.tmax),
                         "--samples", str(args.samples), "--out", str(path)])
        if code:
            raise SystemExit(code)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
