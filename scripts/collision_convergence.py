#!/usr/bin/env python3
"""Collision-model convergence study for dephasing and depolarizing targets.

Writes the per-trajectory error tables and prints the max-error summary with
successive ratios, which should sit near 2 (first-order convergence in the
collision duration).
"""

import argparse
from pathlib import Path

from pauli_dilate.channels import semigroup_rates
from pauli_dilate.collisions import CollisionConfig, collision_channel, convergence_report

CONFIGS = {
    "dephasing": (0.0, 0.0, 1.0),
    "depolarizing": (1.0, 1.0, 1.0),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--zeta", type=float, default=1.0)
    parser.add_argument("--t-final", type=float, default=1.0)
    parser.add_argument("--dts", type=float, nargs="+",
                        default=(0.1, 0.05, 0.025, 0.0125))
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, a in CONFIGS.items():
        entries = convergence_report(a, args.zeta, args.dts, args.t_final)
        rows = ["dt,t,trace_distance"]
        for entry in entries:  # errors: one (t, trace distance) row per collision count
            rows.extend(f"{entry.dt:.12g},{t:.12g},{err:.12g}" for t, err in entry.errors.tolist())
        path = outdir / f"collide_{name}.csv"
        path.write_text("\n".join(rows) + "\n")

        print(f"{name}: wrote {path}")
        errs = [e.max_error for e in entries]
        for dt, err in zip(args.dts, errs):
            print(f"  dt={dt:<8g} max_error={err:.6g}")
        for big, small in zip(errs, errs[1:]):
            print(f"  ratio {big / small:.3f}")
        fine = CollisionConfig(a, args.zeta, args.dts[-1])
        rates = semigroup_rates(collision_channel(fine).bloch_scaling(), fine.dt)
        print(f"  fitted rates at dt={args.dts[-1]}: {rates}"
              f" (targets {fine.rates()})")


if __name__ == "__main__":
    main()
