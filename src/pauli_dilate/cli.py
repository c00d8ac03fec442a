"""Command-line front end: pauli-dilate <command> [options].

Commands: channel, dilate, rep, commutant, evolve, collide, verify.
Exit codes: 0 success, 1 validation failure, 2 tolerance failure.
Reals are printed with 12 significant digits; complex numbers are
serialized as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

# every command imports the layers it reads when it runs, so a process loads only those:
# commutant loads pauli; channel, dilate and rep load pauli and channels, whose channel
# arithmetic, minimal dilation and environment representation are closed forms in Python
# floats; collide loads no dynamics or verify.  Only evolve, collide and verify import numpy
from .validation import DEFAULT_TOL, ToleranceError, as_reals, check_keys

if TYPE_CHECKING:
    import numpy as np

# an evolve sample, CSV line included, costs about 6-8 us at 2-3 qubits and 11-12 us at
# the 5-qubit Hamiltonian cap (2-core Intel Xeon VM, one BLAS thread): 10**5 samples
# take ~0.7 s, or ~1.2 s at 5 qubits
MAX_SAMPLES = 10**5

# evolve fits its time grid this many rows per channels_on_grid call (a row holds only the
# d x 2 block on psi_E, so one call peaks near 2 MB at 5 qubits whatever --samples is), and
# evolve and collide render their CSV tables in slices of this many rows
GRID_CHUNK = 1024


def _fmt_real(x: float) -> str:
    v = float(x)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return f"{v:.12g}"


def _csv_rows(table: np.ndarray, prefix: str = "") -> str:
    """Each row of a 2-D float table as one newline-ended CSV line, reals as _fmt_real prints them.

    The whole table goes through one `%` operation, and "%.12g" prints what
    "{:.12g}" prints.  `prefix` is prepended verbatim to every line (its `%`
    escaped), so a constant column is formatted once per table.  Adding 0.0 is
    _fmt_real's -0.0 normalization: IEEE arithmetic gives -0.0 + 0.0 = +0.0.
    """
    line = prefix.replace("%", "%%") + ",".join(["%.12g"] * table.shape[1]) + "\n"
    return line * len(table) % tuple((table + 0.0).ravel().tolist())


def _render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {_render_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rendered = [_render_json(v, indent + 1) for v in obj]
        if all(len(r) < 24 and "\n" not in r for r in rendered):
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(inner + r for r in rendered) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    # numbers by their abstract type, so numpy scalars print as the Python values they hold
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        return _fmt_real(obj)
    if isinstance(obj, numbers.Complex):
        return f"[{_fmt_real(obj.real)}, {_fmt_real(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot render {type(obj)}")


def _emit(parts: Iterable[str], out: str | None) -> None:
    """Write the parts in order to the file `out`, or to stdout without one."""
    if out:
        with open(out, "w") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _load_descriptor(arg: str | None) -> dict:
    if not arg:
        raise ValueError("missing input descriptor (--in)")
    text = arg if arg.lstrip().startswith(("{", "[")) else Path(arg).read_text()
    try:
        desc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ValueError(f"malformed JSON descriptor: {exc}") from exc
    if not isinstance(desc, dict):
        raise ValueError(f"descriptor must be an object, got {type(desc).__name__}")
    return desc


def _nonneg(value: float | None, default: float, flag: str) -> float:
    """A flag that must be finite and nonnegative, or the default when it is not given."""
    if value is None:
        return default
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{flag} must be finite and nonnegative, got {value}")
    return value


def _pauli_channel(args, command: str):
    """The PauliChannel of --in; a Liouvillian is rejected."""
    from .channels import PauliChannel, channel_from_descriptor

    ch = channel_from_descriptor(_load_descriptor(args.input))
    if not isinstance(ch, PauliChannel):
        raise ValueError(f"{command} expects a channel descriptor, not a Liouvillian")
    return ch


def cmd_channel(args) -> int:
    from .channels import PauliLiouvillian, channel_from_descriptor, semigroup_channel

    tmax = _nonneg(args.tmax, 1.0, "--tmax")
    obj = channel_from_descriptor(_load_descriptor(args.input))
    if isinstance(obj, PauliLiouvillian):
        obj = semigroup_channel(obj, tmax)
    spectrum, rank = obj.choi_spectrum()
    report = {
        "probabilities": list(obj.p),
        "bloch_scaling": list(obj.bloch_scaling()),
        "kraus_rank": rank,
        "choi_eigenvalues": spectrum,
    }
    _emit([_render_json(report), "\n"], args.output)
    return 0


def cmd_dilate(args) -> int:
    dil = _pauli_channel(args, "dilate").minimal_dilation()
    report = {
        "dim_system": 2,
        "dim_env": len(dil.slots),
        "kraus_rank": len(dil.slots),
        "isometry_defect": dil.defect,
        "isometry": [list(row) for row in dil.rows],
    }
    _emit([_render_json(report), "\n"], args.output)
    return 0


def cmd_rep(args) -> int:
    tol = _nonneg(args.tol, DEFAULT_TOL, "--tol")
    ch = _pauli_channel(args, "rep")
    dil = ch.minimal_dilation()
    elements = dil.env_rep(tol)
    report = {
        "dim_env": len(dil.slots),
        "max_residual": max(residual for _, _, residual, _ in elements),
        "elements": [{"label": g, "matrix": m, "residual": residual, "unitarity_defect": defect}
                     for g, m, residual, defect in elements],
        "channel": {"probabilities": list(ch.p)},
    }
    px, py, pz = ch.p[1:]
    if len(dil.slots) == 4 and abs(px - py) <= 1e-12 and abs(py - pz) <= 1e-12:
        (jx, jy, jz), residuals = dil.su2_generators(tol)
        report["su2_generators"] = {"jx": jx, "jy": jy, "jz": jz, "residuals": list(residuals)}
    _emit([_render_json(report), "\n"], args.output)
    return 0


def cmd_commutant(args) -> int:
    from .pauli import pauli, pauli_commutant

    desc = _load_descriptor(args.input)
    check_keys(desc, "a commutant descriptor", ("generators", "qubits"))
    gens = desc.get("generators")
    qubits = desc.get("qubits")
    if (not isinstance(gens, list) or not all(isinstance(s, str) for s in gens)
            or not isinstance(qubits, int) or isinstance(qubits, bool)):
        raise ValueError('commutant descriptor needs "generators": [...] and "qubits": n')
    strings = [pauli(s) for s in gens]
    result = pauli_commutant(strings, qubits)
    report = {
        "qubits": qubits,
        "generators": [str(p) for p in strings],
        "count": len(result),
        "commutant": [str(p) for p in result],
    }
    _emit([_render_json(report), "\n"], args.output)
    return 0


def cmd_evolve(args) -> int:
    import numpy as np

    from .dynamics import channels_on_grid, dilation_from_descriptor

    tmax = _nonneg(args.tmax, 2 * math.pi, "--tmax")
    tol = _nonneg(args.tol, DEFAULT_TOL, "--tol")
    samples = args.samples
    if not 0 <= samples <= MAX_SAMPLES:
        raise ValueError(f"--samples must be between 0 and {MAX_SAMPLES}, got {samples}")
    pd = dilation_from_descriptor(_load_descriptor(args.input))
    ts = np.linspace(0.0, tmax, samples)
    parts = ["t,pI,px,py,pz,leakage\n"]
    worst_leak = 0.0
    for s in range(0, samples, GRID_CHUNK):
        grid = channels_on_grid(pd, ts[s:s + GRID_CHUNK])
        worst_leak = max(worst_leak, float(grid.leakage.max()))
        parts.append(_csv_rows(np.column_stack((grid.t, grid.probs, grid.leakage))))
    _emit(parts, args.output)
    if args.strict and worst_leak > tol:
        print(f"error: non-Pauli leakage {worst_leak:.3e} exceeds {tol:.1e}", file=sys.stderr)
        return 2
    return 0


def cmd_collide(args) -> int:
    import numpy as np

    from .collisions import CollisionConfig, convergence_report

    desc = _load_descriptor(args.input)
    a = as_reals(desc.get("a"), '"a"', 3)
    zeta = as_reals(desc.get("zeta"), '"zeta"')
    if "dts" in desc:
        check_keys(desc, "a collision ladder", ("a", "zeta", "dts", "t_final"))
        t_final = as_reals(desc.get("t_final", 1.0), '"t_final"')
        dts = desc["dts"]
        if not isinstance(dts, list) or not dts:
            raise ValueError('"dts" must be a non-empty list of collision durations')
        dts = [as_reals(v, '"dts" entry') for v in dts]
        entries = convergence_report(a, zeta, dts, t_final)
        ladder = np.array([(entry.dt, entry.max_error) for entry in entries])
        _emit(["dt,max_trace_distance\n", _csv_rows(ladder)], args.output)
        return 0
    if "dt" not in desc or "n" not in desc:
        raise ValueError('collide descriptor needs "dt" and "n" (or "dts" and "t_final")')
    check_keys(desc, "a collision trajectory", ("a", "zeta", "dt", "n"))
    n = as_reals(desc["n"], '"n"')
    if not n.is_integer():
        raise ValueError(f'"n" must be a whole number of collisions, got {n}')
    cfg = CollisionConfig(a, zeta, as_reals(desc["dt"], '"dt"'))
    if n < 1:
        raise ValueError("need at least one collision")
    entries = convergence_report(a, zeta, [cfg.dt], n * cfg.dt)
    errors, prefix = entries[0].errors, _fmt_real(cfg.dt) + ","
    slices = (_csv_rows(errors[s:s + GRID_CHUNK], prefix)
              for s in range(0, len(errors), GRID_CHUNK))
    _emit(chain(["dt,t,trace_distance\n"], slices), args.output)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all

    if args.seed < 0:
        raise ValueError(f"--seed must be a nonnegative integer, got {args.seed}")
    results = run_all(seed=args.seed)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        extra = f" {r.detail}" if r.detail else ""
        lines.append(f"{status} {r.name:<{width}} "
                     f"residual={r.residual:.3e} tol={r.tol:.1e}{extra}")
    all_ok = all(r.passed for r in results)
    lines.append(f"{'all checks passed' if all_ok else 'CHECKS FAILED'} ({len(results)} total)")
    _emit(["\n".join(lines), "\n"], args.output)
    return 0 if all_ok else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pauli-dilate",
                     description="Construct, evolve, and verify symmetric dilations "
                                 "of single-qubit Pauli channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, needs_input=True, tol=False):
        """A subcommand with --out, plus --in and --tol where it reads them."""
        p = sub.add_parser(name, help=help)
        if needs_input:
            p.add_argument("--in", dest="input", metavar="FILE|JSON",
                           help="JSON descriptor path or inline JSON")
        p.add_argument("--out", dest="output", metavar="FILE",
                       help="output path (default: stdout)")
        if tol:
            p.add_argument("--tol", type=float, default=None,
                           help=f"tolerance override (default {DEFAULT_TOL:g})")
        p.set_defaults(func=func)
        return p

    p = command("channel", cmd_channel, "probabilities, scalings, Kraus rank, Choi spectrum")
    p.add_argument("--tmax", type=float, default=None,
                   help="evaluation time for Liouvillian descriptors (default 1)")
    command("dilate", cmd_dilate, "minimal dilation isometry of a channel")
    command("rep", cmd_rep, "solve the environment representation", tol=True)
    command("commutant", cmd_commutant, "enumerate the Pauli commutant of a string set")
    p = command("evolve", cmd_evolve, "time series of fitted channel probabilities", tol=True)
    p.add_argument("--tmax", type=float, default=None, help="final time (default 2 pi)")
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when non-Pauli leakage exceeds the tolerance")
    command("collide", cmd_collide, "collision-model convergence tables")
    p = command("verify", cmd_verify, "run the cross-module invariant suite", needs_input=False)
    p.add_argument("--seed", type=int, default=1234, help="seed for randomized checks")

    return parser


# the parser of this process, built by the first main() call: parsing keeps no state in it
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ToleranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
