"""Command-line interface.

Subcommands: profile, simulate, splitter, sweep, threshold, check.
A JSON config file (``--config``) may supply any option; its entries are
parsed as flags placed before the command line, so they get the same checks
and explicit flags override them.  Exit codes: 0 success, 2 argument, config
or file error or a grid too large to allocate, 3 numerical failure (including
a non-finite or overflowing schedule or integration).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

# numpy and the integrating modules load only where a command integrates
from .schedules import (MODES, ModelParams, StiffnessError, device_positions, diagnostics,
                        schedule_rows)
from .serialize import format_float, write_csv, write_json
from .sweep import (METRICS, PARAMETERS, AxisSpec, SweepSpec, TargetNotReached,
                    sweep_rows, threshold_length)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _axis(text: str) -> AxisSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"expected name:lo:hi:count, got {text!r}"
        )
    name, lo, hi, count = parts
    try:
        return AxisSpec(name, float(lo), float(hi), int(count))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_model_args(sp: argparse.ArgumentParser, length: bool = True,
                    sta_help: str = "use the counterdiabatic effective schedules") -> None:
    sp.add_argument("--omega0", type=float, help="maximum coupling, 1/mm")
    sp.add_argument("--delta0", type=float, help="phase mismatch magnitude, 1/mm")
    if length:
        sp.add_argument("--total-length", type=float, dest="total_length",
                        help="device length 2L, mm")
    sp.add_argument("--sta", action=argparse.BooleanOptionalAction, default=False,
                    help=sta_help)


# profile and check evaluate the raw and the counterdiabatic fields either way
_STA_RECORDED = "no effect on the values; only recorded in the JSON provenance"


def _add_output_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--output", default="-", help="output path ('-' for stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sta-coupler",
        description="STA waveguide coupler design and simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="emit the coupling/mismatch schedules")
    _add_model_args(p, sta_help=_STA_RECORDED)
    p.add_argument("--samples", type=int, default=1000, help="number of z samples")
    _add_output_args(p)

    p = sub.add_parser("simulate", help="two-guide intensity trajectory")
    _add_model_args(p)
    p.add_argument("--input-guide", type=int, dest="input_guide", choices=(1, 2),
                   default=1)
    p.add_argument("--tol", type=float, default=1e-10)
    _add_output_args(p)

    p = sub.add_parser("splitter", help="three-guide beam-splitter trajectory")
    _add_model_args(p)
    p.add_argument("--mode", choices=MODES, help="STA construction (default reduced_cd)")
    p.add_argument("--tol", type=float, default=1e-10)
    _add_output_args(p)

    p = sub.add_parser("sweep", help="2-D parameter sweep of a transfer metric")
    _add_model_args(p)
    p.add_argument("--axis-x", type=_axis, dest="axis_x", help="name:lo:hi:count")
    p.add_argument("--axis-y", type=_axis, dest="axis_y", help="name:lo:hi:count")
    p.add_argument("--metric", choices=METRICS, default="final_i2")
    p.add_argument("--mode", choices=MODES,
                   help="STA splitter construction for splitting_infidelity")
    p.add_argument("--tol", type=float, default=1e-8)
    _add_output_args(p)

    p = sub.add_parser("threshold", help="minimal device length for a target efficiency")
    _add_model_args(p, length=False)
    p.add_argument("--target", type=float, default=0.99)
    p.add_argument("--length-min", type=float, dest="length_min", default=0.0)
    p.add_argument("--length-max", type=float, dest="length_max", default=2.0)
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("check", help="adiabaticity and coupling-bound diagnostics (JSON)")
    _add_model_args(p, sta_help=_STA_RECORDED)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--output", default="-", help="output path ('-' for stdout)")

    for p in sub.choices.values():
        p.add_argument("--config", help="JSON config file; flags override it")
    return parser


_AXIS_KEYS = ("name", "lo", "hi", "count")


def _config_argv(args: argparse.Namespace) -> list[str]:
    """The entries of the ``--config`` file as flag tokens, so that they are
    parsed, type-checked and overridden exactly like flags."""
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot parse config {args.config}: {exc}") from exc
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ValueError("config must contain exactly one top-level command object")
    (command, config), = doc.items()
    if command != args.command:
        raise ValueError(
            f"config is for command {command!r}, invoked {args.command!r}"
        )
    if not isinstance(config, dict):
        raise ValueError("command object must be a JSON object")
    known = set(vars(args)) - {"command", "config"}
    unknown = set(config) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    tokens = []
    for key, value in config.items():
        flag = "--" + ("format" if key == "fmt" else key.replace("_", "-"))
        if isinstance(value, bool) and isinstance(getattr(args, key), bool):
            tokens.append(flag if value else "--no-" + flag[2:])
            continue
        # a flag's value is one token: only an axis may be given as an object
        if value is None or isinstance(value, list) or (
                isinstance(value, dict) and not key.startswith("axis_")):
            raise ValueError(f"config {key!r} cannot be {json.dumps(value)}")
        if isinstance(value, dict):
            if set(value) != set(_AXIS_KEYS):
                raise ValueError(f"config {key!r} object needs exactly the keys "
                                 + ", ".join(_AXIS_KEYS))
            value = ":".join(str(value[k]) for k in _AXIS_KEYS)
        tokens.append(f"{flag}={value}")
    return tokens


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise ValueError(f"missing required option(s): "
                         + ", ".join("--" + n.replace("_", "-") for n in missing))


def _model(args: argparse.Namespace) -> ModelParams:
    _require(args, "omega0", "delta0", "total_length")
    length = args.total_length  # as given; ModelParams sees half of it
    if not 0.0 < length < math.inf:
        raise ValueError(f"--total-length must be finite and > 0, got {length}")
    if length / 2.0 == 0.0:
        raise ValueError(f"--total-length must be > 0 when halved, got {length}")
    return ModelParams(omega0=args.omega0, delta0=args.delta0,
                       half_length=length / 2.0, sta=args.sta)


def _emit_rows(args, header, rows) -> None:
    if args.fmt == "csv":
        write_csv(args.output, header, rows)
    else:
        payload = {"columns": list(header),
                   "rows": [[float(v) for v in row] for row in rows]}
        write_json(args.output, payload, _inputs(args))


def _inputs(args: argparse.Namespace) -> dict:
    skip = {"config", "output", "fmt"}
    out = {}
    for k, v in vars(args).items():
        if k in skip:
            continue
        if isinstance(v, AxisSpec):
            v = vars(v) | {}
        out[k] = v
    return out


def _cmd_profile(args) -> int:
    p = _model(args)
    rows = schedule_rows(p, device_positions(p, args.samples))
    _emit_rows(args, ("z", "omega", "delta", "omega_a", "omega_eff", "delta_eff"),
               ((q.z, q.omega, q.delta, q.omega_a, q.omega_eff, q.delta_eff) for q in rows))
    return EXIT_OK


def _emit_trajectory(args, traj) -> int:
    """Intensity trajectory as columns z, I1 .. In."""
    width = traj.intensities.shape[1]
    _emit_rows(args, ("z", *(f"I{k + 1}" for k in range(width))),
               ([z, *row] for z, row in zip(traj.z.tolist(), traj.intensities.tolist())))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from .coupler import simulate
    traj = simulate(_model(args), input_guide=args.input_guide, tol=args.tol)
    return _emit_trajectory(args, traj)


def _mode(args: argparse.Namespace, acts: bool, needs: str) -> str:
    """The splitter mode to run.  args.mode, which the provenance records,
    becomes the mode used, or stays None where --mode cannot act."""
    if args.mode is not None and not acts:
        raise ValueError(f"--mode needs {needs}")
    if acts:
        args.mode = args.mode or "reduced_cd"
    return args.mode or "reduced_cd"  # read only where a mode acts


def _cmd_splitter(args) -> int:
    from .splitter import SplitterParams, simulate_splitter
    sp = SplitterParams(_model(args), _mode(args, args.sta, "--sta"))
    return _emit_trajectory(args, simulate_splitter(sp, tol=args.tol))


def _cmd_sweep(args) -> int:
    _require(args, "axis_x", "axis_y")
    if args.axis_x.name == args.axis_y.name:
        raise ValueError(f"--axis-x and --axis-y both sweep {args.axis_x.name}")
    axes = {args.axis_x.name: "--axis-x", args.axis_y.name: "--axis-y"}
    fixed = {}
    for name in PARAMETERS:
        flag, value = "--" + name.replace("_", "-"), getattr(args, name)
        if name in axes:
            if value is not None:
                raise ValueError(f"{flag} fixes {name}, which {axes[name]} sweeps")
        elif value is None:
            raise ValueError(f"{flag} must fix the unswept parameter")
        else:
            fixed[name] = value
    mode = _mode(args, args.metric == "splitting_infidelity" and args.sta,
                 "--metric splitting_infidelity and --sta")
    spec = SweepSpec(axis_x=args.axis_x, axis_y=args.axis_y, fixed=fixed,
                     metric=args.metric, sta=args.sta, tol=args.tol, splitter_mode=mode)
    xs, ys, grid, backend = sweep_rows(spec)
    x, y = spec.axis_x.name, spec.axis_y.name
    if args.fmt == "csv":
        # header row: the x-axis samples; first column: the y-axis samples
        header = [f"{y}\\{x}", *map(format_float, xs)]
        write_csv(args.output, header, ([v, *row] for v, row in zip(ys, grid)))
    else:
        payload = {"axes": {"x": {"name": x, "values": xs}, "y": {"name": y, "values": ys}},
                   "grid": grid, "backend": backend}
        write_json(args.output, payload, _inputs(args))
    return EXIT_OK


def _cmd_threshold(args) -> int:
    _require(args, "omega0", "delta0")
    result = threshold_length(args.omega0, args.delta0, args.sta,
                              args.target, (args.length_min, args.length_max),
                              tol=args.tol)
    print(f"{result.total_length:.4g} mm (metric {result.achieved_metric:.6f})")
    return EXIT_OK


def _cmd_check(args) -> int:
    d = diagnostics(_model(args), args.samples)
    payload = {
        "max_adiabaticity_ratio": d.max_adiabaticity_ratio,
        "max_cd_ratio": d.max_cd_ratio,
        "bound_satisfied": d.bound_satisfied,
    }
    write_json(args.output, payload, _inputs(args))
    return EXIT_OK


_COMMANDS = {
    "profile": _cmd_profile,
    "simulate": _cmd_simulate,
    "splitter": _cmd_splitter,
    "sweep": _cmd_sweep,
    "threshold": _cmd_threshold,
    "check": _cmd_check,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # argv[0] is the command; config tokens go first so flags win
            args = parser.parse_args([argv[0], *_config_argv(args), *argv[1:]])
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, StiffnessError, TargetNotReached) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
