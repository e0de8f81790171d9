"""Command-line interface.

Subcommands:

* ``classify``    -- channel class report as JSON
* ``index``       -- coherence breaking index of an incoherent channel
* ``evolve``      -- stroboscopic coherence trajectory as CSV + JSON sidecar
* ``concentrate`` -- Haar-sampling tail experiment as JSON and/or CSV

Exit codes: 0 success, 2 usage or malformed input, 3 domain error (e.g. a
channel that cannot be certified incoherent, or mismatched dimensions).
Numeric flags are validated before dispatch; all randomness is seeded
explicitly so outputs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .channels import channel_from_json, identity_channel
from .classifiers import DEFAULT_TOL, classify
from .concentration import run_concentration_experiment
from .dynamics import (
    DEFAULT_INDEX_CAP,
    DEFAULT_SUDDEN_DEATH_TOL,
    coherence_breaking_index,
    evolve,
)
from .errors import CohbreakError, ParameterOutOfRangeError
from .states import state_from_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {value}")
    return value


def _epsilon_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad epsilon list {text!r}: {exc}") from exc
    if not values or not all(math.isfinite(e) and e >= 0 for e in values):
        raise argparse.ArgumentTypeError("need a comma-separated list of finite epsilons >= 0")
    return values


def _load_json_file(path: str, parser: argparse.ArgumentParser) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        parser.error(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"{path} is not valid JSON (line {exc.lineno}): {exc.msg}")
    raise AssertionError("unreachable")


def _load_channel(arg: str, dim: int | None, parser: argparse.ArgumentParser):
    if arg == "identity":
        if dim is None:
            parser.error("--channel identity requires --dim")
        return identity_channel(dim)
    obj = _load_json_file(arg, parser)
    try:
        return channel_from_json(obj)
    except (ValueError, CohbreakError) as exc:
        parser.error(f"{arg}: {exc}")
    raise AssertionError("unreachable")


def _load_state(arg: str, parser: argparse.ArgumentParser):
    obj = _load_json_file(arg, parser)
    try:
        return state_from_json(obj)
    except ValueError as exc:
        parser.error(f"{arg}: {exc}")
    raise AssertionError("unreachable")


def _dump_json(data: dict, out: str | None) -> None:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_classify(args, parser) -> int:
    channel = _load_channel(args.channel, args.dim, parser)
    try:
        report = classify(channel, tol=args.tol)
    except CohbreakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    _dump_json(report.to_dict(), args.out)
    return EXIT_OK


def cmd_index(args, parser) -> int:
    channel = _load_channel(args.channel, args.dim, parser)
    try:
        result = coherence_breaking_index(channel, cap=args.cap, tol=args.tol)
    except CohbreakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.format == "json":
        _dump_json(
            {
                "index": result.value,
                "cap": result.cap,
                "exceeded": result.exceeded,
                "residuals": list(result.residuals),
            },
            args.out,
        )
    else:
        print(str(result))
    return EXIT_OK


def cmd_evolve(args, parser) -> int:
    channel = _load_channel(args.channel, args.dim, parser)
    state = _load_state(args.state, parser)
    try:
        trajectory = evolve(state, channel, steps=args.steps, tol=args.tol)
    except CohbreakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    lines = ["step,c_l1"] + [f"{j},{value!r}" for j, value in trajectory.steps]
    csv_text = "\n".join(lines) + "\n"
    sidecar = {
        "steps": args.steps,
        "sudden_death_step": trajectory.sudden_death_step,
        "tolerance": trajectory.tolerance,
    }
    if args.out is None or args.out == "-":
        sys.stdout.write(csv_text)
        _dump_json(sidecar, None)
    else:
        Path(args.out).write_text(csv_text, encoding="utf-8")
        _dump_json(sidecar, str(Path(args.out).with_suffix(".json")))
    return EXIT_OK


def cmd_concentrate(args, parser) -> int:
    if args.dim < 2:
        parser.error(f"--dim must be at least 2, got {args.dim}")
    channel = _load_channel(args.channel, args.dim, parser)
    try:
        report = run_concentration_experiment(
            channel,
            d=args.dim,
            samples=args.samples,
            epsilons=args.eps,
            seed=args.seed,
            eta_channel=args.eta,
            label=args.channel,
        )
    except ParameterOutOfRangeError as exc:
        parser.error(str(exc))
    except CohbreakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.format == "csv":
        lines = ["epsilon,empirical_tail,levy_bound,corollary_bound"]
        for eps, tail, levy, coro in zip(
            report.epsilons, report.tails, report.levy_bounds, report.corollary_bounds
        ):
            lines.append(f"{eps!r},{tail!r},{levy!r},{coro!r}")
        text = "\n".join(lines) + "\n"
        if args.out is None or args.out == "-":
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text, encoding="utf-8")
    else:
        _dump_json(report.to_dict(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohbreak",
        description="Coherence-breaking channel analysis: classification, "
        "breaking indices, coherence trajectories, concentration experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(
        p: argparse.ArgumentParser,
        tol_default: float = DEFAULT_TOL,
        formats: tuple[str, ...] = ("json", "csv"),
    ) -> None:
        p.add_argument("--tol", type=_positive_float, default=tol_default,
                       help=f"numeric tolerance (default {tol_default:g})")
        p.add_argument("--out", default=None,
                       help="output path ('-' or omitted: stdout)")
        p.add_argument("--format", choices=formats, default=formats[0],
                       help="output format (default %(default)s)")
        p.add_argument("--dim", type=_positive_int, default=None,
                       help="dimension for built-in channel names (e.g. identity)")

    p_classify = sub.add_parser("classify", help="channel class report")
    add_common(p_classify)
    p_classify.add_argument("--channel", required=True,
                            help="channel JSON file, or the name 'identity'")
    p_classify.set_defaults(func=cmd_classify)

    p_index = sub.add_parser("index", help="coherence breaking index")
    add_common(p_index, formats=("text", "json"))
    p_index.add_argument("--channel", required=True)
    p_index.add_argument("--cap", type=_positive_int, default=DEFAULT_INDEX_CAP,
                         help=f"largest power to try (default {DEFAULT_INDEX_CAP})")
    p_index.set_defaults(func=cmd_index)

    p_evolve = sub.add_parser("evolve", help="stroboscopic coherence trajectory")
    add_common(p_evolve, tol_default=DEFAULT_SUDDEN_DEATH_TOL)
    p_evolve.add_argument("--channel", required=True)
    p_evolve.add_argument("--state", required=True, help="state JSON file")
    p_evolve.add_argument("--steps", type=_positive_int, required=True,
                          help="number of channel applications J >= 1")
    p_evolve.set_defaults(func=cmd_evolve)

    p_conc = sub.add_parser("concentrate", help="Haar-sampling tail experiment")
    add_common(p_conc)
    p_conc.add_argument("--channel", default="identity",
                        help="channel JSON file or 'identity' (default)")
    p_conc.add_argument("--samples", type=_positive_int, default=10_000)
    p_conc.add_argument("--seed", type=_nonnegative_int, required=True,
                        help="sampling seed; runs are byte-reproducible")
    p_conc.add_argument("--eps", type=_epsilon_list, required=True,
                        help="comma-separated epsilon list, e.g. 0.05,0.1")
    p_conc.add_argument("--eta", type=_positive_float, default=1.0,
                        help="channel contraction factor in the bounds (default 1)")
    p_conc.set_defaults(func=cmd_concentrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "concentrate" and args.dim is None:
        parser.error("concentrate requires --dim")
    return args.func(args, parser)


if __name__ == "__main__":
    raise SystemExit(main())
