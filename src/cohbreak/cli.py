"""Command-line interface.

Subcommands:

* ``classify``    -- channel class report as JSON
* ``index``       -- coherence breaking index (``--format text`` or ``json``)
* ``evolve``      -- stroboscopic coherence trajectory as CSV + JSON sidecar
* ``concentrate`` -- Haar-sampling tail experiment (``--format json`` or ``csv``)

Each run parses the flags, loads the input files, computes, and writes to
stdout or to ``--out PATH`` (``evolve`` puts its sidecar at PATH with the
suffix ``.json``, so PATH must not end in ``.json``). Exit codes: 0
success, 2 usage or malformed input (an input file that cannot be read or
parsed, or whose dimension is not --dim, is named in the message), 3
domain error (e.g. a channel that cannot be certified incoherent, a state
of another dimension than the channel, a numpy LinAlgError while computing,
or running out of memory while loading or computing). All randomness is
seeded explicitly so outputs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channels import channel_from_json, identity_channel
from .classifiers import DEFAULT_TOL, classify
from .concentration import DEFAULT_SAMPLES, run_concentration_experiment
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


def _int_at_least(low: int):
    def integer(text: str) -> int:  # argparse says "invalid integer value" on junk
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def _epsilon_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad epsilon list {text!r}: {exc}") from exc


def _json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# Each command computes and returns its outputs as {suffix: text}, where ""
# is the --out path itself.


def cmd_classify(args, channel) -> dict[str, str]:
    return {"": _json(classify(channel, tol=args.tol).to_dict())}


def cmd_index(args, channel) -> dict[str, str]:
    result = coherence_breaking_index(channel, cap=args.cap, tol=args.tol)
    if args.format == "text":
        return {"": f"{result}\n"}
    return {"": _json({
        "index": result.value,
        "cap": result.cap,
        "exceeded": result.exceeded,
        "residuals": list(result.residuals),
    })}


def cmd_evolve(args, channel, state) -> dict[str, str]:
    trajectory = evolve(state, channel, steps=args.steps, tol=args.tol)
    sidecar = {
        "steps": args.steps,
        "sudden_death_step": trajectory.sudden_death_step,
        "tolerance": trajectory.tolerance,
    }
    rows = ["step,c_l1"] + [f"{j},{value!r}" for j, value in trajectory.steps]
    return {"": "\n".join(rows) + "\n", ".json": _json(sidecar)}


def cmd_concentrate(args, channel) -> dict[str, str]:
    report = run_concentration_experiment(
        channel, d=args.dim, samples=args.samples, epsilons=args.eps, seed=args.seed,
        eta_channel=args.eta, label=args.channel,
    )
    if args.format == "json":
        return {"": _json(report.to_dict())}
    columns = (report.epsilons, report.tails, report.levy_bounds, report.corollary_bounds)
    rows = ["epsilon,empirical_tail,levy_bound,corollary_bound"]
    rows += [",".join(map(repr, row)) for row in zip(*columns)]
    return {"": "\n".join(rows) + "\n"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohbreak",
        description="Coherence-breaking channel analysis: classification, "
        "breaking indices, coherence trajectories, concentration experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help, tol=DEFAULT_TOL, formats=(), sampling=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--channel", required=not sampling, default="identity",
                       help="channel JSON file, or the name 'identity' (with --dim)")
        p.add_argument("--dim", type=_int_at_least(2 if sampling else 1), required=sampling,
                       help="dimension d for --channel identity; a channel file must "
                       "match it (concentrate: d >= 2)")
        if not sampling:  # a sampling command gives no verdict, so it takes no tolerance
            p.add_argument("--tol", type=float, default=tol,
                           help=f"numeric tolerance (default {tol:g})")
        p.add_argument("--out", default=None,
                       help="output path ('-' or omitted: stdout)")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0],
                           help="output format (default %(default)s)")
        p.set_defaults(func=func)
        return p

    add_command("classify", cmd_classify, "channel class report")

    p_index = add_command("index", cmd_index, "coherence breaking index",
                          formats=("text", "json"))
    p_index.add_argument("--cap", type=_int_at_least(1), default=DEFAULT_INDEX_CAP,
                         help=f"largest power to try (default {DEFAULT_INDEX_CAP})")

    p_evolve = add_command("evolve", cmd_evolve, "stroboscopic coherence trajectory",
                           tol=DEFAULT_SUDDEN_DEATH_TOL)
    p_evolve.add_argument("--state", required=True, help="state JSON file")
    p_evolve.add_argument("--steps", type=_int_at_least(1), required=True,
                          help="number of channel applications J >= 1")

    p_conc = add_command("concentrate", cmd_concentrate, "Haar-sampling tail experiment",
                         formats=("json", "csv"), sampling=True)
    p_conc.add_argument("--samples", type=_int_at_least(1), default=DEFAULT_SAMPLES)
    p_conc.add_argument("--seed", type=_int_at_least(0), required=True,
                        help="sampling seed; runs are byte-reproducible")
    p_conc.add_argument("--eps", type=_epsilon_list, required=True,
                        help="comma-separated epsilon list, e.g. 0.05,0.1")
    p_conc.add_argument("--eta", type=float, default=1.0,
                        help="channel contraction factor in the bounds (default 1)")

    return parser


PARSER = build_parser()


def _read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _out_of_memory(args, d, where: str = "") -> int:
    print(f"error: out of memory in {args.command} at d = {d}{where}", file=sys.stderr)
    return EXIT_DOMAIN


def _load(args) -> list:
    """The channel and, for evolve, the state. A file that cannot be read or parsed, or a
    channel file whose dimension is not --dim, is a usage error whose message names it;
    running out of memory exits EXIT_DOMAIN, naming the file and its declared dimension."""
    path, dim = args.channel, args.dim
    try:
        if path == "identity":
            if args.dim is None:
                PARSER.error("--channel identity requires --dim")
            inputs = [identity_channel(args.dim)]
        else:
            obj = _read_json(path)
            dim = obj.get("dim", dim) if isinstance(obj, dict) else dim
            inputs = [channel_from_json(obj)]
            if args.dim not in (None, inputs[0].dim):
                PARSER.error(f"{path}: --dim {args.dim} does not match the channel's "
                             f"dimension {inputs[0].dim}")
        if args.command == "evolve":
            path, dim = args.state, inputs[0].dim
            inputs.append(state_from_json(_read_json(path)))
    except json.JSONDecodeError as exc:
        PARSER.error(f"{path}: not valid JSON (line {exc.lineno}): {exc.msg}")
    except (OSError, ValueError, CohbreakError) as exc:
        PARSER.error(f"{path}: {exc}")
    except MemoryError:
        raise SystemExit(_out_of_memory(args, dim, f" loading {path}")) from None
    return inputs


def _write(texts: dict[str, str], out: str | None) -> None:
    """Every text to stdout, or to the --out path with the text's suffix;
    two texts on one path are a usage error, with nothing written."""
    if out is None or out == "-":
        sys.stdout.write("".join(texts.values()))
        return
    try:
        paths = [Path(out).with_suffix(suffix) if suffix else Path(out) for suffix in texts]
        if len(set(paths)) < len(paths):
            PARSER.error(f"--out {out} would hold two outputs; give a path whose suffix "
                         f"is not {' or '.join(suffix for suffix in texts if suffix)}")
        for path, text in zip(paths, texts.values()):
            path.write_text(text, encoding="utf-8")
    except (OSError, ValueError) as exc:
        PARSER.error(f"cannot write {out}: {exc}")


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    inputs = _load(args)
    try:
        texts = args.func(args, *inputs)
    except ParameterOutOfRangeError as exc:
        PARSER.error(str(exc))
    except (CohbreakError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError:
        return _out_of_memory(args, inputs[0].dim)
    _write(texts, args.out)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
