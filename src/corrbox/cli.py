"""Command-line front end.

Subcommands: analyze (full report for one box), gen (emit boxes), decompose
(optimal decomposition), fuzz (seeded property sweep), repro (reference
scenario run), sweep (parameter sweep as CSV).  Exit codes: 0 success, 1 an
asserted property failed, 2 usage or input error, 3 internal error (a solver
self-check or any other fault of the program, reported as one
"error: internal: ..." line on stderr).  Output is deterministic: identical
invocations print identical bytes.  A command line is parsed once: when its
first token names a subcommand, that subcommand's own parser reads the rest
(_parse_args), with the messages and exit codes the whole parser would give.
A command checks its arguments, then opens its output file (gen creates its
output directory) before any work, as shell redirection would, so an
unwritable destination fails at once.  Only fuzz, repro, sweep and
analyze --text import corrbox.verify, and only sweep imports csv, each where
it runs: the JSON reports of analyze and decompose, and gen, never load them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from gettext import gettext
from json.encoder import encode_basestring_ascii
from typing import IO, Iterator

from .boxes import (
    Box,
    box_from_json_obj,
    box_to_json_obj,
    exact_fraction,
    format_fraction,
)
from .cost import (
    BASIS_KINDS,
    NotInHull,
    _prove_cost,
    check_dimension,
    communication_cost,
    decomposition_to_json_obj,
    eta_star_of_cost,
    optimal_decompositions,
)
from .generators import (
    FAMILY_KINDS,
    TSIRELSON_ANGLES,
    FamilySpec,
    canonical,
    canonical_names,
    draw,
    isotropic,
    quantum_box,
)
from .measures import Analysis

_PARAMETRIC_KINDS = ("isotropic", "quantum")
# Each source option and the one parametric kind that reads it.
_SOURCE_OPTIONS = (("v", "isotropic"), ("angles", "quantum"), ("denom", "quantum"))
_QUANTITY_NAMES = ("lambda_max", "s", "C", "eta", "I", "U_A", "U_B")


def _quantities(a: Analysis) -> tuple[Fraction, ...]:
    """The values of _QUANTITY_NAMES on a, as analyze --text and sweep print them."""
    unc = a.uncertainty
    return (a.chsh.lambda_max, a.s, a.c, a.eta, a.i_formula, unc.u_a, unc.u_b)


@contextmanager
def _output(path: str | None, newline: str | None = None) -> Iterator[IO[str]]:
    """stdout, or the file at path, opened for writing at once."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline=newline) as handle:
            yield handle


def _emit(obj: dict, handle: IO[str]) -> None:
    handle.write(_json_text(obj) + "\n")


def _json_text(obj: object, indent: str = "") -> str:
    """obj as json.dumps(obj, indent=2) writes it, byte for byte, for what a
    report holds: dicts with str keys (any other key is a TypeError), lists,
    tuples, strings, ints, bools, None and floats.  json.dumps takes its
    pure-Python encoder whenever it indents, about 1.6 times as long on an
    analysis report."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj in (math.inf, -math.inf):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        brackets = "[]"
        items = [_json_text(value, inner) for value in obj]
    elif isinstance(obj, dict):
        if not obj:
            return "{}"
        brackets = "{}"
        items = [
            f"{encode_basestring_ascii(key)}: {_json_text(value, inner)}"
            for key, value in obj.items()
        ]
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _load_box_file(path: str) -> Box:
    """The box in the JSON file at path, or on stdin for "-".  JSON nested
    past Python's recursion limit, or an integer past its digit limit, is an
    input error that names where the box came from."""
    if path == "-":
        name, text = "the box on stdin", sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            name, text = f"box file {path!r}", handle.read()
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError(f"{name} nests too deeply to read") from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        # json reads an integer with int(), which refuses a number of more
        # than sys.get_int_max_str_digits() digits.
        raise ValueError(
            f"{name} holds an integer of more than {sys.get_int_max_str_digits()} digits"
        ) from None
    return box_from_json_obj(obj)


def _check_source_options(args: argparse.Namespace, source: str | None) -> None:
    """Refuse a source option that the source (a name, or None for a file or
    a sampled family) does not read."""
    for option, reader in _SOURCE_OPTIONS:
        if getattr(args, option) is not None and source != reader:
            raise ValueError(f"--{option} applies only to {reader}")


def _named_box(name: str, args: argparse.Namespace) -> Box:
    """A canonical box by name, isotropic with --v, or quantum with --angles
    (four radians or the preset name tsirelson) and --denom (10**6 unless
    given).  An option the name does not read is refused."""
    _check_source_options(args, name)
    if name == "isotropic":
        if args.v is None:
            raise ValueError("isotropic needs --v")
        return isotropic(exact_fraction(args.v))
    if name != "quantum":
        return canonical(name)
    raw = args.angles
    if raw is None:
        raise ValueError("quantum needs --angles")
    denom = 10**6 if args.denom is None else args.denom
    if raw == ["tsirelson"]:
        return quantum_box(TSIRELSON_ANGLES, denom)
    if len(raw) != 4:
        raise ValueError("--angles takes four radians or the preset name tsirelson")
    try:
        angles = tuple(float(x) for x in raw)
    except ValueError:
        raise ValueError(f"--angles needs radians, got {raw!r}")
    return quantum_box(angles, denom)


def _resolve_box(args: argparse.Namespace) -> Box:
    source = args.source
    if source == "-" or source not in canonical_names() + _PARAMETRIC_KINDS:
        if source != "-" and not os.path.exists(source):
            raise ValueError(
                f"box source {source!r} is neither a file, a canonical name, "
                f"nor one of {_PARAMETRIC_KINDS}"
            )
        _check_source_options(args, None)
        return _load_box_file(source)
    return _named_box(source, args)


def _add_source_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "source",
        help="box file, - for stdin, a canonical name, isotropic, or quantum",
    )
    _add_parametric_options(sub)


def _add_parametric_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--v", help="isotropic weight, e.g. 7/10 or 0.7")
    sub.add_argument(
        "--angles",
        nargs="+",
        metavar="RAD",
        help="four measurement angles (a0 a1 b0 b1) or the preset name tsirelson",
    )
    sub.add_argument(
        "--denom", type=int, help="quantum rationalization bound (default 10**6)"
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    box = _resolve_box(args)
    if args.dim is not None:
        check_dimension(args.dim)
    with _output(args.out) as handle:
        if args.text:
            handle.write(_text_report(box, args.dim))
        else:
            _emit(_analysis_obj(box, args.dim), handle)
    return 0


def _flags(a: Analysis) -> dict[str, bool]:
    """The report's flags in printed order."""
    return {
        "no_signaling": a.s == 0,
        "lhv_admissible": a.lhv_admissible,
        "weakly_nonclassical": a.i_formula > 0,
        "strongly_nonclassical": a.eta > 0,
    }


def _eta_star_text(c: Fraction, d: int) -> str:
    return "%.12g" % eta_star_of_cost(c, d)


def _text_report(box: Box, dim: int | None) -> str:
    """The text report, with C proved (cost._prove_cost).  It prints no
    decomposition, so it builds none of the JSON report."""
    from . import verify

    a = verify.analyze(box)
    _prove_cost(box, a.c)
    lines = [
        f"{name} = {format_fraction(value)}"
        for name, value in zip(_QUANTITY_NAMES, _quantities(a))
    ]
    lines.append("flags: " + ", ".join(k for k, v in _flags(a).items() if v))
    if dim is not None:
        lines.append(f"eta_star(d={dim}) ~ {_eta_star_text(a.c, dim)}")
    return "\n".join(lines) + "\n"


def _analysis_obj(box: Box, dim: int | None) -> dict:
    """The JSON report, with the optimal decomposition communication_cost
    solved for."""
    a = communication_cost(box, "full256")
    unc = a.uncertainty
    obj = {
        "format": "analysis-v1",
        "box": box_to_json_obj(box),
        "chsh": {
            "values": [format_fraction(v) for v in a.chsh.values],
            "lambda_max": format_fraction(a.chsh.lambda_max),
        },
        "signal": {
            "a_to_b": format_fraction(a.signal.s_a_to_b),
            "b_to_a": format_fraction(a.signal.s_b_to_a),
            "s": format_fraction(a.s),
        },
        "unpredictability": {
            "formula": format_fraction(a.i_formula),
            "per_party": format_fraction(a.i_per_party),
        },
        "uncertainty": {
            "delta": {
                f"{party}{setting}": format_fraction(value)
                for (party, setting), value in sorted(unc.delta.items())
            },
            "u_a": format_fraction(unc.u_a),
            "u_b": format_fraction(unc.u_b),
        },
        "cost": {
            "c": format_fraction(a.c),
            "eta": format_fraction(a.eta),
            "lower_bound": format_fraction(a.lower_bound),
            "decomposition": decomposition_to_json_obj(a.decomposition),
        },
        "flags": _flags(a),
    }
    if dim is not None:
        obj["eta_star"] = {"d": dim, "value": _eta_star_text(a.c, dim), "approximate": True}
    return obj


def _cmd_gen(args: argparse.Namespace) -> int:
    if (args.kind is None) == (args.family is None):
        raise ValueError("pass exactly one of --kind and --family")
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    if args.kind is not None:
        if args.count != 1:
            raise ValueError("--count above 1 needs --family")
        if args.seed is not None:
            raise ValueError("--seed applies only to --family")
        boxes = [_named_box(args.kind, args)]
    else:
        _check_source_options(args, None)
        boxes = draw(FamilySpec(args.family, args.seed or 0), args.count)
    if args.out is None:
        if args.count != 1:
            raise ValueError("--count above 1 needs --out DIRECTORY")
        _emit(box_to_json_obj(next(iter(boxes))), sys.stdout)
        return 0
    os.makedirs(args.out, exist_ok=True)
    for index, box in enumerate(boxes):
        with _output(os.path.join(args.out, f"box-{index:04d}.json")) as handle:
            _emit(box_to_json_obj(box), handle)
    return 0


def _decomposition_obj(box: Box, args: argparse.Namespace) -> dict:
    try:
        if args.alt:
            first, second = optimal_decompositions(box, args.basis)
            return {
                "first": decomposition_to_json_obj(first),
                "second": None if second is None else decomposition_to_json_obj(second),
            }
        return decomposition_to_json_obj(communication_cost(box, args.basis).decomposition)
    except NotInHull:
        return {"basis": args.basis, "status": "not-in-hull"}


def _cmd_decompose(args: argparse.Namespace) -> int:
    box = _resolve_box(args)
    with _output(args.out) as handle:
        _emit(_decomposition_obj(box, args), handle)
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from . import verify

    spec = FamilySpec(args.family, args.seed)
    if args.count < 0:
        raise ValueError(f"count must be nonnegative, got {args.count}")
    with _output(args.out) as handle:
        report = verify.fuzz(spec, args.count)
        _emit(report.to_json_obj(), handle)
    return 1 if report.aborted else 0


def _cmd_repro(args: argparse.Namespace) -> int:
    from . import verify

    with _output(args.out) as handle:
        report = verify.reproduce_paper()
        _emit(report, handle)
    return 1 if report["failures"] else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import csv

    from . import verify

    if args.kind != "isotropic":
        raise ValueError(f"unknown sweep kind {args.kind!r}")
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    columns = ("param",) + _QUANTITY_NAMES
    header = list(columns) + [f"{name}_exact" for name in columns]
    with _output(args.csv, newline="") as handle:
        weights = [Fraction(k, args.steps) for k in range(args.steps + 1)]
        rows = [_sweep_row(v, verify.analyze(isotropic(v))) for v in weights]
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return 0


def _sweep_row(v: Fraction, a: Analysis) -> list[str]:
    exact = (v, *_quantities(a))
    return ["%.12g" % float(x) for x in exact] + [format_fraction(x) for x in exact]


def _is_number(token: str) -> bool:
    for number in (float, Fraction):
        try:
            number(token)
        except (ValueError, ZeroDivisionError):
            continue
        return True
    return False


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every token that parses as a float or
    a fraction, such as -1e-3, -inf or -1/2, as a value: no corrbox option
    looks like a number, and argparse alone takes only plain negative
    decimals for values."""

    # The top-level parser's subcommand parsers by name (_build_parser).
    commands: dict[str, argparse.ArgumentParser]

    def _parse_optional(self, arg_string):
        # Only a token with one leading dash can read as an option and as a
        # number: no number starts with two.
        if arg_string[:1] == "-" and arg_string[1:2] != "-" and _is_number(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="corrbox",
        description="Exact analysis of two-input two-output correlation boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def command(name: str, help: str) -> argparse.ArgumentParser:
        parser.commands[name] = sub.add_parser(name, help=help)
        return parser.commands[name]

    analyze = command("analyze", "full report for one box")
    _add_source_options(analyze)
    analyze.add_argument("--dim", type=int, help="channel size for eta_star")
    fmt = analyze.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON report (the default)")
    fmt.add_argument("--text", action="store_true", help="plain text instead of JSON")
    analyze.add_argument("--out", help="write the report here instead of stdout")

    gen = command("gen", "emit canonical, parametric, or sampled boxes")
    gen.add_argument("--kind", help="canonical name, isotropic, or quantum")
    _add_parametric_options(gen)
    gen.add_argument("--family", choices=FAMILY_KINDS, help="sampling family")
    gen.add_argument("--seed", type=int, help="sampling seed (default 0)")
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--out", help="output directory (box-NNNN.json per box)")

    decompose = command("decompose", "optimal decomposition of a box")
    _add_source_options(decompose)
    decompose.add_argument("--basis", choices=BASIS_KINDS, default="full256")
    decompose.add_argument(
        "--alt", action="store_true", help="also search for a second optimal support"
    )
    decompose.add_argument("--out", help="write JSON here instead of stdout")

    fuzz_cmd = command("fuzz", "seeded sweep of the tracked inequalities")
    fuzz_cmd.add_argument("--family", choices=FAMILY_KINDS, default="general")
    fuzz_cmd.add_argument("--seed", type=int, default=0)
    fuzz_cmd.add_argument("--count", type=int, default=100)
    fuzz_cmd.add_argument("--out", help="write JSON here instead of stdout")

    repro = command("repro", "recompute the reference scenario")
    repro.add_argument("--out", help="write JSON here instead of stdout")

    sweep = command("sweep", "parameter sweep as CSV")
    sweep.add_argument("--kind", default="isotropic")
    sweep.add_argument("--steps", type=int, default=10)
    sweep.add_argument("--csv", help="write CSV here instead of stdout")

    return parser


_PARSER = _build_parser()


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """_PARSER.parse_args(argv), with one parse of a subcommand's arguments.

    argparse's subparsers action hands every token after the subcommand's
    name to that subcommand's parser (parse_known_args), and the top-level
    parser reports what is left over as unrecognized.  That is done here
    directly, which skips the top-level parse of the whole command line.
    Any other first token (none, an option, an unknown word) goes to
    _PARSER.parse_args, which reports it as argparse does."""
    if argv is None:
        argv = sys.argv[1:]
    sub = _PARSER.commands.get(argv[0]) if argv else None
    if sub is None:
        return _PARSER.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        _PARSER.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        # Looked up at each call, so a handler can be replaced after import.
        return globals()[f"_cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
