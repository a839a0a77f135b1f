"""Command-line surface: inspect codes, build systems, run verifications.

Every ``cmd_*`` computes its result and returns it as (exit code, JSON
payload, text lines) without writing anything; ``main`` renders it once.
With ``--json`` the output is the payload after a top-level
"schema_version": 1, otherwise the lines joined by newlines.  Either form
ends in one newline and goes to stdout, or to the ``-o`` file.  Rendering
runs inside the error table, so a file that cannot be written exits 2.

Each subcommand is declared once, in ``COMMANDS``.  A call that names a
command builds that command's parser alone.  Top-level help, an unknown
command and leftover arguments go through the full ``build_parser()``
tree, which is built from the same table.  So every usage line, help
text and parse error reads as that tree's.

Exit codes: 0 success, 1 verification failure, 2 usage or precondition
error, 3 resource guard exceeded or memory exhausted.  A ``MemoryError``
that escapes a guard leaves as one ``error:`` line, not a traceback.
Per-check timing fields are informational and not part of the
deterministic surface.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from collections.abc import Callable, Sequence
from typing import NamedTuple

from . import codes as codes_mod
from . import laurent as laurent_mod
from . import rigidity as rigidity_mod
from . import windows as windows_mod
from .codes import BinaryCode
from .errors import DegenerateCodeError, GuardExceededError
from .windows import WindowConfig, cube

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = 1


def _load_code(path: str) -> BinaryCode:
    with open(path, "r", encoding="ascii") as fh:
        return codes_mod.parse_generator_file(fh.read())


# (exit code, JSON payload without schema_version, text lines)
CommandResult = tuple[int, dict, list[str]]


def cmd_inspect(args: argparse.Namespace) -> CommandResult:
    code = _load_code(args.codefile)
    dual = codes_mod.dual(code)
    cert = codes_mod.is_integrally_nondegenerate(code)
    info = {
        "length": code.length,
        "dim": code.dim,
        "generators": [str(v) for v in code.basis.row_vectors()],
        "weight_class": codes_mod.weight_class(code),
        "self_orthogonal": codes_mod.is_self_orthogonal(code),
        "self_dual": dual == code,
        "contains_all_ones": codes_mod.contains_all_ones(code),
        "dual_dim": dual.dim,
        "integrally_nondegenerate": cert.verdict,
        "kernel_witness": None if cert.verdict else list(cert.kernel_witness),
    }
    lines = [
        f"length: {info['length']}",
        f"dim: {info['dim']}",
        f"weight class: {info['weight_class']}",
        f"self-orthogonal: {_yn(info['self_orthogonal'])}",
        f"self-dual: {_yn(info['self_dual'])}",
        f"contains all-ones: {_yn(info['contains_all_ones'])}",
        f"dual dim: {info['dual_dim']}",
    ]
    if cert.verdict:
        lines.append("integrally non-degenerate: yes")
    else:
        witness = ",".join(str(x) for x in cert.kernel_witness)
        lines.append(f"integrally non-degenerate: no, kernel witness ({witness})")
    return 0, info, lines


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_dual(args: argparse.Namespace) -> CommandResult:
    code = _load_code(args.codefile)
    d = codes_mod.dual(code)
    payload = {
        "length": d.length,
        "dim": d.dim,
        "generators": [str(v) for v in d.basis.row_vectors()],
    }
    text = codes_mod.render_generator_file(d, header=f"dual, dim {d.dim}").rstrip("\n")
    return 0, payload, [text]


def cmd_check(args: argparse.Namespace) -> CommandResult:
    code = _load_code(args.codefile)
    with open(args.configfile, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            # main reads RuntimeError, RecursionError's base, as a failed verification
            raise ValueError("configuration JSON is nested too deeply") from None
    config = WindowConfig.from_json_dict(data)
    space = windows_mod.build_window_space(config.box, code, max_sites=args.max_sites)
    ok = windows_mod.contains(space, config)
    payload = {
        "valid": ok,
        "box": {"lower": list(config.box.lower), "upper": list(config.box.upper)},
        "constraint_rank": space.rank,
    }
    return (0 if ok else 1), payload, ["VALID" if ok else "INVALID"]


def cmd_construct(args: argparse.Namespace) -> CommandResult:
    system = rigidity_mod.construct_system(args.d)
    lines = [f"dimension: {system.d}", f"code (dim {system.code.dim}):"]
    lines.extend("  " + str(v) for v in system.code.basis.row_vectors())
    lines.append(f"product code (dim {system.product_code.dim}):")
    lines.extend("  " + str(v) for v in system.product_code.basis.row_vectors())
    return 0, rigidity_mod.describe_system(system), lines


def cmd_verify(args: argparse.Namespace) -> CommandResult:
    report = rigidity_mod.run_full_verification(
        args.d,
        box_size=args.box,
        samples=args.samples,
        seed=args.seed,
        max_sites=args.max_sites,
    )
    lines = []
    for check in report.checks:
        tag = "PASS" if check.passed else "FAIL"
        lines.append(f"{tag} {check.name} ({check.millis:.1f} ms)")
        if not check.passed and check.witness is not None:
            lines.append(f"     witness: {check.witness}")
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(f"RESULT: {verdict} ({len(report.checks)} checks, d={args.d})")
    return (0 if report.passed else 1), report.to_dict(), lines


def cmd_entropy(args: argparse.Namespace) -> CommandResult:
    code = _load_code(args.codefile)
    # refuse the largest box before listing the sizes or building any space
    if args.box >= 1:
        windows_mod.guarded_site_count(itertools.repeat(args.box, code.length), args.max_sites)
    sizes = list(range(2, args.box + 1)) or [args.box]
    profile = windows_mod.entropy_profile(code, sizes, max_sites=args.max_sites)
    verdict = laurent_mod.entropy_verdict(code)
    payload = {
        "sizes": sizes,
        "ratios": [str(v) for v in profile],
        "verdict": verdict,
    }
    lines = []
    for n, ratio in zip(sizes, profile):
        sites = n**code.length
        lines.append(f"N={n}: log2 count {ratio * sites} over {sites} sites = {ratio}")
    lines.append(f"verdict: {verdict}")
    return 0, payload, lines


def _parse_int_csv(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def cmd_mixing_witness(args: argparse.Namespace) -> CommandResult:
    code = _load_code(args.codefile)
    n = _parse_int_csv(args.n)
    if len(n) != code.length:
        raise ValueError(f"n has {len(n)} entries, the code has length {code.length}")
    if not any(n):
        raise ValueError("n must be nonzero")
    try:
        w = laurent_mod.mixing_certificate(code, n)
    except DegenerateCodeError as exc:
        witness = list(exc.kernel_witness) if exc.kernel_witness is not None else None
        payload = {"n": list(n), "degenerate": True, "kernel_witness": witness}
        return 1, payload, [f"degenerate code, kernel witness {tuple(witness or ())}"]
    b = codes_mod.support_sum(n, w)
    payload = {
        "n": list(n),
        "degenerate": False,
        "witness": str(w),
        "support_sum": b,
    }
    return 0, payload, [f"witness codeword {w} with support sum {b}"]


def cmd_sample(args: argparse.Namespace) -> CommandResult:
    code = _load_code(args.codefile)
    space = windows_mod.build_window_space(
        cube(code.length, args.box), code, max_sites=args.max_sites
    )
    config = windows_mod.sample(space, args.seed)
    payload = config.to_json_dict()
    payload["seed"] = args.seed
    payload["log2_count"] = windows_mod.log2_count(space)
    return 0, payload, [config.to_bit_string()]


class Command(NamedTuple):
    """One subcommand: its name, help line, function and own arguments.

    ``arguments`` holds (flags, options) pairs for ``add_argument``, in
    order; every command then takes ``--json`` and ``-o``, and those with
    ``max_sites`` set take ``--max-sites`` after them.
    """

    name: str
    help: str
    func: Callable[[argparse.Namespace], CommandResult]
    arguments: tuple[tuple[tuple[str, ...], dict], ...]
    max_sites: bool = False


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


_CODEFILE = _arg("codefile")
_DIMENSION = _arg("-d", type=int, required=True, help="dimension, at least 8")
_SEED = _arg("--seed", type=int, default=0, help="random seed (default 0)")

COMMANDS = (
    Command("inspect", "report the basic facts of a code file", cmd_inspect, (_CODEFILE,)),
    Command("dual", "print the dual code", cmd_dual, (_CODEFILE,)),
    Command(
        "check",
        "check a window configuration against a code",
        cmd_check,
        (_CODEFILE, _arg("configfile", help="JSON window configuration")),
        max_sites=True,
    ),
    Command(
        "construct", "print the standard code pair for a dimension", cmd_construct, (_DIMENSION,)
    ),
    Command(
        "verify",
        "run the full verification suite for a dimension",
        cmd_verify,
        (
            _DIMENSION,
            _arg("--box", type=int, default=2, help="box side length (default 2)"),
            _arg("--samples", type=int, default=100, help="sampled triples (default 100)"),
            _SEED,
        ),
        max_sites=True,
    ),
    Command(
        "entropy",
        "per-site log-count profile of a code",
        cmd_entropy,
        (_CODEFILE, _arg("--box", type=int, default=3, help="largest box side (default 3)")),
        max_sites=True,
    ),
    Command(
        "mixing-witness",
        "separating codeword for an integer vector",
        cmd_mixing_witness,
        (
            _CODEFILE,
            _arg("--n", required=True, help="comma-separated integers, one per coordinate"),
        ),
    ),
    Command(
        "sample",
        "draw a seeded uniform window solution",
        cmd_sample,
        (_CODEFILE, _arg("--box", type=int, default=2, help="box side length (default 2)"), _SEED),
        max_sites=True,
    ),
)

_BY_NAME = {c.name: c for c in COMMANDS}


def _add_arguments(p: argparse.ArgumentParser, command: Command) -> None:
    for flags, options in command.arguments:
        p.add_argument(*flags, **options)
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("-o", dest="output", metavar="PATH", help="write the report to a file")
    if command.max_sites:
        p.add_argument(
            "--max-sites", type=int, default=windows_mod.MAX_SITES, help="site-count guard"
        )
    p.set_defaults(func=command.func)


def build_parser() -> argparse.ArgumentParser:
    """The full parser, every subcommand under ``starshift``."""
    parser = argparse.ArgumentParser(
        prog="starshift",
        description="Binary-code group shifts: window engines and symmetry verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        _add_arguments(sub.add_parser(command.name, help=command.help), command)
    return parser


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    # a subparser of the full tree gets this prog and no other setting, so
    # a lone parser for the named command prints the same help and errors
    command = _BY_NAME.get(argv[0]) if argv else None
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"starshift {command.name}")
        _add_arguments(parser, command)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    # the full tree words the refusal of leftover arguments
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        rc, payload, lines = args.func(args)
        if args.json:
            text = json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2)
        else:
            text = "\n".join(lines)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return rc
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        # the last line of defence behind the guards, not a guard itself
        print("error: out of memory", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        # a constructed system that fails its own invariant checks
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        # includes unreadable code files, unsupported dimensions and bad JSON
        print(f"error: {exc}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
