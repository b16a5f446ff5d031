"""Command-line front end.

`check-matrix` and `certify` exit through one table, conclusion -> code:
0 certified, 1 refuted, 2 inconclusive (including unobservable pairs;
check-matrix prints an inconclusive vb/vd check as "undecidable").  `oracle`
exits 0 when its search is clean and 1 on a violation, since a clean search
decides nothing.  Malformed input, a usage error among them, and an --out
that cannot be written exit 3; so does a kernel's refusal (a ``LinalgError``,
such as a k outside 1..n), which ``main`` maps to one ``error:`` line.

``build_parser`` declares the grammar once.  A spelled-out argv (CMD FILE,
then exact option names, each followed by a value that is neither empty nor
starts with "-") is read straight from the actions it declares
(``_read_spelled_out``) into the Namespace argparse would build; every other
argv goes to argparse, the one source of help and usage text.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

from .linalg import Backend, LinalgError
from .lti import default_horizon
from .io import (
    InputFileError,
    SystemFile,
    certificate_dict,
    load_system_file,
    write_report,
)
from .obsv import (
    Certificate,
    NotObservableError,
    certify_controllability,
    certify_hankel,
    certify_observability,
    property_name,
)
from .oracle import falsify_matrix_vb, falsify_operator_vb
from .signcons import (
    Conclusion,
    k_positive,
    sign_conclusion,
    sign_consistent,
    sign_regular,
    vb_matrix_check,
    vd_matrix_check,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3

_EXIT = {Conclusion.CERTIFIED: EXIT_PASS,
         Conclusion.REFUTED: EXIT_FAIL,
         Conclusion.INCONCLUSIVE: EXIT_INCONCLUSIVE}

# --target -> (certifier, the system-file vectors it takes after A, the target it names)
_TARGETS = {"obsv": (certify_observability, ("c",), "observability"),
            "ctrb": (certify_controllability, ("b",), "controllability"),
            "hankel": (certify_hankel, ("b", "c"), "hankel")}


def _backend(args) -> Backend:
    return Backend.EXACT if args.arith == "exact" else Backend.FLOAT


def _environment(args, **extra) -> dict:
    env = {
        "arith": args.arith,
        "tol": args.tol,
        "horizon": getattr(args, "horizon", None),
        "seed": getattr(args, "seed", None),
        "k": args.k,
    }
    env.update(extra)
    return env


def _vectors(sf: SystemFile, target: str) -> list[tuple]:
    """The system-file vectors that ``target`` takes after A (``_TARGETS``),
    or the input error naming those it lacks."""
    _, names, name = _TARGETS[target]
    vectors = [getattr(sf, v) for v in names]
    if any(v is None for v in vectors):
        raise InputFileError(f"{name} target needs {'both ' if len(names) > 1 else ''}"
                             f"{' and '.join(names)}")
    return vectors


def _matrix_from_file(sf: SystemFile):
    """The bare matrix, else A; ``load_system_file`` rejects a file with neither."""
    return sf.matrix if sf.matrix is not None else sf.A


def cmd_check_matrix(args) -> int:
    prop = args.property
    if args.strict and prop in ("vb", "vd"):
        raise InputFileError(f"--strict applies to --property sc, sr and tp only, not {prop}")
    sf = load_system_file(args.file, _backend(args))
    X = _matrix_from_file(sf)
    strict = args.strict or prop in ("ssc", "stp")
    out = {"file": str(args.file), "name": sf.name, "property": prop, "k": args.k,
           "strict": strict}
    if prop in ("sc", "ssc"):
        summary = sign_consistent(X, args.k, args.tol)
        out["verdict"] = summary.verdict.value
        out["epsilon"] = summary.epsilon
        conclusion = sign_conclusion(summary.passes(strict), [summary])
    elif prop in ("sr", "tp", "stp"):
        rep = (sign_regular if prop == "sr" else k_positive)(X, args.k, strict, args.tol)
        out["orders"] = {j: s.verdict.value for j, s in rep.orders.items()}
        conclusion = sign_conclusion(rep.passed, rep.orders.values())
    else:
        check = (vb_matrix_check if prop == "vb" else vd_matrix_check)(X, args.k, args.tol)
        conclusion = check.status
        out["verdict"] = ("undecidable" if conclusion is Conclusion.INCONCLUSIVE
                          else conclusion.value)
        out["rule"] = check.rule
        out["detail"] = check.detail
    if args.out:
        write_report(args.out, out, _environment(args))
    print(json.dumps(out))
    return _EXIT[conclusion]


def cmd_certify(args) -> int:
    if args.nonstrict and args.property != "kpos":
        raise InputFileError(f"--nonstrict applies to --property kpos only, not {args.property}")
    sf = load_system_file(args.file, _backend(args))
    if sf.A is None:
        raise InputFileError("certify needs a system file with A")
    strict = not args.nonstrict
    certifier, _, target = _TARGETS[args.target]
    vectors = _vectors(sf, args.target)
    try:
        cert = certifier(sf.A, *vectors, args.k, args.property, args.horizon, args.tol, strict)
    except NotObservableError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        cert = Certificate(property_name(args.property, args.k, strict), target,
                           Conclusion.INCONCLUSIVE, None, [],
                           args.horizon or default_horizon(sf.A.rows), [str(exc)])

    env = _environment(args, property=args.property, target=args.target)
    write_report(args.out, certificate_dict(cert), env, cert)
    line = {"property": cert.property_name, "conclusion": cert.conclusion.value}
    if cert.common_sign is not None:
        line["common_sign"] = cert.common_sign
    print(json.dumps(line))
    return _EXIT[cert.conclusion]


def cmd_oracle(args) -> int:
    sf = load_system_file(args.file, Backend.FLOAT)
    # a bare matrix is searched as one, unless the file also holds a pair (A, c)
    if sf.matrix is not None and (sf.A is None or sf.c is None):
        horizon = None
        report = falsify_matrix_vb(sf.matrix, args.k, args.trials, args.seed, args.tol)
        kind = "matrix"
    else:
        (c,) = _vectors(sf, "obsv")
        horizon = args.horizon or default_horizon(sf.A.rows)
        report = falsify_operator_vb(sf.A, c, args.k, horizon, args.trials, args.seed, args.tol)
        kind = "operator"
    payload = {
        "kind": kind,
        "k": args.k,
        "trials": report.trials,
        "seed": report.seed,
        "violations": [{"trial": v.trial, "u": v.u, "output_v_minus": v.output_v_minus,
                        "output_v_plus": v.output_v_plus, "strict_only": v.strict_only}
                       for v in report.violations],
        "suspect_trials": report.suspects,
    }
    if args.out:
        # the oracle samples in float whatever --arith says
        env = _environment(args, arith="float", horizon=horizon, trials=args.trials)
        write_report(args.out, payload, env)
    print(json.dumps(payload))
    return EXIT_PASS if report.clean else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit ``EXIT_INPUT``, not
    argparse's 2, which here means inconclusive; subparsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


class _Command(NamedTuple):
    """What a spelled-out argv of one subcommand may hold, read off the
    actions its subparser declares (``_read_spelled_out``)."""
    file: argparse.Action
    options: dict        # each option string -> its action
    required: frozenset  # the dests of the required options
    defaults: dict       # dest -> the Namespace value argparse starts from


def _command(parser, actions, name: str, command_dest: str) -> _Command:
    """The ``_Command`` of subparser ``parser``, whose ``add_argument`` calls
    returned ``actions``: the positional FILE, then options that each store
    one value or, taking none (``nargs`` 0), their ``const``.  Defaults are
    ``get_default``'s, ``func`` among them; ``command_dest`` holds the
    subcommand's name."""
    (file,) = [a for a in actions if not a.option_strings]
    defaults = {a.dest: parser.get_default(a.dest) for a in actions}
    defaults.update({"func": parser.get_default("func"), command_dest: name})
    return _Command(file, {s: a for a in actions for s in a.option_strings},
                    frozenset(a.dest for a in actions if a.option_strings and a.required),
                    defaults)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built at the first call and reused by every later
    one in the process: parsing leaves it unchanged.  Its ``commands`` maps
    each subcommand to its ``_Command``, built from the same actions."""
    parser = _Parser(
        prog="varsign",
        description="Certify variation-bounding properties of matrices and "
                    "LTI observability/controllability operators.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, horizon=False, seed=False) -> list:
        actions = [
            p.add_argument("file", type=Path, help="JSON system or matrix file"),
            p.add_argument("--k", type=int, required=True, help="property order"),
            p.add_argument("--arith", choices=("exact", "float"), default="exact"),
            p.add_argument("--tol", type=float, default=1e-9,
                           help="float comparison tolerance (default 1e-9)"),
            p.add_argument("--out", type=Path, default=None, help="report directory"),
        ]
        if horizon:
            actions.append(p.add_argument("--horizon", type=int, default=None,
                                          help="sample horizon (default max(50, 10n))"))
        if seed:
            actions += [p.add_argument("--trials", type=int, default=1000),
                        p.add_argument("--seed", type=int, default=0)]
        return actions

    p_check = sub.add_parser("check-matrix", help="check a matrix property")
    check = common(p_check) + [
        p_check.add_argument("--property", required=True,
                             choices=("sc", "ssc", "sr", "tp", "stp", "vb", "vd")),
        p_check.add_argument("--strict", action="store_true",
                             help="require strict signs (implied by ssc/stp)")]
    p_check.set_defaults(func=cmd_check_matrix)

    p_cert = sub.add_parser("certify", help="certify an operator property")
    cert = common(p_cert, horizon=True) + [
        p_cert.add_argument("--property", required=True, choices=("svb", "vb", "kpos", "vd")),
        p_cert.add_argument("--target", choices=_TARGETS, default="obsv"),
        p_cert.add_argument("--nonstrict", action="store_true",
                            help="allow the non-strict top order for kpos")]
    p_cert.set_defaults(func=cmd_certify, out=Path("varsign_out"))

    p_oracle = sub.add_parser("oracle", help="sampling falsification")
    oracle = common(p_oracle, horizon=True, seed=True)
    p_oracle.set_defaults(func=cmd_oracle)

    parser.commands = {name: _command(p, actions, name, sub.dest) for name, p, actions in
                       (("check-matrix", p_check, check), ("certify", p_cert, cert),
                        ("oracle", p_oracle, oracle))}
    return parser


def _value(action: argparse.Action, text: str):
    """``text`` converted by ``action.type`` and checked against its
    ``choices``, or None when argparse would not read it as a value (empty,
    or starting with "-") or would reject it."""
    if not text or text[0] == "-":
        return None
    try:
        value = text if action.type is None else action.type(text)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return value if action.choices is None or value in action.choices else None


def _read_spelled_out(argv) -> argparse.Namespace | None:
    """The Namespace ``build_parser().parse_args(argv)`` returns, for a
    spelled-out argv: CMD FILE, then exact option names, each followed by a
    value (``_value``) unless it takes none, with every required option
    given.  None for any other argv, which argparse then reads: help,
    abbreviations, ``--opt=value``, ``--``, negative numbers, a misplaced
    FILE and every usage error among them."""
    command = build_parser().commands.get(argv[0]) if len(argv) > 1 else None
    if command is None or (file := _value(command.file, argv[1])) is None:
        return None
    values = command.defaults.copy()
    values[command.file.dest] = file
    seen = set()
    i = 2
    while i < len(argv):
        action = command.options.get(argv[i])
        if action is None:
            return None
        if action.nargs == 0:
            value, i = action.const, i + 1
        elif i + 1 == len(argv) or (value := _value(action, argv[i + 1])) is None:
            return None
        else:
            i += 2
        values[action.dest] = value
        seen.add(action.dest)
    return argparse.Namespace(**values) if command.required <= seen else None


def _argument_error(args) -> str | None:
    """What is out of range among the numeric options, or None; argparse
    checks only their types."""
    if not (math.isfinite(args.tol) and args.tol >= 0):
        return f"--tol must be finite and >= 0, got {args.tol}"
    if getattr(args, "horizon", None) is not None and args.horizon < 1:
        return f"--horizon must be >= 1, got {args.horizon}"
    if getattr(args, "trials", 1) < 1:
        return f"--trials must be >= 1, got {args.trials}"
    if getattr(args, "seed", 0) < 0:
        return f"--seed must be >= 0, got {args.seed}"
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_spelled_out(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    problem = _argument_error(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except InputFileError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LinalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        if exc.filename is None:
            raise
        # reads raise InputFileError, so a file error here is a write under --out
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
