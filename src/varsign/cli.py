"""Command-line front end.

Exit codes: 0 certified/pass, 1 refuted/violation, 2 inconclusive or
undecidable (including unobservable pairs), 3 malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .linalg import Backend, LinalgError, RankOutOfRangeError
from .lti import default_horizon
from .io import (
    InputFileError,
    SystemFile,
    certificate_dict,
    load_system_file,
    write_report,
    write_traces,
)
from .obsv import (
    Conclusion,
    HankelCertificate,
    NotObservableError,
    certify_controllability,
    certify_hankel,
    certify_observability,
)
from .oracle import falsify_matrix_vb, falsify_operator_vb
from .signcons import (
    CheckStatus,
    PreconditionError,
    SignVerdict,
    k_positive,
    sign_consistent,
    sign_regular,
    vb_matrix_check,
    vd_matrix_check,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3

_CHECK_EXIT = {CheckStatus.CERTIFIED: EXIT_PASS,
               CheckStatus.REFUTED: EXIT_FAIL,
               CheckStatus.UNDECIDABLE: EXIT_INCONCLUSIVE}


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


def _matrix_from_file(sf: SystemFile):
    if sf.matrix is not None:
        return sf.matrix
    if sf.A is not None:
        return sf.A
    raise InputFileError("no matrix in file")


def cmd_check_matrix(args) -> int:
    sf = load_system_file(args.file, _backend(args))
    X = _matrix_from_file(sf)
    prop = args.property
    strict = args.strict or prop in ("ssc", "stp")
    out = {"file": str(args.file), "name": sf.name, "property": prop, "k": args.k,
           "strict": strict}
    try:
        if prop in ("sc", "ssc"):
            summary = sign_consistent(X, args.k, args.tol)
            out["verdict"] = summary.verdict.value
            out["epsilon"] = summary.epsilon
            passed = summary.passes(strict)
            code = (EXIT_PASS if passed
                    else EXIT_INCONCLUSIVE if summary.verdict is SignVerdict.INCONCLUSIVE
                    else EXIT_FAIL)
        elif prop in ("sr", "tp", "stp"):
            rep = (sign_regular if prop == "sr" else k_positive)(X, args.k, strict, args.tol)
            out["orders"] = {j: s.verdict.value for j, s in rep.orders.items()}
            code = EXIT_PASS if rep.passed else _order_fail_code(rep)
        elif prop in ("vb", "vd"):
            check = (vb_matrix_check if prop == "vb" else vd_matrix_check)(X, args.k, args.tol)
            out["verdict"] = check.status.value
            out["rule"] = check.rule
            out["detail"] = check.detail
            code = _CHECK_EXIT[check.status]
        else:  # pragma: no cover - argparse restricts choices
            raise InputFileError(f"unknown property {prop}")
    except (RankOutOfRangeError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.out:
        write_report(args.out, out, [], _environment(args))
    print(json.dumps(out))
    return code


def _order_fail_code(rep) -> int:
    if any(s.verdict is SignVerdict.INCONCLUSIVE for s in rep.orders.values()):
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


def cmd_certify(args) -> int:
    if args.nonstrict and args.property != "kpos":
        raise InputFileError(f"--nonstrict applies to --property kpos only, not {args.property}")
    sf = load_system_file(args.file, _backend(args))
    if sf.A is None:
        raise InputFileError("certify needs a system file with A")
    strict = not args.nonstrict
    try:
        if args.target == "obsv":
            if sf.c is None:
                raise InputFileError("observability target needs c")
            cert = certify_observability(sf.A, sf.c, args.k, args.property,
                                         args.horizon, args.tol, strict)
        elif args.target == "ctrb":
            if sf.b is None:
                raise InputFileError("controllability target needs b")
            cert = certify_controllability(sf.A, sf.b, args.k, args.property,
                                           args.horizon, args.tol, strict)
        else:
            if sf.b is None or sf.c is None:
                raise InputFileError("hankel target needs both b and c")
            cert = certify_hankel(sf.A, sf.b, sf.c, args.k, args.property,
                                  args.horizon, args.tol, strict)
    except NotObservableError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (RankOutOfRangeError, LinalgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    out_dir = Path(args.out)
    if isinstance(cert, HankelCertificate):
        traces = write_traces(out_dir / "obsv", cert.observability.per_system)
        traces += write_traces(out_dir / "ctrb", cert.controllability.per_system)
    else:
        traces = write_traces(out_dir, cert.per_system)
    env = _environment(args, property=args.property, target=args.target)
    write_report(out_dir, certificate_dict(cert), traces, env)
    conclusion = cert.conclusion
    sign = getattr(cert, "common_sign", None)
    line = {"property": cert.property_name, "conclusion": conclusion.value}
    if sign is not None:
        line["common_sign"] = sign
    print(json.dumps(line))
    return {Conclusion.CERTIFIED: EXIT_PASS,
            Conclusion.REFUTED: EXIT_FAIL,
            Conclusion.INCONCLUSIVE: EXIT_INCONCLUSIVE}[conclusion]


def cmd_oracle(args) -> int:
    sf = load_system_file(args.file, Backend.FLOAT)
    operator = sf.A is not None and sf.c is not None
    X = sf.A if operator else _matrix_from_file(sf)
    if not 1 <= args.k <= X.cols:
        print(f"error: --k must lie in 1..{X.cols}, got {args.k}", file=sys.stderr)
        return EXIT_INPUT
    if operator:
        horizon = args.horizon or default_horizon(X.rows)
        report = falsify_operator_vb(X, sf.c, args.k, horizon,
                                     args.trials, args.seed, args.tol)
        kind = "operator"
    else:
        horizon = None
        report = falsify_matrix_vb(X, args.k, args.trials, args.seed, args.tol)
        kind = "matrix"
    payload = {
        "kind": kind,
        "k": args.k,
        "trials": report.trials,
        "seed": report.seed,
        "violations": [asdict(v) for v in report.violations],
        "suspect_trials": report.suspects,
    }
    if args.out:
        # the oracle samples in float whatever --arith says
        env = _environment(args, arith="float", horizon=horizon, trials=args.trials)
        write_report(args.out, payload, [], env)
    print(json.dumps(payload))
    return EXIT_PASS if report.clean else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varsign",
        description="Certify variation-bounding properties of matrices and "
                    "LTI observability/controllability operators.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, horizon=False, seed=False):
        p.add_argument("file", type=Path, help="JSON system or matrix file")
        p.add_argument("--k", type=int, required=True, help="property order")
        p.add_argument("--arith", choices=("exact", "float"), default="exact")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="float comparison tolerance (default 1e-9)")
        p.add_argument("--out", type=Path, default=None, help="report directory")
        if horizon:
            p.add_argument("--horizon", type=int, default=None,
                           help="sample horizon (default max(50, 10n))")
        if seed:
            p.add_argument("--trials", type=int, default=1000)
            p.add_argument("--seed", type=int, default=0)

    p_check = sub.add_parser("check-matrix", help="check a matrix property")
    common(p_check)
    p_check.add_argument("--property", required=True,
                         choices=("sc", "ssc", "sr", "tp", "stp", "vb", "vd"))
    p_check.add_argument("--strict", action="store_true",
                         help="require strict signs (implied by ssc/stp)")
    p_check.set_defaults(func=cmd_check_matrix)

    p_cert = sub.add_parser("certify", help="certify an operator property")
    common(p_cert, horizon=True)
    p_cert.add_argument("--property", required=True, choices=("svb", "vb", "kpos", "vd"))
    p_cert.add_argument("--target", choices=("obsv", "ctrb", "hankel"), default="obsv")
    p_cert.add_argument("--nonstrict", action="store_true",
                        help="allow the non-strict top order for kpos")
    p_cert.set_defaults(func=cmd_certify)

    p_oracle = sub.add_parser("oracle", help="sampling falsification")
    common(p_oracle, horizon=True, seed=True)
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def _argument_error(args) -> str | None:
    """What is out of range among the numeric options, or None.  Checked here
    rather than by argparse, whose exit status 2 means inconclusive."""
    if not (math.isfinite(args.tol) and args.tol >= 0):
        return f"--tol must be finite and >= 0, got {args.tol}"
    if getattr(args, "horizon", None) is not None and args.horizon < 1:
        return f"--horizon must be >= 1, got {args.horizon}"
    if getattr(args, "trials", 1) < 1:
        return f"--trials must be >= 1, got {args.trials}"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _argument_error(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "out", None) is None and args.command == "certify":
        args.out = Path("varsign_out")
    try:
        return args.func(args)
    except InputFileError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
