"""JSON system files, and the evidence a run leaves under ``--out``.

Matrix entries in system files are decimal strings, which parse losslessly
into the exact backend; bare JSON numbers are accepted with a warning since
binary floats are not exact decimals.  Every run writes ``report.json``; a
run with compound systems writes ``traces.csv`` too, and a run without any
removes the one an earlier run left.  Exact values render as decimals
whenever the denominator allows a finite expansion, and as ``p/q`` literals
otherwise, so that exact-mode runs are reproducible bit for bit.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .linalg import Backend, Matrix, int_text
from .lti import ExactSamples
from .obsv import Certificate, SystemVerdict


class InputFileError(ValueError):
    pass


@dataclass
class SystemFile:
    name: str
    A: Matrix | None
    b: tuple | None
    c: tuple | None
    matrix: Matrix | None
    notes: str = ""


_ECHO_CHARS = 40


def _echo(value) -> str:
    """``repr(value)`` for an error message, cut to its first characters and
    a length count when long: an entry may hold thousands of digits."""
    text = repr(value)
    if len(text) <= _ECHO_CHARS:
        return text
    return f"{text[:_ECHO_CHARS]}... ({len(text)} characters)"


# the digits of the exponent of a decimal string as ``Fraction`` reads it: e
# or E, an optional sign and digits, possibly grouped by underscores, at the end
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")
# An exponent may reach this many times the int-string digit limit: values
# of 10^5000 and more, whose samples and minors ``linalg.int_text`` renders,
# stay readable, while 10^43000 (at the default limit of 4300) takes about
# a second to check and print, and 10^(10^9) would not finish in minutes.
_EXPONENT_FACTOR = 10


def _exponent_beyond(value: str, limit: int) -> bool:
    """Whether the decimal exponent of ``value`` exceeds ``limit`` in
    magnitude; ``Fraction`` would raise 10 to it."""
    match = _EXPONENT.search(value)
    if match is None:
        return False
    digits = match[1].replace("_", "").lstrip("0")
    return len(digits) > len(str(limit)) or int(digits or "0") > limit


def _parse_entry(value, backend: Backend, warned: list[bool]):
    """A decimal string, int or finite float entry: its exact value as a
    Fraction, or in float mode that value rounded to a float."""
    if isinstance(value, str):
        # the digits of a numerator or denominator are held to the int-string
        # limit, and an exponent to ten times it, unless the limit is off (0)
        bound = _EXPONENT_FACTOR * sys.get_int_max_str_digits()
        if bound and _exponent_beyond(value, bound):
            raise InputFileError(f"cannot parse entry {_echo(value)}: its decimal exponent "
                                 f"exceeds {bound} in magnitude")
        try:
            x = Fraction(value)
        except ValueError as exc:
            raise InputFileError(f"cannot parse entry {_echo(value)} as a decimal") from exc
        except ZeroDivisionError as exc:
            raise InputFileError(f"cannot parse entry {_echo(value)}: zero denominator") from exc
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputFileError(f"entry {_echo(value)} is not a number or decimal string")
    else:
        if isinstance(value, float):
            if not math.isfinite(value):  # json.loads accepts NaN and Infinity
                raise InputFileError(f"entry {_echo(value)} is not a finite number")
            if not warned[0]:
                print("warning: float entries in input file; decimal strings are exact",
                      file=sys.stderr)
                warned[0] = True
        x = Fraction(value)
    if backend is Backend.EXACT:
        return x
    try:
        # a float's Fraction rounds back to it, except that -0.0 loses its sign
        return value if type(value) is float else float(x)
    except OverflowError as exc:  # a string or a bare JSON integer past the float range
        raise InputFileError(f"entry {_echo(value)} is beyond float range") from exc


def _parse_matrix(rows, backend: Backend, warned, what: str) -> Matrix:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise InputFileError(f"{what} must be a non-empty list of rows")
    if any(not r for r in rows):
        raise InputFileError(f"{what} has an empty row")
    try:
        return Matrix([[_parse_entry(x, backend, warned) for x in row] for row in rows], backend)
    except InputFileError:
        raise
    except ValueError as exc:
        raise InputFileError(f"bad {what}: {exc}") from exc


def _parse_vector(entries, backend: Backend, warned, what: str) -> tuple:
    if not isinstance(entries, list) or not entries:
        raise InputFileError(f"{what} must be a non-empty list")
    return tuple(_parse_entry(x, backend, warned) for x in entries)


def load_system_file(path, backend: Backend = Backend.EXACT) -> SystemFile:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past int()'s digit limit
        raise InputFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputFileError("top level must be an object")
    warned = [False]
    name = raw.get("name", Path(path).stem)
    A = b = c = matrix = None
    if "A" in raw:
        A = _parse_matrix(raw["A"], backend, warned, "A")
        if not A.is_square():
            raise InputFileError("A must be square")
    if "matrix" in raw:
        matrix = _parse_matrix(raw["matrix"], backend, warned, "matrix")
    if "b" in raw:
        b = _parse_vector(raw["b"], backend, warned, "b")
        if A is not None and len(b) != A.rows:
            raise InputFileError("b length does not match A")
    if "c" in raw:
        c = _parse_vector(raw["c"], backend, warned, "c")
        if A is not None and len(c) != A.rows:
            raise InputFileError("c length does not match A")
    if A is None and matrix is None:
        raise InputFileError("file carries neither a system (A, c) nor a bare matrix")
    return SystemFile(str(name), A, b, c, matrix, str(raw.get("notes", "")))


_LOG2_5 = math.log2(5)


def _decimal_exponents(den: int) -> tuple[int, int] | None:
    """(a, f) with den = 2^a 5^f, or None when den has another prime factor.

    f is read off the bit length of the odd part: the only power of 5 with
    bit length L is 5^f with f = ceil((L-1) / log2 5), and one comparison
    with it confirms or rules out a power of 5.
    """
    twos = (den & -den).bit_length() - 1  # trailing zero bits: the factors 2
    odd = den >> twos
    if odd == 1:
        return twos, 0
    if odd % 5:
        return None
    bits = odd.bit_length()
    fives = math.ceil((bits - 1) / _LOG2_5)
    power = 5 ** fives
    # these run only if float rounding put the estimate off
    while power.bit_length() < bits:
        power, fives = power * 5, fives + 1
    while power.bit_length() > bits:
        power, fives = power // 5, fives - 1
    return (twos, fives) if power == odd else None


def _scaled_text(scaled: int, digits: int) -> str:
    """The shortest decimal of scaled / 10^digits: trailing zeros of its
    fraction are dropped, so an unreduced numerator prints as its reduced
    value does."""
    if digits == 0:
        return int_text(scaled)
    sign = "-" if scaled < 0 else ""
    body = int_text(abs(scaled)).rjust(digits + 1, "0")
    frac = body[-digits:].rstrip("0")
    return f"{sign}{body[:-digits]}.{frac}" if frac else f"{sign}{body[:-digits]}"


def render_value(x) -> str:
    """Full-precision text for one scalar; exact decimals when they terminate."""
    if isinstance(x, Fraction):
        exponents = _decimal_exponents(x.denominator)
        if exponents is None:
            return f"{int_text(x.numerator)}/{int_text(x.denominator)}"
        return next(_decimal_texts((x.numerator,), *exponents, 0, 0))
    return repr(x)


def _sample_texts(samples):
    """``render_value`` of each sample.  Float samples are their ``repr``.
    Exact samples render from their integer numerators when D_b dens[0] and
    D_A (``ExactSamples``) are products of 2s and 5s: sample t has the
    exponents of D_b dens[0] plus t-1 times those of D_A (``_decimal_texts``);
    dens[0] is D_c, or D_c D_A^s for samples read s rows late."""
    if not isinstance(samples, ExactSamples):
        return map(repr, samples)
    dens = samples.dens
    base = _decimal_exponents(samples.db * dens[0])
    step = _decimal_exponents(dens[1] // dens[0]) if len(dens) > 1 else (0, 0)
    if base is None or step is None:
        return map(render_value, samples)
    return _decimal_texts(samples.nums, *base, *step)


def _decimal_texts(nums, twos: int, fives: int, dtwos: int, dfives: int):
    """The shortest decimal of num / (2^(twos + t dtwos) 5^(fives + t dfives))
    for the t-th numerator (from t = 0).

    With d = max of the two exponents, the value is the integer
    num 5^(d-fives) 2^(d-twos) over 10^d (``_scaled_text``); the power of 5
    is carried from row to row instead of raised afresh.
    """
    power, have = 1, 0  # power = 5^have
    for num in nums:
        digits = max(twos, fives)
        need = digits - fives
        if need > have:
            power *= 5 ** (need - have)
        elif need < have:
            power //= 5 ** (have - need)
        have = need
        yield _scaled_text(num * power << (digits - twos), digits)
        twos += dtwos
        fives += dfives


def write_traces(out_dir, per_system: list[SystemVerdict], targets: tuple[str, ...]) -> list[str]:
    """One ``target,r,beta,t,g`` CSV of the samples each system's analysis
    holds, written whole with ``\\r\\n`` lines, beta as ``1 2`` or ``full``;
    ``targets[i]`` is the target of ``per_system[i]``.  A block runs to the
    horizon, or to t_bad for a system whose samples carry both strict signs
    (``lti.analyse``).  With no systems, an earlier run's is removed."""
    path = Path(out_dir) / "traces.csv"
    if not per_system:
        path.unlink(missing_ok=True)
        return []
    lines = ["target,r,beta,t,g\r\n"]
    for target, sv in zip(targets, per_system, strict=True):
        beta = " ".join(map(str, sv.beta.elems)) if sv.beta is not None else "full"
        head = f"{target},{sv.r},{beta},"
        lines += (f"{head}{t},{text}\r\n"
                  for t, text in enumerate(_sample_texts(sv.verdict.samples), 1))
    path.write_text("".join(lines), newline="")
    return [path.name]


def _verdict_dict(sv: SystemVerdict) -> dict:
    v = sv.verdict
    return {
        "r": sv.r,
        "k": sv.k,
        "beta": list(sv.beta.elems) if sv.beta is not None else None,
        "relaxed": sv.relaxed,
        "status": v.status.value,
        "tail_start": v.tail_start,
        "first_violation": (
            [v.first_violation[0], render_value(v.first_violation[1])]
            if v.first_violation else None),
        "notes": list(v.notes),
    }


def certificate_dict(cert: Certificate) -> dict:
    """The report's certificate, with its parts keyed by target or else its systems."""
    out = {"property": cert.property_name, "target": cert.target,
           "conclusion": cert.conclusion.value, "notes": list(cert.notes)}
    if cert.parts:
        out.update((part.target, certificate_dict(part)) for part in cert.parts)
    else:
        out.update(common_sign=cert.common_sign, horizon=cert.horizon,
                   systems=[_verdict_dict(sv) for sv in cert.per_system])
    return out


def write_report(out_dir, payload: dict, environment: dict,
                 certificate: Certificate | None = None) -> Path:
    """``report.json``, and the traces of the certificate's systems or its parts'."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    certs = () if certificate is None else certificate.parts or (certificate,)
    traces = write_traces(out_dir, [sv for cert in certs for sv in cert.per_system],
                          tuple(cert.target for cert in certs for _ in cert.per_system))
    report = {"certificate": payload, "environment": environment, "traces": traces}
    path = out_dir / "report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
