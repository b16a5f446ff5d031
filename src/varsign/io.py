"""JSON system files, and the evidence a run leaves under ``--out``.

Matrix entries in system files are decimal strings, which parse losslessly
into the exact backend; bare JSON numbers are accepted with a warning since
binary floats are not exact decimals.  An exact entry is parsed once, as
``Fraction`` reads it, straight to a numerator and a denominator
(``linalg.parse_ratio``), and the entries of ``A`` or of a bare matrix are
lifted into their integer rows without a ``Fraction``
(``Matrix._of_ratios``); ``Matrix.data`` and the vectors ``b`` and ``c`` of
a ``SystemFile`` stay ``Fraction``s.  Every run writes ``report.json``; a
run with compound systems writes ``traces.csv`` too, and a run without any
removes the one an earlier run left.  Exact values render as decimals
whenever the denominator allows a finite expansion, and as ``p/q`` literals
otherwise, so that exact-mode runs are reproducible bit for bit.

Both files are rewritten in place (``_rewrite``): the text is encoded once
and written through one ``os.open`` descriptor without O_TRUNC, then a
regular file (not a device such as /dev/null) is cut to the new length.  On
ext4, cutting to zero first charged tens of microseconds of system time per
file to every run into a reused ``--out``.  A crash mid-write can leave new
bytes then old ones, where truncation left a partial file; a rerun mends
either.  A system file is read as bytes and decoded as ``Path.read_text``
did, and each distinct entry string of one file is parsed once (``_Entries``).
"""

from __future__ import annotations

import _locale
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .linalg import Backend, ExponentRangeError, Matrix, int_text, parse_ratio
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


_ECHO_CHARS = 40


def _echo(value) -> str:
    """``repr(value)`` for an error message, cut to its first characters and
    a length count when long: an entry may hold thousands of digits."""
    text = repr(value)
    if len(text) <= _ECHO_CHARS:
        return text
    return f"{text[:_ECHO_CHARS]}... ({len(text)} characters)"


class _Entries(dict):
    """One file's entries, each a decimal string, int or finite float, parsed
    to its exact value as a pair of integers (``linalg.parse_ratio``), or in
    float mode that value rounded to a float.  A string is parsed at its
    first occurrence, a number each time."""

    def __init__(self, backend: Backend):
        self.exact, self.warned = backend is Backend.EXACT, False

    def __missing__(self, value):
        if isinstance(value, str):
            try:
                x = parse_ratio(value)
            except ExponentRangeError as exc:
                raise InputFileError(f"cannot parse entry {_echo(value)}: {exc}") from exc
            except (ValueError, ZeroDivisionError) as exc:
                why = " as a decimal" if isinstance(exc, ValueError) else ": zero denominator"
                raise InputFileError(f"cannot parse entry {_echo(value)}{why}") from exc
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputFileError(f"entry {_echo(value)} is not a number or decimal string")
        elif isinstance(value, float) and not math.isfinite(value):  # json.loads takes NaN
            raise InputFileError(f"entry {_echo(value)} is not a finite number")
        else:
            if isinstance(value, float) and not self.warned:
                print("warning: float entries in input file; decimal strings are exact",
                      file=sys.stderr)
                self.warned = True
            x = value.as_integer_ratio()
        if not self.exact:
            try:
                # p / q rounds once, as ``float`` of a Fraction does; a float
                # is kept, so that -0.0 keeps its sign
                x = value if type(value) is float else x[0] / x[1]
            except OverflowError as exc:  # a string or a bare JSON integer past the float range
                raise InputFileError(f"entry {_echo(value)} is beyond float range") from exc
        self[value] = x  # looked up again for a string only (``parsed``)
        return x

    def parsed(self, values, what: str) -> list:
        """The entries of a list: pairs (p, q) in exact mode, else floats."""
        if not isinstance(values, list) or not values:
            raise InputFileError(f"{what} must be a non-empty list")
        return [self[x] if type(x) is str else self.__missing__(x) for x in values]

    def vector(self, values, what: str) -> tuple:
        xs = self.parsed(values, what)
        return tuple([Fraction(*x) for x in xs] if self.exact else xs)

    def matrix(self, rows, what: str) -> Matrix:
        """The exact matrix of the rows' pairs, lifted row by row with no
        ``Fraction`` (``Matrix._of_ratios``), or the float matrix."""
        if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
            raise InputFileError(f"{what} must be a non-empty list of rows")
        if any(not r for r in rows):
            raise InputFileError(f"{what} has an empty row")
        rows = [self.parsed(row, what) for row in rows]
        try:
            return Matrix._of_ratios(rows) if self.exact else Matrix(rows, Backend.FLOAT)
        except ValueError as exc:
            raise InputFileError(f"bad {what}: {exc}") from exc


def load_system_file(path, backend: Backend = Backend.EXACT) -> SystemFile:
    try:
        with open(path, "rb", buffering=0) as f:  # fails at once on a directory, naming it
            text = f.read().decode("utf-8" if sys.flags.utf8_mode else _locale.getencoding())
        raw = json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))  # universal newlines
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # a decode error, JSONDecodeError, or an int past the digit limit
        raise InputFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputFileError("top level must be an object")
    entries = _Entries(backend)
    A = entries.matrix(raw["A"], "A") if "A" in raw else None
    if A is not None and not A.is_square():
        raise InputFileError("A must be square")
    matrix = entries.matrix(raw["matrix"], "matrix") if "matrix" in raw else None
    vectors = {}
    for v in ("b", "c"):
        if v in raw:
            vectors[v] = entries.vector(raw[v], v)
            if A is not None and len(vectors[v]) != A.rows:
                raise InputFileError(f"{v} length does not match A")
    if A is None and matrix is None:
        raise InputFileError("file carries neither a system (A, c) nor a bare matrix")
    base = os.path.basename(path)  # of a file, as ``Path(path).name``; then its ``stem``
    dot = base.rfind(".")
    name = raw.get("name", base[:dot] if 0 < dot < len(base) - 1 else base)
    return SystemFile(str(name), A, vectors.get("b"), vectors.get("c"), matrix)


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


def _rewrite(path: str, text: str) -> None:
    """Write ``text`` (ASCII) to ``path`` with the bytes, flags and mode
    (0o666 less the umask) of ``Path.write_text``, but without O_TRUNC."""
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_CLOEXEC, 0o666)
    try:
        done = 0
        while done < len(data):  # a write may take fewer bytes than it is given
            done += os.write(fd, data[done:])
        if stat.S_ISREG(os.fstat(fd).st_mode):  # as O_TRUNC, never a device
            os.ftruncate(fd, done)
    finally:
        os.close(fd)


def write_traces(out_dir, per_system: list[SystemVerdict], targets: tuple[str, ...]) -> list[str]:
    """One ``target,r,beta,t,g`` CSV of the samples each system's analysis
    holds, written whole with ``\\r\\n`` lines, beta as ``1 2`` or ``full``;
    ``targets[i]`` is the target of ``per_system[i]``.  A block runs to the
    horizon, to t_bad for a system whose samples carry both strict signs, or
    to T, never past the horizon, for a system whose tail is proved
    (``lti.analyse``): past one period of its sign pattern's zeros or at its
    lead samples, whichever is later; at its exact modal tail's start or its
    lead samples, whichever is later; or at its exact real-mode tail's
    start, its lead samples or its first ten samples, whichever is last.
    With no systems, an earlier run's is removed."""
    path = os.path.join(out_dir, "traces.csv")
    if not per_system:
        # ``os.access`` answers without raising, where ``unlink(missing_ok=True)``
        # raises and catches FileNotFoundError on every run that finds none
        if os.access(path, os.F_OK, follow_symlinks=False):
            Path(path).unlink(missing_ok=True)
        return []
    lines = ["target,r,beta,t,g\r\n"]
    for target, sv in zip(targets, per_system, strict=True):
        beta = " ".join(map(str, sv.beta.elems)) if sv.beta is not None else "full"
        head = f"{target},{sv.r},{beta},"
        lines += (f"{head}{t},{text}\r\n"
                  for t, text in enumerate(_sample_texts(sv.verdict.samples), 1))
    _rewrite(path, "".join(lines))
    return ["traces.csv"]


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
    if not os.path.isdir(out_dir):  # ``mkdir(exist_ok=True)`` raises and catches on a reused one
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    certs = () if certificate is None else certificate.parts or (certificate,)
    traces = write_traces(out_dir, [sv for cert in certs for sv in cert.per_system],
                          tuple(cert.target for cert in certs for _ in cert.per_system))
    report = {"certificate": payload, "environment": environment, "traces": traces}
    path = os.path.join(out_dir, "report.json")
    _rewrite(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return Path(path)
