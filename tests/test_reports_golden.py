"""Golden digests of exact-mode `varsign certify` outputs on the fixtures.

Each case runs the CLI and compares sha256 digests of its `report.json` and
of every trace CSV against `tests/golden_reports.json`.  Certificate-level
`notes` (including those of the nested Hankel factor certificates) are
removed before digesting the report, since they are prose that may be
reworded; per-system verdicts, statuses, witnesses and traces are pinned
byte for byte.

Regenerate the table with `python tests/test_reports_golden.py --write`.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from varsign.cli import main
from varsign.fixtures import path as fixture_path

TABLE = Path(__file__).with_name("golden_reports.json")
PROPERTIES = ("svb", "vb", "kpos", "vd")


def _cases():
    for name in ("example1", "example2"):
        for k in (1, 2, 3):
            for prop in PROPERTIES:
                yield f"{name}/obsv/{prop}/k{k}", name, "obsv", prop, k
    for target in ("ctrb", "hankel"):
        for prop in PROPERTIES:
            yield f"example3/{target}/{prop}/k1", "example3", target, prop, 1


CASES = list(_cases())


def _strip_notes(cert: dict) -> dict:
    cert = {key: value for key, value in cert.items() if key != "notes"}
    for factor in ("observability", "controllability"):
        if factor in cert:
            cert[factor] = _strip_notes(cert[factor])
    return cert


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(out_dir: Path, name: str, target: str, prop: str, k: int) -> dict:
    """Exit code and per-file digests of one exact-mode certify run."""
    code = main(["certify", str(fixture_path(name)), "--property", prop, "--k", str(k),
                 "--target", target, "--arith", "exact", "--out", str(out_dir)])
    report = json.loads((out_dir / "report.json").read_text())
    report["certificate"] = _strip_notes(report["certificate"])
    files = {"report.json": _digest(json.dumps(report, indent=2, sort_keys=True).encode())}
    for trace in sorted(out_dir.rglob("trace_*.csv")):
        files[trace.relative_to(out_dir).as_posix()] = _digest(trace.read_bytes())
    return {"exit": code, "files": files}


@pytest.mark.parametrize("case_id,name,target,prop,k", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(tmp_path, capsys, case_id, name, target, prop, k):
    expected = json.loads(TABLE.read_text())[case_id]
    assert run_case(tmp_path, name, target, prop, k) == expected


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_reports_golden.py --write")
    table = {}
    for case_id, name, target, prop, k in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            table[case_id] = run_case(Path(tmp), name, target, prop, k)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
