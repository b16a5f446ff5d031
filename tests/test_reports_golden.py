"""Golden digests of exact-mode `varsign certify` outputs on the fixtures.

Each case runs the CLI and compares sha256 digests of its `report.json` and
of every system's trace against `tests/golden_reports.json`.  Each
(target, r, beta) block of `traces.csv` is digested in the byte form of a
one-system `t,g` CSV and keyed `trace_r{r}_beta{indices}.csv`, under `obsv/`
or `ctrb/` for a Hankel factor.  Two digests cover the report:
- `files["report.json"]` drops only the certificate-level `notes` (including
  those of the nested Hankel factor certificates), since they are prose that
  may be reworded; per-system verdicts, notes, statuses and witnesses are
  pinned byte for byte.
- `report_notes_free` drops every `notes` key at any depth, per-system notes
  included, so it pins every field that is not prose.  A change that only
  rewords or drops notes moves the first digest and leaves this one alone.

`FLOAT_CONCLUSIONS` pins the exit code and conclusion of every case under
`--arith float`, whose sample values may move in their last bits.

Regenerate the digest table with `python tests/test_reports_golden.py
--write`; it prints each case whose digests moved, and whether the move is
confined to notes.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from varsign.cli import main
from varsign.fixtures import path as fixture_path

from conftest import block_bytes, trace_blocks

TABLE = Path(__file__).with_name("golden_reports.json")
PROPERTIES = ("svb", "vb", "kpos", "vd")
NOTES_FREE = "report_notes_free"
HANKEL_DIRS = {"observability": "obsv/", "controllability": "ctrb/"}


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


def _drop_all_notes(value):
    """``value`` without any ``notes`` key, at any depth."""
    if isinstance(value, dict):
        return {key: _drop_all_notes(item) for key, item in value.items() if key != "notes"}
    if isinstance(value, list):
        return [_drop_all_notes(item) for item in value]
    return value


def _digest_json(value) -> str:
    return _digest(json.dumps(value, indent=2, sort_keys=True).encode())


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(out_dir: Path, name: str, target: str, prop: str, k: int) -> dict:
    """Exit code and per-file digests of one exact-mode certify run."""
    code = main(["certify", str(fixture_path(name)), "--property", prop, "--k", str(k),
                 "--target", target, "--arith", "exact", "--out", str(out_dir)])
    report = json.loads((out_dir / "report.json").read_text())
    notes_free = _digest_json(_drop_all_notes(report))
    report["certificate"] = _strip_notes(report["certificate"])
    files = {"report.json": _digest_json(report)}
    if report["traces"]:
        for (part, r, beta), rows in trace_blocks(out_dir / "traces.csv").items():
            name = f"trace_r{r}_beta{beta.replace(' ', '')}.csv"
            if target == "hankel":
                name = HANKEL_DIRS[part] + name
            files[name] = _digest(block_bytes(rows))
    return {"exit": code, "files": files, NOTES_FREE: notes_free}


def describe_moves(old_table: dict, new_table: dict) -> list[str]:
    """One line per case whose record differs between two golden tables.

    A line names what moved: the exit code, the report digest, the
    notes-free report digest and each trace digest.  A case whose report
    digest alone moved is marked notes-only.
    """
    lines = []
    for case_id in sorted(old_table.keys() | new_table.keys()):
        old, new = old_table.get(case_id), new_table.get(case_id)
        if old == new:
            continue
        if old is None or new is None:
            lines.append(f"{case_id}: case {'added' if old is None else 'removed'}")
            continue
        moved = []
        if old["exit"] != new["exit"]:
            moved.append(f"exit {old['exit']} -> {new['exit']}")
        if old["files"].get("report.json") != new["files"].get("report.json"):
            moved.append("report.json")
        if old.get(NOTES_FREE) != new.get(NOTES_FREE):
            moved.append("notes-free report.json")
        traces = sorted(name for name in old["files"].keys() | new["files"].keys()
                        if name != "report.json" and old["files"].get(name) != new["files"].get(name))
        moved.extend(f"trace {name}" for name in traces)
        if moved == ["report.json"]:
            moved.append("notes only: notes-free and trace digests unchanged")
        lines.append(f"{case_id}: moved {'; '.join(moved)}")
    return lines


@pytest.mark.parametrize("case_id,name,target,prop,k", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(tmp_path, capsys, case_id, name, target, prop, k):
    expected = json.loads(TABLE.read_text())[case_id]
    assert run_case(tmp_path, name, target, prop, k) == expected


# (exit code, conclusion) of every case under --arith float, recorded with
# the state-propagation float sampler, so that a change of sampler cannot
# move a float conclusion unseen
FLOAT_CONCLUSIONS = {
    "example1/obsv/svb/k1": (0, "certified"),
    "example1/obsv/vb/k1": (0, "certified"),
    "example1/obsv/kpos/k1": (0, "certified"),
    "example1/obsv/vd/k1": (0, "certified"),
    "example1/obsv/svb/k2": (0, "certified"),
    "example1/obsv/vb/k2": (0, "certified"),
    "example1/obsv/kpos/k2": (0, "certified"),
    "example1/obsv/vd/k2": (0, "certified"),
    "example1/obsv/svb/k3": (1, "refuted"),
    "example1/obsv/vb/k3": (2, "inconclusive"),
    "example1/obsv/kpos/k3": (1, "refuted"),
    "example1/obsv/vd/k3": (2, "inconclusive"),
    "example2/obsv/svb/k1": (1, "refuted"),
    "example2/obsv/vb/k1": (2, "inconclusive"),
    "example2/obsv/kpos/k1": (1, "refuted"),
    "example2/obsv/vd/k1": (2, "inconclusive"),
    "example2/obsv/svb/k2": (0, "certified"),
    "example2/obsv/vb/k2": (0, "certified"),
    "example2/obsv/kpos/k2": (1, "refuted"),
    "example2/obsv/vd/k2": (2, "inconclusive"),
    "example2/obsv/svb/k3": (1, "refuted"),
    "example2/obsv/vb/k3": (2, "inconclusive"),
    "example2/obsv/kpos/k3": (1, "refuted"),
    "example2/obsv/vd/k3": (2, "inconclusive"),
    "example3/ctrb/svb/k1": (1, "refuted"),
    "example3/ctrb/vb/k1": (2, "inconclusive"),
    "example3/ctrb/kpos/k1": (1, "refuted"),
    "example3/ctrb/vd/k1": (2, "inconclusive"),
    "example3/hankel/svb/k1": (2, "inconclusive"),
    "example3/hankel/vb/k1": (2, "inconclusive"),
    "example3/hankel/kpos/k1": (2, "inconclusive"),
    "example3/hankel/vd/k1": (2, "inconclusive"),
}


@pytest.mark.parametrize("case_id,name,target,prop,k", CASES, ids=[c[0] for c in CASES])
def test_float_conclusion_matches_table(tmp_path, capsys, case_id, name, target, prop, k):
    code = main(["certify", str(fixture_path(name)), "--property", prop, "--k", str(k),
                 "--target", target, "--arith", "float", "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    assert (code, report["certificate"]["conclusion"]) == FLOAT_CONCLUSIONS[case_id]


def test_describe_moves_tells_notes_only_moves_apart():
    case = {"exit": 0, "files": {"report.json": "r", "trace_a.csv": "a"}, NOTES_FREE: "f"}

    def moved(**changes):
        new = dict(case, **changes)
        return describe_moves({"c": case}, {"c": new})

    assert moved() == []
    assert moved(files={"report.json": "r2", "trace_a.csv": "a"}) == [
        "c: moved report.json; notes only: notes-free and trace digests unchanged"]
    assert moved(files={"report.json": "r2", "trace_a.csv": "a2"}, **{NOTES_FREE: "f2"}) == [
        "c: moved report.json; notes-free report.json; trace trace_a.csv"]
    assert moved(exit=1) == ["c: moved exit 0 -> 1"]
    assert describe_moves({}, {"c": case}) == ["c: case added"]


if __name__ == "__main__":
    import io
    import tempfile
    from contextlib import redirect_stdout

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_reports_golden.py --write")
    old = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    table = {}
    for case_id, name, target, prop, k in CASES:
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
            table[case_id] = run_case(Path(tmp), name, target, prop, k)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    moves = describe_moves(old, table)
    print("\n".join(moves) if moves else "no digest moved")
    print(f"{len(moves)} of {len(table)} cases moved; wrote {TABLE}")
