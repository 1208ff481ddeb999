"""Golden CLI outputs: stdout and exit code of fixed invocations on fixed inputs.

The inputs are written from the literals below at test time; the expected
outputs live in tests/data/cli_golden.json.  After a deliberate change of
output, rewrite that file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff: every line that changes is a changed answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from genrank.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

INPUTS = {
    "family_q": {
        "field": "q", "ambient_dim": 8,
        "subspaces": [
            [[1, 0, 0, 0, 0, 0, 0, 0]], [[0, 1, 0, 0, 0, 0, 0, 0]],
            [[1, 1, 0, 0, 0, 0, 0, 0]], [["1/2", -1, 0, 0, 0, 0, 0, 0]],
            [[0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0]],
            [[0, 0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0, 0]],
            [[0, 0, 1, 0, 1, 0, 0, 0], [0, 0, 1, "1/3", 0, 0, 0, 0]],
            [[0, 0, 2, 2, 1, 0, 0, 0], [0, 0, 0, 0, 3, 0, 0, 0]],
            [[0, 0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0]],
            [[0, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0, 0, 1]],
            [[0, 0, 0, 0, 1, 1, 1, 1], [0, 0, 0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 0, 0, 1, "-5/7"]],
            [[1, 2, 3, 4, 5, 6, 7, 8]],
            [[1, 0, 1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1, 0, 1]],
        ],
    },
    "family_fp": {
        "field": {"fp": 10007}, "ambient_dim": 8,
        "subspaces": [
            [[1, 0, 0, 0, 0, 0, 0, 0]], [[0, 1, 0, 0, 0, 0, 0, 0]],
            [[1, 1, 0, 0, 0, 0, 0, 0]], [[5004, 10006, 0, 0, 0, 0, 0, 0]],
            [[0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0]],
            [[0, 0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0, 0]],
            [[0, 0, 1, 0, 1, 0, 0, 0], [0, 0, 3, 1, 0, 0, 0, 0]],
            [[0, 0, 2, 2, 1, 0, 0, 0], [0, 0, 0, 0, 3, 0, 0, 0]],
            [[0, 0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0]],
            [[0, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0, 0, 1]],
            [[0, 0, 0, 0, 1, 1, 1, 1], [0, 0, 0, 0, 1, 10006, 0, 0], [0, 0, 0, 0, 0, 0, 9, 10000]],
            [[1, 2, 3, 4, 5, 6, 7, 8]],
            [[1, 0, 1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1, 0, 1]],
        ],
    },
    "zero_member": {"field": "q", "ambient_dim": 2, "subspaces": [[[1, 0]], [[0, 0]]]},
    "r2_q": {
        "field": "q", "ambient_dim": 4,
        "rows": [{"u": [1, 0, 0, 0], "v": [0, 1, 0, 0]},
                 {"u": [2, 0, 0, 0], "v": [4, 0, 0, 0]},
                 {"u": [0, 0, 1, 0], "v": [0, 0, 0, 1]},
                 {"u": [1, 1, 0, 0], "v": [0, "1/2", 1, 0]},
                 {"u": [0, 1, 0, 1], "v": [1, 0, 1, 0]},
                 {"u": [1, 2, 3, 4], "v": [4, 3, 2, 1]}],
    },
    "r2_fp": {
        "field": {"fp": 10007}, "ambient_dim": 5,
        "rows": [{"u": [1, 0, 0, 0, 0], "v": [0, 1, 0, 0, 0]},
                 {"u": [0, 1, 0, 0, 0], "v": [0, 2, 0, 0, 0]},
                 {"u": [0, 0, 1, 0, 0], "v": [0, 0, 0, 1, 0]},
                 {"u": [1, 1, 1, 1, 1], "v": [0, 1, 2, 3, 4]},
                 {"u": [10006, 0, 0, 0, 1], "v": [0, 0, 5, 0, 0]}],
    },
    "rk_q": {
        "field": "q", "ambient_dim": 5, "k": 3,
        "tensors": [[[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]],
                    [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]],
                    [[1, 1, 0, 0, 0], [2, 2, 0, 0, 0], [0, 0, 0, 0, 1]],
                    [[1, 0, 0, 0, 1], [0, "2/3", 0, 1, 0], [0, 0, 1, 0, 0]],
                    [[1, 2, 3, 4, 5], [5, 4, 3, 2, 1], [0, 0, 0, 0, 1]]],
    },
    "rk_fp": {
        "field": {"fp": 10007}, "ambient_dim": 6, "k": 3,
        "tensors": [[[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]],
                    [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]],
                    [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1], [1, 0, 0, 0, 0, 10006]],
                    [[0, 1, 0, 0, 1, 0], [0, 2, 0, 0, 2, 0], [1, 0, 0, 0, 0, 0]],
                    [[3, 1, 4, 1, 5, 9], [2, 6, 5, 3, 5, 8], [9, 7, 9, 3, 2, 3]]],
    },
    "prism": {"n": 6, "edges": [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5],
                                [0, 3], [1, 4], [2, 5]]},
    "bowtie": {"n": 5, "edges": [[0, 1], [1, 2], [0, 2], [2, 3], [3, 4], [2, 4]]},
    "k5": {"n": 5, "edges": [[u, v] for u in range(5) for v in range(u + 1, 5)]},
    "octahedron": {"n": 6, "edges": [[u, v] for u in range(6) for v in range(u + 1, 6)
                                     if v != u + 3]},
}

INVOCATIONS = (
    [["rho", family, "--c", c] + backend
     for family in ("{family_q}", "{family_fp}")
     for c in ("1/2", "1", "3/2", "2")
     for backend in ([], ["--sfm", "exhaustive"], ["--sfm", "mnp"])]
    + [["rho", "{family_q}", "--c", "3/2", "--output", "text"],
       ["rho", "{family_fp}", "--c", "1", "--output", "text"],
       ["rho", "{family_fp}", "--c", "3/2", "--field", "q"],
       ["rho", "{zero_member}"],
       ["pit-r2", "{r2_q}"],
       ["pit-r2", "{r2_fp}"],
       ["pit-rk", "{rk_q}"],
       ["pit-rk", "{rk_fp}"],
       ["rigidity", "{prism}", "--t", "2"],
       ["rigidity", "{bowtie}", "--t", "2"],
       ["rigidity", "{k5}", "--t", "3"],
       ["rigidity", "{octahedron}", "--t", "3"],
       ["rand-rank", "{r2_q}"],
       ["rand-rank", "{rk_fp}"],
       ["rand-rank", "{prism}", "--t", "2", "--seed", "3"],
       ["verify", "--seed", "0"]]
)


def run_all(directory: Path) -> list[dict]:
    """Write the inputs into directory and run every invocation, capturing stdout and exit code."""
    paths = {}
    for name, doc in INPUTS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    results = []
    for argv in INVOCATIONS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([arg.format(**paths) for arg in argv])
        results.append({"argv": argv, "exit": code, "stdout": out.getvalue()})
    return results


def test_cli_matches_golden_outputs(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = run_all(tmp_path)
    assert [r["argv"] for r in got] == [r["argv"] for r in expected]
    for g, e in zip(got, expected):
        assert (g["exit"], g["stdout"]) == (e["exit"], e["stdout"]), g["argv"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = run_all(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
