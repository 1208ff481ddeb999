"""The command-line interface end to end."""

from __future__ import annotations

import json

import pytest

from genrank.cli import build_parser, config_from_args, main
from genrank.fields import DEFAULT_PRIME, FieldSpec


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def family_path(tmp_path):
    return write(tmp_path, "family.json", {
        "field": "q", "ambient_dim": 3,
        "subspaces": [[[1, 0, 0]], [[0, 1, 0]], [[1, 1, 0]]],
    })


@pytest.fixture
def graph_path(tmp_path):
    return write(tmp_path, "k4.json", {
        "n": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
    })


def test_defaults_in_config():
    args = build_parser().parse_args(["rho", "x.json"])
    cfg = config_from_args(args)
    assert cfg.c == 1 and cfg.sfm is None and cfg.output == "json"
    args = build_parser().parse_args(["rigidity", "x.json"])
    cfg = config_from_args(args)
    assert cfg.t == 2 and cfg.prime == DEFAULT_PRIME
    assert cfg.trials == 5 and cfg.seed == 0
    args = build_parser().parse_args(["rho", "x.json", "--field", "fp:7"])
    assert config_from_args(args).field_override == FieldSpec.prime(7)


def test_rho_json_output(capsys, family_path):
    code, out, err = run_cli(capsys, "rho", family_path, "--c", "1")
    assert code == 0 and err == ""
    assert json.loads(out) == {"value": "0", "partition": [[0], [1], [2]]}


def test_rho_fractional_c_and_backend(capsys, family_path):
    for backend in ("exhaustive", "mnp"):
        code, out, _ = run_cli(capsys, "rho", family_path,
                               "--c", "1/2", "--sfm", backend)
        assert code == 0
        assert json.loads(out) == {"value": "3/2", "partition": [[0, 1, 2]]}


def test_rho_text_output(capsys, family_path):
    code, out, _ = run_cli(capsys, "rho", family_path, "--output", "text")
    assert code == 0
    assert "value: 0" in out
    assert "partition: [[0], [1], [2]]" in out


def test_rho_field_override(capsys, family_path):
    code, out, _ = run_cli(capsys, "rho", family_path, "--field", "fp:10007")
    assert code == 0
    assert json.loads(out)["value"] == "0"


def test_byte_identical_reruns(capsys, family_path, graph_path):
    first = run_cli(capsys, "rho", family_path)
    second = run_cli(capsys, "rho", family_path)
    assert first == second
    first = run_cli(capsys, "rigidity", graph_path, "--t", "3")
    second = run_cli(capsys, "rigidity", graph_path, "--t", "3")
    assert first == second


def test_pit_r2(capsys, tmp_path):
    path = write(tmp_path, "r2.json", {
        "field": "q", "ambient_dim": 4,
        "rows": [{"u": [1, 0, 0, 0], "v": [0, 1, 0, 0]},
                 {"u": [2, 0, 0, 0], "v": [4, 0, 0, 0]},
                 {"u": [0, 0, 1, 0], "v": [0, 0, 0, 1]}],
    })
    code, out, _ = run_cli(capsys, "pit-r2", path)
    assert code == 0
    assert json.loads(out) == {"rank": 2, "dropped_rows": [1]}


def test_pit_rk(capsys, tmp_path):
    path = write(tmp_path, "rk.json", {
        "field": "q", "ambient_dim": 4, "k": 3,
        "tensors": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
                    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]],
    })
    code, out, _ = run_cli(capsys, "pit-rk", path)
    assert code == 0
    assert json.loads(out) == {"rank": 2, "dropped_rows": []}


def test_pit_builds_the_family_once(capsys, tmp_path, monkeypatch):
    import genrank.symbolic as symbolic

    calls = []
    for name in ("r2_family", "rk_family"):
        original = getattr(symbolic, name)
        monkeypatch.setattr(symbolic, name,
                            lambda inst, _f=original: calls.append(inst) or _f(inst))
    r2 = write(tmp_path, "r2.json", {
        "field": "q", "ambient_dim": 3,
        "rows": [{"u": [1, 0, 0], "v": [0, 1, 0]}, {"u": [1, 0, 0], "v": [2, 0, 0]}],
    })
    rk = write(tmp_path, "rk.json", {
        "field": "q", "ambient_dim": 3, "k": 2, "tensors": [[[1, 0, 0], [0, 0, 1]]],
    })
    assert run_cli(capsys, "pit-r2", r2)[:2] == (0, '{"dropped_rows": [1], "rank": 1}\n')
    assert run_cli(capsys, "pit-rk", rk)[:2] == (0, '{"dropped_rows": [], "rank": 1}\n')
    assert len(calls) == 2


def test_rigidity_2d(capsys, graph_path):
    code, out, _ = run_cli(capsys, "rigidity", graph_path)
    assert code == 0
    assert json.loads(out) == {
        "dimension": 2, "rank": 5, "required": 5,
        "rigid": True, "dof": 0, "method": "deterministic",
    }


def test_rigidity_3d(capsys, graph_path):
    code, out, _ = run_cli(capsys, "rigidity", graph_path, "--t", "3")
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == 6 and report["rigid"] and report["method"] == "randomized"


def test_rand_rank_r2(capsys, tmp_path):
    path = write(tmp_path, "r2.json", {
        "field": "q", "ambient_dim": 3,
        "rows": [{"u": [1, 0, 0], "v": [0, 1, 0]}],
    })
    code, out, _ = run_cli(capsys, "rand-rank", path)
    assert code == 0
    assert json.loads(out) == {"rank": 1, "trials": 5, "prime": DEFAULT_PRIME}


def test_rand_rank_graph(capsys, graph_path):
    code, out, _ = run_cli(capsys, "rand-rank", graph_path, "--t", "2")
    assert code == 0
    assert json.loads(out)["rank"] == 5


def test_rand_rank_rk_with_small_prime(capsys, tmp_path):
    path = write(tmp_path, "rk.json", {
        "field": "q", "ambient_dim": 4, "k": 3,
        "tensors": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]],
    })
    code, out, _ = run_cli(capsys, "rand-rank", path, "--prime", "10007")
    assert code == 0
    assert json.loads(out) == {"rank": 1, "trials": 5, "prime": 10007}


def test_rand_rank_unrecognized_input(capsys, tmp_path):
    path = write(tmp_path, "junk.json", {"something": 1})
    code, _, err = run_cli(capsys, "rand-rank", path)
    assert code == 1 and "error" in err


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "sfm")
    assert code == 0
    assert json.loads(out) == {"seed": 0, "suites": {"sfm": "pass"}}


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nonsense")
    assert code == 1 and "unknown suite" in err


def test_input_errors_exit_1(capsys, tmp_path, family_path):
    code, _, err = run_cli(capsys, "rho", str(tmp_path / "missing.json"))
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "rho", family_path, "--c", "zebra")
    assert code == 1 and "bad --c" in err
    code, _, err = run_cli(capsys, "rho", family_path, "--field", "gf:9")
    assert code == 1
    bad = write(tmp_path, "zero.json",
                {"field": "q", "ambient_dim": 2, "subspaces": [[[0, 0]]]})
    code, _, err = run_cli(capsys, "rho", bad)
    assert code == 1 and "zero" in err


def test_nonprime_modulus_exit_1(capsys, graph_path):
    code, _, err = run_cli(capsys, "rigidity", graph_path, "--t", "3", "--prime", "10")
    assert code == 1 and "prime" in err


def test_json_output_is_sorted_and_single_line(capsys, graph_path):
    _, out, _ = run_cli(capsys, "rigidity", graph_path)
    line = out.strip()
    assert "\n" not in line
    keys = list(json.loads(line))
    assert keys == sorted(keys)
