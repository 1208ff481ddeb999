"""Command-line interface.

Subcommands: rho, pit-r2, pit-rk, rigidity, rand-rank, verify.  Every run is
fully determined by its flags (plus the input file), so identical invocations
produce byte-identical output.  Exit codes: 0 success, 1 input error,
2 internal invariant violation (including failed verify suites).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from .engine import rho
from .errors import BadScalar, GenrankError, InputError, InternalInvariantError
from .fields import DEFAULT_PRIME, FieldSpec, as_fraction
from .jsonio import (
    format_value,
    load_family,
    load_graph,
    load_json,
    load_r2,
    load_rk,
    partition_to_json,
)
from .linalg import sample_vector
from .rigidity import rigidity_report
from .symbolic import (
    evaluate_r2_matrix,
    evaluate_rk_matrix,
    r2_rank_and_dropped,
    r2_to_prime,
    randomized_rank,
    rk_rank_and_dropped,
    rk_to_prime,
)


@dataclass
class RunConfig:
    """Everything that determines one CLI run."""

    command: str
    input_path: str | None = None
    c: Fraction = Fraction(1)
    sfm: str | None = None
    seed: int = 0
    trials: int = 5
    prime: int = DEFAULT_PRIME
    t: int = 2
    suite: str = "all"
    output: str = "json"
    field_override: FieldSpec | None = None


def _parse_field_flag(text: str) -> FieldSpec:
    if text == "q":
        return FieldSpec.rationals()
    if text.startswith("fp:"):
        try:
            return FieldSpec.prime(int(text[3:]))
        except ValueError as exc:
            raise InputError(f"bad --field value {text!r}") from exc
    raise InputError(f"--field must be \"q\" or \"fp:<prime>\", got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genrank",
        description="Exact partition rank of subspace families and its applications",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument("input", help="path to the JSON input file")
        p.add_argument("--output", choices=["json", "text"], default="json")

    p = sub.add_parser("rho", help="partition rank and minimal partition of a family")
    add_common(p)
    p.add_argument("--c", default="1", help="rational parameter, e.g. 1 or 3/2")
    p.add_argument("--sfm", choices=["exhaustive", "mnp"], default=None)
    p.add_argument("--field", default=None, help="override the declared field: q or fp:<prime>")

    p = sub.add_parser("pit-r2", help="deterministic rank of an order-2 symbolic matrix")
    add_common(p)
    p.add_argument("--sfm", choices=["exhaustive", "mnp"], default=None)
    p.add_argument("--field", default=None)

    p = sub.add_parser("pit-rk", help="deterministic rank of an order-k symbolic matrix")
    add_common(p)
    p.add_argument("--sfm", choices=["exhaustive", "mnp"], default=None)
    p.add_argument("--field", default=None)

    p = sub.add_parser("rigidity", help="generic rigidity report for a graph")
    add_common(p)
    p.add_argument("--t", type=int, default=2, help="embedding dimension")
    p.add_argument("--sfm", choices=["exhaustive", "mnp"], default=None)
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("rand-rank", help="randomized evaluation rank of an instance")
    add_common(p)
    p.add_argument("--t", type=int, default=2, help="embedding dimension for graph inputs")
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="run the deterministic invariant suites")
    add_common(p, with_input=False)
    p.add_argument("--suite", default="all",
                   help="all or one of: linalg, partitions, sfm, engine, symbolic, rigidity")
    p.add_argument("--seed", type=int, default=0)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command, output=args.output)
    if hasattr(args, "input"):
        cfg.input_path = args.input
    if getattr(args, "c", None) is not None:
        try:
            cfg.c = as_fraction(args.c)
        except (BadScalar, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad --c value {args.c!r}") from exc
    if getattr(args, "sfm", None) is not None:
        cfg.sfm = args.sfm
    for name in ("seed", "trials", "prime", "t", "suite"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "field", None) is not None:
        cfg.field_override = _parse_field_flag(args.field)
    return cfg


def _run_rho(cfg: RunConfig) -> dict:
    family = load_family(load_json(cfg.input_path), cfg.field_override)
    result = rho(family, cfg.c, backend=cfg.sfm)
    return {
        "value": format_value(result.value),
        "partition": partition_to_json(result.partition),
    }


def _run_pit_r2(cfg: RunConfig) -> dict:
    inst = load_r2(load_json(cfg.input_path), cfg.field_override)
    rank, dropped = r2_rank_and_dropped(inst, backend=cfg.sfm)
    return {"rank": rank, "dropped_rows": dropped}


def _run_pit_rk(cfg: RunConfig) -> dict:
    inst = load_rk(load_json(cfg.input_path), cfg.field_override)
    rank, dropped = rk_rank_and_dropped(inst, backend=cfg.sfm)
    return {"rank": rank, "dropped_rows": dropped}


def _run_rigidity(cfg: RunConfig) -> dict:
    graph = load_graph(load_json(cfg.input_path))
    report = rigidity_report(graph, t=cfg.t, backend=cfg.sfm,
                             prime=cfg.prime, trials=cfg.trials, seed=cfg.seed)
    return {
        "dimension": report.dimension,
        "rank": report.rank,
        "required": report.required,
        "rigid": report.rigid,
        "dof": report.dof,
        "method": report.method,
    }


def _run_rand_rank(cfg: RunConfig) -> dict:
    doc = load_json(cfg.input_path)
    if not isinstance(doc, dict):
        raise InputError("input must be a JSON object")
    rng = random.Random(cfg.seed)
    if "rows" in doc:
        inst = load_r2(doc, cfg.field_override)
        if inst.field.p is None:
            inst = r2_to_prime(inst, cfg.prime)
        field = inst.field
        rank_value = randomized_rank(
            lambda r: evaluate_r2_matrix(inst, sample_vector(field, inst.ambient_dim, r)),
            field, trials=cfg.trials, rng=rng)
    elif "tensors" in doc:
        inst = load_rk(doc, cfg.field_override)
        if inst.field.p is None:
            inst = rk_to_prime(inst, cfg.prime)
        field = inst.field
        k = inst.order
        rank_value = randomized_rank(
            lambda r: evaluate_rk_matrix(
                inst, [sample_vector(field, inst.ambient_dim, r) for _ in range(k - 1)]),
            field, trials=cfg.trials, rng=rng)
    elif "edges" in doc:
        from .linalg import Matrix, rank as matrix_rank
        from .rigidity import symbolic_rigidity_row

        graph = load_graph(doc)
        field = FieldSpec.prime(cfg.prime)

        def evaluate(r: random.Random) -> Matrix:
            x = [r.randrange(cfg.prime) for _ in range(cfg.t * graph.n)]
            rows = tuple(
                tuple(a % cfg.prime for a in symbolic_rigidity_row(graph, cfg.t, e, x))
                for e in graph.edges)
            return Matrix(field, rows, cfg.t * graph.n)

        rank_value = randomized_rank(evaluate, field, trials=cfg.trials, rng=rng)
    else:
        raise InputError("input is none of: r2 instance (rows), rk instance (tensors), graph (edges)")
    return {"rank": rank_value, "trials": cfg.trials, "prime": field.p}


def _run_verify(cfg: RunConfig) -> tuple[dict, int]:
    from .verify import SUITE_NAMES, run_suites

    if cfg.suite != "all" and cfg.suite not in SUITE_NAMES:
        raise InputError(f"unknown suite {cfg.suite!r}; pick all or one of {', '.join(SUITE_NAMES)}")
    names = list(SUITE_NAMES) if cfg.suite == "all" else [cfg.suite]
    results = run_suites(names, cfg.seed)
    payload = {
        "seed": cfg.seed,
        "suites": {name: ("pass" if ok else "fail") for name, (ok, _) in results.items()},
    }
    failures = {name: msgs for name, (ok, msgs) in results.items() if not ok}
    if failures:
        payload["failures"] = failures
    all_ok = not failures
    return payload, 0 if all_ok else 2


def _render(payload: dict, output: str) -> str:
    if output == "json":
        return json.dumps(payload, sort_keys=True)
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            for k in sorted(value):
                lines.append(f"{key}.{k}: {value[k]}")
        else:
            lines.append(f"{key}: {json.dumps(value) if isinstance(value, list) else value}")
    return "\n".join(lines)


def run(cfg: RunConfig) -> tuple[int, str]:
    """Execute one configured run; returns (exit_code, rendered_output)."""
    if cfg.command == "rho":
        payload, code = _run_rho(cfg), 0
    elif cfg.command == "pit-r2":
        payload, code = _run_pit_r2(cfg), 0
    elif cfg.command == "pit-rk":
        payload, code = _run_pit_rk(cfg), 0
    elif cfg.command == "rigidity":
        payload, code = _run_rigidity(cfg), 0
    elif cfg.command == "rand-rank":
        payload, code = _run_rand_rank(cfg), 0
    elif cfg.command == "verify":
        payload, code = _run_verify(cfg)
    else:
        raise InputError(f"unknown command {cfg.command!r}")
    return code, _render(payload, cfg.output)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        code, text = run(cfg)
    except InputError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except GenrankError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
