"""JSON loading and formatting for the command-line interface.

Scalar text forms: integers as decimal strings, rationals as "a/b" with a
positive denominator, prime-field elements as canonical residues.  Bare JSON
integers are accepted on input; output always uses the text forms.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .errors import (
    AllRowsZero,
    BadOrder,
    BadScalar,
    InputError,
    UnknownField,
    ZeroSubspace,
)
from .fields import FieldSpec
from .linalg import subspace_from_rows
from .partitions import Partition, SubspaceFamily
from .rigidity import Graph
from .symbolic import RkInstance


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def parse_field(tag: Any) -> FieldSpec:
    """"q" for the rationals, {"fp": p} for a prime field."""
    if tag == "q":
        return FieldSpec.rationals()
    if isinstance(tag, dict) and set(tag) == {"fp"}:
        p = tag["fp"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise UnknownField(f"\"fp\" must carry an integer, got {p!r}")
        return FieldSpec.prime(p)
    raise UnknownField(f"field tag {tag!r} is neither \"q\" nor {{\"fp\": p}}")


def _require(doc: Any, key: str, where: str) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise InputError(f"{where}: missing key \"{key}\"")
    return doc[key]


def _parse_vector(field: FieldSpec, raw: Any, expected_len: int, where: str) -> tuple:
    if not isinstance(raw, list) or len(raw) != expected_len:
        raise InputError(f"{where}: expected a list of {expected_len} scalars")
    out = []
    for j, token in enumerate(raw):
        try:
            out.append(field.parse(token))
        except BadScalar as exc:
            raise BadScalar(f"{where}[{j}]: {exc}") from exc
    return tuple(out)


def _field_of(doc: Any, where: str, override: FieldSpec | None) -> FieldSpec:
    if override is not None:
        return override
    return parse_field(_require(doc, "field", where))


def _list_of(doc: Any, key: str, where: str) -> list:
    raw = _require(doc, key, where)
    if not isinstance(raw, list):
        raise InputError(f"{where}: \"{key}\" must be a list")
    return raw


def _ambient_of(doc: Any, key: str, where: str) -> int:
    d = _require(doc, key, where)
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise InputError(f"{where}: \"{key}\" must be a positive integer")
    return d


def load_family(doc: Any, override: FieldSpec | None = None) -> SubspaceFamily:
    where = "family"
    field = _field_of(doc, where, override)
    d = _ambient_of(doc, "ambient_dim", where)
    members = []
    for i, rows in enumerate(_list_of(doc, "subspaces", where)):
        if not isinstance(rows, list) or not rows:
            raise InputError(f"{where}: subspace {i} must be a nonempty list of rows")
        parsed = [_parse_vector(field, row, d, f"subspace {i} row {r}")
                  for r, row in enumerate(rows)]
        try:
            members.append(subspace_from_rows(field, d, parsed))
        except AllRowsZero as exc:
            raise ZeroSubspace(f"{where}: subspace {i} spans only the zero space") from exc
    return SubspaceFamily(field, d, tuple(members))


def load_r2(doc: Any, override: FieldSpec | None = None) -> RkInstance:
    """A `rows` document of pairs {"u", "v"}, read as the order-2 tensors (u, v)."""
    where = "r2 instance"
    field = _field_of(doc, where, override)
    d = _ambient_of(doc, "ambient_dim", where)
    rows = []
    for i, entry in enumerate(_list_of(doc, "rows", where)):
        u = _parse_vector(field, _require(entry, "u", f"row {i}"), d, f"row {i} u")
        v = _parse_vector(field, _require(entry, "v", f"row {i}"), d, f"row {i} v")
        rows.append((u, v))
    return RkInstance(field, d, 2, tuple(rows))


def load_rk(doc: Any, override: FieldSpec | None = None) -> RkInstance:
    """A `tensors` document of k factors each; its order must satisfy 2 <= k < ambient_dim."""
    where = "rk instance"
    field = _field_of(doc, where, override)
    n = _ambient_of(doc, "ambient_dim", where)
    k = _require(doc, "k", where)
    if not isinstance(k, int) or isinstance(k, bool):
        raise InputError(f"{where}: \"k\" must be an integer")
    tensors = []
    for i, factors in enumerate(_list_of(doc, "tensors", where)):
        if not isinstance(factors, list) or len(factors) != k:
            raise InputError(f"{where}: tensor {i} must list exactly k = {k} factors")
        tensors.append(tuple(
            _parse_vector(field, a, n, f"tensor {i} factor {j}")
            for j, a in enumerate(factors)))
    if not 2 <= k < n:
        raise BadOrder(f"order {k} outside 2 <= k < ambient {n}")
    return RkInstance(field, n, k, tuple(tensors))


def load_graph(doc: Any) -> Graph:
    where = "graph"
    n = _require(doc, "n", where)
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InputError(f"{where}: \"n\" must be a nonnegative integer")
    edges = []
    for i, e in enumerate(_list_of(doc, "edges", where)):
        if not isinstance(e, list) or len(e) != 2 or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in e):
            raise InputError(f"{where}: edge {i} must be a pair of vertex indices")
        edges.append((e[0], e[1]))
    return Graph.from_edges(n, edges)


def format_value(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def partition_to_json(pi: Partition) -> list[list[int]]:
    return pi.to_lists()
