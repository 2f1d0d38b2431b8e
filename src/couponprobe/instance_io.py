"""Reading and writing the textual instance format.

A file holds one instance as directive lines, in any order; '#' starts a
comment anywhere:

    nodes 5
    edge 0 1 0.4          # source target probability
    coupons 1.0 2.0       # strictly increasing positive values
    attract 0.3 0.7       # one row per user, one column per coupon
    ...
    K 1
    B 3.0
    W 2                   # optional cap on distinct users probed

The loader only parses: directive names, value counts, number syntax, and
each single-valued directive appearing exactly once.  Graph and Instance
check every rule of the model; the entry their InstanceError names is mapped
back to its line, so every error carries the offending line number.
"""

from __future__ import annotations

from .influence import Graph, InstanceError
from .model import Instance

# directive -> (Graph/Instance field, token types: a tuple for a fixed count,
# a single type for any number of values)
_DIRECTIVES = {
    "nodes": ("node_count", (int,)),
    "edge": ("edges", (int, int, float)),
    "coupons": ("coupons", float),
    "attract": ("attractiveness", float),
    "K": ("K", (int,)),
    "B": ("B", (float,)),
    "W": ("W", (int,)),
}
_REPEATED = ("edge", "attract")


class InstanceFormatError(ValueError):
    def __init__(self, path: str, line: int | None, message: str):
        self.path = path
        self.line = line
        self.message = message
        where = f"{path}:{line}" if line is not None else path
        super().__init__(f"{where}: {message}")


def _parse(path: str, lineno: int, key: str, kind: type, token: str) -> int | float:
    try:
        return kind(token)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise InstanceFormatError(path, lineno, f"{key} value must be {what}, got {token!r}") from None


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()

    values: dict[str, object] = {"edge": [], "attract": []}
    where: dict[tuple[str, int | None], int] = {}  # (field, entry index or None) -> line
    for lineno, raw in enumerate(lines, 1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        key, *args = text.split()
        if key not in _DIRECTIVES:
            raise InstanceFormatError(path, lineno, f"unknown directive {key!r}")
        field, kinds = _DIRECTIVES[key]
        if key not in _REPEATED and key in values:
            raise InstanceFormatError(
                path, lineno, f"duplicate {key!r} directive; first seen on line {where[(field, None)]}"
            )
        if not isinstance(kinds, tuple):
            kinds = (kinds,) * len(args)
        elif len(args) != len(kinds):
            n = len(kinds)
            raise InstanceFormatError(path, lineno, f"{key!r} takes {n} value{'s' * (n > 1)}, got {len(args)}")
        parsed = tuple(_parse(path, lineno, key, kind, token) for kind, token in zip(kinds, args))
        if key in _REPEATED:
            where[(field, len(values[key]))] = lineno
            values[key].append(parsed)
        else:
            where[(field, None)] = lineno
            values[key] = parsed if key == "coupons" else parsed[0]

    for key in ("nodes", "coupons", "K", "B"):
        if key not in values:
            raise InstanceFormatError(path, None, f"missing required directive {key!r}")
    try:
        return Instance(
            graph=Graph(node_count=values["nodes"], edges=tuple(values["edge"])),
            coupons=values["coupons"],
            attractiveness=tuple(values["attract"]),
            K=values["K"],
            B=values["B"],
            W=values.get("W"),
        )
    except InstanceError as exc:
        line = where.get((exc.field, exc.index), where.get((exc.field, None)))
        message = str(exc)
        if exc.first is not None:
            message += f"; first seen on line {where[(exc.field, exc.first)]}"
        raise InstanceFormatError(path, line, message) from None


def save_instance(instance: Instance, path: str) -> None:
    """Write an instance back out; load_instance(save_instance(x)) == x."""
    lines = [f"nodes {instance.graph.node_count}"]
    for u, v, p in instance.graph.edges:
        lines.append(f"edge {u} {v} {p!r}")
    lines.append("coupons " + " ".join(repr(c) for c in instance.coupons))
    for row in instance.attractiveness:
        lines.append("attract " + " ".join(repr(p) for p in row))
    lines.append(f"K {instance.K}")
    lines.append(f"B {instance.B!r}")
    if instance.W is not None:
        lines.append(f"W {instance.W}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
