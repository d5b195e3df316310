"""No library, example or benchmark code writes into a packet's fields.

A built :class:`~repro.l2cap.packets.L2capPacket` caches its wire bytes,
structural validation facts and loopback verdict and never invalidates
them, which is sound only because nothing changes a packet after it is
built. Assigning an attribute raises at run time, but ``fields`` is a
plain dict (a read-only mapping costs every build and every lookup), so
an in-place write would go unnoticed and leave the caches stale.

This scan of ``src``, ``examples`` and ``benchmarks`` fails on any
in-place write through a ``.fields`` attribute: a subscript assignment
or ``del``, an augmented assignment, or a call of a mutating dict
method. Build the packet with its final fields, or derive one with
``packet.replace(fields=...)``. The scan is by syntax: it also holds
other objects' ``.fields`` to the rule, and it cannot see a write
through a local alias of the dict.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "examples", "benchmarks")

#: The dict methods that change the dict they are called on.
MUTATING_METHODS = frozenset(
    {"update", "pop", "popitem", "clear", "setdefault", "__setitem__", "__delitem__"}
)


def _is_fields(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "fields"


def _writes(tree: ast.AST):
    """``(line, description)`` for every in-place write through ``.fields``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Delete)):
            targets = (
                node.targets
                if isinstance(node, (ast.Assign, ast.Delete))
                else [node.target]
            )
            for target in targets:
                for part in ast.walk(target):
                    if isinstance(part, ast.Subscript) and _is_fields(part.value):
                        verb = "del" if isinstance(node, ast.Delete) else "assignment"
                        yield node.lineno, f"item {verb} on .fields"
                if isinstance(node, ast.AugAssign) and _is_fields(target):
                    yield node.lineno, "augmented assignment to .fields"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and _is_fields(node.func.value)
        ):
            yield node.lineno, f".fields.{node.func.attr}()"


def in_place_field_writes(root: Path = ROOT) -> list[str]:
    """``path:line: description`` for every write under the scanned trees."""
    found = []
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for line, what in _writes(tree):
                found.append(f"{path.relative_to(root)}:{line}: {what}")
    return found


def test_no_in_place_write_to_packet_fields():
    found = in_place_field_writes()
    assert not found, (
        "packets are immutable values; build the packet with its final"
        f" fields or use packet.replace(fields=...): {found}"
    )


def test_every_write_form_is_caught():
    source = """
packet.fields["psm"] = 1
packet.fields["psm"] += 1
del packet.fields["scid"]
packet.fields |= {"psm": 1}
packet.fields.update(psm=1)
packet.fields.pop("psm")
packet.fields.popitem()
packet.fields.clear()
packet.fields.setdefault("psm", 1)
a, packet.fields["psm"] = 1, 2
"""
    lines = [line for line, _ in _writes(ast.parse(source))]
    assert sorted(lines) == list(range(2, 12))  # each write once


def test_reads_and_rebuilds_pass():
    source = """
value = packet.fields["psm"]
value = packet.fields.get("psm")
fields = dict(packet.fields)
fields["psm"] = 1
fields.update(scid=2)
packet = packet.replace(fields={**packet.fields, "psm": 1})
packet = L2capPacket(code, 1, {"psm": 1})
"""
    assert list(_writes(ast.parse(source))) == []
