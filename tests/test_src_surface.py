"""The library carries no code that only tests call.

A scan of ``src/repro``: every top-level function and class, every
method of a top-level class and every module constant must be named by
some other ``src`` code. A name counts as used where it appears as an
identifier (a name, an attribute, an import or a keyword argument) or
as a word of a string literal (registry keys, ``getattr`` names and
ledger patches are strings), outside the definition's own lines.
Docstrings, comments and ``__all__`` lists do not count: prose that
mentions a helper is not a caller, and a re-export list is not a use.

Classes registered with ``@register_target`` count as used (the
registry loads them by name). Anything else that stays although no
``src`` code calls it is listed in :data:`ALLOWED` with its reason.
The scan is by name, so a method that shares its name with another
``src`` attribute passes unseen; it is a floor, not a proof.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Definitions no ``src`` code calls that stay, each with its reason.
ALLOWED: dict[str, str] = {
    # Paper figures and benchmarks.
    "repro.analysis.comparison.figure11_maps": (
        "Fig. 11 maps: bench_fig11_coverage_map.py and"
        " examples/fuzzer_shootout.py"
    ),
    "repro.analysis.experiments.SeedSweepResult.coverage_is_stable": (
        "read by bench_coverage_proxy.py"
    ),
    "repro.analysis.experiments.seed_sweep": (
        "Fig. 10 seed sweep: bench_coverage_proxy.py"
    ),
    "repro.analysis.experiments.transition_coverage_comparison": (
        "transition-coverage proxy: bench_coverage_proxy.py"
    ),
    "repro.analysis.metrics.render_ascii_curve": (
        "Figs. 8-9 curves: bench_fig8_mp_curve.py and bench_fig9_pr_curve.py"
    ),
    "repro.analysis.state_coverage.StateCoverageAnalyzer.analyze": (
        "whole-trace coverage: bench_corpus_feedback.py"
    ),
    "repro.analysis.state_coverage.packets_to_coverage": (
        "replays a packet list to its coverage: bench_corpus_feedback.py"
    ),
    "repro.corpus.entry.entry_from_packets": "builds entries in bench_storage.py",
    "repro.targets.TARGET_NAMES": "the built-in target names: bench_multiprotocol.py",
    "repro.l2cap.packets.default_packet": (
        "Table II probes: bench_table2_wait_connect.py"
    ),
    "repro.l2cap.states.WAIT_CONNECT_TABLE": (
        "Table II rows: bench_table2_wait_connect.py and the README"
    ),
    "repro.stack.channels.ChannelManager.live_channels": (
        "bench_table2_wait_connect.py reads the parked channel"
    ),
    # Reference paths a test compares a fast path against.
    "repro.l2cap.validation.frame_violations": (
        "the full report that is_malformed and structural_reject_reason"
        " are property-checked against"
    ),
    # Tables tests iterate over every member of.
    "repro.l2cap.states.INITIATOR_ONLY_STATES": (
        "the table rows no acceptor takes; bench_fig11_coverage_map.py"
        " and the state-model property read it"
    ),
    "repro.stack.vendors.PERSONALITIES": (
        "every personality, iterated by the engine properties"
    ),
    "repro.stack.vulnerabilities.KNOWN_VULNERABILITIES": (
        "every bug model, iterated by the vulnerability tests"
    ),
    # Client methods that mirror a served route.
    "repro.service.client.ServiceClient.health": "mirrors GET /healthz",
    "repro.service.client.ServiceClient.run_metrics": (
        "mirrors GET /v1/jobs/{id}/metrics"
    ),
    "repro.service.client.ServiceClient.run_metrics_prometheus": (
        "mirrors GET /v1/jobs/{id}/metrics.prom"
    ),
    "repro.service.client.ServiceClient.service_metrics": "mirrors GET /metrics",
}


def _docstring_nodes(tree: ast.AST) -> set[int]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                found.add(id(body[0].value))
    return found


def _all_list_nodes(tree: ast.Module) -> set[int]:
    found = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            found.update(id(child) for child in ast.walk(node.value))
    return found


def _registered(node: ast.AST) -> bool:
    return any(
        isinstance(decorator, ast.Name) and decorator.id == "register_target"
        for decorator in getattr(node, "decorator_list", ())
    )


def _definitions(module: str, tree: ast.Module):
    """``(qualified name, name, first line, last line, registered)``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield (
                f"{module}.{node.name}",
                node.name,
                node.lineno,
                node.end_lineno,
                _registered(node),
            )
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield (
                            f"{module}.{node.name}.{member.name}",
                            member.name,
                            member.lineno,
                            member.end_lineno,
                            False,
                        )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield (
                            f"{module}.{name.id}",
                            name.id,
                            node.lineno,
                            node.end_lineno,
                            False,
                        )


def _uses(tree: ast.Module):
    """``(name, line)`` for every identifier and string-literal word."""
    skipped = _docstring_nodes(tree) | _all_list_nodes(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module:
            for part in node.module.split("."):
                yield part, node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.value.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
        ):
            for word in _WORD.findall(node.value):
                yield word, node.lineno


@functools.cache
def unused_definitions() -> frozenset[str]:
    """Qualified names of ``src`` definitions no other ``src`` code names."""
    definitions = []
    uses: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        definitions += [(path, *row) for row in _definitions(module, tree)]
        for name, line in _uses(tree):
            uses[name].append((path, line))
    unused = []
    for path, qualified, name, first, last, registered in definitions:
        if registered or (name.startswith("__") and name.endswith("__")):
            continue
        if any(
            where != path or not first <= line <= last
            for where, line in uses.get(name, ())
        ):
            continue
        unused.append(qualified)
    return frozenset(unused)


def test_no_src_definition_is_unused():
    unexpected = sorted(unused_definitions() - set(ALLOWED))
    assert not unexpected, (
        "src definitions that no other src code calls (delete them, or"
        f" add them to ALLOWED with the reason they stay): {unexpected}"
    )


def test_allowlist_is_current_and_explained():
    stale = sorted(set(ALLOWED) - unused_definitions())
    assert not stale, f"ALLOWED entries that src now uses or lost: {stale}"
    assert all(reason.strip() for reason in ALLOWED.values())
