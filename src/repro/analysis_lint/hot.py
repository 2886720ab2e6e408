"""HOT — no per-event Python in the vectorized ingest hot path.

The AST-accurate successor of the regex loop guard that used to live in
``tests/test_vectorized_identity.py``: PR 5 vectorized the whole ingest
path (numpy Horner sweeps, columnar IBLT scatters, batched storing
updates) for an ~18x serial throughput win, and a single per-event Python
loop creeping back in silently undoes it long before any benchmark fails.

Every ``for``/``while`` **statement** and every ``.tolist()`` call in the
hot files must carry a ``# scalar-ok: <reason>`` marker — the reviewable
assertion that the code is *not* per-event work (decode, construction,
per-coefficient, per-shard, snapshot views, ...).  Comprehensions and
generator expressions are exempt: the guard targets statement loops, where
per-event mutation lives.  Being AST-based, the rule sees multi-line loop
headers and is immune to strings or comments that merely look like loops.

Codes
-----
HOT201  un-annotated ``for``/``while`` statement in a hot file
HOT202  un-annotated ``.tolist()`` materialization in a hot file
"""

from __future__ import annotations

import ast

from repro.analysis_lint.core import Finding, Rule

__all__ = ["HOT_FILES", "HotPathRule", "MARKER"]

#: The marker a hot-file loop / .tolist() must carry on its header line.
MARKER = "scalar-ok"

#: The six vectorized hot files (the ingest path end to end: hashing →
#: sketches → storing → driver → in-process ingest → shard router and
#: worker frames).
HOT_FILES = (
    "repro/hashing/kwise.py",
    "repro/streaming/sketch.py",
    "repro/streaming/storing.py",
    "repro/streaming/streaming_coreset.py",
    "repro/service/shards.py",
    "repro/service/workers.py",
)


class HotPathRule(Rule):
    family = "HOT"
    description = ("per-event Python loops and .tolist() in the vectorized "
                   "hot files need an explicit '# scalar-ok: <reason>'")
    codes = {
        "HOT201": "un-annotated statement loop in a vectorized hot file",
        "HOT202": "un-annotated .tolist() in a vectorized hot file",
    }
    path_patterns = HOT_FILES

    def check_file(self, sf):
        findings = []
        for node in ast.walk(sf.tree):
            if isinstance(node, (ast.For, ast.While)):
                # The header spans the `for`/`while` line through the line
                # before the first body statement (multi-line conditions).
                header_end = max(node.lineno, node.body[0].lineno - 1)
                if not sf.span_has_marker(node.lineno, header_end, MARKER):
                    kind = "for" if isinstance(node, ast.For) else "while"
                    findings.append(Finding(
                        path=sf.rel, line=node.lineno, col=node.col_offset,
                        code="HOT201",
                        message=f"'{kind}' statement in a vectorized hot "
                                f"file: batch it, or mark the header with "
                                f"'# {MARKER}: <reason>' asserting it is "
                                f"not per-event work"))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "tolist" and not node.args:
                line = node.func.end_lineno or node.lineno
                if not sf.span_has_marker(node.lineno, line, MARKER):
                    findings.append(Finding(
                        path=sf.rel, line=line, col=node.col_offset,
                        code="HOT202",
                        message=".tolist() materializes one Python object "
                                "per element; keep the hot path in numpy, "
                                f"or mark the line with '# {MARKER}: "
                                "<reason>'"))
        return findings
