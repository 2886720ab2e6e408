"""WIRE — cross-file consistency of the JSON-lines wire protocol.

The service speaks one op vocabulary, declared once
(:data:`repro.service.protocol.OPS`) and implemented twice: by the asyncio
server (``aserver.py``), which maps each op to a handler coroutine, and by
the blocking client (``client.py``).  Protocol drift between them is nasty
precisely because it is *not* an error at the wire layer — an op added to
``OPS`` but forgotten in the server passes ``decode_line`` and then finds
no handler, and a client sending an undeclared op gets a generic error
envelope.  Either way the symptom is a confused (or hung) client far from
the actual bug.  This rule makes drift a lint failure instead.

Mechanics: the rule groups files by directory around each ``protocol.py``
that assigns an ``OPS`` tuple; the sibling role files (``aserver.py``,
``client.py``) are pulled from the scanned set, or loaded from disk when
the lint invocation named only part of the group.  Handled ops are the
string keys of a handler table (a dict literal assigned to a name ending
in ``HANDLERS``) plus string literals compared against the ``op``
variable (or ``req["op"]``); client ops are literal first arguments of
``request(...)``/``_send_points(...)``.

Protocol speech is not confined to the protocol's own directory: the
coordinator fleet (``distributed/fleet.py``) drives sites through
``ServiceClient`` method calls named after wire ops.  Such a file opts
into checking with a **wire-speaker marker**::

    # repro-lint: wire-speaker=<path/to/protocol.py> ops=<op,op,...>

The path resolves relative to the speaking file; the ``ops=`` list is the
file's declared wire vocabulary.  The rule cross-checks three ways: every
declared op must still exist in the target ``OPS`` (renaming or removing
a protocol op now fails lint at each remote call site instead of raising
``AttributeError`` at run time); every op the file *speaks* — a
``request(...)`` literal or an attribute named like a known op — must be
declared; and every declared op must actually be spoken, so the marker
cannot go stale.

Codes
-----
WIRE401  op declared in OPS but not handled by the server (anchored at
         the OPS declaration, naming the offending file)
WIRE402  op handled or sent somewhere but missing from OPS (anchored at
         the stray literal)
WIRE403  op declared in OPS but not reachable from the client
WIRE404  wire-speaker drift: a marked file references an op its target
         protocol no longer declares (or the marker's target is invalid)
WIRE405  wire-speaker marker out of sync with the file: an op is spoken
         but undeclared, or declared but never spoken
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.analysis_lint.core import Finding, Rule, load_source_file

__all__ = ["WireProtocolRule"]

_SERVER_ROLES = ("aserver.py",)
_CLIENT_ROLE = "client.py"

#: ``# repro-lint: wire-speaker=<path-to-protocol.py> ops=<a,b,...>`` —
#: declares a file outside the protocol directory as a protocol speaker.
_SPEAKER = re.compile(
    r"#\s*repro-lint:\s*wire-speaker=(?P<target>\S+)\s+"
    r"ops=(?P<ops>[A-Za-z0-9_,]+)")


def _find_ops(sf):
    """The ``OPS = ("...", ...)`` assignment; returns (ops, lineno) or None."""
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.Assign) \
                and any(isinstance(t, ast.Name) and t.id == "OPS"
                        for t in node.targets) \
                and isinstance(node.value, (ast.Tuple, ast.List)):
            ops = [e.value for e in node.value.elts
                   if isinstance(e, ast.Constant) and isinstance(e.value, str)]
            if ops:
                return ops, node.lineno
    return None


def _is_op_expr(node) -> bool:
    """``op`` or ``req["op"]`` — the dispatched operation name."""
    if isinstance(node, ast.Name) and node.id == "op":
        return True
    return (isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and node.slice.value == "op")


def _string_consts(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value, sub.lineno


def _is_handler_table(node) -> bool:
    """``<...>HANDLERS = {...}`` — a dict literal mapping ops to handlers."""
    return (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
            and any(isinstance(t, ast.Name) and t.id.endswith("HANDLERS")
                    for t in node.targets))


def _handled_ops(sf) -> dict:
    """Ops the server dispatches: handler-table keys and literals compared
    against the dispatched op, ``{"query": line}``."""
    out: dict[str, int] = {}
    for node in ast.walk(sf.tree):
        if _is_handler_table(node):
            for key in node.value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    out.setdefault(key.value, key.lineno)
            continue
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        if not any(_is_op_expr(s) for s in sides):
            continue
        for s in sides:
            if _is_op_expr(s):
                continue
            for value, line in _string_consts(s):
                out.setdefault(value, line)
    return out


def _client_ops(sf) -> dict:
    """Op literals the client puts on the wire: first string argument of
    ``request(...)`` / ``_send_points(...)`` calls."""
    out: dict[str, int] = {}
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            (func.id if isinstance(func, ast.Name) else None)
        if name not in ("request", "_send_points"):
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            out.setdefault(arg.value, arg.lineno)
    return out


def _speaker_marker(sf):
    """The file's wire-speaker marker: (target, declared ops, line) or None."""
    for i, line in enumerate(sf.lines, 1):
        m = _SPEAKER.search(line)
        if m:
            ops = tuple(o.strip() for o in m.group("ops").split(",")
                        if o.strip())
            return m.group("target"), ops, i
    return None


def _attr_refs(sf, vocabulary) -> dict:
    """Attribute references whose name is in ``vocabulary``: ``{op: line}``.

    Catches both ``cli.pull_state()`` calls and bare method references
    like ``fn = cli.insert`` — anything that would break if the client
    method (named after the op) disappeared."""
    out: dict[str, int] = {}
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.Attribute) and node.attr in vocabulary:
            out.setdefault(node.attr, node.lineno)
    return out


class WireProtocolRule(Rule):
    family = "WIRE"
    description = ("every op in protocol.OPS is handled by the server "
                   "and reachable from the client; no undeclared ops; "
                   "wire-speaker files stay in sync with their protocol")
    codes = {
        "WIRE401": "op declared in OPS but unhandled by the server",
        "WIRE402": "op handled/sent but missing from protocol OPS",
        "WIRE403": "op declared in OPS but not reachable from the client",
        "WIRE404": "wire-speaker references an op absent from its protocol",
        "WIRE405": "wire-speaker marker out of sync with the ops spoken",
    }
    is_project_rule = True

    def check_project(self, files):
        by_dir: dict[Path, dict] = {}
        for sf in files:
            by_dir.setdefault(sf.path.resolve().parent, {})[sf.path.name] = sf
        findings = []
        for directory, members in sorted(by_dir.items()):
            proto = members.get("protocol.py")
            if proto is None:
                continue
            declared = _find_ops(proto)
            if declared is None:
                continue
            findings.extend(self._check_group(directory, members, proto,
                                              *declared))
        for sf in files:
            marker = _speaker_marker(sf)
            if marker is not None:
                findings.extend(self._check_speaker(sf, *marker))
        return findings

    def _check_speaker(self, sf, target, declared, marker_line):
        """Cross-check one wire-speaker file against its target protocol."""
        path = (sf.path.parent / target).resolve()
        proto = None
        if path.is_file():
            loaded = load_source_file(path)
            if not isinstance(loaded, Finding):
                proto = loaded
        found = _find_ops(proto) if proto is not None else None
        if found is None:
            yield Finding(
                path=sf.rel, line=marker_line, col=0, code="WIRE404",
                message=f"wire-speaker target {target!r} is not a readable "
                        "protocol module with an OPS tuple")
            return
        ops = set(found[0])
        for op in declared:
            if op not in ops:
                yield Finding(
                    path=sf.rel, line=marker_line, col=0, code="WIRE404",
                    message=f"wire-speaker declares op '{op}' which "
                            f"{target} no longer lists in OPS — this "
                            "file's call sites have drifted from the "
                            "protocol vocabulary")
        spoken = _attr_refs(sf, ops | set(declared))
        for op, line in _client_ops(sf).items():
            spoken.setdefault(op, line)
            if op not in ops:
                yield Finding(
                    path=sf.rel, line=line, col=0, code="WIRE404",
                    message=f"wire-speaker sends op '{op}' which is not "
                            f"declared in {target} OPS — the server will "
                            "reject it as unknown")
        for op, line in sorted(spoken.items()):
            if op not in declared:
                yield Finding(
                    path=sf.rel, line=line, col=0, code="WIRE405",
                    message=f"file speaks op '{op}' but its wire-speaker "
                            "marker does not declare it; add it to the "
                            "marker's ops= list so protocol drift checks "
                            "cover this call site")
        for op in declared:
            if op in ops and op not in spoken:
                yield Finding(
                    path=sf.rel, line=marker_line, col=0, code="WIRE405",
                    message=f"wire-speaker declares op '{op}' but the file "
                            "never speaks it; drop it from the marker's "
                            "ops= list")

    def _sibling(self, directory, members, name):
        """A role file: from the scanned set, else loaded from disk (so
        linting protocol.py alone still cross-checks the whole group)."""
        if name in members:
            return members[name]
        path = directory / name
        if path.exists():
            loaded = load_source_file(path)
            if not isinstance(loaded, Finding):
                return loaded
        return None

    def _check_group(self, directory, members, proto, ops, ops_line):
        declared = set(ops)
        for role in _SERVER_ROLES:
            sf = self._sibling(directory, members, role)
            if sf is None:
                continue
            handled = _handled_ops(sf)
            for op in ops:
                if op not in handled:
                    yield Finding(
                        path=proto.rel, line=ops_line, col=0, code="WIRE401",
                        message=f"op '{op}' is declared in OPS but never "
                                f"handled in {role}; a client sending it "
                                "passes decode_line and then finds no "
                                "handler")
            for op, line in sorted(handled.items()):
                if op not in declared:
                    yield Finding(
                        path=sf.rel, line=line, col=0, code="WIRE402",
                        message=f"{role} handles op '{op}' which is not "
                                "declared in protocol OPS — decode_line "
                                "rejects it before dispatch ever sees it")
        client = self._sibling(directory, members, _CLIENT_ROLE)
        if client is not None:
            sent = _client_ops(client)
            for op in ops:
                if op not in sent:
                    yield Finding(
                        path=proto.rel, line=ops_line, col=0, code="WIRE403",
                        message=f"op '{op}' is declared in OPS but "
                                f"{_CLIENT_ROLE} never sends it; the "
                                "protocol surface and the client API have "
                                "drifted")
            for op, line in sorted(sent.items()):
                if op not in declared:
                    yield Finding(
                        path=client.rel, line=line, col=0, code="WIRE402",
                        message=f"{_CLIENT_ROLE} sends op '{op}' which is "
                                "not declared in protocol OPS — the server "
                                "will reject it as unknown")
        return
