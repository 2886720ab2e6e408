"""Launch the stock ``repro serve`` entry point with layer spans installed.

Usage (from the root of a checkout)::

    python3 perfbench/traced_serve.py SPANS.npz serve --port 0 ...

Everything after the span file is handed unchanged to the program's own
CLI (``repro.cli.main``).  Before it runs, the callables in
``tracing.SERVER_TARGETS`` are wrapped where the program looks them up;
when the server stops, the spans kept in memory are written to
``SPANS.npz``.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_serve.py SPANS.npz serve [serve flags...]",
              file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import tracing
    from repro.cli import main as repro_main

    recorder = tracing.SpanRecorder()
    tracing.install(recorder)
    try:
        return repro_main(cli_args)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
