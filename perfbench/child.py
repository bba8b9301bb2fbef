"""A traced `python -m phdinfluence` child.

    python child.py SPANS_OUT COMMAND [ARGS...]

runs the phdinfluence CLI on COMMAND ARGS with the tracing wrappers
installed, then writes its spans and counters to SPANS_OUT as JSON and exits
with the CLI's exit code.  The root span, cli.COMMAND, starts once this
interpreter is running and covers the import and the command.
"""

import json
import sys

from tracing import Tracer

tracer = Tracer()
spans_out, argv = sys.argv[1], sys.argv[2:]
with tracer.span(f"cli.{argv[0]}"):
    with tracer.span("cli.import"):
        from phdinfluence import cli
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
with open(spans_out, "w", encoding="utf-8") as fh:
    json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
sys.exit(code)
