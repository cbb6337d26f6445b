"""``python -m causalapprox`` with the layer hooks installed.

Usage: ``tracecli.py SPANS_OUT ARGS...`` runs the CLI on ARGS and writes its
spans to SPANS_OUT. The traced run of the cli-csv workload uses it in place of
``python -m causalapprox``.
"""

import runpy
import sys

from tracing import Tracer


def main() -> int:
    spans_out = sys.argv[1]
    sys.argv = ["causalapprox"] + sys.argv[2:]
    tracer = Tracer()
    tracer.install()  # imports the hooked modules before the CLI runs
    code = 0
    try:
        runpy.run_module("causalapprox", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
