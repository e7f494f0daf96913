"""Run the shiftchaos CLI with the benchmark's tracer installed.

    python3 perfbench/cli_trace.py SPANS_JSON ARG...

ARG... are the arguments that would follow `shiftchaos`.  The spans are
written to SPANS_JSON when main returns or raises; the exit code, output
and any traceback are those of the plain command.
"""

import json
import sys

import shiftchaos.cli
from tracer import Tracer

tracer = Tracer()
tracer.install()
try:
    code = shiftchaos.cli.main(sys.argv[2:])
finally:
    with open(sys.argv[1], "w") as fh:
        json.dump(tracer.spans, fh)
sys.exit(code)
