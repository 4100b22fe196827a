"""Times one CLI call in a fresh interpreter.

    python3 perfbench/cli_child.py <psdorder CLI arguments>

Prints one JSON line: the seconds spent importing psdorder.cli (numpy
included), the milliseconds of the call that follows, its exit code and
the JSON it would have printed.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from time import perf_counter

t0 = perf_counter()
from psdorder import cli  # noqa: E402  (the import is what is timed)

t1 = perf_counter()
buffer = io.StringIO()
with redirect_stdout(buffer):
    code = cli.run(sys.argv[1:])
t2 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "first_call_ms": (t2 - t1) * 1e3,
                  "code": code, "stdout": buffer.getvalue()}))
