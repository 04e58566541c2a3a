"""Traced CLI call: `python cli_child.py SPANS_JSON <spherelok cli arguments>`.

Behaves like `python -m spherelok.cli <arguments>` and also records the
`cli.import` span (the import of the package), a root span
`cli.<subcommand>` around the call, and the library spans below it.  The
spans, and the time this script started running, are written to SPANS_JSON
when the call returns.
"""

import json
import sys
import time

start = time.perf_counter()
import spherelok.cli  # noqa: E402 - timed import

end = time.perf_counter()

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.record("cli.import", start, end)
    tracer.install()
    code = tracer.call(f"cli.{argv[0]}", spherelok.cli.main, (argv,), {})
    with open(spans_path, "w") as fh:
        json.dump(dict(tracer.dump(), started=start), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
