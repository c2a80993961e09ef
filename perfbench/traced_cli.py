"""Run the svdbench CLI with the tracer installed and save its span totals.

    PYTHONPATH=src python3 perfbench/traced_cli.py TRACE.json run --algo tssvd ...

The arguments after TRACE.json go to `tallskinny.cli.main` unchanged. The
per-rank totals are written to TRACE.json as JSON when the CLI returns.
"""

import json
import sys
from pathlib import Path

import tallskinny.cli
from tracer import Tracer


def main():
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    with tracer.installed():
        code = tallskinny.cli.main(argv)
    out.write_text(json.dumps(tracer.totals))
    return code


if __name__ == "__main__":
    sys.exit(main())
