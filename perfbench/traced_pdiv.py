"""Run one `pdiv` command under the span recorder, in a fresh interpreter.

    python3 perfbench/traced_pdiv.py SPANS.json SUBCOMMAND FILE [ARGS...]

The report goes to stdout exactly as `pdiv` prints it; the spans, the import
time and the time spent inside `main` go to SPANS.json.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Recorder, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    t0 = time.perf_counter()
    import pdivisors.cli

    rec.import_s = time.perf_counter() - t0
    install(rec)
    t0 = time.perf_counter()
    try:
        code = pdivisors.cli.main(argv)
    finally:
        main_s = time.perf_counter() - t0
        sys.stdout.flush()
        table = rec.table()
        table["probes"]["main_s"] = main_s
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(table, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
