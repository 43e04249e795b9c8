"""One benchmark op in a fresh process: import ``pbal.cli``, run ``main(argv)``.

Usage: ``python3 -m perfbench.op RESULT_JSON TRACE [ARG ...]``.  With no
``ARG`` the process only imports the CLI (a set-up probe).  The result file
holds monotonic-clock stamps (``ready`` once ``pbal.cli`` is imported,
``start``/``end`` around ``main``), the exit code or the exception, and, when
``TRACE`` is ``1``, the op's spans and counters.
"""

import json
import sys
import time
import traceback

import pbal.cli

READY = time.monotonic()


def run(result_path, trace, argv):
    record = {"ready": READY, "cli_file": pbal.cli.__file__}
    if argv:
        recorder = None
        if trace:
            from perfbench import tracing

            recorder = tracing.Recorder()
            tracing.install(recorder)
        record["start"] = time.monotonic()
        try:
            record["rc"] = pbal.cli.main(argv)
        except Exception:  # the op fails; run.py reports the traceback
            record["error"] = traceback.format_exc()
        record["end"] = time.monotonic()
        if recorder is not None:
            record["spans"] = recorder.spans
            record["counts"] = dict(recorder.counts)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    run(sys.argv[1], sys.argv[2] == "1", sys.argv[3:])
