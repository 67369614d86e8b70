"""Run one `metriclab` CLI command in this process, for the benchmark.

    python3 launch.py STAMP_FILE TRACE_DIR|- -- CLI_ARGS...

Writes the monotonic clock reading taken right after `import metriclab.cli`
to STAMP_FILE, so the runner can split the command's wall time into import
and work.  With a TRACE_DIR the public calls are wrapped and their spans
are written there (see spans.py); with `-` the program runs untouched.
"""

import json
import os
import sys
import time


def main() -> int:
    stamp_file, trace_dir = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--":
        raise SystemExit("usage: launch.py STAMP_FILE TRACE_DIR|- -- CLI_ARGS...")
    cli_args = sys.argv[4:]

    import metriclab.cli

    with open(stamp_file, "w", encoding="utf-8") as fh:
        fh.write(repr(time.monotonic()))
    if trace_dir == "-":
        return metriclab.cli.main(cli_args)

    import spans

    recorder, missing = spans.install(trace_dir)
    with open(os.path.join(trace_dir, "missing_hooks.json"), "w", encoding="utf-8") as fh:
        json.dump(missing, fh)
    try:
        return metriclab.cli.main(cli_args)
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main())
