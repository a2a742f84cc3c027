"""Traced entry point of a fairprice CLI child process.

    python3 perfbench/cli_boot.py SPANS_JSON T_SPAWN COMMAND [ARGS...]

Imports fairprice from the checkout's src (PYTHONPATH), installs the same
outside-in wrappers as the traced benchmark worker, runs ``fairprice.cli.main``
on the remaining arguments and writes its spans, plus the time from T_SPAWN
(the parent's ``time.monotonic()`` just before it started this process) to
``fairprice`` being imported, to SPANS_JSON. Exits with the CLI's exit code.
"""

import json
import sys
import time


def main():
    spans_path, t_spawn, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    import fairprice.cli

    t_imported = time.monotonic()
    from layertrace import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = fairprice.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"import_s": t_imported - t_spawn, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
