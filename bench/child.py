"""One CLI command in a fresh interpreter, as a `fraclab` user runs it.

Usage: python3 bench/child.py SPEC.json

SPEC holds ``src`` (the checkout's source directory), ``argv`` (the CLI
arguments; an empty list only imports the package), ``trace`` (install the
span wrappers of ``tracer.py`` before ``cli.main``) and ``result`` (where to
write the outcome). The result JSON carries the CLOCK_MONOTONIC instants at
which ``cli.main`` was entered and left, its return code or the traceback of
an exception it raised, and, when traced, the recorded spans. CLOCK_MONOTONIC
is system-wide, so the parent subtracts its own spawn instant from ``t_main0``
to get the set-up time.
"""

import json
import sys
import time
import traceback


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    out = {"rc": None, "error": None, "spans": None}
    recorder = None
    try:
        import fraclab.cli as cli

        if spec["trace"]:
            sys.path.insert(1, spec["bench"])
            import tracer

            recorder = tracer.install()
        out["t_main0"] = _now()
        if spec["argv"]:
            if recorder is None:
                out["rc"] = cli.main(spec["argv"])
            else:
                with recorder.span("cli.main", "cli"):
                    out["rc"] = cli.main(spec["argv"])
        else:
            out["rc"] = 0
        out["t_main1"] = _now()
    except (Exception, SystemExit):  # the parent reports a failed iteration
        out["error"] = traceback.format_exc()
    if recorder is not None:
        out["spans"] = recorder.spans
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)
    return 0 if out["error"] is None and out["rc"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
