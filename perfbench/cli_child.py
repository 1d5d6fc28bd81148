"""One wittcoh CLI call in a fresh interpreter, optionally traced.

    python3 perfbench/cli_child.py [--trace-out PATH] -- ARGV...

Runs `wittcoh.cli.main(ARGV)` from the checkout's `src/` and exits with its
return code.  With --trace-out the layer spans of the call are written to
PATH as JSON when the call ends.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv):
    sep = argv.index("--")
    opts, cli_argv = argv[:sep], argv[sep + 1:]
    trace_out = opts[opts.index("--trace-out") + 1] if "--trace-out" in opts else None
    if trace_out is None:
        from wittcoh.cli import main as cli_main

        return cli_main(cli_argv)

    from tracing import Tracer, install

    tracer = Tracer()
    inst = install(tracer)
    try:
        rc = inst.resolve("cli", "main")(cli_argv)
    finally:
        inst.remove()
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counts": tracer.counts,
                       "hook_failures": sorted(tracer.hook_failures)}, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
