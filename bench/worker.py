"""One operation of a workload, in a process of its own.

Usage: python3 bench/worker.py PLAN_JSON RESULT_JSON

``run.py`` writes the plan (the command sequence, the operation's directory,
whether to trace it and where to put the spans) and starts one worker per
operation, the way a user starts one ``ectuner`` process per command line, so
the peak resident memory reported here belongs to that operation alone.  The
operation is the whole command sequence, each command a call to
``ectuner.cli.main`` started only after the previous one returned.  The
operation runs inside ``pace.Pace``, which gives its wall time and its time
at the machine's nominal speed.
"""

from __future__ import annotations

import json
import os
import resource
import sys

import pace
import tracing
from common import digest_tree, import_program, run_cli


def main(argv: list[str]) -> int:
    plan_path, result_path = argv
    with open(plan_path) as fh:
        plan = json.load(fh)
    cli = import_program()
    tracer = saved = None
    if plan["trace"]:
        tracer = tracing.Tracer(plan["index"])
        saved = tracing.install(tracer)
    os.makedirs(plan["op_dir"])
    os.chdir(plan["op_dir"])
    outputs = []
    with pace.Pace() as paced:
        for argv in plan["commands"]:
            span = tracer.open("cli.main") if tracer is not None else None
            rc, out, err = run_cli(cli.main, argv)
            if span is not None:
                tracer.close(span)
            outputs.append((rc, out, err))
            if rc != 0:
                break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracing.uninstall(saved)
        tracer.write(plan["spans"])
    for i, (_, out, err) in enumerate(outputs):
        with open(f"cmd-{i:02d}.stdout", "w") as fh:
            fh.write(out)
        with open(f"cmd-{i:02d}.stderr", "w") as fh:
            fh.write(err)
    result = {
        "index": plan["index"],
        "traced": tracer is not None,
        "wall_s": paced.wall_s,
        "paced_s": paced.paced_s,
        "probes": len(paced.probes),
        "peak_rss_kb": peak_kb,
        "rcs": [rc for rc, _, _ in outputs],
        "digests": digest_tree(plan["op_dir"]),
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
