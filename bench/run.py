"""ectuner benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload tune-default --seed 1 --seconds 30 --trace 0

A run is a closed loop of rounds with a single client.  Each round first
builds the workload's inputs from ``--seed`` (timed, for ``setup_s``), then
runs one operation in a fresh worker process (``worker.py``), which drives
``ectuner.cli.main`` with the argv a user would type.  Every time is paced:
scaled to the machine's nominal speed by ``pace.Pace``, which samples that
speed while the timed section runs.  Rounds repeat while
another round would end nearer to ``--seconds`` than stopping; then the
outputs are checked against independent recomputations.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``setup_s``, ``peak_rss_mb``, ``gain``).  With ``--trace 1`` a round runs one
untraced and one traced operation, and the metrics are the per-layer ones
from the traced operations' spans, plus the tracing overhead.  Inputs and
outputs live under ``bench/_work/`` and are removed at the end; the result
and span files stay under ``bench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import pace
import tracing
from checks import CheckFailed
from common import BENCH_DIR, ProgramMissing, digest_tree, import_program, run_cli
from workloads import WORKLOADS, Context

# Each round builds the inputs at least once and until SETUP_BATCH_S have
# passed, so a set-up of milliseconds is still timed over many builds.
SETUP_BATCH_S = 1.0
# A run must end within 180 s: operations may start until RUN_LIMIT_S less the
# time kept for the output checks.
RUN_LIMIT_S = 170
VERIFY_BUDGET_S = 30


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _build_inputs(workload, inputs: str, seed: int) -> tuple[list[float], set[str]]:
    """One round's builds: their paced times and the digests of what they wrote."""
    times, digests = [], set()
    started = time.perf_counter()
    while not times or time.perf_counter() - started < SETUP_BATCH_S:
        shutil.rmtree(inputs, ignore_errors=True)
        os.makedirs(inputs)
        with pace.Pace() as paced:
            workload.setup(inputs, seed)
        times.append(paced.paced_s)
        digests.add(json.dumps(digest_tree(inputs)))
    return times, digests


def _run_op(work: str, commands, index: int, traced: bool, deadline: float) -> dict:
    plan_path = os.path.join(work, f"plan-{index:03d}.json")
    result_path = os.path.join(work, f"result-{index:03d}.json")
    with open(plan_path, "w") as fh:
        json.dump(
            {
                "index": index,
                "commands": commands,
                "op_dir": os.path.join(work, "ops", f"{index:03d}"),
                "trace": traced,
                "spans": os.path.join(work, f"spans-{index:03d}.jsonl"),
            },
            fh,
        )
    subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), plan_path, result_path],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        timeout=max(1.0, deadline - time.perf_counter()),
        check=True,
    )
    with open(result_path) as fh:
        return json.load(fh)


def _verify(workload, cli, work: str, ops: list[dict], problems: list[str]) -> float:
    reference = ops[0]["digests"]
    for op in ops[1:]:
        if op["digests"] != reference:
            problems.append(f"operation {op['index']} wrote other bytes than operation 0")
    good = [op for op in ops if all(rc == 0 for rc in op["rcs"])]
    if not good:
        problems.append("no operation succeeded")
        return 0.0
    scratch = os.path.join(work, "verify")
    os.makedirs(scratch)
    ctx = Context(
        os.path.join(work, "inputs"),
        os.path.join(work, "ops", f"{good[0]['index']:03d}"),
        scratch,
        lambda argv: run_cli(cli.main, argv),
    )
    try:
        return workload.verify(ctx)
    except CheckFailed as exc:
        problems.append(str(exc))
    except Exception:  # noqa: BLE001 - output the checks cannot read is wrong output
        problems.append(traceback.format_exc())
    return 0.0


def run(args: argparse.Namespace, cli, work: str, out_base: str) -> dict:
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S - VERIFY_BUDGET_S
    workload = WORKLOADS[args.workload]
    commands = workload.commands(args.seed)
    inputs = os.path.join(work, "inputs")
    round_modes = (False, True) if args.trace else (False,)
    setup_times: list[float] = []
    input_digests: set[str] = set()
    ops: list[dict] = []
    while True:
        round_started = time.perf_counter()
        times, digests = _build_inputs(workload, inputs, args.seed)
        setup_times += times
        input_digests |= digests
        for traced in round_modes:
            ops.append(_run_op(work, commands, len(ops), traced, deadline))
        # Another round if it would end nearer to --seconds than stopping now.
        now = time.perf_counter()
        if now - started + (now - round_started) / 2 >= args.seconds:
            break

    problems: list[str] = []
    if len(input_digests) != 1:
        problems.append("the same seed built different inputs")
    failed = sum(1 for op in ops if any(rc != 0 for rc in op["rcs"]))
    gain = _verify(workload, cli, work, ops, problems)

    if args.trace:
        with open(out_base + ".spans.jsonl", "w") as out:
            for op in ops:
                if op["traced"]:
                    with open(os.path.join(work, f"spans-{op['index']:03d}.jsonl")) as fh:
                        out.write(fh.read())
        plain = statistics.median(op["paced_s"] for op in ops if not op["traced"])
        traced = statistics.median(op["paced_s"] for op in ops if op["traced"])
        spans = tracing.read_spans(out_base + ".spans.jsonl")
        metrics = tracing.layer_metrics(spans, traced - plain)
    else:
        metrics = {
            "wall_s": _metric(statistics.median(op["paced_s"] for op in ops), "s"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": _metric(
                statistics.median(op["peak_rss_kb"] for op in ops) / 1024, "MB"
            ),
            "gain": _metric(gain, "ratio"),
        }
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    with open(out_base + ".json", "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "setup_s": setup_times,
                "ops": [
                    {
                        k: op[k]
                        for k in ("index", "traced", "wall_s", "paced_s", "probes",
                                  "peak_rss_kb", "rcs")
                    }
                    for op in ops
                ],
                "problems": problems,
                "metrics": metrics,
            },
            fh,
            indent=2,
        )
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_program()
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(BENCH_DIR, "_out")
    work = os.path.join(BENCH_DIR, "_work", f"{tag}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work)
    try:
        summary = run(args, cli, work, os.path.join(out_dir, tag))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"bench: worker did not finish: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
