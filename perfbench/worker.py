"""Runs one workload's timed CLI steps in a process of its own, so that its
peak resident memory covers the timed steps and nothing else.

Started by ``run.py`` with the package's ``src`` on ``PYTHONPATH``. It
imports the package, prints ``ready``, reads one JSON job line from standard
input, runs passes over the job's inputs until ``seconds`` have gone by, and
prints one JSON result line. Each pass calls ``graphstage.cli.main`` once per
step over one input and writes to ``<out_root>/pass-NNNN``. The first pass
over each input keeps its outputs for the checks; a later pass records the
digest and size of its outputs and removes them.

With ``trace`` set, passes run in groups of four over one input: untraced,
traced, traced, untraced, with the wrappers installed for the traced passes
only. The result carries the per-layer figures and the tracing overhead. The
spans are written to ``spans_path`` at the end.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracing
from checks import output_digest, tree_bytes
from stub import control
from workloads import WORKLOADS, input_seed, steps

from graphstage import cli
from graphstage.generator import ALL_KINDS

MIN_ROUNDS = 2  # untraced passes over every input; a traced run needs one group of four each


def schedule(inputs: int, trace: bool):
    """(input index, traced) of pass 0, 1, 2, ... An untraced run cycles
    through the inputs, so that each input's passes spread over the whole
    run. A traced run gives each input a group of four passes in a row:
    untraced, traced, traced, untraced. Passes alternate a little in speed
    even when none is traced, and this order cancels that."""
    for index in itertools.count():
        if trace:
            yield index // 4 % inputs, index % 4 in (1, 2)
        else:
            yield index % inputs, False


def run_job(job: dict) -> dict:
    workload = WORKLOADS[job["workload"]]
    trace = job["trace"]
    endpoint = job.get("endpoint")
    corpus_dirs = [Path(d) for d in job["corpus_dirs"]] if job.get("corpus_dirs") else None
    recorder = tracing.Recorder()
    passes = []
    first_out = {}  # input index -> the output directory of its first pass
    deadline = perf_counter() + job["seconds"]
    per_round = workload.inputs * (4 if trace else 1)
    for index, (which, traced) in enumerate(schedule(workload.inputs, trace)):
        out = Path(job["out_root"]) / f"pass-{index:04d}"
        corpus_dir = corpus_dirs[which] if corpus_dirs else None
        plan = steps(workload, input_seed(job["seed"], which), out, corpus_dir, endpoint)
        if workload.stub:
            control(endpoint, "POST", "/reset")
        restore = tracing.install(recorder) if traced else None
        code = 0
        try:
            start = perf_counter()
            for step, argv in plan:
                if traced:
                    recorder.step = recorder.open(f"cli.{step}")
                try:
                    code = cli.main(argv)
                finally:
                    if traced:
                        recorder.close(recorder.step)
                        recorder.step = None
                if code != 0:
                    break
            wall = perf_counter() - start
        finally:
            if restore is not None:
                restore()
        record = {"input": which, "traced": traced, "wall_s": wall, "exit_code": code,
                  "digest": output_digest(out), "bytes": tree_bytes(out)}
        if workload.stub:
            record["stub"] = control(endpoint, "GET", "/stats")
            del record["stub"]["labels"]
        if which in first_out:
            shutil.rmtree(out, ignore_errors=True)  # the run compares its digest with the first pass's
        else:
            first_out[which] = str(out)
        passes.append(record)
        gc.collect()  # so that no pass pays for collecting another's garbage
        if code != 0:
            break
        rounds, rest = divmod(index + 1, per_round)
        if not rest and rounds >= (1 if trace else MIN_ROUNDS) and perf_counter() >= deadline:
            break

    result = {
        "passes": passes,
        "first_out": [first_out[i] for i in sorted(first_out)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        plain_walls = [p["wall_s"] for p in passes if not p["traced"]]
        layers = tracing.layer_metrics(recorder.spans, len(traced_walls), [k.label for k in ALL_KINDS])
        layers["trace.untraced_pass_s"] = statistics.median(plain_walls)
        # compare passes close in time: traced over untraced time of each
        # group of four, whose halves ran the same work within seconds
        groups = [passes[i:i + 4] for i in range(0, len(passes), 4)]
        layers["trace.overhead_fraction"] = statistics.median(
            sum(p["wall_s"] for p in g if p["traced"]) / sum(p["wall_s"] for p in g if not p["traced"])
            for g in groups
        ) - 1
        result["layers"] = layers
        recorder.write(job["spans_path"])
    return result


def main() -> int:
    protocol = sys.stdout
    sys.stdout = open(os.devnull, "w", encoding="utf-8")  # the CLI's progress lines
    protocol.write("ready\n")
    protocol.flush()
    line = sys.stdin.readline()
    if not line:
        return 0
    protocol.write(json.dumps(run_job(json.loads(line))) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
