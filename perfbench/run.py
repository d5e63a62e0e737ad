"""graphstage benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout of the repository; it imports the package from
``src/`` and writes only under ``.perfbench_work/`` there. The workloads are
described in ``workloads.py``; every metric it prints is listed, with its
unit, in ``BENCHMARK.json`` at the root of the checkout.

A run first sets up three times and reports the median set-up time: each
set-up generates the workload's input corpus from ``--seed``
(``http_fault``; ``offline_oracle`` generates its corpora in the timed
passes), starts the fault-injecting stub (``http_fault``) and starts the worker process that will run the timed CLI
steps and waits until it has imported the package. The last set-up is kept;
the worker then runs passes over the inputs for ``--seconds`` seconds (see
``worker.py``). Afterwards the first pass over each input is checked in full
(see ``checks.py``) and every later pass over it must have written the same
outputs; a wrong output makes ``correct`` false and the exit code 1.

With ``--trace 0`` the result holds the end-to-end metrics, from untraced
passes. ``instances_per_s`` takes the fastest pass over each input: on a
shared virtual machine, other tenants can slow a pass by up to half for
seconds to minutes at a time, and the fastest pass is the one they disturbed
least (see README.md). With ``--trace 1`` the
result holds the per-layer metrics, from traced passes that alternate with
untraced ones to measure the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3


class Child:
    """A helper process that talks one line at a time on its stdin/stdout."""

    def __init__(self, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def readline(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.proc.args[1]} exited with code {self.proc.wait()}")
        return line.strip()

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Setup:
    """Inputs, stub and worker of one set-up; ``close`` stops the processes."""

    def __init__(self, workload, seed: int, work: Path):
        from graphstage import cli
        from workloads import generate_argv, input_seed

        self.dir = work
        self.corpus_dirs = []
        self.stub = self.endpoint = self.worker = None
        start = perf_counter()
        try:
            if workload.corpus_in_setup:
                self.corpus_dirs = [work / f"input-{i:02d}" for i in range(workload.inputs)]
                for i, corpus_dir in enumerate(self.corpus_dirs):
                    with contextlib.redirect_stdout(sys.stderr):
                        if cli.main(generate_argv(workload.count, input_seed(seed, i), corpus_dir)) != 0:
                            raise RuntimeError("set-up corpus generation failed")
            if workload.stub:
                self.stub = Child([str(HERE / "stub.py"), "--corpus", str(self.corpus_dirs[0] / "corpus.jsonl")])
                port = self.stub.readline().split()[-1]
                self.endpoint = f"http://127.0.0.1:{port}/v1/chat/completions"
            self.worker = Child([str(HERE / "worker.py")])
            if self.worker.readline() != "ready":
                raise RuntimeError("worker did not start")
        except BaseException:
            self.close()
            raise
        self.seconds = perf_counter() - start

    def close(self) -> None:
        for child in (self.worker, self.stub):
            if child is not None:
                child.close()
        self.worker = self.stub = None


def combined_digest(digests) -> str:
    """SHA-256 over the per-input digests, in input order."""
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def file_bytes(path: Path) -> int:
    return path.stat().st_size if path.is_file() else 0


def measure(workload, seed: int, seconds: int, trace: bool, work: Path):
    """Set up, run the worker, check every pass. Returns (correct,
    attempted, failed, metric values)."""
    from checks import CheckFailed, backend_calls, check_corpus, check_pipeline, output_digest
    from stub import control
    from graphstage.generator import ALL_KINDS

    setups = []
    try:
        for r in range(SETUP_REPEATS):
            if setups:
                setups[-1].close()
                shutil.rmtree(setups[-1].dir, ignore_errors=True)
            setups.append(Setup(workload, seed, work / f"setup-{r}"))
        setup = setups[-1]
        setup.worker.send(json.dumps({
            "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
            "corpus_dirs": [str(d) for d in setup.corpus_dirs],
            "endpoint": setup.endpoint, "out_root": str(work / "passes"),
            "spans_path": str(WORK / f"spans-{workload.name}.jsonl"),
        }))
        result = json.loads(setup.worker.readline())
        labels = control(setup.endpoint, "GET", "/stats")["labels"] if workload.stub else None
    finally:
        for s in setups:
            s.close()

    passes = result["passes"]
    firsts = [Path(out) for out in result["first_out"]]
    n = len(ALL_KINDS) * workload.count  # instances per input
    attempted = failed = retained = 0
    corpus_digests, output_digests = [], []
    correct = True
    try:
        for index, p in enumerate(passes):
            if p["exit_code"] != 0:
                attempted, failed = max(attempted, n), max(failed, n)
                raise CheckFailed(f"pass {index}: a CLI step exited with code {p['exit_code']}")
        for i, out in enumerate(firsts):
            times = sum(1 for p in passes if p["input"] == i)
            if workload.corpus_in_setup:
                corpus_dir = setup.corpus_dirs[i]
                corpus_digests.append(output_digest(corpus_dir))
            else:
                corpus_dir = out  # the pass generated its corpus
            check_corpus(corpus_dir, n)
            calls, errors = backend_calls(out)
            retained += check_pipeline(corpus_dir, out, labels) * times
            # later passes over an input repeat its first pass exactly
            attempted, failed = attempted + calls * times, failed + errors * times
            reference = next(p["digest"] for p in passes if p["input"] == i)
            output_digests.append(reference)
            for index, p in enumerate(passes):
                if p["input"] == i and p["digest"] != reference:
                    raise CheckFailed(f"pass {index} wrote other outputs than the first pass over input {i}")
        if corpus_digests:
            print(f"set-up corpora sha256: {combined_digest(corpus_digests)}")
        print(f"pass outputs sha256: {combined_digest(output_digests)}")
    except CheckFailed as exc:
        correct = False
        print(f"output check failed: {exc}", file=sys.stderr)

    total = n * len(passes)
    if not trace:
        fastest = [min(p["wall_s"] for p in passes if p["input"] == i) for i in range(len(firsts))]
        values = {
            "setup_s": statistics.median(s.seconds for s in setups),
            "instances_per_s": n * len(fastest) / sum(fastest),
            "bytes_per_instance": sum(p["bytes"] for p in passes) / total,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        return correct, attempted, failed, values

    # passes over one input write the same files, apart from the latencies in the traces
    corpora = setup.corpus_dirs or firsts
    values = dict(result["layers"])
    values["serialize.corpus_bytes_per_instance"] = sum(file_bytes(d / "corpus.jsonl") for d in corpora) / (n * len(corpora))
    values["serialize.trace_bytes_per_instance"] = sum(file_bytes(d / "traces.jsonl") for d in firsts) / (n * len(firsts))
    values["dataset.alpaca_bytes_per_instance"] = sum(file_bytes(d / "alpaca.json") for d in firsts) / (n * len(firsts))
    values["dataset.retained_fraction"] = retained / total
    values["failed_fraction"] = failed / attempted if attempted else 0.0
    stub = [p["stub"] for p in passes if p["traced"] and "stub" in p]
    requests = sum(s["requests"] for s in stub)
    values["backends.http.connections_per_call"] = sum(s["connections"] for s in stub) / requests if requests else 0.0
    values["backends.http.request_bytes_per_call"] = sum(s["request_bytes"] for s in stub) / requests if requests else 0.0
    return correct, attempted, failed, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="graphstage benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "graphstage" / "cli.py").is_file():
        print(f"perfbench: no graphstage sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        correct, attempted, failed, values = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
