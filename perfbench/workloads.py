"""The benchmark's workloads: corpus sizes and the CLI steps each one times.

Both are batch jobs run as a closed loop by one process: a step starts when
the previous one has finished. ``run`` uses two worker threads.

A run's inputs are ``inputs`` small corpora, each made from its own seed
(``input_seed``), so one pass is short and the run holds many of them, while
the inputs together hold enough instances that the work of one run depends
little on the seed.

* ``offline_oracle`` times the whole offline chain over each input:
  ``generate --tasks all --size both``, ``run --backend oracle``,
  ``build-dataset`` and ``evaluate``. The generator, ``graphs.build_graph``,
  ``tools.dispatch``, the codec renderers and the writes do the first step;
  in the rest every stage parses and every trace is Correct, so this is the
  all-success path.
* ``http_fault`` times ``run --backend http``, ``build-dataset`` and
  ``evaluate`` over a corpus made in set-up, against a local
  chat-completions stub (``stub.py``) that serves fault-injected answers.
  HTTP transport dominates, and the codec, dataset and evaluation layers
  take their failure and mismatch paths. The generator does no timed work.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

# fault mix the stub serves; about 29% of instances are then not retained
FAULT_PLAN = {
    "drop_graph_edges": 0.15,
    "wrong_tool_name": 0.15,
    "swap_parameters": 0.15,
    "emit_garbage": 0.05,
}
FAULT_SEED = 7
RUN_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    count: int  # instances per task kind and input, half wl and half el
    inputs: int  # corpora per run; the stub serves one
    corpus_in_setup: bool
    stub: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("offline_oracle", 5, 8, corpus_in_setup=False, stub=False),
        Workload("http_fault", 10, 1, corpus_in_setup=True, stub=True),
    )
}


def input_seed(seed: int, index: int) -> int:
    """Seed of a run's input ``index``; distinct for every (seed, index)."""
    return seed * 1000 + index


def generate_argv(count: int, seed: int, out: Path) -> List[str]:
    return [
        "generate", "--tasks", "all", "--size", "both",
        "--count", str(count), "--seed", str(seed), "--out", str(out),
    ]


def steps(
    workload: Workload,
    seed: int,
    out: Path,
    corpus_dir: Optional[Path],
    endpoint: Optional[str],
) -> List[Tuple[str, List[str]]]:
    """(step name, CLI argv) for one timed pass over one input; every pass
    over the same input does the same work. ``seed`` is the input's seed;
    ``corpus_dir`` is its set-up corpus, or None when the pass generates it."""
    if workload.corpus_in_setup:
        return pipeline_steps(workload, out, corpus_dir, endpoint)
    return [("generate", generate_argv(workload.count, seed, out)),
            *pipeline_steps(workload, out, out, endpoint)]


def pipeline_steps(
    workload: Workload,
    out: Path,
    corpus_dir: Path,
    endpoint: Optional[str],
) -> List[Tuple[str, List[str]]]:
    """``run``, ``build-dataset`` and ``evaluate`` over the corpus in
    ``corpus_dir``, writing to ``out``."""
    corpus = str(corpus_dir / "corpus.jsonl")
    traces = str(out / "traces.jsonl")
    if workload.stub:
        backend = ["--backend", "http", "--endpoint", endpoint]
    else:
        backend = ["--backend", "oracle"]
    return [
        ("run", ["run", "--corpus", corpus, *backend, "--workers", str(RUN_WORKERS), "--out", traces]),
        ("build_dataset", ["build-dataset", "--traces", traces, "--corpus", corpus,
                           "--out", str(out / "alpaca.json"), "--stats", str(out / "stats.json")]),
        ("evaluate", ["evaluate", "--traces", traces, "--corpus", corpus, "--out", str(out / "eval")]),
    ]
