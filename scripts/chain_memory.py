"""Wall time and peak resident memory of each step of the offline chain.

Runs ``generate --count N --size both --seed S``, ``run --backend oracle``,
``build-dataset`` and ``evaluate``, each in a process of its own, and prints
one line per step: its wall time and the peak resident set size of its
process, as the kernel reports it to the parent on exit (``wait4``, Unix
only). ``--count`` counts instances per task kind, of either size class,
so a run holds ``20 * N`` instances; criterion 3's size is ``--count 2000``.

Run from anywhere (standard library only)::

    python scripts/chain_memory.py --count 2000 --seed 101
    python scripts/chain_memory.py --count 2 --src /path/to/other/checkout/src

``--src`` names the package source to run, by default this checkout's
``src``; ``--out`` keeps the files in a directory, by default a temporary
one that is removed afterwards.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# ru_maxrss is in KiB on Linux and in bytes on macOS
_RSS_UNIT = 1 if sys.platform == "darwin" else 1024


def steps(count: int, seed: int, out: Path) -> list:
    """(step name, CLI arguments) of the chain over a corpus in ``out``."""
    corpus, traces = str(out / "corpus.jsonl"), str(out / "traces.jsonl")
    return [
        ("generate", ["generate", "--count", str(count), "--size", "both", "--seed", str(seed), "--out", str(out)]),
        ("run", ["run", "--corpus", corpus, "--backend", "oracle", "--out", traces]),
        ("build-dataset", ["build-dataset", "--traces", traces, "--corpus", corpus,
                           "--out", str(out / "alpaca.json"), "--stats", str(out / "stats.json")]),
        ("evaluate", ["evaluate", "--traces", traces, "--corpus", corpus, "--out", str(out / "eval")]),
    ]


def measure(argv: list, src: Path) -> tuple:
    """(wall seconds, peak RSS in bytes) of ``python -m graphstage argv``;
    a step that fails raises ``RuntimeError``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    process = subprocess.Popen([sys.executable, "-m", "graphstage", *argv], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(process.pid, 0)
    wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    if process.returncode:
        raise RuntimeError(f"graphstage {argv[0]} exited {process.returncode}")
    return wall, usage.ru_maxrss * _RSS_UNIT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, required=True, help="instances per task kind")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the package source to run")
    parser.add_argument("--out", type=Path, help="keep the files here")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="chain-") as temporary:
        out = args.out or Path(temporary)
        print(f"{'step':<14} {'wall s':>8} {'peak RSS MB':>12}")
        for name, step in steps(args.count, args.seed, out):
            wall, peak = measure(step, args.src.resolve())
            print(f"{name:<14} {wall:8.2f} {peak / 2 ** 20:12.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
