"""Seeded random edits of the files that the loaders read: a corpus line, a
trace line (format 5, and format 4) and ``report.json``. Every edited file
either loads or fails with a ``ValueError`` that names its path and line
(``<path>:<line>: …``, or ``<path>: …`` for ``report.json``); no other
exception escapes. A trace file loads the same with and without its corpus:
the same traces, or the same message.

An edit deletes a key or an array element, or replaces a value with one of a
fixed set (None, bools, ints, 2.5, 10**30, Infinity, NaN, strings, arrays,
objects) or with one derived from it (an int as a float or a bool, an int
plus one, a reversed array or string). It is made at the end of a random
walk into the line, so that shallow fields are edited as often as the values
of long edge arrays; in a trace line, the walk often starts at a ``file``
record. Standard library only; about 2 s."""

import json
import random
from pathlib import Path

import pytest

from graphstage.backends import FaultBackend, FaultPlan, OracleBackend
from graphstage.cli import main
from graphstage.pipeline import run_corpus
from graphstage.serialize import dump_line, load_corpus, load_traces, trace_to_json

FORMAT_4_FILE = Path(__file__).parent / "fixtures" / "traces-format-4.jsonl"

FIXED = (
    None, True, False, 0, 1, -1, 7, 2.5, 10**30, float("inf"), float("nan"),
    "", "x", "G:el", "N", "failure", "API_name: shortest_path", "(0, 1), (1, 100000000)", "graphs/x.edges",
    [], [0, 1], [[0, 1]], {}, {"kind": "failure", "reason": "x"}, {"directed": True, "edges": [0, 1]},
)


def _replacement(rng, value):
    """A fixed value, or half the time one derived from ``value``: one that
    equals it (an int as a float or a bool), or one of its type."""
    derived = []
    if type(value) is int:
        derived += [float(value), value + 1]
        if value in (0, 1):
            derived.append(bool(value))
    elif type(value) in (list, str):
        derived.append(value[::-1])
    return rng.choice(derived) if derived and rng.random() < 0.5 else rng.choice(FIXED)


def _edit(rng, line, focus=()):
    """``line`` (a decoded JSON object) with one random edit, made in place.
    The walk starts at the value that the keys ``focus`` lead to."""
    if rng.random() < 0.02:
        return rng.choice(FIXED)
    parent, key, node = None, None, line
    for key in focus:
        parent, node = node, node[key]
    while isinstance(node, (dict, list)) and node and (parent is None or rng.random() < 0.7):
        parent = node
        key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
        node = parent[key]
    if parent is None:  # an empty line object
        return rng.choice(FIXED)
    if rng.random() < 0.15:
        del parent[key]
    else:
        parent[key] = _replacement(rng, node)
    return line


def _outcome(load, path, prefix, edited):
    """What ``load(path)`` gives: its result, or the message of the
    ``ValueError`` it raises, which must start with ``prefix``."""
    try:
        return load(path)
    except ValueError as exc:
        assert str(exc).startswith(prefix), (edited[:400], str(exc))
        return str(exc)
    except Exception as exc:  # any other exception escaped the loader
        pytest.fail(f"{type(exc).__name__} escaped the loader on {edited[:400]}: {exc}")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["generate", "--count", "2", "--size", "both", "--seed", "4", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def corpus(corpus_dir):
    return load_corpus(corpus_dir / "corpus.jsonl")


def _lines(path):
    return [line for line in Path(path).read_text(encoding="utf-8").splitlines() if line.strip()]


def test_edited_trace_lines_load_or_name_their_line_alike_with_or_without_the_corpus(corpus, corpus_dir, tmp_path):
    oracle = OracleBackend(corpus)
    sources = [
        dump_line(trace_to_json(t))
        for backend in (oracle, FaultBackend(oracle, FaultPlan(0.2, 0.2, 0.2, 0.2), seed=11))
        for t in run_corpus(corpus, backend, base_dir=corpus_dir)
    ]
    sources += _lines(FORMAT_4_FILE)  # format 4, run on the same corpus
    rng = random.Random(2026)
    path = tmp_path / "traces.jsonl"
    loaded = 0
    for _ in range(1500):
        line = json.loads(rng.choice(sources))
        # an EL graph stage's file record, often: the corpus may stand in for it
        files = [("stages", n, "file") for n, stage in enumerate(line["stages"]) if "file" in stage]
        edited = dump_line(_edit(rng, line, rng.choice(files) if files and rng.random() < 0.5 else ()))
        path.write_text(edited + "\n", encoding="utf-8")
        without = _outcome(load_traces, path, f"{path}:1: ", edited)
        with_corpus = _outcome(lambda p: load_traces(p, corpus), path, f"{path}:1: ", edited)
        assert with_corpus == without, edited[:400]
        loaded += type(without) is list
    assert 100 < loaded < 1100  # the edits both load and fail


def test_edited_corpus_lines_load_or_name_their_line(corpus_dir, tmp_path):
    sources = _lines(corpus_dir / "corpus.jsonl")
    rng = random.Random(2027)
    path = tmp_path / "corpus.jsonl"  # no manifest beside it: every line is validated
    loaded = 0
    for _ in range(800):
        edited = dump_line(_edit(rng, json.loads(rng.choice(sources))))
        path.write_text(edited + "\n", encoding="utf-8")
        loaded += type(_outcome(load_corpus, path, f"{path}:1: ", edited)) is list
    assert 50 < loaded < 750


def test_edited_reports_render_or_name_their_file(corpus, corpus_dir, tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    backend = FaultBackend(OracleBackend(corpus), FaultPlan(0.2, 0.2, 0.2, 0.2), seed=11)
    traces.write_text("".join(dump_line(trace_to_json(t)) + "\n" for t in run_corpus(corpus, backend)),
                      encoding="utf-8")
    out = tmp_path / "report"
    assert main(["evaluate", "--traces", str(traces), "--corpus", str(corpus_dir / "corpus.jsonl"),
                 "--out", str(out)]) == 0
    source = json.loads((out / "report.json").read_text(encoding="utf-8"))
    path = out / "report.json"
    rng = random.Random(2028)
    rendered = 0
    for _ in range(250):
        edited = json.dumps(_edit(rng, json.loads(json.dumps(source))))
        path.write_text(edited, encoding="utf-8")
        capsys.readouterr()
        status = main(["report", "--in", str(out), "--format", rng.choice(("txt", "md"))])
        err = capsys.readouterr().err
        assert status in (0, 1), (edited, err)
        assert status == 0 or err.startswith(f"error: {path}: "), (edited, err)
        rendered += status == 0
    assert 25 < rendered < 225
