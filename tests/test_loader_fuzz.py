"""Seeded random edits of the files that the loaders read: a corpus line, a
trace line (format 5, also from a frozen file), ``report.json`` and a graph file. Every
edited corpus, trace or report file either loads or fails with a
``ValueError`` that names its path and line (``<path>:<line>: …``, or
``<path>: …`` for ``report.json``); no other exception escapes. A trace file
loads the same with and without its corpus: the same traces, or the same
message. Each trace that loads writes back through ``trace_to_json`` as
standard JSON. A graph file reads the same with and without its instance's
graph: the same graph, or a ``ValueError`` of the same type and message, and
no other exception. It reads as that very graph object only while its bytes
are the ones ``generate`` wrote.

An edit deletes a key or an array element, or replaces a value with one of a
fixed set (None, bools, ints, 2.5, 10**30, Infinity, NaN, strings, arrays,
objects) or with one derived from it (an int as a float or a bool, an int
plus one, a reversed array or string). It is made at the end of a random
walk into the line, so that shallow fields are edited as often as the values
of long edge arrays; in a trace line, the walk often starts at a ``file``
record. A graph file's edits delete or repeat a line, flip its header, or
put a carriage return, a sign, a digit, an Arabic-Indic digit or a run of
nines into a line. Standard library only; about 3 s."""

import json
import random
from pathlib import Path

import pytest

from graphstage.backends import FaultBackend, FaultPlan, OracleBackend
from graphstage.cli import main
from graphstage.codec import read_el_graph_file
from graphstage.pipeline import run_corpus
from graphstage.serialize import dump_line, load_corpus, load_traces, trace_to_json

FORMAT_5_FILE = Path(__file__).parent / "fixtures" / "traces-format-5.jsonl"

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
    sources += _lines(FORMAT_5_FILE)  # a frozen file, run on the same corpus
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
        if type(without) is list:
            loaded += 1
            for trace in without:  # as standard JSON: no NaN or Infinity
                json.dumps(trace_to_json(trace), allow_nan=False)
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


GRAPH_FILE_INSERTS = ("\r", "-", "0", "\u0663", "9" * 30)  # U+0663: Arabic-Indic digit three


def _edit_graph_file(rng, text):
    """``text``, a graph file, after one to three random edits: a line
    deleted or repeated, the header flipped, or one of
    :data:`GRAPH_FILE_INSERTS` put into a line."""
    lines = text.split("\n")  # the last one is the empty one after the final newline
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        change = rng.randrange(4)
        if change == 0 and len(lines) > 1:
            del lines[i]
        elif change == 1:
            lines.insert(i, lines[i])
        elif change == 2:
            lines[0] = {"directed": "undirected", "undirected": "directed"}.get(lines[0], lines[0])
        else:
            at = rng.randint(0, len(lines[i]))
            lines[i] = lines[i][:at] + rng.choice(GRAPH_FILE_INSERTS) + lines[i][at:]
    return "\n".join(lines)


def _read_graph_file(path, weight_kind, expected, edited):
    """The graph that the file at ``path`` reads as, or the type and message
    of the ``ValueError`` that its read raises."""
    try:
        return read_el_graph_file(path, weight_kind, expected)
    except ValueError as exc:
        return type(exc), str(exc)
    except Exception as exc:  # any other exception escaped the reader
        pytest.fail(f"{type(exc).__name__} escaped the reader on {edited[:400]!r}: {exc}")


def test_edited_graph_files_read_alike_with_or_without_their_instance_graph(corpus, corpus_dir, tmp_path):
    by_kind = {}  # (directed, weighted) -> the EL instances of that kind of graph
    for inst in corpus:
        if inst.graph_file is not None:
            by_kind.setdefault((inst.graph.directed, inst.graph.weighted), []).append(inst)
    assert len(by_kind) == 4
    rng = random.Random(2029)
    path = tmp_path / "g.edges"
    loaded = 0
    for case in range(300):
        inst = rng.choice(by_kind[sorted(by_kind)[case % 4]])
        source = (corpus_dir / inst.graph_file).read_bytes()
        edited = _edit_graph_file(rng, source.decode("ascii")).encode("utf-8")
        path.write_bytes(edited)
        weight_kind = inst.kind.weight_kind
        without = _read_graph_file(path, weight_kind, None, edited)
        with_graph = _read_graph_file(path, weight_kind, inst.graph, edited)
        assert with_graph == without, edited[:400]
        assert (with_graph is inst.graph) == (edited == source), edited[:400]
        loaded += type(without) is not tuple
    assert 30 < loaded < 270  # the edits both read and fail
