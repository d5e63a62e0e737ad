"""The corpus manifest: ``generate`` writes ``corpus.sha256``, the SHA-256 of
``corpus.jsonl`` and of each EL graph file in the format of ``sha256sum``.
A corpus whose bytes match their entry is loaded without validating its
graphs again; every other load takes the validating path, with its messages.
Trusted and validated loads of the same bytes must give equal objects, and an
edited corpus must fail as it fails without a manifest.

A run reads no manifest. An EL graph file that holds exactly its instance's
graph reads as that graph object; any other file, such as an edited one or
another instance's, reads as it reads without the instance's graph.
"""

import hashlib
import json
import re
import shutil

import pytest

from graphstage import codec, serialize
from graphstage.backends import OracleBackend
from graphstage.cli import main
from graphstage.codec import read_el_graph_file
from graphstage.generator import ALL_KINDS, SizeClass, parse_instance_id
from graphstage.graphs import WeightKind
from graphstage.pipeline import INSTRUCTION_TEXTS, run_corpus, run_pipeline
from graphstage.serialize import (
    MANIFEST_NAME,
    dump_line,
    load_corpus,
    read_manifest,
)


def _generate(out, seed, count=2):
    assert main(["generate", "--count", str(count), "--size", "both", "--seed", str(seed), "--out", str(out)]) == 0
    return out


def _forbid_validation(monkeypatch):
    """Make every graph validation that the loaders call fail the test."""

    def validated(*args, **kwargs):
        raise AssertionError("a graph was validated")

    monkeypatch.setattr(serialize, "build_graph", validated)
    monkeypatch.setattr(codec, "build_graph", validated)


def _without_manifest(corpus_dir, tmp_path):
    """A copy of the corpus directory without its manifest."""
    bare = tmp_path / "bare"
    shutil.copytree(corpus_dir, bare)
    (bare / MANIFEST_NAME).unlink()
    return bare


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (OSError, ValueError) as exc:
        return "raised", type(exc), str(exc)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_trusted_reads_equal_validated_reads(tmp_path, monkeypatch, seed):
    corpus_dir = _generate(tmp_path / "corpus", seed)
    validated = load_corpus(_without_manifest(corpus_dir, tmp_path) / "corpus.jsonl")
    assert {(i.kind, i.size_class) for i in validated} == {(k, s) for k in ALL_KINDS for s in SizeClass}
    el = [i for i in validated if i.graph_file is not None]
    files = {i.graph_file: read_el_graph_file(corpus_dir / i.graph_file, i.kind.weight_kind) for i in el}
    assert files == {i.graph_file: i.graph for i in el}

    _forbid_validation(monkeypatch)
    assert load_corpus(corpus_dir / "corpus.jsonl") == validated
    # each file that generate wrote holds its instance's graph, and reads as that object
    for inst in el:
        path = corpus_dir / inst.graph_file
        assert read_el_graph_file(path, inst.kind.weight_kind, inst.graph) is inst.graph


def _pairs(corpus):
    """(instance, the graph file of another EL instance) for each cross-kind
    pairing: capacity with unweighted and back, weight with capacity, and a
    directed kind with an undirected file."""
    el = [i for i in corpus if i.graph_file is not None]

    def first(weight_kind, directed=None):
        return next(i for i in el if i.kind.weight_kind is weight_kind
                    and directed in (None, i.kind.directed))

    capacity, unweighted = first(WeightKind.CAPACITY), first(WeightKind.NONE)
    weighted = first(WeightKind.WEIGHT)
    return [(capacity, unweighted.graph_file), (unweighted, capacity.graph_file),
            (weighted, capacity.graph_file), (capacity, weighted.graph_file),
            (first(WeightKind.NONE, True), first(WeightKind.NONE, False).graph_file)]


class _NamesAnotherFile(OracleBackend):
    """The oracle, except that each EL graph stage names ``files[id]``."""

    def __init__(self, corpus, files):
        super().__init__(corpus)
        self.files = files

    def complete(self, prompt):
        instance, stage = self._instance(prompt)
        if prompt.startswith(INSTRUCTION_TEXTS["G:el"]):
            return f"The graph file path is: {self.files[instance.id]}"
        return self.gold_output(instance, stage)


def test_a_reply_naming_another_instances_file_reads_as_without_its_instance_graph(tmp_path):
    corpus_dir = _generate(tmp_path / "corpus", 4)
    corpus = load_corpus(corpus_dir / "corpus.jsonl")
    pairs = _pairs(corpus)
    reasons = []
    for inst, other in pairs:
        want = _outcome(read_el_graph_file, corpus_dir / other, inst.kind.weight_kind)
        assert _outcome(read_el_graph_file, corpus_dir / other, inst.kind.weight_kind, inst.graph) == want
        trace = run_pipeline(inst, _NamesAnotherFile(corpus, {inst.id: other}), base_dir=corpus_dir)
        parsed = trace.stages[0].parsed
        read = (want[1], None) if want[0] == "ok" else (None, f"file read: {want[2]}")
        assert (parsed.graph, parsed.reason) == read
        reasons.append(parsed.reason)
    # a capacity instance cannot read an unweighted file, nor the reverse
    assert reasons[0].startswith("file read: ") and "is missing a capacity" in reasons[0]
    assert reasons[1].startswith("file read: ") and "carries a weight" in reasons[1]
    assert reasons[2:] == [None, None, None]


def _one_byte_edit(line, make):
    """``line`` with the first edge pair for which ``make(edges, width)``
    gives an edit of one byte: the edited line's JSON, or None."""
    obj = json.loads(line)
    width = 2 if parse_instance_id(obj["id"])[0].weight_kind is WeightKind.NONE else 3
    edited = make(obj["edges"], width)
    if edited is None:
        return None
    obj["edges"] = edited
    out = dump_line(obj)
    return out if sum(a != b for a, b in zip(out, line)) == 1 and len(out) == len(line) else None


def _self_loop(edges, width):
    for at in range(0, len(edges), width):
        if edges[at] != edges[at + 1] and len(str(edges[at])) == len(str(edges[at + 1])):
            return edges[:at + 1] + [edges[at]] + edges[at + 2:]
    return None


def _duplicate(edges, width):
    rows = [edges[at:at + width] for at in range(0, len(edges), width)]
    for i, (u, v, *_) in enumerate(rows):
        for j, (x, y, *_) in enumerate(rows):
            if i < j and u == x and len(str(v)) == len(str(y)):
                return edges[:j * width + 1] + [v] + edges[j * width + 2:]
    return None


@pytest.mark.parametrize("make, message", [(_self_loop, "self-loop"), (_duplicate, "duplicate edge")])
def test_an_edited_corpus_fails_as_without_the_manifest(tmp_path, make, message):
    corpus_dir = _generate(tmp_path / "corpus", 5)
    path = corpus_dir / "corpus.jsonl"
    lines = path.read_text(encoding="utf-8").split("\n")
    number, edited = next((n, e) for n, e in ((n, _one_byte_edit(line, make)) for n, line in enumerate(lines))
                          if e is not None)
    lines[number] = edited
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError) as without:
        load_corpus(_without_manifest(corpus_dir, tmp_path) / "corpus.jsonl")
    assert f":{number + 1}: {message}" in str(without.value)
    with pytest.raises(ValueError) as trusted:
        load_corpus(path)
    assert str(trusted.value) == str(without.value).replace(str(tmp_path / "bare"), str(corpus_dir))


def test_an_edited_graph_file_fails_as_without_its_instance_graph(tmp_path):
    corpus_dir = _generate(tmp_path / "corpus", 6)
    corpus = load_corpus(corpus_dir / "corpus.jsonl")
    inst = next(i for i in corpus if i.graph_file is not None and i.kind.weight_kind is WeightKind.CAPACITY)
    path = corpus_dir / inst.graph_file
    header, *lines = path.read_text(encoding="utf-8").split("\n")
    at, (u, v, w) = next((n, line.split(", ")) for n, line in enumerate(lines) if len(line.split(", ")[0]) == 1
                         and len(line.split(", ")[1]) == 1)
    lines[at] = f"{u}, {u}, {w}"
    path.write_text("\n".join([header, *lines]), encoding="utf-8")
    want = _outcome(read_el_graph_file, path, inst.kind.weight_kind)
    assert want[0] == "raised" and "self-loop" in want[2]
    assert _outcome(read_el_graph_file, path, inst.kind.weight_kind, inst.graph) == want
    traces = list(run_corpus([inst], OracleBackend([inst]), base_dir=corpus_dir))
    assert traces[0].stages[0].parsed.reason == f"file read: {want[2]}"


def test_a_run_reads_no_manifest(tmp_path, monkeypatch):
    corpus_dir = _generate(tmp_path / "corpus", 10)
    el = [i for i in load_corpus(corpus_dir / "corpus.jsonl") if i.graph_file is not None]
    reads = []
    monkeypatch.setattr(serialize, "read_manifest", lambda d: reads.append(d) or read_manifest(d))
    _forbid_validation(monkeypatch)
    # without a manifest, each graph file still reads as its instance's graph
    bare = _without_manifest(corpus_dir, tmp_path)
    for base_dir in (corpus_dir, bare):
        traces = list(run_corpus(el, OracleBackend(el), base_dir=base_dir))
        assert all(t.stages[0].parsed.graph is i.graph and t.tool_error is None for t, i in zip(traces, el))
        assert run_pipeline(el[0], OracleBackend(el), base_dir=base_dir).stages[0].parsed.graph is el[0].graph
    assert reads == []


def test_manifest_lists_the_sha256_of_the_corpus_and_every_graph_file(tmp_path):
    corpus_dir = _generate(tmp_path / "corpus", 7)
    lines = (corpus_dir / MANIFEST_NAME).read_text(encoding="utf-8").splitlines()
    names = []
    for line in lines:
        digest, name = re.fullmatch(r"([0-9a-f]{64})  (\S+)", line).groups()
        assert digest == hashlib.sha256((corpus_dir / name).read_bytes()).hexdigest(), name
        names.append(name)
    on_disk = sorted(p.relative_to(corpus_dir).as_posix() for p in corpus_dir.glob("graphs/*.edges"))
    assert names[0] == "corpus.jsonl" and sorted(names[1:]) == on_disk
    assert len(on_disk) == len(ALL_KINDS)


@pytest.mark.parametrize(
    "manifest",
    [
        None,
        b"",
        b"\xff\xfe not UTF-8\n",
        b"corpus.jsonl\n",
        b"0" * 63 + b"  corpus.jsonl\n",
        b"0" * 64 + b"  corpus.jsonl\n",
    ],
)
def test_a_missing_malformed_or_stale_manifest_validates_in_full(tmp_path, monkeypatch, manifest):
    corpus_dir = _generate(tmp_path / "corpus", 8)
    (corpus_dir / MANIFEST_NAME).unlink()
    if manifest is not None:
        (corpus_dir / MANIFEST_NAME).write_bytes(manifest)
    calls = []
    build_graph = serialize.build_graph
    monkeypatch.setattr(serialize, "build_graph", lambda *a, **k: calls.append(1) or build_graph(*a, **k))
    corpus = load_corpus(corpus_dir / "corpus.jsonl")
    assert len(calls) == len(corpus)


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace('"task_text": "', '"task_text": "\u2028', 1),
        lambda text: text.replace('"task_text": "', '"task_text": "\u2029\x85', 1),
    ],
    ids=["CRLF", "line separator", "paragraph separator and NEL"],
)
def test_a_trusted_corpus_splits_lines_as_a_text_mode_file_does(tmp_path, monkeypatch, edit):
    corpus_dir = _generate(tmp_path / "corpus", 10)
    path = corpus_dir / "corpus.jsonl"
    data = edit(path.read_text(encoding="utf-8")).encode("utf-8")
    path.write_bytes(data)
    digests = {"corpus.jsonl": hashlib.sha256(data).hexdigest()}
    (corpus_dir / MANIFEST_NAME).write_text(serialize.manifest_text(digests), encoding="utf-8")
    validated = load_corpus(_without_manifest(corpus_dir, tmp_path) / "corpus.jsonl")
    _forbid_validation(monkeypatch)
    assert load_corpus(path) == validated


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda o: o.update(format=3), "unknown corpus format 3"),
        (lambda o: o.pop("task_text"), "missing key 'task_text'"),
        (lambda o: o.update(id="edge_count-x-wl-00001"), "malformed instance id 'edge_count-x-wl-00001'"),
        (lambda o: o.update(params=[1, 2, 3]), "takes"),
        (lambda o: o.update(edges=[]), "a corpus graph has at least one edge, got none"),
        (lambda o: o.update(edges=7), "edges must be an array, got int"),
        (lambda o: o["edges"].pop(), "not a multiple of"),
    ],
)
def test_a_trusted_corpus_line_still_passes_every_other_check(tmp_path, edit, message):
    corpus_dir = _generate(tmp_path / "corpus", 11)
    path = corpus_dir / "corpus.jsonl"
    lines = path.read_text(encoding="utf-8").split("\n")
    obj = json.loads(lines[2])
    edit(obj)
    lines[2] = dump_line(obj)
    data = "\n".join(lines).encode("utf-8")
    path.write_bytes(data)
    (corpus_dir / MANIFEST_NAME).write_text(
        serialize.manifest_text({"corpus.jsonl": hashlib.sha256(data).hexdigest()}), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: .*{re.escape(message)}"):
        load_corpus(path)
