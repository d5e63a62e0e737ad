"""Mutation check of the trust path: does tier-1 notice when one line of the
scorer, the dataset filter, graph equality, the loaders (and the stages
that the trace loader replays a line through), the instance id parser, the
fault injector's labels, the parameter extractor or the digest check that
lets a read skip graph validation is wrong?

Each mutant below replaces one exact piece of one line of ``src/graphstage/``.
For each, the script copies the repository's ``src/``, ``tests/``,
``perfbench/``, ``pyproject.toml`` and ``README.md`` to a temporary
directory, applies the mutant there and runs tier-1 on the copy, stopping at
the first failure. The generator's 40,000-instance criterion is deselected:
no mutant here touches generation. The test module of the mutated code
runs first, so a killed mutant is usually seen within seconds. The unmutated
copy runs first of all and must pass, or no verdict would mean anything.

Run from the repository root (standard library only; pytest does not
collect this file; CI runs it on one Python version with every mutant named
but 9, which survives until ``retained_fraction`` is decided)::

    python tests/mutants.py          # every mutant, a few minutes
    python tests/mutants.py 0 13     # the named mutants only

Each mutant is reported as ``killed`` (a test failed), ``survived`` (every
test passed) or ``equivalent`` (every test passed, and no input can tell the
mutant apart; the reason is listed with it). The exit status is 1 when a
mutant that is not equivalent survives, and 2 when a mutant's line is no
longer in its module or pytest does not run the tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")
DESELECTED = "tests/test_acceptance.py::test_criterion_3_generator_constraints"


class Mutant(NamedTuple):
    name: str
    module: str  # under src/graphstage/
    original: str  # occurs exactly once in the module
    mutated: str
    first: str  # the test module that runs first
    equivalent: Optional[str] = None  # why no input tells it apart


MUTANTS = (
    Mutant("0", "evaluation.py", "name.strip().lower() == instance.kind.tool",
           "name.strip() == instance.kind.tool", "test_evaluation.py"),
    Mutant("6", "evaluation.py", 'sum(bool(r["param_match"]) for r in recs)',
           'sum(r["param_match"] is not False for r in recs)', "test_evaluation.py",
           equivalent="a row with any non-None param_match is of a parametric kind, "
                      "and none of its records holds None"),
    Mutant("8", "dataset.py", 'Category.CORRECT and record["answer_match"]:',
           "Category.CORRECT:", "test_dataset.py"),
    Mutant("9", "dataset.py", "len(kept) / len(traces)", "len(kept) / len(corpus)", "test_dataset.py"),
    Mutant("13", "graphs.py", "and a.weight_kind == b.weight_kind", "and True", "test_graphs.py"),
    Mutant("trace-format", "serialize.py", "if version not in (4, TRACE_FORMAT):",
           "if version > TRACE_FORMAT:", "test_serialize.py"),
    Mutant("stage-instruction", "serialize.py", 'stored = [rec["instruction"] for rec in recs]',
           'stored = [rec.get("instruction", "") for rec in recs]', "test_serialize.py"),
    Mutant("replay-keys", "serialize.py", "if sent != stored:", "if len(sent) != len(stored):",
           "test_serialize.py"),
    Mutant("stored-error", "serialize.py", 'if "error" in current:', "if False:", "test_serialize.py"),
    Mutant("stored-reply", "serialize.py", '("raw_output", rec["raw_output"])',
           '("raw_output", rec.get("raw_output", ""))', "test_serialize.py"),
    Mutant("error-text", "serialize.py", '("error", rec.get("error", ""))', '("error", "")',
           "test_serialize.py"),
    Mutant("file-record", "serialize.py", 'elif key == "G:el" and file_graph is not None:', "elif False:",
           "test_serialize.py"),
    Mutant("reparse-direction", "pipeline.py", "extract_graph(raw, kind.weight_kind, kind.directed)",
           "extract_graph(raw, kind.weight_kind, False)", "test_serialize.py"),
    Mutant("params-arity", "serialize.py", "len(params) != kind.arity", "len(params) < kind.arity",
           "test_serialize.py"),
    Mutant("corpus-format", "serialize.py", "if version != CORPUS_FORMAT:",
           "if version > CORPUS_FORMAT:", "test_serialize.py"),
    Mutant("id-rebuild", "generator.py", "if rebuilt == ident:", "if True:",
           "test_serialize.py"),
    Mutant("max-id", "graphs.py", "return 1 + max(ids) if", "return 2 + max(ids) if", "test_serialize.py"),
    Mutant("flat-edges", "graphs.py", "            if odd:", "            if False:", "test_serialize.py"),
    Mutant("odd-length", "serialize.py", "        if odd:", "        if False:", "test_serialize.py"),
    Mutant("fault-table", "backends.py", '"name": ("wrong_tool_name", _wrong_name),',
           '"name": ("swap_parameters", _wrong_name),', "test_backends.py"),
    Mutant("fault-label", "backends.py", "self._record(instance.id, stage, mode)", "pass", "test_backends.py"),
    Mutant("garbage-label", "backends.py", 'self._record(instance.id, stage, "emit_garbage")', "pass",
           "test_backends.py"),
    Mutant("named-first", "codec.py", "    if all(named):", '    if all(named) and "G," not in text:',
           "test_codec.py"),
    Mutant("positional-anchor", "codec.py", 'r"(?:G" + ', 'r"(?:" + ', "test_codec.py"),
    Mutant("task-text", "evaluation.py", "if trace.task_text != instance.task_text:", "if False:",
           "test_evaluation.py"),
    Mutant("manifest-digest", "codec.py", "return digest is not None and hashlib.sha256(data).hexdigest() == digest",
           "return digest is not None", "test_manifest.py"),
    Mutant("el-trusted-width", "codec.py", 'width = 1 + body.count(b",", 0, body.find(b"\\n"))',
           "width = 2 if kind is WeightKind.NONE else 3", "test_manifest.py"),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def _apply(mutant: Mutant, tree: Path) -> bool:
    """Whether the mutant's line was found once, and so applied."""
    path = tree / "src" / "graphstage" / mutant.module
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.original) != 1:
        return False
    path.write_text(text.replace(mutant.original, mutant.mutated), encoding="utf-8")
    return True


def _run_tests(tree: Path, first: str = "") -> int:
    """pytest's exit status on the copy ``tree``: 0 when every selected test
    passed, 1 when one failed. The test module ``first`` runs first."""
    modules = sorted(p.name for p in (tree / "tests").glob("test_*.py"))
    modules.sort(key=lambda name: name != first)  # stable: the others keep their order
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--deselect", DESELECTED,
        *(f"tests/{name}" for name in modules),
    ]
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode


def main(names: list) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy(Path(tmp))
        code = _run_tests(Path(tmp))
    if code:
        print(f"the unmutated copy does not pass (pytest exited {code})", file=sys.stderr)
        return 2
    status = 0
    for mutant in chosen:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            tree = Path(tmp)
            _copy(tree)
            code = _run_tests(tree, mutant.first) if _apply(mutant, tree) else None
        if code is None:
            verdict, status = f"stale: {mutant.original!r} is not once in {mutant.module}", 2
        elif code == 1:
            verdict = "killed"
        elif code:
            verdict, status = f"error: pytest exited {code}", 2
        elif mutant.equivalent:
            verdict = f"equivalent ({mutant.equivalent})"
        else:
            verdict, status = "survived", max(status, 1)
        print(f"{mutant.name:>18}  {mutant.module:<14} {time.perf_counter() - start:5.1f} s  {verdict}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
