import threading

import pytest

from graphstage.backends import CompletionConfig, FaultBackend, FaultPlan, HttpBackend, OracleBackend
from graphstage.generator import GenConfig, generate_corpus
from graphstage.pipeline import (
    StageKind,
    assemble_prompt,
    graph_instruction_text,
    parameter_instruction_text,
    task_instruction_text,
)
from graphstage.toolset import default_registry
from stub import StubServer, build_table, control
from workloads import FAULT_PLAN, FAULT_SEED


@pytest.fixture(scope="module")
def corpus():
    return list(generate_corpus(GenConfig(count=4, seed=3, sizes="both")))


@pytest.fixture
def stub(corpus):
    table, labels = build_table(corpus, FaultPlan(**FAULT_PLAN), FAULT_SEED)
    server = StubServer(("127.0.0.1", 0), table, labels)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _prompts(instance):
    registry = default_registry()
    yield assemble_prompt(
        graph_instruction_text(instance.size_class, instance.graph.weight_kind), instance, StageKind.GRAPH
    )
    yield assemble_prompt(task_instruction_text(registry), instance, StageKind.NAME)
    if instance.kind.parametric:
        spec = registry.get(instance.gold_tool)
        yield assemble_prompt(parameter_instruction_text(spec), instance, StageKind.PARAMS)


def test_stub_answers_match_fault_backend_byte_for_byte(corpus, stub):
    reference = FaultBackend(OracleBackend(corpus), FaultPlan(**FAULT_PLAN), seed=FAULT_SEED)
    client = HttpBackend(CompletionConfig(endpoint=stub, retry_count=0))
    calls = 0
    for instance in corpus:
        for prompt in _prompts(instance):
            assert client.complete(prompt).encode() == reference.complete(prompt).encode()
            calls += 1
    stats = control(stub, "GET", "/stats")
    assert stats["requests"] == calls
    assert stats["connections"] == calls  # one connection per call at this commit
    assert stats["request_bytes"] > calls * 1000
    assert stats["labels"] == reference.injected
    assert reference.injected, "the fault plan injected nothing"

    control(stub, "POST", "/reset")
    assert control(stub, "GET", "/stats")["requests"] == 0
