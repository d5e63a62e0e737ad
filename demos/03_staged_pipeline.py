"""Run the three-stage pipeline with the oracle backend and show one trace.

Swap the oracle for HttpBackend(CompletionConfig(endpoint=...)) to drive a
real chat-completions endpoint with the same code.
"""

import random

from graphstage import (
    OracleBackend,
    SizeClass,
    StageKind,
    TaskKind,
    generate_instance,
    run_pipeline,
)

instance = generate_instance(
    TaskKind.parse("shortest_path:undirected"), SizeClass.WL, random.Random(3), index=0
)
backend = OracleBackend([instance])
trace = run_pipeline(instance, backend)

print(f"instance {instance.id}: {instance.task_text}\n")
for record in trace.stages:
    print(f"--- stage {record.stage.value} ---")
    print("prompt (first lines):")
    print("\n".join(record.prompt.splitlines()[:3]))
    print(f"model output: {record.raw_output}")
    print(f"parsed: {record.parsed}\n")

print(f"parameter stage ran: {trace.stage(StageKind.PARAMS) is not None}")
print(f"tool result: {trace.tool_result}  (gold: {instance.gold_answer})")
