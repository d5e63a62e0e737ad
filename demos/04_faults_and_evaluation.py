"""Inject controlled faults, filter the dataset, and render the report.

The fault backend corrupts oracle output per stage with known labels, which
is how the evaluator's error taxonomy and the dataset filter are validated.
"""

import random

from graphstage import (
    ALL_KINDS,
    FaultBackend,
    FaultPlan,
    OracleBackend,
    SizeClass,
    aggregate,
    build_dataset,
    evaluate_traces,
    generate_instance,
    pair_traces,
    render_report,
    run_corpus,
)

corpus = [
    generate_instance(kind, SizeClass.WL, random.Random(90 + i * 17 + j), index=j)
    for i, kind in enumerate(ALL_KINDS)
    for j in range(5)
]
oracle = OracleBackend(corpus)
plan = FaultPlan(drop_graph_edges=0.25, wrong_tool_name=0.25, swap_parameters=0.25)
fault = FaultBackend(oracle, plan, seed=1)

traces = list(run_corpus(corpus, fault))
entries, stats = build_dataset(pair_traces(traces, corpus))
print(
    f"retained {stats['retained_instances']}/{stats['traces']} instances "
    f"({stats['entries']} dataset entries)\n"
)

records = evaluate_traces(pair_traces(traces, corpus))
report = aggregate(records)
print(render_report(report, "txt"))

labeled = sum(len(stages) for stages in fault.injected.values())
print(f"faults actually injected: {labeled} (ground-truth labels kept out of band)")
