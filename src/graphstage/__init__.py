"""Graph-reasoning toolkit: tool algorithms, benchmark generation, a staged
instruction pipeline over pluggable completion backends, matching-function
dataset filtering with Alpaca export, and an evaluation harness."""

__version__ = "0.1.0"

from .graphs import Graph, WeightKind, build_graph, canonical_edge_set, graphs_equal
from .tools import Answer, TOOL_NAMES, ToolRegistry, ToolSpec, dispatch
from .toolset import default_registry
from .codec import (
    ExtractionResult,
    extract_file_path,
    extract_graph,
    extract_parameters,
    extract_tool_name,
    read_el_graph_file,
    render_edge_list,
)
from .generator import (
    ALL_KINDS,
    GenConfig,
    SizeClass,
    TaskInstance,
    TaskKind,
    classify_size,
    generate_corpus,
    generate_instance,
)
from .pipeline import (
    PipelineTrace,
    StageKind,
    run_corpus,
    run_pipeline,
)
from .backends import (
    CompletionConfig,
    FaultBackend,
    FaultPlan,
    HttpBackend,
    OracleBackend,
)
from .dataset import build_dataset, export_alpaca
from .evaluation import (
    Category,
    aggregate,
    evaluate_traces,
    pair_traces,
    render_report,
    score_trace,
)
