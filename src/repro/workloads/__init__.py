"""GraphBIG-style multiprogrammed graph workloads (§6 / Fig. 11).

Five graph kernels (BC, BFS, CC, TC, PR) implemented as real algorithms
over synthetic CSR graphs, instrumented to emit their memory reference
streams; a two-core runner replays two instances of the same kernel on
the same input (sharing DRAM banks, as in the paper's setup) through the
simulated memory system under each row policy.

The paper runs GraphBIG [120] on multi-GB inputs; we scale the graphs
down and size the per-node records so each kernel's cache behaviour
(LLC MPKI ordering: BC < PR < TC < BFS < CC) matches Table/Fig. 11's
characterization — the defense overheads depend on memory intensity and
row locality, not on the absolute graph size.
"""

from repro.workloads.graphs import CSRGraph, generate_graph
from repro.workloads.kernels import (
    KERNELS,
    RefStream,
    WorkloadSpec,
    bc_kernel,
    bfs_kernel,
    cc_kernel,
    pagerank_kernel,
    tc_kernel,
    workload_spec,
)
from repro.workloads.runner import (
    DefenseEvaluation,
    RunResult,
    WarmupCache,
    evaluate_defenses,
    fig11_config,
    run_multiprogrammed,
)
from repro.workloads.trace import (
    TraceProfile,
    profile_trace,
)

__all__ = [
    "CSRGraph",
    "DefenseEvaluation",
    "KERNELS",
    "RefStream",
    "RunResult",
    "TraceProfile",
    "WarmupCache",
    "WorkloadSpec",
    "bc_kernel",
    "bfs_kernel",
    "cc_kernel",
    "evaluate_defenses",
    "fig11_config",
    "generate_graph",
    "profile_trace",
    "pagerank_kernel",
    "run_multiprogrammed",
    "tc_kernel",
    "workload_spec",
]
