"""Graph partitioning via pruned weighted label propagation with a balanced
multilevel k-way finisher, plus subgraph augmentation and quality metrics."""

__version__ = "0.1.0"

from lppart.graph import (GraphFormatError, IdMap, PartitionMap, WeightedGraph, from_edges,
                          induced_subgraph, load_edge_list, thread_count, worker_threads,
                          write_edge_list)
from lppart.generate import GeneratorSpec, generate
from lppart.labelprop import LpParams, edge_retention, multilevel_label_prop, vote_update
from lppart.coarsen import CoarseGraph, coarsen, write_coarse_graph
from lppart.kway import (BisectConfig, InfeasibleError, cut_weight, heavy_edge_clustering,
                         kway_partition)
from lppart.pipeline import (PartitionConfig, PipelineResult, partition_graph, read_partition_file,
                             sample_subgraphs, write_partition_file)
from lppart.augment import (FeatureTable, PagerankParams, aggregate_features, concat_global,
                            lowest_pagerank_nodes, pagerank, refine_structure)
from lppart.metrics import PartitionReport, balance, build_report, edge_cut, std_dev

__all__ = [
    "GraphFormatError", "IdMap", "PartitionMap", "WeightedGraph", "from_edges",
    "induced_subgraph", "load_edge_list", "thread_count", "worker_threads", "write_edge_list",
    "GeneratorSpec", "generate",
    "LpParams", "edge_retention", "multilevel_label_prop", "vote_update",
    "CoarseGraph", "coarsen", "write_coarse_graph",
    "BisectConfig", "InfeasibleError", "cut_weight", "heavy_edge_clustering", "kway_partition",
    "PartitionConfig", "PipelineResult", "partition_graph",
    "read_partition_file", "sample_subgraphs", "write_partition_file",
    "FeatureTable", "PagerankParams", "aggregate_features", "concat_global",
    "lowest_pagerank_nodes", "pagerank", "refine_structure",
    "PartitionReport", "balance", "build_report", "edge_cut", "std_dev",
]
