"""Reputation-aware ranking of items on bipartite rating networks."""

from .graph import (BenchmarkSet, IdMap, IngestError, IngestResult,
                    RatingGraph, ingest_ratings, load_benchmark,
                    write_ratings_csv)
from .metrics import (Correlation, RankingScore, quality_ranks,
                      ranking_score, reputation_error_correlation,
                      top_fraction_benchmark)
from .projection import ProjectionParams, project_graph, project_rating
from .ranking import ALGORITHMS, RankingConfig, RankingResult, rank
from .sweep import (Optimum, RealSource, SweepGrid, SynthSource, TableRow,
                    compare_table, find_optimum, grid_values, run_sweep)
from .synth import (CASES, SynthSpec, SynthTruth, TruthFormatError,
                    generate_network, generate_ratings, generate_topology,
                    generate_truth, inject_spam, read_truth, write_truth)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "BenchmarkSet", "CASES", "Correlation",
    "IdMap", "IngestError", "IngestResult", "Optimum", "ProjectionParams",
    "RankingConfig", "RankingResult", "RankingScore", "RatingGraph",
    "RealSource", "SweepGrid", "SynthSource", "SynthSpec", "SynthTruth",
    "TableRow", "TruthFormatError", "compare_table", "find_optimum",
    "generate_network", "generate_ratings", "generate_topology",
    "generate_truth", "grid_values", "ingest_ratings",
    "inject_spam", "load_benchmark", "project_graph", "project_rating",
    "quality_ranks", "rank",
    "ranking_score", "read_truth", "reputation_error_correlation",
    "run_sweep", "top_fraction_benchmark", "write_ratings_csv", "write_truth",
]
