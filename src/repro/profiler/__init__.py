"""SplitSim profiler: post-processing of epoch rows, and the WTPG."""

from .instrument import rows_from_model, rows_from_trace
from .postprocess import ProfileAnalysis, analyze
from .wtpg import bottleneck_nodes, build_wtpg, save_dot, to_dot, to_text

__all__ = ["analyze", "ProfileAnalysis", "rows_from_model", "rows_from_trace",
           "build_wtpg", "bottleneck_nodes", "to_dot", "to_text", "save_dot"]
