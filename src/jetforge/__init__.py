"""jetforge: desk-scale optimization pipeline for darknet UAV detectors.

Parse a darknet detector into a graph IR, fuse and rewrite layers, simulate
f16/i8 quantization with entropy-calibrated ranges, and measure the
consequences with a reference executor, an mAP@0.5 evaluator and a latency
harness.
"""

__version__ = "0.1.0"


class Error(Exception):
    """Root of every jetforge error: an input the library refuses, named with
    the file, line, field or node at fault. Each module's base error
    (`ArtifactError`, `FrontendError`, `GraphError`, ...) derives from it, so
    one clause catches them all. The CLI exits 1 on one of them, or with a
    `CliError`'s own code."""
