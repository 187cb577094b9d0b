import os

import numpy as np
import pytest

from jetforge import fixtures, frontend, passes, quant

# pyproject's `pythonpath` puts src/ on this process's path only; the
# subprocesses some tests start (`python -m jetforge.cli`) need it too
SRC = os.path.dirname(os.path.dirname(os.path.abspath(fixtures.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def tiny_detector():
    return fixtures.build_tiny_detector()


@pytest.fixture(scope="session")
def tiny_optimized(tiny_detector):
    graph, _ = passes.apply_passes(
        tiny_detector, ["fuse-conv-bn", "decompose-leaky", "fold-scale"])
    return graph


@pytest.fixture(scope="session")
def tiny_quantized(tiny_optimized):
    cal = fixtures.calibration_images(120, seed=1)
    qparams = quant.calibrate_graph(
        tiny_optimized, cal, quant.CalibrationConfig(image_count=120, seed=0))
    graph = tiny_optimized.copy()
    graph.qparams = qparams
    return graph


@pytest.fixture(scope="session")
def yolov3_graph():
    return frontend.parse_cfg(fixtures.yolov3_cfg())


@pytest.fixture(scope="session")
def yolov3_weighted(yolov3_graph):
    return frontend.load_weights(fixtures.random_weights(yolov3_graph, seed=11),
                                 yolov3_graph)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
