"""Two-stream graph network for per-cell triangle mesh segmentation.

A self-contained numpy implementation: reverse-mode autodiff core, mesh
feature extraction, exact KNN graphs, attention and max-pool graph layers,
the two-stream model with its ablation variants, training with Adam, and
segmentation metrics, plus a synthetic labeled-arch generator so the whole
pipeline can be exercised at desk scale.
"""

from meshseg.tensor import Tensor, Parameter, gradient_check
from meshseg.mesh import TriangleMesh, CellFeatureMatrix, load_mesh, build_cell_features
from meshseg.knn import KnnGraph, build_knn_graph
from meshseg.model import ModelConfig, TwoStreamNet, build_variant, cross_entropy
from meshseg.training import TrainConfig, Adam, train
from meshseg.evaluation import ConfusionMatrix, metrics
from meshseg.synth import ArchSpec, generate, make_dataset

__all__ = [
    "Tensor",
    "Parameter",
    "gradient_check",
    "TriangleMesh",
    "CellFeatureMatrix",
    "load_mesh",
    "build_cell_features",
    "KnnGraph",
    "build_knn_graph",
    "ModelConfig",
    "TwoStreamNet",
    "build_variant",
    "cross_entropy",
    "TrainConfig",
    "Adam",
    "train",
    "ConfusionMatrix",
    "metrics",
    "ArchSpec",
    "generate",
    "make_dataset",
]

__version__ = "0.1.0"
