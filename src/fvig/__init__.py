"""Saliency-driven vision graph network with a verified float64 autodiff core."""

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .cluster import ClusterParams, aggregate_multihead, cluster_block, dispatch
from .data import DatasetError, DatasetSplit, load_dataset, synth_dataset
from .gradcheck import GradCheckReport, model_grad_check
from .graph import build_graph, dilation_rates, pairwise_sq_euclidean, select_neighbors
from .metrics import MetricsReport, average_precision, confusion_matrix, evaluate, roc_auc
from .model import ConfigError, FViGModel, ModelConfig, count_params
from .optim import AdamW, cosine_lr
from .saliency import ChannelSaliencyParams, channel_saliency_forward
from .tensor import ShapeError, Tensor
from .train import TrainConfig, cross_entropy, train

__version__ = "0.1.0"
