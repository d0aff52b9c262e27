"""Neural-network layers, losses and optimisers on the NumPy autograd engine."""

from repro.nn.module import Module, ModuleList, Sequential
from repro.nn.layers import (
    MLP,
    Dropout,
    Embedding,
    GELU,
    LayerNorm,
    Linear,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.conv import Conv1d, GlobalMaxPool1d, TextCNNEncoder
from repro.nn.recurrent import GRU, GRUCell, LSTM, LSTMCell, lstm_expert_scan
from repro.nn.attention import AttentionPooling, ExpertGate
from repro.nn.grl import GradientReversal, gradient_reversal
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optim import Adam, GradientClipper, Optimizer
from repro.nn.serialization import (
    WEIGHTS_FORMAT_VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "Module", "ModuleList", "Sequential",
    "Linear", "Embedding", "Dropout", "LayerNorm", "MLP",
    "ReLU", "Tanh", "Sigmoid", "GELU",
    "Conv1d", "GlobalMaxPool1d", "TextCNNEncoder",
    "GRU", "GRUCell", "LSTM", "LSTMCell", "lstm_expert_scan",
    "AttentionPooling", "ExpertGate",
    "GradientReversal", "gradient_reversal",
    "CrossEntropyLoss",
    "Optimizer", "Adam", "GradientClipper",
    "save_checkpoint", "load_checkpoint", "CheckpointError", "WEIGHTS_FORMAT_VERSION",
]
