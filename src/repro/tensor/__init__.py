"""NumPy-backed reverse-mode automatic differentiation engine.

This subpackage is the deep-learning substrate for the DTDBD reproduction.
The original paper uses PyTorch; this environment has no GPU frameworks, so
``repro.tensor`` provides the minimal but complete tensor/autograd machinery
that the neural-network layers in :mod:`repro.nn` are built on.

Public API
----------
``Tensor``
    N-dimensional array with reverse-mode autograd.
``functional``
    Composite differentiable functions (softmax, cross-entropy, KL, ...).
``fused``
    Single-node fused kernels with analytic backwards (the fast path).
``init``
    Weight initialisation schemes (Xavier/Glorot uniform, normal, constants).
``set_default_dtype`` / ``get_default_dtype`` / ``default_dtype``
    Global float32/float64 compute policy.
"""

from repro.tensor.dtype import default_dtype, get_default_dtype, set_default_dtype
from repro.tensor.tensor import (
    Tensor,
    graph_nodes_created,
    is_grad_enabled,
    no_grad,
)
from repro.tensor import fused
from repro.tensor import functional
from repro.tensor import init
from repro.tensor.fused import fused_kernels, is_fused_enabled, set_fused_enabled

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled", "graph_nodes_created",
    "functional", "fused", "init",
    "default_dtype", "get_default_dtype", "set_default_dtype",
    "fused_kernels", "is_fused_enabled", "set_fused_enabled",
]
