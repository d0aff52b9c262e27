"""The Adam optimiser and global-norm gradient clipping."""

from __future__ import annotations

import math

import numpy as np

from repro.tensor import Tensor


class Optimizer:
    """Base class: holds a parameter list and implements ``zero_grad``."""

    def __init__(self, parameters: list[Tensor], lr: float):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.parameters = [p for p in parameters if p.requires_grad]
        if not self.parameters:
            raise ValueError("optimizer received no trainable parameters")
        self.lr = lr

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015).

    The first and second moments live in two flat buffers, so one vectorised
    update covers every parameter.  ``_m`` / ``_v`` are per-parameter views
    into those buffers (snapshots pack and restore through them).  A
    parameter whose ``grad`` is ``None`` is skipped: its data and moments stay
    as they were.
    """

    def __init__(self, parameters: list[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        bounds = np.cumsum([0] + [p.data.size for p in self.parameters])
        dtype = np.result_type(*(p.data.dtype for p in self.parameters))

        def views(flat: np.ndarray) -> list[np.ndarray]:
            return [flat[start:stop].reshape(p.data.shape)
                    for start, stop, p in zip(bounds[:-1], bounds[1:], self.parameters)]

        self._m_flat = np.zeros(bounds[-1], dtype)
        self._v_flat = np.zeros(bounds[-1], dtype)
        self._update_flat = np.zeros(bounds[-1], dtype)
        self._m = views(self._m_flat)
        self._v = views(self._v_flat)
        self._update = views(self._update_flat)

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        # Gradient-less parameters ride through the flat update on zeros; their
        # moments are restored afterwards and their data is never touched.
        skipped = [index for index, p in enumerate(self.parameters) if p.grad is None]
        kept = [(self._m[index].copy(), self._v[index].copy()) for index in skipped]
        grad = np.concatenate([
            np.zeros(p.data.size, self._m_flat.dtype) if p.grad is None
            else p.grad.reshape(-1) for p in self.parameters])
        if self.weight_decay:
            grad = grad + self.weight_decay * np.concatenate(
                [p.data.reshape(-1) for p in self.parameters])
        m, v = self._m_flat, self._v_flat
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        # In-place bias-corrected update: denom = sqrt(v / bias2) + eps
        denom = np.sqrt(v / bias2)
        denom += self.eps
        denom /= self.lr / bias1  # fold step size into the divisor
        np.divide(m, denom, out=self._update_flat)
        for index, (m_saved, v_saved) in zip(skipped, kept):
            np.copyto(self._m[index], m_saved)
            np.copyto(self._v[index], v_saved)
        for parameter, update in zip(self.parameters, self._update):
            if parameter.grad is not None:
                parameter.data -= update


class GradientClipper:
    """Clip the global L2 norm of gradients before an optimiser step."""

    def __init__(self, max_norm: float = 5.0):
        if max_norm <= 0:
            raise ValueError("max_norm must be positive")
        self.max_norm = max_norm

    def clip(self, parameters: list[Tensor]) -> float:
        """Scale gradients to at most ``max_norm``; return the pre-clip norm.

        Raises :class:`FloatingPointError` when the global norm is not finite
        (a NaN or infinite gradient), so the caller's optimizer step never
        runs and the weights stay as they were.
        """
        grads = [p.grad for p in parameters if p.grad is not None]
        if not grads:
            return 0.0
        total = float(np.sqrt(sum(float(np.dot(g.ravel(), g.ravel())) for g in grads)))
        if not math.isfinite(total):
            raise FloatingPointError(
                f"non-finite gradient norm ({total}); refusing to update the weights")
        if total > self.max_norm and total > 0:
            scale = self.max_norm / total
            for parameter in parameters:
                if parameter.grad is not None:
                    parameter.grad = parameter.grad * scale
        return total
