"""``repro.autograd`` — a from-scratch reverse-mode autodiff engine on numpy.

Public surface:

* :class:`Tensor`, :func:`concat`, :func:`stack`, :func:`where`,
  :class:`no_grad` — the core array type and graph ops.
* :mod:`repro.autograd.primitives` — the open primitive/VJP registry every
  op is defined through: :func:`primitive` / :func:`defvjp` / :func:`defimpl`,
  per-op backend selection (:class:`use_backend`) and the thread-safe
  per-primitive profiler (:func:`primitive_profile`).
* :mod:`repro.autograd.functional` — losses (BPR, InfoNCE, Gaussian KL, ...).
* :class:`Module` / :class:`Parameter` / layers — the nn building blocks.
* Optimizers: :class:`SGD`, :class:`Adam`, :class:`AdamW`.
* :func:`spmm` / :func:`weighted_spmm` — sparse propagation primitives.
* :mod:`repro.autograd.fused` — opt-in fused hot-path kernels
  (:func:`fused_bpr_loss`, :func:`fused_bpr_scores`, :func:`light_propagate`).
* :func:`gradcheck` — finite-difference certification used by the tests.
"""

from .primitives import (primitive, defvjp, defimpl, get_primitive,
                         list_primitives, unregister_primitive,
                         set_default_backend, set_primitive_backend,
                         selected_backend, use_backend,
                         fused_kernels_enabled, configure_from_env,
                         enable_primitive_profiling,
                         reset_primitive_profile, primitive_profile,
                         primitive_profiling_enabled)
from .tensor import (Tensor, as_tensor, cast_like, concat, stack, where,
                     zeros, ones, no_grad, is_grad_enabled, unbroadcast,
                     default_dtype, get_default_dtype, set_default_dtype,
                     scatter_rows)
from .module import Module, Parameter, Linear, MLP, Embedding, Sequential
from .optim import SGD, Adam, AdamW, ExponentialLR, Optimizer
from .sparse import (spmm, weighted_spmm, coo_from_scipy,
                     clear_sparse_caches, enable_spmm_profiling,
                     reset_spmm_profile, spmm_profile, SPMM_PRIMITIVES)
from .fused import fused_bpr_loss, fused_bpr_scores, light_propagate
from .gradcheck import gradcheck, numerical_gradient
from . import functional
from . import init

__all__ = [
    "Tensor", "as_tensor", "cast_like", "concat", "stack", "where",
    "zeros", "ones",
    "no_grad", "is_grad_enabled", "unbroadcast",
    "default_dtype", "get_default_dtype", "set_default_dtype",
    "primitive", "defvjp", "defimpl", "get_primitive", "list_primitives",
    "unregister_primitive",
    "set_default_backend", "set_primitive_backend", "selected_backend",
    "use_backend", "fused_kernels_enabled", "configure_from_env",
    "enable_primitive_profiling", "reset_primitive_profile",
    "primitive_profile", "primitive_profiling_enabled",
    "Module", "Parameter", "Linear", "MLP", "Embedding", "Sequential",
    "SGD", "Adam", "AdamW", "ExponentialLR", "Optimizer",
    "spmm", "weighted_spmm", "coo_from_scipy",
    "clear_sparse_caches", "enable_spmm_profiling", "reset_spmm_profile",
    "spmm_profile", "SPMM_PRIMITIVES",
    "fused_bpr_loss", "fused_bpr_scores", "light_propagate",
    "scatter_rows",
    "gradcheck", "numerical_gradient",
    "functional", "init",
]
