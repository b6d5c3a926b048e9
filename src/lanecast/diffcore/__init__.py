"""Reverse-mode autodiff over numpy arrays: tensors, a parameter store with
bit-exact checkpoints, and a finite-difference gradient checker."""

from .gradcheck import grad_check
from .params import ParamStore
from .tensor import (
    Tensor,
    add,
    backward,
    concat,
    conv1d,
    gather,
    l2_norm_rows,
    layer_norm,
    log,
    matmul,
    max,
    mean,
    mul,
    relu,
    reshape,
    scale,
    scatter_add,
    set_debug_checks,
    sigmoid,
    smooth_l1,
    softmax,
    sub,
    sum,
)

__all__ = [
    "Tensor", "ParamStore", "grad_check", "backward",
    "add", "sub", "mul", "scale", "matmul", "concat", "reshape", "relu",
    "sigmoid", "log", "smooth_l1", "softmax", "layer_norm", "l2_norm_rows",
    "gather", "scatter_add", "conv1d", "sum", "mean", "max", "set_debug_checks",
]
