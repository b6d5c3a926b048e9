"""Small parameter-wiring helpers shared by the network modules."""

from __future__ import annotations

import math

import numpy as np

from . import diffcore as dc


def init_linear(store, name, n_in, n_out, rng, bias=True):
    std = 1.0 / math.sqrt(n_in)
    store.add(f"{name}.w", rng.normal(0.0, std, (n_in, n_out)))
    if bias:
        store.add(f"{name}.b", np.zeros(n_out))


def linear(store, name, x):
    b = store[f"{name}.b"] if f"{name}.b" in store else None
    return dc.matmul(x, store[f"{name}.w"], b)


def init_conv(store, name, c_in, c_out, kernel, rng, bias=True):
    std = 1.0 / math.sqrt(c_in * kernel)
    store.add(f"{name}.w", rng.normal(0.0, std, (c_out, c_in, kernel)))
    if bias:
        store.add(f"{name}.b", np.zeros(c_out))


def conv(store, name, x, stride=1, padding=0):
    b = store[f"{name}.b"] if f"{name}.b" in store else None
    return dc.conv1d(x, store[f"{name}.w"], b, stride=stride, padding=padding)


def init_layer_norm(store, name, dim):
    store.add(f"{name}.g", np.ones(dim))
    store.add(f"{name}.b", np.zeros(dim))


def layer_norm(store, name, x):
    return dc.layer_norm(x, store[f"{name}.g"], store[f"{name}.b"])
