"""Named parameter collection with bit-exact checkpoint io.

Checkpoint layout: 8-byte little-endian manifest length, then the UTF-8 JSON
manifest listing names, shapes and dtypes in order, then each array's raw
little-endian bytes back to back. Loading restores the exact bytes, so a
save/load round trip is the identity.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from ..errors import (ContractError, ParseError, integer, one_of, parse_json, require,
                      string)
from .tensor import Tensor

_MAGIC = "lanecast-params-v1"


class ParamStore:
    """Insertion-ordered mapping of names to trainable tensors."""

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ContractError(f"ParamStore dtype must be float32/float64, got {self.dtype}")
        self._params: dict[str, Tensor] = {}
        self.meta: dict = {}

    def add(self, name, data):
        if name in self._params:
            raise ContractError(f"duplicate parameter name: {name}")
        t = Tensor(np.asarray(data, dtype=self.dtype), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name):
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def constants(self):
        """name -> a constant Tensor on the parameter's own array. Ops record
        no tape edge into a constant, so a forward pass over this view holds
        no tape; an in-place write to a parameter's array shows through it."""
        return {name: Tensor(t.data) for name, t in self._params.items()}

    def save(self, path, meta=None):
        entries = [{"name": n, "shape": list(t.shape), "dtype": str(t.dtype)}
                   for n, t in self._params.items()]
        manifest = {"format": _MAGIC, "params": entries, "meta": meta or {}}
        blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
        with open(path, "wb") as f:
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for t in self._params.values():
                f.write(np.ascontiguousarray(t.data, dtype=t.dtype.newbyteorder("<")).tobytes())

    @classmethod
    def load(cls, path):
        """Read a checkpoint. Each length is checked against the bytes left
        in the file before it is read, so no read outgrows the file."""
        with open(path, "rb") as f:
            left = os.fstat(f.fileno()).st_size - 8
            head = f.read(8)
            if len(head) != 8:
                raise ParseError("header", "checkpoint too short for header")
            (mlen,) = struct.unpack("<Q", head)
            if mlen > left:
                raise ParseError("manifest", f"checkpoint manifest length {mlen} exceeds the file")
            manifest = parse_json(f.read(mlen), "checkpoint manifest")
            left -= mlen
            one_of(require(manifest, "format"), "format", (_MAGIC,))
            entries, meta = manifest.get("params"), manifest.get("meta", {})
            if not isinstance(entries, list):
                raise ParseError("params", "checkpoint manifest has no params list")
            if not isinstance(meta, dict):
                raise ParseError("meta", "checkpoint meta must be an object")
            for e in entries:
                _check_entry(e)
            dtypes = {e["dtype"] for e in entries}
            if len(dtypes) > 1:
                raise ParseError("dtype", f"checkpoint mixes dtypes: {sorted(dtypes)}")
            store = cls(dtypes.pop() if dtypes else np.float32)
            for e in entries:
                name, shape, dt = e["name"], e["shape"], e["dtype"]
                dtype = np.dtype(dt).newbyteorder("<")
                nbytes = math.prod(shape) * dtype.itemsize
                if nbytes > left:
                    raise ParseError(name, f"checkpoint truncated in data for {name}")
                if name in store:
                    raise ParseError(name, f"checkpoint lists parameter {name} twice")
                left -= nbytes
                try:
                    arr = np.frombuffer(f.read(nbytes), dtype=dtype).reshape(shape)
                except ValueError as err:  # over 64 axes, or an axis beyond numpy's range
                    raise ParseError(name, f"parameter {name}: bad shape {shape}") from err
                store.add(name, arr.astype(np.dtype(dt)))
            if f.read(1):
                raise ParseError("trailer", "checkpoint has trailing bytes")
            store.meta = meta
        return store


def _check_entry(e):
    if not isinstance(e, dict):
        raise ParseError("params", f"malformed manifest entry: {e!r:.60}")
    name, shape = string(e.get("name"), "params"), e.get("shape")
    if not isinstance(shape, list):
        raise ParseError(name, f"parameter {name}: shape must be a list, got {shape!r:.60}")
    for s in shape:
        integer(s, name, 0)
    one_of(e.get("dtype"), "dtype", ("float32", "float64"))
