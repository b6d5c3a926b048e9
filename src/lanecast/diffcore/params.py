"""Named parameter collection over one flat buffer, with bit-exact checkpoint io.

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
from itertools import accumulate

import numpy as np

from ..errors import (ContractError, ParseError, integer, one_of, parse_json, require,
                      string)
from .tensor import Tensor

_MAGIC = "lanecast-params-v1"


class ParamStore:
    """Insertion-ordered mapping of names to trainable tensors.

    `pack()` copies every parameter into one flat buffer, `flat`, in
    `names()` order and makes each `.data` a view of it; `init_model` and
    `load` pack, and `add` unpacks. From then on a parameter is written in
    place: rebinding its `.data` detaches it from the buffer.

    A packed store also reads a tuple of names of equal shape, spaced evenly
    in the buffer, as their stack: one leaf [G, ...] whose data is a strided
    view of `flat`, made once and kept, with no copy and no tape op. Its
    gradient lands in its members' (see `backward`), each of which lists the
    stack in `_stacked_as`.
    """

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ContractError(f"ParamStore dtype must be float32/float64, got {self.dtype}")
        self._params: dict[str, Tensor] = {}
        self._stacks: dict[tuple, Tensor] = {}
        self.flat = None
        self.meta: dict = {}

    def add(self, name, data):
        if name in self._params:
            raise ContractError(f"duplicate parameter name: {name}")
        t = Tensor(np.asarray(data, dtype=self.dtype), requires_grad=True)
        self._params[name] = t
        self.flat = None
        if self._stacks:  # views of the buffer the next pack replaces
            for p in self._params.values():
                p._stacked_as = ()
            self._stacks.clear()
        return t

    def pack(self):
        """Copy the parameters into one new flat buffer and make each `.data`
        a view of it; a packed store stays as it is. Returns the store."""
        if self.flat is None:
            params = list(self._params.values())
            # np.concatenate needs one array, and an empty store has none
            self.flat = np.concatenate([np.empty(0, self.dtype)] + [t.data.ravel() for t in params])
            for t, at in zip(params, accumulate((t.size for t in params), initial=0)):
                t.data = self.flat[at:at + t.size].reshape(t.shape)
        return self

    def __getitem__(self, name):
        t = self._params.get(name)
        if t is None:
            t = self._stacks.get(name) or self._stack(name)
        return t

    def _stack(self, names):
        if type(names) is not tuple:
            raise KeyError(names)
        if self.flat is None:
            raise ContractError(f"cannot stack {names}: the store is not packed")
        members = [self._params[n] for n in names]
        at = [self._offset(n) for n in names]
        step = at[1] - at[0] if len(at) > 1 else 0
        if any(t.shape != members[0].shape for t in members) or at != [
                at[0] + i * step for i in range(len(at))]:
            raise ContractError(f"cannot stack {names}: shapes or spacing differ")
        data = np.ndarray((len(names),) + members[0].shape, self.dtype, self.flat, at[0],
                          (step,) + members[0].data.strides)
        self._stacks[names] = leaf = Tensor(data, requires_grad=True)
        for i, t in enumerate(members):
            t._stacked_as = getattr(t, "_stacked_as", ()) + ((leaf, i),)
        return leaf

    def _offset(self, name):
        """The byte offset of a parameter's (or a stack's) data in `flat`."""
        t = self[name]
        at = t.data.__array_interface__["data"][0] - self.flat.__array_interface__["data"][0]
        if t.data.base is not self.flat or not 0 <= at <= self.flat.nbytes:
            raise ContractError(f"parameter {name} is not a view of the store's buffer")
        return at

    def __contains__(self, name):
        return name in self._params

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def constants(self):
        """name -> a constant Tensor on the parameter's own array, and a tuple
        of names -> a constant on their stack. Ops record no tape edge into a
        constant, so a forward pass over this view holds no tape; an in-place
        write to a parameter's array shows through it."""
        return _Constants(self)

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
                store.add(name, arr)  # read-only until `pack` copies it into the buffer
            if f.read(1):
                raise ParseError("trailer", "checkpoint has trailing bytes")
            store.meta = meta
        return store.pack()


class _Constants(dict):
    """`ParamStore.constants`: a dict of the parameters' constants that also
    reads a tuple of names, as the store does, as a constant on their stack."""

    def __init__(self, store):
        super().__init__((name, Tensor(t.data)) for name, t in store.items())
        self._store, self._stacks = store, {}

    def __missing__(self, names):
        t = self._stacks.get(names)
        if t is None:
            t = self._stacks[names] = Tensor(self._store[names].data)
        return t


def _check_entry(e):
    if not isinstance(e, dict):
        raise ParseError("params", f"malformed manifest entry: {e!r:.60}")
    name, shape = string(e.get("name"), "params"), e.get("shape")
    if not isinstance(shape, list):
        raise ParseError(name, f"parameter {name}: shape must be a list, got {shape!r:.60}")
    for s in shape:
        integer(s, name, 0)
    one_of(e.get("dtype"), "dtype", ("float32", "float64"))
