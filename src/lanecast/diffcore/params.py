"""Named parameter collection with bit-exact checkpoint io.

Checkpoint layout: 8-byte little-endian manifest length, then the UTF-8 JSON
manifest listing names, shapes and dtypes in order, then each array's raw
little-endian bytes back to back. Loading restores the exact bytes, so a
save/load round trip is the identity.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from ..errors import ContractError, ParseError
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

    def __len__(self):
        return len(self._params)

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

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
        with open(path, "rb") as f:
            head = f.read(8)
            if len(head) != 8:
                raise ParseError("header", "checkpoint too short for header")
            (mlen,) = struct.unpack("<Q", head)
            blob = f.read(mlen)
            if len(blob) != mlen:
                raise ParseError("manifest", "checkpoint truncated in manifest")
            try:
                manifest = json.loads(blob.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as e:
                raise ParseError("manifest", f"checkpoint manifest is not valid JSON: {e}") from e
            if manifest.get("format") != _MAGIC:
                raise ParseError("format", f"unrecognized checkpoint format: {manifest.get('format')!r}")
            entries = manifest.get("params")
            if not isinstance(entries, list):
                raise ParseError("params", "checkpoint manifest has no params list")
            for e in entries:
                if not (isinstance(e, dict) and isinstance(e.get("name"), str)
                        and isinstance(e.get("shape"), list)):
                    raise ParseError("params", f"malformed manifest entry: {e!r}")
                if e.get("dtype") not in ("float32", "float64"):
                    raise ParseError("dtype", f"parameter {e['name']}: dtype must be "
                                              f"float32 or float64, got {e.get('dtype')!r}")
            dtypes = {e["dtype"] for e in entries}
            if len(dtypes) > 1:
                raise ParseError("dtype", f"checkpoint mixes dtypes: {sorted(dtypes)}")
            store = cls(dtypes.pop() if dtypes else np.float32)
            for e in entries:
                name, shape, dt = e["name"], e["shape"], e["dtype"]
                dtype = np.dtype(dt).newbyteorder("<")
                count = int(np.prod(shape)) if shape else 1
                raw = f.read(count * dtype.itemsize)
                if len(raw) != count * dtype.itemsize:
                    raise ParseError(name, f"checkpoint truncated in data for {name}")
                arr = np.frombuffer(raw, dtype=dtype).reshape(shape).astype(np.dtype(dt))
                store.add(name, arr)
            if f.read(1):
                raise ParseError("trailer", "checkpoint has trailing bytes")
            store.meta = manifest.get("meta", {})
        return store
