"""Deterministic binary container: one JSON header line, then raw array bytes.

Used for model checkpoints, hierarchy caches, and contribution tables. The
byte stream is a pure function of the content, so equal inputs produce equal
files (required for checksum-based reproducibility checks). The text files
(library, labels, oracle, query) are read through `utf8_text`.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager

import numpy as np

MAGIC = "apexblob1"


class BlobError(ValueError):
    """A blob file that is not a complete, well-formed apexblob1 container."""


def save_blob(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    header = {
        "magic": MAGIC,
        "meta": meta,
        "arrays": [
            {"name": k, "dtype": str(v.dtype), "shape": list(v.shape)}
            for k, v in arrays.items()
        ],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for v in arrays.values():
            fh.write(np.ascontiguousarray(v).tobytes())


def load_blob(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a blob; raise BlobError on a bad header, a short payload or trailing bytes."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode())
        except (UnicodeDecodeError, ValueError):
            raise BlobError(f"{path}: not an {MAGIC} file (no JSON header line)") from None
        if not isinstance(header, dict) or header.get("magic") != MAGIC:
            raise BlobError(f"{path}: not an {MAGIC} file")
        try:
            meta = header["meta"]
            specs = [
                (spec["name"], np.dtype(spec["dtype"]), tuple(int(n) for n in spec["shape"]))
                for spec in header["arrays"]
            ]
        except (ValueError, TypeError, KeyError):
            raise BlobError(f"{path}: bad {MAGIC} header") from None
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        arrays = {}
        for name, dtype, shape in specs:
            if dtype.hasobject or any(n < 0 for n in shape):
                raise BlobError(f"{path}: array {name!r} has a bad dtype or shape")
            size = math.prod(shape) * dtype.itemsize
            if size > remaining:
                raise BlobError(f"{path}: array {name!r} is cut short ({remaining} of {size} bytes)")
            arrays[name] = np.frombuffer(fh.read(size), dtype=dtype).reshape(shape).copy()
            remaining -= size
        if remaining:
            raise BlobError(f"{path}: {remaining} trailing bytes after the last array")
    return meta, arrays


@contextmanager
def utf8_text(path, error: type[Exception]):
    """A text file opened for reading as UTF-8. Bytes that do not decode, read
    anywhere in the with block, raise `error`, the reading module's own."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


@contextmanager
def naming(path, error: type[Exception]):
    """Re-raise each `error` raised in the with block with the file's path in front."""
    try:
        yield
    except error as exc:
        raise error(f"{path}: {exc}") from None


def load_meta_blob(path, kind: str, version: int, error: type[Exception], **fields):
    """load_blob for a blob of this kind and version whose meta holds every
    field as its spec says (`fits`); `error`, the loading module's own, otherwise."""
    meta, arrays = load_blob(path)
    name = kind.replace("_", " ")
    if not (isinstance(meta, dict) and meta.get("kind") == kind and meta.get("version") == version):
        raise error(f"{path}: not a version-{version} {name}")
    for field, spec in fields.items():
        if not fits(meta.get(field), spec):
            raise error(f"{path}: {name} meta field {field!r} is missing or malformed")
    return meta, arrays


def check_arrays(path, arrays: dict[str, np.ndarray], expected: dict[str, np.ndarray], error: type[Exception]):
    """Raise `error` unless the blob's arrays have exactly the expected names,
    each with the expected array's dtype and shape."""
    if arrays.keys() != expected.keys():
        raise error(f"{path}: holds arrays {sorted(arrays)}, expected {sorted(expected)}")
    for name, want in expected.items():
        got = arrays[name]
        if (got.dtype, got.shape) != (want.dtype, want.shape):
            raise error(f"{path}: array dtypes and shapes do not match: {name!r} is {got.dtype} "
                        f"{list(got.shape)}, expected {want.dtype} {list(want.shape)}")


def fits(value, spec) -> bool:
    """True if a JSON value has the spec's shape: a type or tuple of types (a
    boolean fits only bool), a set of the strings allowed, a list of item specs
    (one for any length, else one per item), or a dict of specs with exactly
    the spec's keys."""
    if isinstance(spec, frozenset):
        return isinstance(value, str) and value in spec
    if isinstance(spec, list):
        each = spec * len(value) if isinstance(value, list) and len(spec) == 1 else spec
        return isinstance(value, list) and len(value) == len(each) and all(map(fits, value, each))
    if isinstance(spec, dict):
        return (isinstance(value, dict) and value.keys() == spec.keys()
                and all(fits(value[k], s) for k, s in spec.items()))
    return isinstance(value, spec) and (spec is bool or not isinstance(value, bool))
