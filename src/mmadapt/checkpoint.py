"""Versioned binary parameter bundles.

Layout: magic, format version, component kind, JSON header (name order,
shapes, config echo), little-endian float32 payload, then a SHA-256 digest
of everything before it. Loading verifies the digest, the version, the
header against the payload and, when requested, the component kind.
Saving writes a temporary sibling file and renames it over the target, so
a crash mid-write leaves the previous bundle intact.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CheckpointVersionError,
    ComponentKindError,
    ConfigError,
    CorruptCheckpointError,
)

MAGIC = b"MMAD"
FORMAT_VERSION = 1
COMPONENT_KINDS = ("backbone", "projector", "lora")


@dataclass
class CheckpointBundle:
    component: str
    arrays: dict[str, np.ndarray]
    config: dict
    digest: str


def save_checkpoint(component: str, params: dict[str, np.ndarray], config: dict, path) -> str:
    """Write a bundle; returns the hex digest. Arrays are stored as
    little-endian float32 (cast if needed)."""
    if component not in COMPONENT_KINDS:
        raise ConfigError(f"unknown component kind {component!r}")
    names = list(params)
    arrays = {k: np.ascontiguousarray(np.asarray(v), dtype="<f4") for k, v in params.items()}
    header = json.dumps(
        {"names": names, "shapes": {k: list(a.shape) for k, a in arrays.items()}, "config": config},
        sort_keys=True,
    ).encode()
    comp = component.encode()
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", FORMAT_VERSION)
    blob += struct.pack("<H", len(comp)) + comp
    blob += struct.pack("<I", len(header)) + header
    for name in names:
        blob += arrays[name].tobytes()
    digest = hashlib.sha256(bytes(blob)).digest()
    blob += digest
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(blob)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hex()


def load_checkpoint(path, expect_component: str | None = None) -> CheckpointBundle:
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 4 + 2 + 4 + 32 or raw[: len(MAGIC)] != MAGIC:
        raise CorruptCheckpointError(f"{path}: not a parameter bundle")
    body, stored = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != stored:
        raise CorruptCheckpointError(f"{path}: digest mismatch (truncated or altered)")
    # The digest only proves the file is what was written: a header that
    # disagrees with itself or with its payload still fails here, as a
    # corrupt bundle.
    try:
        off = len(MAGIC)
        (version,) = struct.unpack_from("<I", body, off)
        off += 4
        if version != FORMAT_VERSION:
            raise CheckpointVersionError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
        (clen,) = struct.unpack_from("<H", body, off)
        off += 2
        (kind,) = struct.unpack_from(f"<{clen}s", body, off)  # struct.error if it runs past the body
        component = kind.decode()
        off += clen
        if expect_component is not None and component != expect_component:
            raise ComponentKindError(f"{path}: holds {component!r}, expected {expect_component!r}")
        (hlen,) = struct.unpack_from("<I", body, off)
        off += 4
        header = json.loads(body[off : off + hlen].decode())
        off += hlen
        arrays: dict[str, np.ndarray] = {}
        for name in header["names"]:
            shape = tuple(header["shapes"][name])
            count = int(np.prod(shape)) if shape else 1
            arrays[name] = np.frombuffer(body, dtype="<f4", count=count, offset=off).reshape(shape).copy()
            off += count * 4
        config = header["config"]
    except (ValueError, KeyError, TypeError, struct.error) as e:  # UnicodeDecodeError is a ValueError
        raise CorruptCheckpointError(f"{path}: header does not match its payload ({e!r})") from e
    if off != len(body):
        raise CorruptCheckpointError(f"{path}: payload size does not match header")
    return CheckpointBundle(
        component=component,
        arrays=arrays,
        config=config,
        digest=stored.hex(),
    )
