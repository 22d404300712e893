import hashlib
import json
import struct

import numpy as np
import pytest

from mmadapt.checkpoint import load_checkpoint, save_checkpoint
from mmadapt.errors import (
    CheckpointVersionError,
    ComponentKindError,
    ConfigError,
    CorruptCheckpointError,
)
from mmadapt.model import ProjectorConfig, SpeechProjector
from mmadapt.rng import Rng


@pytest.fixture
def proj_params():
    proj = SpeechProjector(ProjectorConfig(n_layers=1, n_heads=2, d_in=8, d_ffn=12, d_out=16), Rng(1))
    return proj.param_arrays()


def test_round_trip_bit_identical(tmp_path, proj_params):
    path = tmp_path / "proj.ckpt"
    digest = save_checkpoint("projector", proj_params, {"d_in": 8}, path)
    bundle = load_checkpoint(path)
    assert bundle.component == "projector"
    assert bundle.digest == digest
    assert bundle.config == {"d_in": 8}
    assert set(bundle.arrays) == set(proj_params)
    for name, arr in proj_params.items():
        assert bundle.arrays[name].dtype == np.float32
        np.testing.assert_array_equal(bundle.arrays[name], arr)


def test_unknown_component_kind_is_a_config_error(tmp_path, proj_params):
    path = tmp_path / "x.ckpt"
    with pytest.raises(ConfigError, match="unknown component kind"):
        save_checkpoint("encoder", proj_params, {}, path)
    assert not path.exists()


def test_save_load_save_is_stable(tmp_path, proj_params):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    d1 = save_checkpoint("projector", proj_params, {}, p1)
    d2 = save_checkpoint("projector", load_checkpoint(p1).arrays, {}, p2)
    assert d1 == d2


def test_truncated_file_is_corrupt(tmp_path, proj_params):
    path = tmp_path / "proj.ckpt"
    save_checkpoint("projector", proj_params, {}, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(path)


def test_bit_flip_is_corrupt(tmp_path, proj_params):
    path = tmp_path / "proj.ckpt"
    save_checkpoint("projector", proj_params, {}, path)
    raw = bytearray(path.read_bytes())
    raw[60] ^= 0x40
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(path)


def test_failed_write_leaves_previous_bundle_loadable(tmp_path, proj_params, monkeypatch):
    import os

    path = tmp_path / "proj.ckpt"
    digest = save_checkpoint("projector", proj_params, {"gen": 1}, path)

    def crash(fd):
        raise OSError("simulated crash mid-write")

    monkeypatch.setattr(os, "fsync", crash)
    newer = {k: a + 1.0 for k, a in proj_params.items()}
    with pytest.raises(OSError):
        save_checkpoint("projector", newer, {"gen": 2}, path)
    bundle = load_checkpoint(path)
    assert bundle.digest == digest and bundle.config == {"gen": 1}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["proj.ckpt"]  # no temporary file left


def test_cross_component_load_rejected(tmp_path, proj_params):
    path = tmp_path / "lora.ckpt"
    save_checkpoint("lora", proj_params, {}, path)
    with pytest.raises(ComponentKindError):
        load_checkpoint(path, expect_component="backbone")


def test_version_mismatch_rejected(tmp_path, proj_params):
    path = tmp_path / "proj.ckpt"
    save_checkpoint("projector", proj_params, {}, path)
    raw = bytearray(path.read_bytes())[:-32]
    struct.pack_into("<I", raw, 4, 99)  # bump version, then re-sign
    raw += hashlib.sha256(bytes(raw)).digest()
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def _with_header(path, edit) -> None:
    """Rewrite the bundle at `path` with its JSON header replaced by
    `edit(header)` (bytes), then re-sign it so the digest verifies."""
    raw = path.read_bytes()[:-32]
    off = 4 + 4 + 2 + struct.unpack_from("<H", raw, 8)[0]
    (hlen,) = struct.unpack_from("<I", raw, off)
    header = edit(json.loads(raw[off + 4 : off + 4 + hlen]))
    body = raw[:off] + struct.pack("<I", len(header)) + header + raw[off + 4 + hlen :]
    path.write_bytes(body + hashlib.sha256(body).digest())


@pytest.mark.parametrize("edit", [
    lambda h: json.dumps({**h, "shapes": {"w": [100, 3]}}).encode(),  # a shape past the payload's end
    lambda h: b"{not json",
    lambda h: json.dumps({**h, "names": ["w", "b"]}).encode(),  # a name missing from shapes
], ids=["shape-past-payload", "not-json", "name-without-shape"])
def test_header_that_disagrees_with_its_payload_is_corrupt(tmp_path, edit):
    path = tmp_path / "w.ckpt"
    save_checkpoint("projector", {"w": np.ones((2, 3), np.float32)}, {}, path)
    _with_header(path, edit)
    with pytest.raises(CorruptCheckpointError, match="header does not match"):
        load_checkpoint(path)


def _resigned(edit):
    """A rewrite that applies `edit` to a bundle's body (bytearray), then
    re-signs it so the digest verifies."""
    def rewrite(raw: bytes) -> bytes:
        body = bytes(edit(bytearray(raw[:-32])))
        return body + hashlib.sha256(body).digest()

    return rewrite


def _kind_not_utf8(body: bytearray) -> bytearray:
    (clen,) = struct.unpack_from("<H", body, 8)
    body[10 : 10 + clen] = b"\xff" * clen
    return body


@pytest.mark.parametrize("rewrite,match", [
    pytest.param(lambda raw: raw[:20], "not a parameter bundle", id="short-file"),
    pytest.param(lambda raw: b"X" + raw[1:], "not a parameter bundle", id="wrong-magic"),
    pytest.param(_resigned(lambda body: body + b"\0\0\0\0"),  # four payload bytes the header does not name
                 "payload size does not match header", id="payload-longer-than-header"),
    pytest.param(_resigned(lambda body: body[:8] + struct.pack("<H", 0xFFFF) + body[10:]),
                 "header does not match", id="kind-past-body"),
    pytest.param(_resigned(_kind_not_utf8), "header does not match", id="kind-not-utf8"),
    pytest.param(_resigned(lambda body: body[: 10 + len("projector") + 2]),  # half a header-length field
                 "header does not match", id="ends-before-header-length"),
])
def test_checkpoint_checks_raise_their_typed_errors(tmp_path, rewrite, match):
    path = tmp_path / "w.ckpt"
    save_checkpoint("projector", {"w": np.ones((2, 3), np.float32)}, {}, path)
    path.write_bytes(rewrite(path.read_bytes()))
    with pytest.raises(CorruptCheckpointError, match=match) as raised:
        load_checkpoint(path)
    assert type(raised.value) is CorruptCheckpointError
