"""Atomic, checksummed, resumable checkpoints.

File format (``.gendt`` container, extension-agnostic)::

    MAGIC (8 bytes)  "GENDTCK1"
    header_len       uint64 big-endian
    header_json      UTF-8 JSON: {"schema_version", "payload_sha256",
                                  "payload_size", "meta": {...}}
    header_sha256    32 raw bytes over header_json
    payload          an .npz archive of the checkpoint arrays

Writes go to a temp file in the destination directory, are fsync'd, and land
via ``os.replace`` — a crash mid-write can never leave a half-written file
under the final name.  Loads verify the magic, the header digest, the schema
version and the payload SHA-256 before a single array is deserialized; any
mismatch raises :class:`CheckpointCorruptError`, so a truncated disk or a
bit-flip is reported instead of silently loading garbage weights.

Training checkpoints capture *everything* ``GenDTTrainer.fit`` needs to
continue bit-exactly: generator and discriminator parameters, both Adam
states (including learning rates, which a :class:`HealthGuard` may have
backed off), the epoch index, the RNG bit-generator state and the
:class:`TrainingHistory` so far.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from .errors import CheckpointCorruptError

PathLike = Union[str, Path]

MAGIC = b"GENDTCK1"
SCHEMA_VERSION = 1

#: Name prefix of managed epoch checkpoints (``ckpt-000003.gendt``).  One
#: directory holds one run's checkpoints, so there is nothing to tell apart.
_CKPT_PREFIX = "ckpt"
_CKPT_NAME = re.compile(rf"^{_CKPT_PREFIX}-(?P<epoch>\d{{6}})\.gendt$")


# ----------------------------------------------------------------------
# Container read/write
# ----------------------------------------------------------------------
def write_checkpoint(
    path: PathLike, arrays: Dict[str, np.ndarray], meta: Optional[Dict[str, Any]] = None
) -> Path:
    """Atomically write ``arrays`` + ``meta`` as a checksummed checkpoint."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    payload = buffer.getvalue()
    header = json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload_size": len(payload),
            "meta": meta or {},
        },
        sort_keys=True,
    ).encode("utf-8")
    fd, tmp_name = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(MAGIC)
            handle.write(len(header).to_bytes(8, "big"))
            handle.write(header)
            handle.write(hashlib.sha256(header).digest())
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_dir(path.parent)
    return path


def _fsync_dir(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def read_checkpoint(path: PathLike) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Load and verify a checkpoint; returns ``(arrays, meta)``.

    Raises:
        CheckpointCorruptError: missing file, bad magic, header/payload
            checksum mismatch, truncation, or an unknown schema version.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError as exc:
        raise CheckpointCorruptError(f"checkpoint not found: {exc}", path=str(path)) from exc
    except OSError as exc:
        raise CheckpointCorruptError(f"unreadable: {exc}", path=str(path)) from exc
    if len(raw) < len(MAGIC) + 8 or raw[: len(MAGIC)] != MAGIC:
        raise CheckpointCorruptError("bad magic (not a GenDT checkpoint)", path=str(path))
    cursor = len(MAGIC)
    header_len = int.from_bytes(raw[cursor : cursor + 8], "big")
    cursor += 8
    if header_len <= 0 or cursor + header_len + 32 > len(raw):
        raise CheckpointCorruptError("truncated header", path=str(path))
    header_bytes = raw[cursor : cursor + header_len]
    cursor += header_len
    digest = raw[cursor : cursor + 32]
    cursor += 32
    if hashlib.sha256(header_bytes).digest() != digest:
        raise CheckpointCorruptError("header checksum mismatch", path=str(path))
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(f"unparseable header: {exc}", path=str(path)) from exc
    version = header.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CheckpointCorruptError(
            f"unsupported schema version {version!r} (expected {SCHEMA_VERSION})",
            path=str(path),
        )
    payload = raw[cursor:]
    if len(payload) != header.get("payload_size"):
        raise CheckpointCorruptError(
            f"payload size mismatch: expected {header.get('payload_size')}, "
            f"got {len(payload)}",
            path=str(path),
        )
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise CheckpointCorruptError("payload checksum mismatch", path=str(path))
    try:
        with np.load(io.BytesIO(payload)) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except Exception as exc:  # malformed zip despite good checksum
        raise CheckpointCorruptError(f"unreadable payload: {exc}", path=str(path)) from exc
    return arrays, header.get("meta", {})


# ----------------------------------------------------------------------
# Rotating retention
# ----------------------------------------------------------------------
class CheckpointManager:
    """Writes a checkpoint every ``every`` epochs into a directory, keeping
    the newest ``keep_last``."""

    def __init__(self, directory: PathLike, every: int = 1, keep_last: int = 3) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        self.directory = Path(directory)
        self.every = every
        self.keep_last = keep_last

    def due(self, epoch: int) -> bool:
        """Whether a checkpoint is due after finishing ``epoch`` (0-based)."""
        return (epoch + 1) % self.every == 0

    def path_for(self, epoch: int) -> Path:
        return self.directory / f"{_CKPT_PREFIX}-{epoch:06d}.gendt"

    def checkpoints(self) -> List[Tuple[int, Path]]:
        """``(epoch, path)`` pairs, oldest first."""
        found = []
        if self.directory.is_dir():
            for entry in self.directory.iterdir():
                match = _CKPT_NAME.match(entry.name)
                if match:
                    found.append((int(match.group("epoch")), entry))
        return sorted(found)

    def latest(self) -> Optional[Path]:
        """The newest (highest-epoch) checkpoint, or None if there is none."""
        existing = self.checkpoints()
        return existing[-1][1] if existing else None

    def save(
        self, arrays: Dict[str, np.ndarray], meta: Dict[str, Any], epoch: int
    ) -> Path:
        path = write_checkpoint(self.path_for(epoch), arrays, meta)
        self._prune()
        return path

    def _prune(self) -> None:
        existing = self.checkpoints()
        for _, stale in existing[: max(0, len(existing) - self.keep_last)]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - raced deletion is fine
                pass


# ----------------------------------------------------------------------
# Trainer state capture / restore
# ----------------------------------------------------------------------
def capture_trainer_state(
    trainer, epoch: int, extra_meta: Optional[Dict[str, Any]] = None
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Snapshot a :class:`GenDTTrainer` after finishing ``epoch`` (0-based).

    The snapshot is complete: restoring it and continuing reproduces an
    uninterrupted run bit-exactly, because the shared RNG's bit-generator
    state is captured alongside parameters and optimizer moments.
    """
    arrays: Dict[str, np.ndarray] = {}
    for name, value in trainer.generator.state_dict().items():
        arrays[f"model.{name}"] = value
    for key, value in trainer.g_optimizer.state_dict().items():
        arrays[f"optg.{key}"] = value
    if trainer.discriminator is not None:
        for name, value in trainer.discriminator.state_dict().items():
            arrays[f"disc.{name}"] = value
        for key, value in trainer.d_optimizer.state_dict().items():
            arrays[f"optd.{key}"] = value
    meta: Dict[str, Any] = {
        "kind": "trainer",
        "epoch": int(epoch),
        "rng_state": trainer.rng.bit_generator.state,
        "history": asdict(trainer.history),
    }
    if extra_meta:
        meta.update(extra_meta)
    return arrays, meta


def restore_trainer_state(trainer, arrays: Dict[str, np.ndarray], meta: Dict[str, Any]) -> int:
    """Restore a snapshot into ``trainer``; returns the next epoch index."""
    if meta.get("kind") != "trainer":
        raise CheckpointCorruptError(
            f"not a trainer checkpoint (kind={meta.get('kind')!r})"
        )
    split: Dict[str, Dict[str, np.ndarray]] = {"model": {}, "disc": {}, "optg": {}, "optd": {}}
    for key, value in arrays.items():
        namespace, _, name = key.partition(".")
        if namespace in split:
            split[namespace][name] = value
    trainer.generator.load_state_dict(split["model"])
    trainer.g_optimizer.load_state_dict(split["optg"])
    if trainer.discriminator is not None:
        if not split["disc"]:
            raise CheckpointCorruptError("checkpoint lacks discriminator state")
        trainer.discriminator.load_state_dict(split["disc"])
        trainer.d_optimizer.load_state_dict(split["optd"])
    trainer.rng.bit_generator.state = meta["rng_state"]
    history = meta.get("history", {})
    for field_name, values in history.items():
        if hasattr(trainer.history, field_name):
            setattr(trainer.history, field_name, list(values))
    return int(meta["epoch"]) + 1
