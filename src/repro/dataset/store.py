"""On-disk persistence for the MP-HPC dataset.

Two layers live here:

* **Archives** — ``save_npz``/``load_npz``: one file per finished
  dataset (numeric columns as float arrays, string columns as object
  arrays, the fitted normalizer as an embedded JSON sidecar).  CSV
  round-trips (``MPHPCDataset.save``/``load``) stay as the portable
  format; npz is the fast one.  Round-trips are exact.

* **Shard cache** — :class:`ShardCache`: a content-addressed store of
  *raw run-record shards* keyed by :func:`shard_cache_key`, a stable
  SHA-256 over the full app spec, machine spec, scale, seed, input
  count, and :data:`~repro.dataset.schema.DATASET_SCHEMA_VERSION`.
  ``generate_dataset(cache=...)`` consults it before profiling a shard,
  so a warm rerun skips the simulator entirely.  Entries embed a
  payload checksum; a corrupt or truncated entry is detected, evicted,
  and regenerated rather than served.  Because the key is
  content-derived (never "latest"), a cache can be shared between
  branches or machines without coordination: either the bytes are the
  right ones or the key does not match.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.config import canonical_json
from repro.dataset.features import FeatureNormalizer
from repro.dataset.generate import MPHPCDataset
from repro.dataset.schema import DATASET_SCHEMA_VERSION
from repro.errors import DatasetError
from repro.frame import Frame
from repro.ioutils import atomic_write_json

__all__ = [
    "save_npz",
    "load_npz",
    "CacheStats",
    "ShardCache",
    "shard_cache_key",
]

_META_KEY = "__repro_meta__"


def save_npz(dataset: MPHPCDataset, path: str | Path) -> None:
    """Write the dataset (columns + normalizer) as a compressed npz."""
    frame = dataset.frame
    arrays: dict[str, np.ndarray] = {}
    column_types: dict[str, str] = {}
    for name in frame.columns:
        col = frame[name]
        if col.dtype == object:
            arrays[f"col_{name}"] = np.array([str(v) for v in col])
            column_types[name] = "str"
        else:
            arrays[f"col_{name}"] = np.asarray(col)
            column_types[name] = str(col.dtype)
    meta = {
        "columns": frame.columns,
        "column_types": column_types,
        "normalizer": dataset.normalizer.to_dict(),
        "feature_columns": list(dataset.feature_columns),
        "target_columns": list(dataset.target_columns),
    }
    arrays[_META_KEY] = np.array(json.dumps(meta))
    np.savez_compressed(Path(path), **arrays)


def load_npz(path: str | Path) -> MPHPCDataset:
    """Read a dataset written by :func:`save_npz`."""
    with np.load(Path(path), allow_pickle=False) as archive:
        if _META_KEY not in archive:
            raise DatasetError(f"{path} is not a repro dataset archive")
        meta = json.loads(str(archive[_META_KEY]))
        data: dict[str, np.ndarray] = {}
        for name in meta["columns"]:
            arr = archive[f"col_{name}"]
            if meta["column_types"][name] == "str":
                data[name] = arr.astype(object)
            else:
                data[name] = arr
    return MPHPCDataset(
        frame=Frame(data),
        normalizer=FeatureNormalizer.from_dict(meta["normalizer"]),
        feature_columns=tuple(meta["feature_columns"]),
        target_columns=tuple(meta["target_columns"]),
    )


# ---------------------------------------------------------------------------
# Content-addressed shard cache
# ---------------------------------------------------------------------------
#: Deterministic JSON encoding — shared with config hashing and run
#: manifests so every content address in the package agrees on bytes.
_canonical_json = canonical_json


def shard_cache_key(app_spec, machine_spec, scale: str, seed: int,
                    inputs_per_app: int) -> str:
    """SHA-256 content address of one generation shard.

    The digest covers everything the shard's records are a function of:
    the complete application and machine dataclasses (so editing any
    model parameter invalidates exactly the affected entries), the run
    scale, the root seed, the input count, and the dataset schema
    version.
    """
    material = {
        "schema_version": DATASET_SCHEMA_VERSION,
        "app": asdict(app_spec),
        "machine": asdict(machine_spec),
        "scale": scale,
        "seed": int(seed),
        "inputs_per_app": int(inputs_per_app),
    }
    return hashlib.sha256(_canonical_json(material).encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one :class:`ShardCache`.

    The same typed object flows everywhere cache behaviour is observed:
    the cache accrues into its own instance, ``generate_dataset``
    returns the per-generation delta on the dataset, telemetry counters
    are fed from it, and the CLI prints it — so tests, telemetry, and
    output can never disagree about what a "hit" is.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Fold *other*'s counts into this instance; returns self."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        return self

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The delta accrued after the *earlier* snapshot was taken."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
        )

    def copy(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.evictions)


@dataclass
class ShardCache:
    """Content-addressed on-disk cache of raw run-record shards.

    One JSON file per shard, named by its :func:`shard_cache_key`
    digest.  The payload embeds a SHA-256 checksum of the record list;
    :meth:`get` verifies it (plus the key echo) before serving, and a
    failed check deletes the entry and reports a miss — corruption can
    cost a regeneration, never a wrong dataset.

    Parameters
    ----------
    cache_dir:
        Directory for entries (created on first write).
    max_entries:
        Optional size cap; exceeding it evicts the oldest entries
        (by modification time) after each write.
    """

    cache_dir: str | Path
    max_entries: int | None = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.cache_dir = Path(self.cache_dir)
        if self.max_entries is not None and self.max_entries < 1:
            raise ValueError("max_entries must be >= 1")

    def _path(self, digest: str) -> Path:
        return Path(self.cache_dir) / f"{digest}.json"

    def get(self, digest: str) -> list[dict] | None:
        """Records for *digest*, or None on miss/corruption (counted)."""
        path = self._path(digest)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (json.JSONDecodeError, OSError, UnicodeDecodeError):
            self._evict(path)
            self.stats.misses += 1
            return None
        if not self._valid(payload, digest):
            self._evict(path)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload["records"]

    def put(self, digest: str, records: list[dict]) -> None:
        """Store *records* under *digest* (atomic write-then-rename)."""
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": digest,
            "schema_version": DATASET_SCHEMA_VERSION,
            "checksum": self._checksum(records),
            "records": records,
        }
        atomic_write_json(path, payload, indent=None, sort_keys=False)
        if self.max_entries is not None:
            self._prune()

    def __len__(self) -> int:
        return len(list(Path(self.cache_dir).glob("*.json")))

    @staticmethod
    def _checksum(records: list[dict]) -> str:
        return hashlib.sha256(_canonical_json(records).encode()).hexdigest()

    def _valid(self, payload, digest: str) -> bool:
        if not isinstance(payload, dict):
            return False
        if payload.get("key") != digest:
            return False
        if payload.get("schema_version") != DATASET_SCHEMA_VERSION:
            return False
        records = payload.get("records")
        if not isinstance(records, list):
            return False
        return payload.get("checksum") == self._checksum(records)

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
        self.stats.evictions += 1

    def _prune(self) -> None:
        entries = sorted(
            Path(self.cache_dir).glob("*.json"),
            key=lambda p: (p.stat().st_mtime, p.name),
        )
        while len(entries) > self.max_entries:
            self._evict(entries.pop(0))
