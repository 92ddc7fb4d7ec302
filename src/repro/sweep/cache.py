"""Content-addressed on-disk cache of simulation results.

Each entry is one JSON file named after the :meth:`JobSpec.key` content
hash, sharded into 256 two-hex-digit subdirectories (``ab/ab12...json``)
so a full sweep never piles thousands of files into one directory.
Entries store the spec (for ``status``/debugging), the serialised
:class:`~repro.sim.metrics.SimulationResult` and execution metadata
(wall time, attempts).

Writes are atomic — serialise to a temp file in the same directory, then
``os.replace`` — so a sweep killed mid-write never leaves a truncated
entry, and concurrent writers of the same key simply race to an
identical file.  A corrupt or unreadable entry is treated as a miss and
deleted, never an error: the cache is a pure accelerator.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.sim.metrics import SimulationResult
from repro.sweep.jobs import JobSpec

#: cache directory used when none is given: ``REPRO_SWEEP_CACHE`` if set,
#: else ``.repro_sweep_cache`` under the current directory.
ENV_CACHE_DIR = "REPRO_SWEEP_CACHE"
DEFAULT_CACHE_DIRNAME = ".repro_sweep_cache"


def default_cache_dir() -> Path:
    return Path(os.environ.get(ENV_CACHE_DIR, DEFAULT_CACHE_DIRNAME))


class ResultCache:
    """Directory of ``<key>.json`` simulation results, keyed by content."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def contains(self, key: str) -> bool:
        return self.path(key).is_file()

    def get(self, key: str) -> Optional[SimulationResult]:
        """The cached result for ``key``, or None on miss/corruption."""
        entry = self.get_entry(key)
        if entry is None:
            return None
        try:
            return SimulationResult.from_dict(entry["result"])
        except (KeyError, TypeError, ValueError):
            self.evict(key)
            return None

    def get_entry(self, key: str) -> Optional[Dict[str, Any]]:
        """The raw cache entry (spec + result + meta), or None.  An entry
        that does not decode, does not parse, is not an object or names
        another key is evicted and reads as a miss."""
        try:
            with open(self.path(key), encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, RecursionError):
            entry = None  # UnicodeDecodeError and JSONDecodeError included
        if isinstance(entry, dict) and entry.get("key") == key:
            return entry
        self.evict(key)
        return None

    def put(
        self,
        spec: JobSpec,
        result: SimulationResult,
        meta: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Persist one result atomically; returns the entry's key."""
        key = spec.key()
        p = self.path(key)
        p.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": key,
            "spec": spec.to_dict(),
            "result": result.to_dict(),
            "meta": dict(meta or {}),
        }
        fd, tmp = tempfile.mkstemp(
            dir=p.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh)
                fh.write("\n")
            os.replace(tmp, p)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return key

    def evict(self, key: str) -> None:
        try:
            os.unlink(self.path(key))
        except OSError:
            pass

    def keys(self) -> Iterator[str]:
        if not self.root.is_dir():
            return
        for p in sorted(self.root.glob("??/*.json")):
            yield p.stem

    def size_bytes(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(p.stat().st_size for p in self.root.glob("??/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        n = 0
        for key in list(self.keys()):
            self.evict(key)
            n += 1
        # prune now-empty shard directories (best-effort)
        if self.root.is_dir():
            for shard in self.root.glob("??"):
                try:
                    shard.rmdir()
                except OSError:
                    pass
        return n
