"""Content-addressed on-disk cache for experiment results.

A cache entry's key is the SHA-256 of everything the result depends on:

- the experiment id and its JSON-canonical parameters;
- a **code fingerprint** — the hash of every ``repro`` source file plus the
  orchestrator's result schema version.  Experiments reach through
  ``analysis``, ``core``, ``backend`` and friends, so the fingerprint is
  deliberately package-wide: any source edit invalidates the whole cache
  rather than risking a stale number (the full suite rebuilds in seconds).

The compute backend is not part of the key: every experiment's numbers are
the same on every backend, so a result built on one serves requests for all.

Entries are whole :meth:`ExperimentResult.to_dict` documents written
atomically (temp file + rename), so a killed run never leaves a torn entry.
Each stored document also records the code fingerprint it was keyed under,
which is what lets :meth:`ResultCache.prune` identify entries orphaned by a
source edit without being able to invert the content hash.
Corrupt or unreadable entries degrade to cache misses.

Long-lived processes (the HTTP result service) refresh the memoized
fingerprint through :func:`compute_code_fingerprint` /
:func:`set_code_fingerprint` so a server picks up source edits instead
of serving results keyed to code that no longer exists.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Tuple

from repro.core.exceptions import OrchestrationError
from repro.experiments.orchestrator.result import (
    RESULT_SCHEMA_VERSION,
    ExperimentResult,
)
from repro.experiments.orchestrator.spec import ExperimentSpec
from repro.testing.chaos import chaos_checkpoint

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: How old a ``.tmp-*`` file must be before prune()/stats() treat it as
#: leaked.  A fresh temp file is a store() in flight somewhere — deleting it
#: would make that writer's atomic rename fail.
TEMP_FILE_MAX_AGE_SECONDS = 3600.0

_package_fingerprint_cache: Optional[str] = None


def default_cache_dir() -> str:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``.repro-cache``."""
    return os.environ.get(CACHE_DIR_ENV_VAR) or DEFAULT_CACHE_DIR


def code_fingerprint() -> str:
    """Hash of every ``.py`` file in the installed ``repro`` package.

    Every cache key embeds it.  Experiments pull numbers from
    ``analysis``/``core``/``backend``/..., so a per-module hash would serve stale results after an edit anywhere
    else in the library; hashing the whole package trades cache lifetime
    for correctness.  Memoized per process (a batch run's source does not
    change mid-run); long-lived processes refresh the memo through
    :func:`invalidate_code_fingerprint`.
    """
    global _package_fingerprint_cache
    if _package_fingerprint_cache is None:
        _package_fingerprint_cache = compute_code_fingerprint()
    return _package_fingerprint_cache


def compute_code_fingerprint() -> str:
    """Hash the source tree *without* touching the memo.

    The result service computes this in a worker thread and applies it with
    :func:`set_code_fingerprint` from the event loop, so the memo only ever
    changes in the same thread that swaps the process pool — keeping
    "which code runs" and "which fingerprint keys it" a consistent pair.
    """
    import repro

    package_root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for directory, _, filenames in sorted(os.walk(package_root)):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            digest.update(os.path.relpath(path, package_root).encode("utf-8"))
            try:
                with open(path, "rb") as handle:
                    digest.update(handle.read())
            except OSError:  # pragma: no cover - deleted source mid-run
                digest.update(b"<unreadable>")
    return digest.hexdigest()


def set_code_fingerprint(value: str) -> None:
    """Install a fingerprint computed via :func:`compute_code_fingerprint`."""
    global _package_fingerprint_cache
    _package_fingerprint_cache = value


def invalidate_code_fingerprint() -> None:
    """Drop the memoized code fingerprint so the next use re-hashes the tree.

    Call this before any cache-key computation whose correctness depends on
    the *current* source — the golden-snapshot refresh path and the HTTP
    result service's periodic refresh both do.
    """
    global _package_fingerprint_cache
    _package_fingerprint_cache = None


@dataclass(frozen=True)
class CacheStats:
    """What :meth:`ResultCache.stats` / :meth:`ResultCache.prune` report.

    Attributes:
        directory: the cache directory the numbers describe.
        entries: committed entries keyed to the *current* code fingerprint.
        stale_entries: committed entries keyed to any other fingerprint
            (orphaned by a source edit — unreachable until pruned).
        temp_files: leaked ``.tmp-*`` files from killed writers.
        total_bytes: on-disk size of everything counted above.
    """

    directory: str
    entries: int = 0
    stale_entries: int = 0
    temp_files: int = 0
    total_bytes: int = 0


@dataclass(frozen=True)
class PruneReport:
    """What one :meth:`ResultCache.prune` / :meth:`ResultCache.clear` did.

    Attributes:
        directory: the cache directory that was pruned.
        removed_entries: committed entries deleted.
        removed_temp_files: leaked ``.tmp-*`` files deleted.
        kept_entries: committed entries still present afterwards.
        freed_bytes: on-disk size of everything deleted.
    """

    directory: str
    removed_entries: int = 0
    removed_temp_files: int = 0
    kept_entries: int = 0
    freed_bytes: int = 0


class ResultCache:
    """Directory of content-addressed experiment results."""

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory or default_cache_dir()

    def key_for(
        self,
        spec: ExperimentSpec,
        params_dict: Mapping[str, Any],
        *,
        fingerprint: Optional[str] = None,
    ) -> str:
        """The content hash addressing ``spec`` run with these inputs.

        ``fingerprint`` pins the code fingerprint the key embeds; callers
        that later :meth:`store` under this key should capture one
        :func:`code_fingerprint` value and pass it to both calls, so a
        concurrent refresh cannot make the stored entry's recorded
        fingerprint disagree with its key.
        """
        material = json.dumps(
            {
                "schema": RESULT_SCHEMA_VERSION,
                "experiment_id": spec.experiment_id,
                "params": params_dict,
                "code": fingerprint if fingerprint is not None else code_fingerprint(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def load(self, key: str) -> Optional[ExperimentResult]:
        """The cached result for ``key``, or ``None`` on miss/corruption."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        try:
            result = ExperimentResult.from_dict(document)
        except OrchestrationError:
            return None
        # Kernel counters and peak RSS describe the run that *built* the
        # result; a cache hit ran no kernels and cost no build memory, so
        # they reset along with the cached flag.
        return result.with_volatile(
            wall_time_seconds=result.wall_time_seconds,
            cached=True,
            kernel_counters={},
            peak_rss_kb=0,
        )

    def store(
        self,
        key: str,
        document: Mapping[str, Any],
        *,
        fingerprint: Optional[str] = None,
    ) -> str:
        """Atomically persist a result's document under ``key``; returns the path.

        ``document`` is :meth:`ExperimentResult.to_dict` output, or a pool
        worker's return value, which is that document already and is stored
        as given.  ``fingerprint`` must be the one ``key`` was computed
        under when the two calls can straddle a refresh (the HTTP service);
        the default is only safe for batch runs, where the memo cannot
        change in between.
        """
        path = self._path(key)
        document = dict(document)
        # The content key embeds the fingerprint but cannot be inverted, so
        # prune() needs it recorded in the entry itself to recognize entries
        # orphaned by a source edit.
        document["code_fingerprint"] = (
            fingerprint if fingerprint is not None else code_fingerprint()
        )
        try:
            os.makedirs(self.directory, exist_ok=True)
            descriptor, temp_path = tempfile.mkstemp(
                dir=self.directory, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                    # One dumps string: json.dump streams through the
                    # pure-Python iterencode, dumps takes CPython's C encoder
                    # and writes the same bytes.
                    handle.write(
                        json.dumps(document, sort_keys=True, allow_nan=False)
                    )
                    handle.write("\n")
                # Chaos checkpoint between the temp write and the atomic
                # rename: a "crash" here leaves exactly the torn state the
                # tmp+rename protocol exists to keep invisible, and a
                # "corrupt" commits garbage that load() must treat as a miss.
                if chaos_checkpoint("cache-write", key=key) == "corrupt":
                    with open(temp_path, "w", encoding="utf-8") as handle:
                        handle.write('{"torn": ')
                os.replace(temp_path, path)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except OSError as error:
            raise OrchestrationError(
                f"cannot write cache entry to {path!r}: {error}"
            ) from error
        return path

    def invalidate(self, key: str) -> bool:
        """Delete the committed entry for ``key``; ``True`` when one existed.

        The targeted counterpart to :meth:`prune`: a caller that knows one
        specific result is unwanted (an operator retiring a parameter point
        through the cache-admin API) drops exactly that entry without
        touching the rest of the directory.
        """
        if not key or "/" in key or os.sep in key:
            # Keys are hex digests; anything else must not be able to reach
            # outside the cache directory through _path().
            return False
        return self._remove(self._path(key))

    def __len__(self) -> int:
        """Number of committed (non-temporary) entries on disk."""
        return len(self._listing()[0])

    def _listing(self) -> Tuple[List[str], List[str]]:
        """``(entry paths, leaked temp paths)``: the one directory scan.

        A ``.tmp-*`` file younger than ``TEMP_FILE_MAX_AGE_SECONDS`` is a
        :meth:`store` in flight (possibly in another process) and is in
        neither list, so no caller can delete it from under its writer.
        Nothing here reads an entry's body.
        """
        try:
            names = os.listdir(self.directory)
        except OSError:
            return [], []
        entries: List[str] = []
        leaked: List[str] = []
        now = time.time()
        for name in names:
            path = os.path.join(self.directory, name)
            if name.startswith(".tmp-"):
                try:
                    age = now - os.path.getmtime(path)
                except OSError:
                    continue
                if age > TEMP_FILE_MAX_AGE_SECONDS:
                    leaked.append(path)
            elif name.endswith(".json"):
                entries.append(path)
        return entries, leaked

    def _entry_fingerprint(self, path: str) -> Optional[str]:
        """The fingerprint recorded in the entry, ``None`` when unreadable.

        Entries written before fingerprints were recorded (or corrupted
        since) report ``None`` and are treated as stale: their provenance
        cannot be established, so keeping them would only hold disk.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(document, Mapping):
            return None
        fingerprint = document.get("code_fingerprint")
        return fingerprint if isinstance(fingerprint, str) else None

    @staticmethod
    def _size_of(path: str) -> int:
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    @staticmethod
    def _remove(path: str) -> bool:
        try:
            os.unlink(path)
        except OSError:
            return False
        return True

    @classmethod
    def _remove_all(cls, paths: List[str]) -> Tuple[int, int]:
        """``(files removed, bytes freed)`` deleting ``paths``."""
        removed = freed = 0
        for path in paths:
            size = cls._size_of(path)
            if cls._remove(path):
                removed += 1
                freed += size
        return removed, freed

    def stats(self) -> CacheStats:
        """Count live entries, fingerprint-orphaned entries and leaked temps."""
        current = code_fingerprint()
        entries, leaked = self._listing()
        live = sum(1 for path in entries if self._entry_fingerprint(path) == current)
        return CacheStats(
            directory=self.directory,
            entries=live,
            stale_entries=len(entries) - live,
            temp_files=len(leaked),
            total_bytes=sum(self._size_of(path) for path in entries + leaked),
        )

    def prune(self) -> PruneReport:
        """Delete unreachable state: fingerprint-orphaned entries, leaked temps.

        Every source edit changes the package fingerprint and with it every
        cache key, so entries written under a previous fingerprint can never
        be hit again — without pruning, the cache directory grows by a full
        result set per edit, forever.  Entries keyed to the *current*
        fingerprint are kept untouched.
        """
        current = code_fingerprint()
        entries, leaked = self._listing()
        stale = [path for path in entries if self._entry_fingerprint(path) != current]
        removed, freed = self._remove_all(stale)
        temps, temp_bytes = self._remove_all(leaked)
        return PruneReport(
            directory=self.directory,
            removed_entries=removed,
            removed_temp_files=temps,
            kept_entries=len(entries) - len(stale),
            freed_bytes=freed + temp_bytes,
        )

    def clear(self) -> PruneReport:
        """Delete every committed entry (live or stale) and leaked temp file.

        Fresh ``.tmp-*`` files are left alone even here: a young temp file is
        a :meth:`store` in flight somewhere (possibly another process), and
        unlinking it would make that writer's ``os.replace`` raise — a
        ``clear`` must never convert a concurrent write into an
        :class:`~repro.core.exceptions.OrchestrationError`.  The same age
        rule as :meth:`prune` applies, so abandoned temps are still reaped.
        """
        entries, leaked = self._listing()
        removed, freed = self._remove_all(entries)
        temps, temp_bytes = self._remove_all(leaked)
        return PruneReport(
            directory=self.directory,
            removed_entries=removed,
            removed_temp_files=temps,
            kept_entries=0,
            freed_bytes=freed + temp_bytes,
        )
