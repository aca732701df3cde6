"""Disk-backed cache of study results keyed by everything that determines them.

For a pristine chip (one never written to or hammered outside a session --
see :attr:`repro.dram.chip.DramChip.is_pristine`), a study result is a pure
function of (study name, config, chip construction parameters), because
sessions execute studies hermetically against a copy of the chip (see
:mod:`repro.experiments.executors`) and the copies of a pristine chip are
themselves pristine.  Sessions bypass the store for non-pristine chips.  The
:class:`ResultStore` exploits that: results are pickled on disk keyed by a
digest of (study name, config digest, profile, geometry, seed, HC_first
target, remapper), so benchmarks that share a chip population -- for
example Table 4 and Figure 8, or Table 2's DDR3 subset -- stop recomputing
each other's work, across processes and across runs.

Decomposed studies are cached at *work-unit* granularity: every shard of
the grid gets its own entry (the key gains the unit's digest), so a sweep
killed halfway resumes from its completed units, and editing one axis of a
config invalidates only the entries whose unit parameters changed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import pickle
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

try:  # POSIX advisory locking; absent on some platforms (e.g. Windows)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.dram.chip import DramChip
from repro.experiments.study import StudyResult, WorkUnit


@dataclass(frozen=True)
class CacheKey:
    """Identity of one cached study result.

    ``unit_digest`` distinguishes the shards of a decomposed study; the
    empty string means a whole-study result, whose filename matches the
    pre-unit-layer layout so existing caches stay valid.  Unit entries
    carry no config digest: a work unit's parameters must embed every
    config field its payload depends on (see
    :class:`~repro.experiments.study.WorkUnit`), so its digest *is* its
    config scope -- which is what lets an edited config replay every unit
    it did not touch.
    """

    study: str
    config_digest: str
    chip_digest: str
    unit_digest: str = ""

    @property
    def filename(self) -> str:
        if self.unit_digest:
            return f"{self.chip_digest}-u{self.unit_digest}.pkl"
        return f"{self.config_digest}-{self.chip_digest}.pkl"


def chip_digest(chip: Optional[DramChip]) -> str:
    """Digest of everything that determines a chip's initial state.

    A :class:`~repro.dram.chip.DramChip` is rebuilt deterministically from
    its profile, geometry, seed and HC_first target, so those (plus the
    chip id, which seeds nothing but keeps reports unambiguous) fully
    identify the state a hermetic study observes.  ``None`` (system-level
    studies with no chip) digests to a fixed marker.
    """
    if chip is None:
        return "population"
    geometry = chip.geometry
    parts = (
        chip.chip_id,
        chip.profile.type_node.value,
        chip.profile.manufacturer,
        chip.seed,
        chip.hcfirst_target,
        geometry.banks,
        geometry.rows_per_bank,
        geometry.row_bytes,
        chip.remapper.name,
    )
    text = "\x1f".join(repr(part) for part in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class StoreStats:
    """Hit/miss counters of one :class:`ResultStore`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    #: Unreadable entries found by :meth:`ResultStore.get` (each also counts
    #: as a miss).
    corrupt: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0


class ResultStore:
    """Caches :class:`~repro.experiments.study.StudyResult` objects.

    Parameters
    ----------
    root:
        Directory for the on-disk pickle cache (created on first write).
        ``None`` keeps the cache purely in memory -- useful for sharing
        results between studies of one process without touching disk.

    Results served from the store are marked ``from_cache=True`` so callers
    (and the zero-activation acceptance check) can tell replays from fresh
    executions.
    """

    #: Name of the advisory lock file kept at the store root.
    LOCK_FILENAME = ".lock"
    #: Suffix of an unreadable entry renamed aside by :meth:`get`.
    CORRUPT_SUFFIX = ".corrupt"

    def __init__(self, root: Optional[Union[str, os.PathLike]] = None) -> None:
        self.root = Path(root) if root is not None else None
        self.stats = StoreStats()
        self._memory: Dict[CacheKey, StudyResult] = {}

    @contextlib.contextmanager
    def _write_lock(self) -> Iterator[None]:
        """Advisory exclusive lock over the store root for mutating operations.

        Individual entry writes are already crash-safe (unique temp file +
        atomic rename), but a scheduler checkpointing service results and a
        local session can share one store directory; the ``flock`` on
        ``<root>/.lock`` serializes their mutations so concurrent writers
        never interleave a write with a ``clear()`` half-way through.  On
        platforms without ``fcntl`` the store falls back to the (still
        atomic-rename-safe) unlocked behaviour.
        """
        if self.root is None or fcntl is None:
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with (self.root / self.LOCK_FILENAME).open("a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # ------------------------------------------------------------------
    # Key construction
    # ------------------------------------------------------------------
    def key_for(
        self,
        study: str,
        config_digest: str,
        chip: Optional[DramChip],
        unit: Optional[WorkUnit] = None,
    ) -> CacheKey:
        """Cache key for one study result (optionally one work unit of it).

        The implicit whole-study unit maps to the unit-less key, so
        undecomposed studies hit the same cache entries they always did.
        Real units drop the config digest from the key (their own digest
        embeds the unit-relevant config scope), so two configs sharing a
        grid cell share its cache entry.
        """
        if unit is None or unit.is_whole_study:
            return CacheKey(
                study=study, config_digest=config_digest, chip_digest=chip_digest(chip)
            )
        return CacheKey(
            study=study,
            config_digest="",
            chip_digest=chip_digest(chip),
            unit_digest=unit.digest,
        )

    def _path(self, key: CacheKey) -> Optional[Path]:
        if self.root is None:
            return None
        return self.root / key.study / key.filename

    # ------------------------------------------------------------------
    # Cache operations
    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[StudyResult]:
        """Fetch a cached result, or ``None`` on a miss.

        An entry that does not unpickle to a result of ``key``'s study
        (truncated, garbage, or from a broken writer) is a miss: it is
        renamed aside with :attr:`CORRUPT_SUFFIX`, so the unit re-executes
        and the next ``put`` writes a fresh entry.
        """
        result = self._memory.get(key)
        if result is None:
            path = self._path(key)
            if path is not None and path.exists():
                result = self._load(key, path)
                if result is not None:
                    self._memory[key] = result
        if result is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return dataclasses.replace(result, from_cache=True)

    def _load(self, key: CacheKey, path: Path) -> Optional[StudyResult]:
        """Unpickle one entry; ``None`` (entry renamed aside) if unreadable."""
        try:
            with path.open("rb") as handle:
                result = pickle.load(handle)
            if isinstance(result, StudyResult) and result.study == key.study:
                # Rebuilding the envelope also fails if a field went missing.
                return dataclasses.replace(result)
        except Exception:  # noqa: BLE001 - corrupt pickles raise many types
            pass
        self.stats.corrupt += 1
        with self._write_lock(), contextlib.suppress(OSError):
            path.replace(path.with_name(path.name + self.CORRUPT_SUFFIX))
        return None

    def put(self, key: CacheKey, result: StudyResult) -> None:
        """Store a freshly executed result in memory and (if rooted) on disk."""
        stored = dataclasses.replace(result, from_cache=False)
        self._memory[key] = stored
        path = self._path(key)
        if path is not None:
            with self._write_lock():
                path.parent.mkdir(parents=True, exist_ok=True)
                # Per-writer unique temp name: concurrent processes sharing
                # one store root each publish their own complete pickle
                # atomically even if the advisory lock is unavailable.
                tmp = path.with_name(
                    f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
                )
                try:
                    with tmp.open("wb") as handle:
                        pickle.dump(stored, handle)
                    tmp.replace(path)
                finally:
                    # Cleanup only matters on a failed dump/replace, and must
                    # never mask the original exception: the temp file may be
                    # gone already (replace succeeded) or undeletable.
                    with contextlib.suppress(OSError):
                        tmp.unlink(missing_ok=True)
        self.stats.puts += 1

    def contains(self, key: CacheKey) -> bool:
        """Whether a result is cached (without counting a hit or a miss)."""
        if key in self._memory:
            return True
        path = self._path(key)
        return path is not None and path.exists()

    def drop(self, key: CacheKey) -> bool:
        """Evict one cached result (memory and disk); ``True`` if anything was.

        The programmatic way to knock individual work units out of an
        otherwise complete cache (crash simulations that model *external*
        file loss delete the on-disk entries directly instead).
        """
        dropped = self._memory.pop(key, None) is not None
        path = self._path(key)
        if path is not None and path.exists():
            with self._write_lock():
                if path.exists():
                    path.unlink()
                    dropped = True
        return dropped

    def entry_paths(self, study: Optional[str] = None, units_only: bool = False) -> list:
        """Sorted on-disk cache files, optionally restricted to one study.

        ``units_only`` keeps only per-unit entries (shards of decomposed
        studies), whose filenames carry a unit-digest suffix.  Memory-only
        stores have no entry paths.
        """
        if self.root is None or not self.root.exists():
            return []
        pattern = f"{study}/*.pkl" if study is not None else "*/*.pkl"
        paths = sorted(self.root.glob(pattern))
        if units_only:
            # Unit entries are "<chip>-u<unit>.pkl"; digests are hex, so a
            # final dash-separated segment starting with "u" is unambiguous.
            paths = [
                path for path in paths if path.stem.rsplit("-", 1)[-1].startswith("u")
            ]
        return paths

    def clear(self) -> None:
        """Drop every cached result, in memory and on disk."""
        self._memory.clear()
        if self.root is not None and self.root.exists():
            with self._write_lock():
                for study_dir in self.root.iterdir():
                    if not study_dir.is_dir():
                        continue
                    for entry in study_dir.glob("*.pkl"):
                        entry.unlink()

    def __len__(self) -> int:
        if self.root is None:
            return len(self._memory)
        if not self.root.exists():
            return len(self._memory)
        on_disk = sum(1 for _ in self.root.glob("*/*.pkl"))
        return max(on_disk, len(self._memory))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        where = str(self.root) if self.root is not None else "memory"
        return f"ResultStore({where!r}, hits={self.stats.hits}, misses={self.stats.misses})"
