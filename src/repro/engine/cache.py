"""On-disk cache for the engine's expensive build artifacts.

Three artifact kinds are cached, each in its own file under one directory:

* ``catalog-<key>.npz`` — the selectivity catalog (the dominant cost), stored
  as a compressed NumPy archive of its O(nnz) nonzero pair (see
  :meth:`repro.paths.catalog.SelectivityCatalog.save_npz`);
* ``histogram-<key>.json`` — the ordering + bucket table pair;
* ``positions-<key>.npy`` — the domain-position table used by the batched
  hot path (the permutation mapping enumeration order to ordering order).

Large catalogs additionally get *uncompressed* mmap sidecars next to the
``.npz``: a ``catalog-<key>.nzi.npy`` / ``catalog-<key>.nzv.npy`` pair
holding the raw sorted nonzero indices and their counts.  They let domains
past ``|L|^6`` be served through ``np.load(mmap_mode="r")`` without
materialising the arrays in memory (``load_catalog(..., mmap=True)``;
metadata still comes from the ``.npz``, whose members are decompressed
lazily per array), and — because the pages are read-only file cache — let
N forked serving workers share one physical copy of the catalog.  A missing or stale sidecar (older than its
``.npz``, truncated, or shape-mismatched) silently falls back to the regular
in-memory ``.npz`` load.

Artifacts that fail to load (truncated archive, flipped bits, wrong shape)
surface as :class:`~repro.exceptions.EngineError`; the session reacts by
:meth:`ArtifactCache.quarantine`-ing the damaged file — an atomic rename to a
``*.corrupt`` sibling, preserved for inspection but invisible to every glob —
and rebuilding cold, so one corrupt artifact can never poison a key forever.

The cache supports maintenance now that many graphs can share one directory:
:meth:`ArtifactCache.evict` drops every artifact of one key and
:meth:`ArtifactCache.prune` enforces a byte budget by deleting
least-recently-used artifact files first (successful loads touch the file
mtime, so recency tracks reads, not just writes).

Keys are built by the session from the graph digest and a config digest
(:mod:`repro.engine.fingerprint`), so any change to the graph, ``k``, the
ordering, or the histogram parameters lands on a different file and a stale
artifact can never be served.  The config digest also carries a
``catalog_format`` version field (see
:meth:`repro.engine.session.EngineConfig.catalog_fields`), so a change to the
artifact layout re-keys every catalog and an entry of an older format is
never read under a new-format key.  Writes are atomic (temp file +
``os.replace``) so a crashed build never leaves a truncated artifact
behind; a crashed *process* can still
leave its temp file, so cache init sweeps dotfile temps older than an hour
(counted in :attr:`ArtifactCache.temp_cleaned`) and every artifact glob
skips in-flight temps.

The cache can be backed by a **remote tier**
(:class:`~repro.engine.remote.RemoteArtifactStore`): on a local miss the
remote store is consulted — a digest-verified copy lands in the local
directory and the load proceeds as a hit — and after a local build each
stored primary artifact is pushed back, best-effort, in the background.
Remote payloads that fail verification are quarantined (counted exactly
like local corruption) and remote failures of any kind degrade to a plain
local miss; the remote tier can never make a lookup raise.
"""

from __future__ import annotations

import os
import time
import uuid
import zipfile
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, TypeVar, Union

import numpy as np

from repro.exceptions import EngineError, ReproError
from repro.obs.metrics import Counter
from repro.testing import faults
from repro.histogram.builder import LabelPathHistogram
from repro.histogram.serialization import load_histogram, save_histogram
from repro.paths.catalog import SelectivityCatalog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (remote -> cache)
    from repro.engine.remote import RemoteArtifactStore

__all__ = ["ArtifactCache"]

#: Domains at or past ``|L|^6`` get the uncompressed mmap sidecar by default.
_MMAP_SIDECAR_POWER = 6

#: Process-wide artifact-cache telemetry: every :class:`ArtifactCache`
#: instance feeds the same series (the per-instance ``hits``/``misses``
#: attributes remain for the session's build stats).
_CACHE_HITS = Counter(
    "repro_cache_hits_total",
    "Artifact-cache loads answered from disk, by artifact kind.",
    labelnames=("kind",),
)
_CACHE_MISSES = Counter(
    "repro_cache_misses_total",
    "Artifact-cache lookups that found no artifact, by artifact kind.",
    labelnames=("kind",),
)
_CACHE_QUARANTINED = Counter(
    "repro_cache_quarantined_total",
    "Corrupt artifact files renamed aside for cold rebuild.",
)
_CACHE_TEMP_CLEANED = Counter(
    "repro_cache_temp_cleaned_total",
    "Stale in-flight temp files swept at cache init.",
)

#: Temp files younger than this at init are presumed to belong to a live
#: writer in another process and are left alone.
_TEMP_MAX_AGE_SECONDS = 3600.0

#: What reading a damaged artifact raises.  ``BadZipFile``: ``np.load`` on a
#: truncated archive that still begins with the zip magic bytes.
#: ``zlib.error``: a bit-flip inside a deflated member corrupts the stream
#: itself, which surfaces before the CRC is ever checked.
_CORRUPT_ERRORS = (ReproError, OSError, ValueError, zipfile.BadZipFile, zlib.error)

#: The artifact each ``kind`` names in a corrupt-artifact message.
_ARTIFACT_NAMES = {"catalog": "catalog", "histogram": "histogram", "positions": "position table"}

_Artifact = TypeVar("_Artifact")


class ArtifactCache:
    """Directory-backed store for catalogs, histograms and position tables.

    The cache is deliberately dumb: it has no eviction and no locking beyond
    atomic renames, because artifacts are immutable for a given key.  ``hits``
    and ``misses`` count lookups and feed the session's build stats;
    ``remote_hits`` counts the subset of hits that were materialised from
    the optional ``remote`` tier, and ``temp_cleaned`` the stale temp files
    swept at init.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        remote: Optional["RemoteArtifactStore"] = None,
    ) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self.remote = remote
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.remote_hits = 0
        self.temp_cleaned = 0
        self._sweep_temps()

    @property
    def root(self) -> Path:
        """The cache directory."""
        return self._root

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def catalog_path(self, key: str) -> Path:
        """File path of the catalog artifact for ``key`` (columnar ``.npz``)."""
        return self._root / f"catalog-{key}.npz"

    def sparse_indices_path(self, key: str) -> Path:
        """File path of the uncompressed sparse nonzero-index sidecar."""
        return self._root / f"catalog-{key}.nzi.npy"

    def sparse_values_path(self, key: str) -> Path:
        """File path of the uncompressed sparse nonzero-count sidecar."""
        return self._root / f"catalog-{key}.nzv.npy"

    def _sidecar_paths(self, key: str) -> tuple[Path, Path]:
        """The mmap sidecar pair of ``key`` (nonzero indices, counts)."""
        return self.sparse_indices_path(key), self.sparse_values_path(key)

    def histogram_path(self, key: str) -> Path:
        """File path of the histogram artifact for ``key``."""
        return self._root / f"histogram-{key}.json"

    def positions_path(self, key: str) -> Path:
        """File path of the position-table artifact for ``key``."""
        return self._root / f"positions-{key}.npy"

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------
    def load_catalog(self, key: str, *, mmap: bool = False) -> Optional[SelectivityCatalog]:
        """The cached catalog for ``key``, or ``None`` on a miss.

        ``mmap=True`` asks for a memory-mapped catalog: when the
        uncompressed ``.nzi.npy``/``.nzv.npy`` sidecar pair exists the
        arrays are opened with ``np.load(mmap_mode="r")`` (read-only pages
        faulted in on demand) and only the small metadata
        members of the ``.npz`` are decompressed.  Without a usable sidecar
        (missing, stale, or shape-mismatched) the request silently falls
        back to the regular in-memory load, so callers can always pass
        their preference.

        With a remote tier configured, a local miss consults the remote
        store before giving up; a verified fetch lands the ``.npz`` locally
        and the load proceeds as a hit.
        """
        faults.fire("cache.load_catalog", key=key)
        path = self.catalog_path(key)
        if mmap:
            catalog = self._load("catalog", path, lambda npz: self._load_catalog_mmap(key, npz))
        else:
            catalog = self._load("catalog", path, SelectivityCatalog.load_npz)
        if catalog is not None:
            # Sidecars share the npz's recency so LRU pruning never splits
            # the pair from its archive (a later mmap load would then go
            # stale).
            for sidecar in self._sidecar_paths(key):
                if sidecar.exists():
                    self._touch(sidecar)
        return catalog

    def _load(
        self, kind: str, path: Path, read: Callable[[Path], _Artifact]
    ) -> Optional[_Artifact]:
        """One cached-artifact lookup: the local file, else the remote tier.

        ``read`` parses the file at ``path``.  A miss (found nowhere)
        returns ``None``; an artifact that fails to parse raises
        :class:`EngineError` naming the file, for the session to quarantine;
        a hit is counted and touched for LRU pruning.
        """
        if path.exists() or self._fetch_remote(path):
            try:
                artifact = read(path)
            except FileNotFoundError:
                # Racing eviction/prune between the existence probe and the
                # open: the artifact is simply gone — a clean miss, not damage.
                pass
            except _CORRUPT_ERRORS as exc:
                name = _ARTIFACT_NAMES[kind]
                raise EngineError(f"corrupt cached {name} at {path}: {exc}") from exc
            else:
                self.hits += 1
                _CACHE_HITS.inc(kind=kind)
                self._touch(path)
                return artifact
        self.misses += 1
        _CACHE_MISSES.inc(kind=kind)
        return None

    def _load_catalog_mmap(self, key: str, npz_path: Path) -> SelectivityCatalog:
        """Catalog with metadata from ``npz_path`` and the mmap'd sidecar pair.

        A *missing or stale* sidecar falls back silently to the regular
        in-memory ``.npz`` load (it simply is not there to use — a deleted
        sidecar never takes a key down).  A *fresh but unreadable or
        mis-shaped* one is damage: the raised error flows through
        :meth:`load_catalog`'s corrupt-artifact path, so the session
        quarantines the family and rebuilds, exactly like a damaged
        archive.
        """
        indices_path, values_path = self._sidecar_paths(key)
        if not self._sidecar_fresh(npz_path, indices_path, values_path):
            return SelectivityCatalog.load_npz(npz_path)
        with np.load(npz_path, allow_pickle=False) as archive:
            labels = [str(label) for label in archive["labels"]]
            max_length = int(archive["max_length"])
            graph_name = str(archive["graph_name"])
        indices = np.load(indices_path, mmap_mode="r", allow_pickle=False)
        values = np.load(values_path, mmap_mode="r", allow_pickle=False)
        if (
            indices.dtype != np.int64
            or values.dtype != np.int64
            or indices.ndim != 1
            or indices.shape != values.shape
        ):
            raise ValueError(
                f"sparse sidecar shape/dtype mismatch for {key}: "
                f"{indices.dtype}{indices.shape} vs {values.dtype}{values.shape}"
            )
        return SelectivityCatalog.from_nonzeros(
            labels, max_length, indices, values, graph_name=graph_name, copy=False
        )

    @staticmethod
    def _sidecar_fresh(npz_path: Path, *sidecars: Path) -> bool:
        """Whether every sidecar exists and is no older than its archive.

        ``store_catalog`` writes sidecars after the ``.npz`` and loads touch
        the whole family together, so a sidecar left behind by an *earlier*
        store (the archive was since rewritten without one) reads as stale.
        """
        try:
            npz_mtime = npz_path.stat().st_mtime
            return all(path.stat().st_mtime >= npz_mtime for path in sidecars)
        except OSError:
            return False

    def _temp_path(self, final: Path, suffix: str = ".tmp") -> Path:
        """A unique temp path next to ``final`` (safe under concurrent writers)."""
        return final.with_name(f".{final.name}.{os.getpid()}.{uuid.uuid4().hex}{suffix}")

    # ------------------------------------------------------------------
    # remote tier
    # ------------------------------------------------------------------
    def _fetch_remote(self, final: Path) -> bool:
        """Try to materialise ``final`` from the remote tier; whether it landed.

        Every non-hit outcome — miss, store unavailable, open breaker,
        failed verification — returns ``False`` and the caller records a
        plain local miss; a corrupt payload additionally counts as a
        quarantine (the remote store already parked it as a ``.corrupt``
        sibling, never under the real name).
        """
        if self.remote is None:
            return False
        outcome = self.remote.fetch(final.name, final)
        if outcome == "hit":
            self.remote_hits += 1
            return True
        if outcome == "corrupt":
            self.quarantined += 1
            _CACHE_QUARANTINED.inc()
        return False

    def _push_remote(self, path: Path) -> None:
        """Offer one freshly stored primary artifact to the remote tier.

        Background and best-effort by contract: the push thread logs and
        counts failures inside the store, and nothing propagates here.
        """
        if self.remote is not None:
            self.remote.push_async(path)

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh ``path``'s timestamps so LRU pruning tracks reads.

        Filesystems mounted ``noatime`` never update access times on their
        own, so recency is recorded explicitly; failure is ignored (a
        read-only cache directory must not break loading).
        """
        try:
            os.utime(path, None)
        except OSError:  # pragma: no cover - depends on filesystem permissions
            pass

    def store_catalog(
        self,
        key: str,
        catalog: SelectivityCatalog,
        *,
        mmap_sidecar: Optional[bool] = None,
    ) -> Path:
        """Persist ``catalog`` under ``key`` (atomic, ``.npz``); returns the path.

        ``mmap_sidecar`` controls the uncompressed ``.nzi.npy``/``.nzv.npy``
        sidecar pair that :meth:`load_catalog` needs for ``mmap=True``.
        ``True`` forces the sidecar,
        ``False`` suppresses it, and ``None`` (default) writes it
        automatically for domains at or past ``|L|^6`` — the scale where
        holding a private decompressed copy in every process stops being
        free.  Sidecars are written *after* the ``.npz`` so the freshness
        check in :meth:`load_catalog` holds; a store that suppresses the
        sidecar leaves any older one behind as stale rather than trusted.
        """
        path = self.catalog_path(key)
        temp = self._temp_path(path)
        catalog.save_npz(temp)
        os.replace(temp, path)
        self._push_remote(path)
        if self._sidecar_wanted(catalog, mmap_sidecar):
            self._write_sidecars(key, catalog)
        return path

    @staticmethod
    def _sidecar_wanted(
        catalog: SelectivityCatalog, mmap_sidecar: Optional[bool]
    ) -> bool:
        """Resolve the sidecar policy for one catalog (see :meth:`store_catalog`)."""
        if mmap_sidecar is None:
            mmap_sidecar = (
                catalog.domain_size >= len(catalog.labels) ** _MMAP_SIDECAR_POWER
            )
        if mmap_sidecar and catalog.nnz == 0:
            # A zero-length array cannot be memory-mapped; the npz load of
            # an empty catalog is trivially cheap anyway.
            mmap_sidecar = False
        return bool(mmap_sidecar)

    def _write_sidecars(self, key: str, catalog: SelectivityCatalog) -> None:
        """Write the uncompressed mmap sidecar pair for ``key`` (atomic).

        Sidecars never travel to the remote tier — they are derivable from
        the ``.npz`` and their freshness contract is local-mtime-based.
        """
        for target, array in zip(self._sidecar_paths(key), catalog.nonzero_arrays()):
            temp = self._temp_path(target, suffix=".tmp.npy")
            np.save(temp, np.asarray(array), allow_pickle=False)
            os.replace(temp, target)

    def ensure_sidecars(self, key: str, catalog: SelectivityCatalog) -> bool:
        """Backfill the mmap sidecar pair for an already stored ``key``.

        A remote warm-start lands only the ``.npz`` (sidecars are local
        derivatives), so a prefork parent that wants children sharing pages
        calls this after the fetch.  Applies the same default policy as
        :meth:`store_catalog`; fresh sidecars are left untouched.  Returns
        whether usable sidecars exist afterwards.
        """
        npz = self.catalog_path(key)
        if not npz.exists() or not self._sidecar_wanted(catalog, None):
            return False
        if not self._sidecar_fresh(npz, *self._sidecar_paths(key)):
            self._write_sidecars(key, catalog)
        return True

    # ------------------------------------------------------------------
    # histogram
    # ------------------------------------------------------------------
    def load_histogram(self, key: str) -> Optional[LabelPathHistogram]:
        """The cached histogram for ``key`` (see :meth:`_load`), or ``None``."""
        return self._load("histogram", self.histogram_path(key), load_histogram)

    def store_histogram(self, key: str, histogram: LabelPathHistogram) -> Path:
        """Persist ``histogram`` under ``key`` (atomic); returns the file path."""
        path = self.histogram_path(key)
        temp = self._temp_path(path)
        save_histogram(histogram, temp)
        os.replace(temp, path)
        self._push_remote(path)
        return path

    # ------------------------------------------------------------------
    # position table
    # ------------------------------------------------------------------
    def load_positions(self, key: str) -> Optional[np.ndarray]:
        """The cached position table for ``key`` (see :meth:`_load`), or ``None``."""
        return self._load(
            "positions", self.positions_path(key), lambda path: np.load(path, allow_pickle=False)
        )

    def store_positions(self, key: str, positions: np.ndarray) -> Path:
        """Persist a position table under ``key`` (atomic); returns the path."""
        path = self.positions_path(key)
        # np.save appends ".npy" unless the name already ends with it.
        temp = self._temp_path(path, suffix=".tmp.npy")
        np.save(temp, positions, allow_pickle=False)
        os.replace(temp, path)
        self._push_remote(path)
        return path

    # ------------------------------------------------------------------
    # quarantine
    # ------------------------------------------------------------------
    def quarantine(self, key: str, kind: str = "catalog") -> list[Path]:
        """Rename ``kind``'s artifacts for ``key`` to ``*.corrupt`` siblings.

        Called by the session when a cached artifact fails to load: the
        damaged file is moved aside (never deleted — an operator can inspect
        it) so the next load is a clean miss and the build proceeds cold.
        Quarantined files no longer match the artifact globs, so
        :meth:`artifact_files`, :meth:`total_bytes` and :meth:`prune` all
        skip them.  Returns the new paths; increments :attr:`quarantined`
        per file moved.
        """
        if kind == "catalog":
            candidates = (self.catalog_path(key), *self._sidecar_paths(key))
        elif kind == "histogram":
            candidates = (self.histogram_path(key),)
        elif kind == "positions":
            candidates = (self.positions_path(key),)
        else:
            raise EngineError(f"unknown artifact kind to quarantine: {kind!r}")
        moved: list[Path] = []
        for path in candidates:
            target = self.quarantine_path(path)
            if target is not None:
                moved.append(target)
        return moved

    def quarantine_path(self, path: Union[str, Path]) -> Optional[Path]:
        """Rename one artifact file to its ``.corrupt`` sibling (atomic).

        Returns the new path, or ``None`` when the file does not exist (or
        cannot be renamed).  Increments :attr:`quarantined` on success.
        """
        path = Path(path)
        if not path.exists():
            return None
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - depends on fs permissions
            return None
        self.quarantined += 1
        _CACHE_QUARANTINED.inc()
        return target

    def quarantined_files(self) -> list[Path]:
        """Every ``*.corrupt`` file currently parked in the cache directory."""
        return sorted(self._root.glob("*.corrupt"))

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def temp_files(self) -> list[Path]:
        """Every in-flight temp file currently in the cache directory.

        Writers stage under dot-prefixed names
        (``.{artifact}.{pid}.{uuid}.tmp[.npy]``), so temps are invisible to
        the artifact globs; this surfaces them for the init sweep, debris
        checks in the chaos benchmarks, and operators.
        """
        return sorted(
            path for path in self._root.glob(".*.tmp*") if path.is_file()
        )

    def _sweep_temps(self) -> None:
        """Delete stale temp files left behind by crashed writers.

        Only temps older than an hour go — a younger one may belong to a
        live build in another process, and its writer's ``os.replace``
        would fail if the file vanished underneath it.  Counts into
        :attr:`temp_cleaned` and the process-wide metric.
        """
        now = time.time()
        for path in self.temp_files():
            try:
                if now - path.stat().st_mtime < _TEMP_MAX_AGE_SECONDS:
                    continue
                path.unlink()
            except OSError:  # racing sweeper or live writer finishing
                continue
            self.temp_cleaned += 1
            _CACHE_TEMP_CLEANED.inc()

    def artifact_files(self) -> list[Path]:
        """All artifact files currently in the cache, sorted by name.

        In-flight temp files never count: writers stage under dot-prefixed
        ``*.tmp*`` names, and the explicit filter here keeps any foreign
        ``.tmp`` debris out of :meth:`total_bytes` and :meth:`prune` even if
        it matches an artifact pattern.
        """
        patterns = (
            "catalog-*.npz",
            "catalog-*.npy",
            "histogram-*.json",
            "positions-*.npy",
        )
        found: list[Path] = []
        for pattern in patterns:
            found.extend(
                path for path in self._root.glob(pattern) if ".tmp" not in path.name
            )
        return sorted(found)

    def total_bytes(self) -> int:
        """Total size of every artifact file currently in the cache."""
        total = 0
        for path in self.artifact_files():
            try:
                total += path.stat().st_size
            except OSError:  # racing deleter; the file no longer counts
                continue
        return total

    def evict(self, key: str) -> int:
        """Delete every artifact stored under ``key``; returns files removed."""
        removed = 0
        for path in (
            self.catalog_path(key),
            *self._sidecar_paths(key),
            self.histogram_path(key),
            self.positions_path(key),
        ):
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                continue
        return removed

    def prune(self, max_bytes: int) -> list[Path]:
        """Delete least-recently-used artifacts until the cache fits ``max_bytes``.

        Recency is the file's latest timestamp (``max(mtime, atime)`` —
        loads refresh mtime explicitly, so a warm artifact survives a colder,
        larger neighbour).  Returns the deleted paths, oldest first.  A
        negative budget is rejected; ``0`` clears everything.
        """
        if max_bytes < 0:
            raise EngineError(f"prune budget must be >= 0, got {max_bytes}")
        entries: list[tuple[float, int, Path]] = []
        total = 0
        for path in self.artifact_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((max(stat.st_mtime, stat.st_atime), stat.st_size, path))
            total += stat.st_size
        entries.sort(key=lambda entry: (entry[0], entry[2].name))
        removed: list[Path] = []
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            total -= size
            removed.append(path)
        return removed

    def clear(self) -> int:
        """Delete every artifact file; returns the number removed."""
        removed = 0
        for path in self.artifact_files():
            path.unlink()
            removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<ArtifactCache root={str(self._root)!r} files={len(self.artifact_files())} "
            f"hits={self.hits} misses={self.misses}>"
        )
