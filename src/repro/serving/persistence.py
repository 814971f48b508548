"""Save/load of trained :class:`~repro.core.index.JunoIndex` instances.

The offline phase (Alg. 1 of the paper) is by far the most expensive part of
the system: coarse IVF k-means, one k-means per PQ subspace, density-map
fitting and threshold regression.  A serving process should never pay that
cost at startup, so this module persists every trained artefact to a
directory bundle:

* ``manifest.json`` -- format version, the full :class:`JunoConfig`, scalar
  trained state (corpus size, sphere radius, threshold-range statistics).
* ``arrays.npz`` -- IVF centroids and labels, PQ codes, one codebook entry
  matrix per subspace, the density maps and the threshold-regressor
  coefficients.  ``save_index(layout="npy")`` stores the same arrays as
  uncompressed ``arrays/<name>.npy`` files instead -- that layout is
  memory-mappable (``load_index(mmap=True)``), which is what the zero-copy
  residency modes of :mod:`repro.serving.runtime` build on.

Everything else (posting lists, the subspace-level inverted indices, the
traversable RT scene, ray origin offsets) is a deterministic function of the
persisted arrays and is rebuilt on load, which keeps the bundle small and
guarantees that a reloaded index reproduces bit-identical search results.

The same layout is reused per shard by :mod:`repro.serving.shard`.

The streaming-update layer adds a second bundle kind:
:func:`save_mutable_index` / :func:`load_mutable_index` persist a
:class:`~repro.updates.mutable.MutableJunoIndex` as an **epoch-stamped
snapshot** (the base bundle, the raw vectors, the delta buffer and the
tombstones, stamped with the last applied write-ahead-log sequence number);
loading replays any newer records from the WAL through the same op code
paths, reproducing the mutated index bit-identically.

All writes are crash-consistent: every file is staged to a temporary
sibling and atomically published via the :mod:`repro.storage` recipe
(fsync + ``os.replace`` + directory fsync), payload arrays land before the
manifest that references them, and mutable snapshots write each epoch as a
fresh generation -- so a writer killed at any instant leaves either the
previous complete snapshot or the new one, never a torn bundle.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core.config import JunoConfig
from repro.core.density import DensityMap
from repro.core.index import JunoIndex
from repro.core.threshold import ThresholdModel
from repro.errors import ServingError
from repro.metrics.distances import Metric
from repro.quantization.codebook import SubspaceCodebook
from repro.quantization.product_quantizer import ProductQuantizer
from repro.storage import atomic_write_text, staged

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"
ARRAYS_DIR_NAME = "arrays"
_INDEX_KIND = "juno-index"
MUTABLE_KIND = "mutable-juno-index"
_BASE_BUNDLE_NAME = "base"
_UPDATES_NAME = "updates.npz"
_LAYOUTS = ("npz", "npy")


class PersistenceError(ServingError):
    """Raised when a bundle is missing, corrupt or fails validation."""


def shard_bundle_path(root: str | Path, shard_id: int) -> Path:
    """The per-shard index bundle directory inside a sharded deployment bundle.

    One canonical place for the layout so the router's save/load and the
    worker-resident runtime (which loads single shards into worker processes)
    can never drift apart.
    """
    return Path(root) / f"shard_{int(shard_id):03d}"


def save_index(
    index: JunoIndex,
    path: str | Path,
    validate_queries: np.ndarray | None = None,
    validate_k: int = 10,
    validate_nprobs: int = 8,
    layout: str = "npz",
) -> Path:
    """Persist a trained index as a ``manifest.json`` + array bundle.

    Args:
        index: a trained :class:`JunoIndex`.
        path: bundle directory; created (including parents) if missing.
        validate_queries: optional ``(Q, D)`` query batch.  When given, the
            bundle is immediately reloaded and searched with these queries,
            and a :class:`PersistenceError` is raised unless the reloaded
            index reproduces the original results exactly (round-trip
            validation).
        validate_k: ``k`` used for round-trip validation searches.
        validate_nprobs: ``nprobs`` used for round-trip validation searches.
        layout: ``"npz"`` (default) stores every array in one compressed
            ``arrays.npz``; ``"npy"`` stores each array as an uncompressed
            ``arrays/<name>.npy`` file instead.  The ``npy`` layout is
            **memory-mappable**: ``load_index(path, mmap=True)`` then maps
            the corpus-proportional arrays read-only straight from the page
            cache, so N resident workers on one host share one physical copy
            instead of unpickling N private ones.

    Returns:
        The bundle directory as a :class:`~pathlib.Path`.
    """
    if not index.is_trained:
        raise PersistenceError("cannot save an untrained JunoIndex")
    if layout not in _LAYOUTS:
        raise PersistenceError(f"layout must be one of {_LAYOUTS}")
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise PersistenceError(f"bundle path {path} is not a directory: {exc}") from exc

    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": _INDEX_KIND,
        "layout": layout,
        "config": asdict(index.config),
        "dim": int(index.dim),
        "num_points": int(index.num_points),
        "num_clusters": int(index.ivf.num_clusters),
        "sphere_radius": float(index.sphere_radius),
        "threshold_min": float(index.threshold_model.min_threshold_),
        "threshold_max": float(index.threshold_model.max_threshold_),
        "density_grid": int(index.density_map.grid),
    }
    arrays = {
        "ivf_centroids": index.ivf.centroids,
        "ivf_labels": index.ivf.labels,
        "codes": index.codes,
        "density_mins": index.density_map.mins_,
        "density_maxs": index.density_map.maxs_,
        "density_densities": index.density_map.densities_,
        "threshold_coefficients": index.threshold_model.coefficients_,
    }
    for s, codebook in enumerate(index.pq.codebooks):
        arrays[f"codebook_{s}"] = codebook.entries

    # Arrays first, manifest last, every file staged then atomically
    # published: the manifest is the bundle's commit point, so a loader that
    # finds one never sees half-written arrays -- a crash mid-save leaves
    # either the previous bundle or no manifest at all, never a torn one.
    if layout == "npy":
        arrays_dir = path / ARRAYS_DIR_NAME
        arrays_dir.mkdir(exist_ok=True)
        for name, array in arrays.items():
            with staged(arrays_dir / f"{name}.npy") as tmp:
                with tmp.open("wb") as handle:
                    np.save(handle, np.ascontiguousarray(array))
    else:
        with staged(path / ARRAYS_NAME) as tmp:
            # np.savez_compressed appends ".npz" to bare path names; an open
            # handle keeps the staged name intact.
            with tmp.open("wb") as handle:
                np.savez_compressed(handle, **arrays)
    atomic_write_text(path / MANIFEST_NAME, json.dumps(manifest, indent=2, sort_keys=True))

    if validate_queries is not None:
        reloaded = load_index(path)
        expected = index.search(validate_queries, k=validate_k, nprobs=validate_nprobs)
        observed = reloaded.search(validate_queries, k=validate_k, nprobs=validate_nprobs)
        if not search_results_equal(expected, observed):
            # Remove the bundle files: a bundle that failed validation must
            # not be left behind where a serving process could load it.
            (path / MANIFEST_NAME).unlink(missing_ok=True)
            (path / ARRAYS_NAME).unlink(missing_ok=True)
            if layout == "npy":
                for name in arrays:
                    (path / ARRAYS_DIR_NAME / f"{name}.npy").unlink(missing_ok=True)
            msg = (
                f"round-trip validation failed: the bundle at {path} does not "
                "reproduce the original search results (bundle removed)"
            )
            raise PersistenceError(msg)
    return path


def read_manifest(path: str | Path, expected_kind: str) -> dict:
    """Load a bundle manifest and validate its format version and kind.

    Shared by :func:`load_index` and the sharded router's loader so the
    version/kind policy lives in exactly one place.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise PersistenceError(f"no index bundle at {path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"corrupt manifest in {path}: {exc}") from exc
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported bundle format version {version!r} (expected {FORMAT_VERSION})"
        )
    if manifest.get("kind") != expected_kind:
        raise PersistenceError(f"bundle at {path} is not a {expected_kind} bundle")
    return manifest


def read_bundle_arrays(path: str | Path, manifest: dict, mmap: bool = False) -> dict:
    """Load a bundle's trained arrays as a ``name -> array`` dict.

    The reading half of :func:`load_index`, split out so residency layers
    can substitute their own array sources -- shared-memory views, memmaps
    -- and hand them to :func:`index_from_arrays` for assembly.

    Args:
        path: bundle directory.
        manifest: the bundle manifest (already read and validated).
        mmap: map the arrays read-only (``np.load(..., mmap_mode="r")``)
            instead of reading them into private memory.  Requires the
            memory-mappable ``npy`` layout (``save_index(layout="npy")``);
            the compressed ``npz`` layout cannot be mapped and raises.
    """
    path = Path(path)
    layout = manifest.get("layout", "npz")
    names = [
        "ivf_centroids",
        "ivf_labels",
        "codes",
        "density_mins",
        "density_maxs",
        "density_densities",
        "threshold_coefficients",
    ] + [f"codebook_{s}" for s in range(int(manifest["config"]["num_subspaces"]))]
    if layout == "npy":
        arrays_dir = path / ARRAYS_DIR_NAME
        if not arrays_dir.is_dir():
            raise PersistenceError(f"index bundle at {path} is missing {ARRAYS_DIR_NAME}/")
        try:
            return {
                name: np.load(arrays_dir / f"{name}.npy", mmap_mode="r" if mmap else None)
                for name in names
            }
        except PersistenceError:
            raise
        except Exception as exc:
            raise PersistenceError(f"corrupt array bundle in {path}: {exc}") from exc
    if mmap:
        raise PersistenceError(
            f"the bundle at {path} uses the compressed {ARRAYS_NAME} layout, "
            "which cannot be memory-mapped; save it with layout='npy' for "
            "mmap/shared residency"
        )
    arrays_path = path / ARRAYS_NAME
    if not arrays_path.is_file():
        raise PersistenceError(f"index bundle at {path} is missing {ARRAYS_NAME}")
    try:
        with np.load(arrays_path) as arrays:
            return {name: arrays[name] for name in names}
    except PersistenceError:
        raise
    except Exception as exc:
        raise PersistenceError(f"corrupt array bundle in {path}: {exc}") from exc


def index_from_arrays(manifest: dict, arrays: dict) -> JunoIndex:
    """Assemble a searchable :class:`JunoIndex` from a manifest plus arrays.

    The assembly half of :func:`load_index`: ``arrays`` maps the bundle's
    array names to array-likes (private copies, read-only memmaps or
    shared-memory views -- anything NumPy indexing accepts).  Everything
    derived (posting lists, subspace inverted indices, the RT scene) is
    rebuilt here, which is what keeps reloaded indexes bit-identical.
    """
    config = JunoConfig(**manifest["config"])
    index = JunoIndex(config)
    index.dim = int(manifest["dim"])
    index.num_points = int(manifest["num_points"])

    centroids = arrays["ivf_centroids"]
    labels = arrays["ivf_labels"]
    codes = arrays["codes"]
    entries = [arrays[f"codebook_{s}"] for s in range(config.num_subspaces)]
    density_mins = arrays["density_mins"]
    density_maxs = arrays["density_maxs"]
    densities = arrays["density_densities"]
    coefficients = arrays["threshold_coefficients"]

    _check_consistency(index, manifest, centroids, labels, codes, densities, entries)

    # IVF: posting lists are a deterministic function of the labels.
    index.ivf.centroids = centroids
    index.ivf.labels = labels
    index.ivf.num_clusters = int(centroids.shape[0])
    index.ivf.posting_lists = [
        np.flatnonzero(labels == cluster_id).astype(np.int64)
        for cluster_id in range(index.ivf.num_clusters)
    ]

    # PQ codebooks and the per-point codes.
    pq = ProductQuantizer(
        dim=index.dim,
        num_subspaces=config.num_subspaces,
        num_entries=config.num_entries,
        seed=config.seed,
        kmeans_iters=config.kmeans_iters,
    )
    pq.codebooks = [SubspaceCodebook(entry, subspace_id=s) for s, entry in enumerate(entries)]
    index.pq = pq
    index.codes = codes

    # Density maps and the threshold regressor.
    density_map = DensityMap(grid=int(manifest["density_grid"]))
    density_map.mins_ = density_mins
    density_map.maxs_ = density_maxs
    density_map.densities_ = densities
    index.density_map = density_map

    threshold_model = ThresholdModel(
        density_map,
        degree=config.regression_degree,
        strategy=config.threshold_strategy,
    )
    threshold_model.coefficients_ = coefficients
    threshold_model.min_threshold_ = float(manifest["threshold_min"])
    threshold_model.max_threshold_ = float(manifest["threshold_max"])
    index.threshold_model = threshold_model

    # The RT scene is deterministic given codebooks + radius; rebuild it,
    # and with it the subspace-level inverted indices (rebuilt, not stored).
    index.sphere_radius = float(manifest["sphere_radius"])
    index.rebuild_scene()
    return index


def load_index(path: str | Path, mmap: bool = False) -> JunoIndex:
    """Restore a trained :class:`JunoIndex` from a bundle written by :func:`save_index`.

    The reloaded index is immediately searchable; no training runs.  Raises
    :class:`PersistenceError` when the bundle is missing, has an unsupported
    format version or is internally inconsistent.

    Args:
        path: bundle directory.
        mmap: map the persisted arrays read-only instead of copying them
            into private memory (requires the ``npy`` layout; see
            :func:`read_bundle_arrays`).  Search results are bit-identical
            either way, but co-resident processes mapping the same bundle
            share one physical copy of the corpus-proportional arrays.
    """
    path = Path(path)
    manifest = read_manifest(path, _INDEX_KIND)
    arrays = read_bundle_arrays(path, manifest, mmap=mmap)
    return index_from_arrays(manifest, arrays)


def save_mutable_index(index, path: str | Path, gc_wal: bool = False) -> Path:
    """Persist a :class:`~repro.updates.mutable.MutableJunoIndex` snapshot.

    The snapshot is **epoch-stamped**: its manifest records ``last_seq``,
    the sequence number of the last write-ahead-log record applied to the
    saved state.  :func:`load_mutable_index` restores the snapshot and then
    replays only WAL records *newer* than that epoch, so a snapshot plus the
    surviving log always reconstructs the mutated index bit-identically --
    no matter how many mutations, compactions or retrains happened between
    snapshot and crash.

    Layout: ``manifest.json`` (kind, epoch, drift counters, policy, and the
    names of the payload files), ``base-<epoch>/`` (the trained base index
    as a normal :func:`save_index` bundle of its *current* -- possibly
    compacted -- state), and ``updates-<epoch>.npz`` (global-id map, raw
    base vectors, the delta buffer in insertion order and the sorted
    tombstone ids).

    Saving is crash-consistent end to end: payload files are written first
    under epoch-suffixed generation names (never overwriting the generation
    the current manifest references), and the manifest is atomically
    replaced *last*.  A crash anywhere mid-save leaves the previous
    snapshot fully loadable; only after the new manifest is published are
    superseded generations garbage-collected.

    Args:
        index: the mutable index to snapshot.
        path: bundle directory; created (including parents) if missing.
        gc_wal: after the snapshot is durably published, call
            ``index.wal.truncate_through(epoch)`` so log files fully covered
            by this snapshot are garbage-collected -- the on-disk log then
            stays proportional to the un-snapshotted tail.
    """
    if not index.is_trained:
        raise PersistenceError("cannot save an untrained MutableJunoIndex")
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise PersistenceError(f"bundle path {path} is not a directory: {exc}") from exc
    epoch = int(index.wal.last_seq) if index.wal is not None else int(index.ops_applied)
    base_name = f"{_BASE_BUNDLE_NAME}-{epoch:020d}"
    updates_name = f"updates-{epoch:020d}.npz"
    save_index(index.base, path / base_name)
    delta_ids, delta_vectors = index.delta.snapshot()
    with staged(path / updates_name) as tmp:
        with tmp.open("wb") as handle:
            np.savez_compressed(
                handle,
                global_ids=index._global_ids,
                vectors=index._vectors,
                delta_ids=delta_ids,
                delta_vectors=delta_vectors,
                tombstone_ids=index.tombstones.to_array(),
            )
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": MUTABLE_KIND,
        "last_seq": epoch,
        "base": base_name,
        "updates": updates_name,
        "ops_applied": int(index.ops_applied),
        "trained_points": int(index._trained_points),
        "mutated_since_train": int(index._mutated_since_train),
        "exact_scores": bool(index.exact_scores),
        "policy": {
            "delta_capacity": index.policy.delta_capacity,
            "max_drift": index.policy.max_drift,
            "auto_compact": index.policy.auto_compact,
        },
    }
    atomic_write_text(path / MANIFEST_NAME, json.dumps(manifest, indent=2, sort_keys=True))
    _gc_stale_snapshot_files(path, keep={base_name, updates_name})
    if gc_wal and index.wal is not None:
        index.wal.truncate_through(epoch)
    return path


def _gc_stale_snapshot_files(path: Path, keep: set) -> None:
    """Remove snapshot generations superseded by a just-published manifest.

    Runs only *after* the new manifest is atomically in place, so a crash
    during (or before) GC merely leaves extra files behind -- the published
    snapshot never references them.  Staging leftovers of crashed writers
    (dot-prefixed ``.tmp-`` siblings) are swept here too.
    """
    for entry in path.iterdir():
        name = entry.name
        if name in keep or name == MANIFEST_NAME:
            continue
        if name == _BASE_BUNDLE_NAME or name.startswith(f"{_BASE_BUNDLE_NAME}-"):
            shutil.rmtree(entry, ignore_errors=True)
        elif name == _UPDATES_NAME or (name.startswith("updates-") and name.endswith(".npz")):
            entry.unlink(missing_ok=True)
        elif name.startswith(".") and ".tmp-" in name:
            entry.unlink(missing_ok=True)


def load_mutable_index(path: str | Path, wal=None, policy=None):
    """Restore a mutable index from a snapshot, replaying the WAL tail.

    Args:
        path: bundle written by :func:`save_mutable_index`.
        wal: optional :class:`~repro.updates.wal.WriteAheadLog` (or path).
            Records with ``seq`` greater than the snapshot's epoch are
            replayed through the same op-application code paths the live
            index used, reproducing its state bit-identically; the log is
            then attached so subsequent mutations keep appending to it.
        policy: optional :class:`~repro.updates.mutable.RebuildPolicy`
            override; defaults to the policy recorded in the manifest.
    """
    from repro.updates.mutable import MutableJunoIndex, RebuildPolicy
    from repro.updates.wal import WalError, WriteAheadLog

    path = Path(path)
    manifest = read_manifest(path, MUTABLE_KIND)
    # Payload names come from the manifest (epoch-suffixed generations);
    # pre-durability bundles without them fall back to the legacy names.
    base_name = manifest.get("base", _BASE_BUNDLE_NAME)
    updates_name = manifest.get("updates", _UPDATES_NAME)
    base = load_index(path / base_name)
    updates_path = path / updates_name
    if not updates_path.is_file():
        raise PersistenceError(f"mutable bundle at {path} is missing {updates_name}")
    try:
        with np.load(updates_path) as arrays:
            global_ids = arrays["global_ids"]
            vectors = arrays["vectors"]
            delta_ids = arrays["delta_ids"]
            delta_vectors = arrays["delta_vectors"]
            tombstone_ids = arrays["tombstone_ids"]
    except Exception as exc:
        raise PersistenceError(f"corrupt {updates_name} in {path}: {exc}") from exc
    if policy is None:
        policy = RebuildPolicy(**manifest["policy"])
    index = MutableJunoIndex(
        base,
        vectors=vectors,
        global_ids=global_ids,
        policy=policy,
        exact_scores=bool(manifest.get("exact_scores", False)),
    )
    if delta_ids.size:
        index.delta.upsert(delta_ids, delta_vectors)
    if tombstone_ids.size:
        index._tombstone(tombstone_ids)
    index._trained_points = int(manifest["trained_points"])
    index._mutated_since_train = int(manifest["mutated_since_train"])
    index.ops_applied = int(manifest["ops_applied"])
    if wal is not None:
        wal = WriteAheadLog(wal) if isinstance(wal, (str, Path)) else wal
        epoch = int(manifest["last_seq"])
        try:
            for record in wal.replay(after_seq=epoch):
                index.apply_record(record)
        except WalError as exc:
            raise PersistenceError(f"WAL replay failed for {path}: {exc}") from exc
        # A fully garbage-collected log (every segment covered by this
        # snapshot) knows no sequence floor of its own; re-seed it from the
        # epoch so post-recovery appends continue the sequence instead of
        # reusing covered numbers.
        wal.last_seq = max(wal.last_seq, epoch)
        index.wal = wal
    return index


def search_results_equal(a, b) -> bool:
    """Whether two search results are identical (ids and scores).

    Scores are compared with ``equal_nan`` semantics and exact equality:
    a reloaded index runs the very same float64 operations on the very same
    arrays, so any deviation indicates persistence corruption rather than
    floating-point noise.
    """
    ids_equal = np.array_equal(a.ids, b.ids)
    scores_equal = np.array_equal(a.scores, b.scores, equal_nan=True)
    return bool(ids_equal and scores_equal)


def _check_consistency(index, manifest, centroids, labels, codes, densities, entries) -> None:
    config = index.config
    problems = []
    # the scene is one stack: every subspace has the same E' <= E entries
    shapes = sorted({np.shape(entry) for entry in entries})
    width = config.subspace_dim
    if not (
        len(shapes) == 1
        and len(shapes[0]) == 2
        and 1 <= shapes[0][0] <= config.num_entries
        and shapes[0][1] == width
    ):
        problems.append(
            f"codebooks have shapes {shapes}, expected one (E', {width}) "
            f"with 1 <= E' <= {config.num_entries}"
        )
    # the radius training fixed (JunoIndex._build_scene), from the thresholds it kept
    radius, margin = float(manifest["sphere_radius"]), config.sphere_radius_margin
    if index.metric is Metric.L2:
        want = max(float(manifest["threshold_max"]) * margin, 1e-6)
        if radius != want:
            problems.append(
                f"sphere radius {radius} is not max(threshold_max x margin, 1e-6) = {want}"
            )
    else:
        reach = -2.0 * min(float(manifest["threshold_min"]), 0.0)
        least = margin * float(np.sqrt(max(reach, 1.0)))
        if not radius >= least:
            problems.append(f"sphere radius {radius} cannot reach threshold_min: below {least}")
    if centroids.ndim != 2 or centroids.shape[1] != index.dim:
        problems.append(f"centroid matrix has shape {centroids.shape}, expected (*, {index.dim})")
    if labels.shape[0] != index.num_points:
        problems.append(f"{labels.shape[0]} labels for {index.num_points} points")
    if codes.shape != (index.num_points, config.num_subspaces):
        expected_shape = (index.num_points, config.num_subspaces)
        problems.append(f"code matrix has shape {codes.shape}, expected {expected_shape}")
    if densities.shape[0] != config.num_subspaces:
        problems.append(f"{densities.shape[0]} density maps for {config.num_subspaces} subspaces")
    if index.dim != config.required_dim():
        problems.append(
            f"manifest dim {index.dim} does not match config dim {config.required_dim()}"
        )
    if problems:
        raise PersistenceError("inconsistent bundle: " + "; ".join(problems))
