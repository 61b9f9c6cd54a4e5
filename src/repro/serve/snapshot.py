"""Serving snapshots: persist a trained recommender, restore it without
its training pipeline.

One snapshot is a single ``.npz`` artifact whose entries are

* ``meta_json`` — a JSON document (stored as a zero-dim string array)
  with the schema id, model registry name, :class:`ModelConfig` fields,
  construction seed, parameter dtype, matrix shape, dataset name and —
  from format v3 — the ANN build config under ``"ann"``;
* ``param::<name>`` — every ``state_dict`` array of the model;
* ``train_indptr`` / ``train_indices`` — the train-positive CSR used for
  seen-item exclusion (and to rebuild the model's graph on restore);
* ``user_embeddings`` / ``item_embeddings`` — the final propagated
  arrays, present iff the model's scores are their dot product
  (``serving_embeddings()`` of the snapshot contract in
  :mod:`repro.models.base`);
* ``ann::centroids`` / ``ann::indptr`` / ``ann::items`` — the IVF
  retrieval index built from the embeddings at snapshot time (format
  v3, embedding snapshots only); lets ``backend="ann"`` services skip
  the k-means rebuild.

Format v3 artifacts are written **uncompressed** (``np.savez``, ZIP
stored members), which is what makes ``load_snapshot(path, mmap=True)``
possible: the embedding tables are returned as read-only
``np.memmap`` views straight into the page cache, so N serving
processes loading the same snapshot share one physical copy of the
tables instead of N.  Only format v3 loads; any other
``format_version`` is rejected by name.

Restore paths, in order of preference:

1. **embedding-only** — when the propagated arrays are present, a
   :class:`~repro.serve.service.RecommenderService` scores straight from
   them; no model object, no ``repro.models`` import, no propagation.
2. **registry round-trip** — :meth:`Snapshot.build_model` rebuilds the
   model from the registry under the saved dtype and seed, reconstructs
   its dataset from the stored CSR and loads the parameters; inference
   is bit-identical to the live model because ``propagate`` is
   deterministic given parameters and graph (the base-class contract).
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, fields
from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp

from .ann import ANNConfig, IVFIndex
from ..data import InteractionDataset
from ..graph import InteractionGraph
from ..train.config import ModelConfig, config_to_dict

#: schema id embedded in every snapshot's ``meta_json``
SNAPSHOT_SCHEMA = "repro-serve-snapshot/v1"

#: the snapshot format version, stamped into ``meta_json`` and the only
#: one :func:`load_snapshot` reads.  Version 3 stores members
#: uncompressed (memory-mappable via ``load_snapshot(..., mmap=True)``);
#: embedding snapshots additionally carry the ``ann::*`` IVF index
#: arrays and an ``ann`` config block in ``meta_json``.  A missing,
#: older, newer or invalid version is rejected instead of being misread.
SNAPSHOT_FORMAT_VERSION = 3

_PARAM_PREFIX = "param::"
_ANN_PREFIX = "ann::"

#: suffix of the temporary file :func:`save_snapshot` writes before the
#: atomic rename (the chaos suite asserts none of these outlive a save)
SNAPSHOT_TMP_SUFFIX = ".tmp.npz"


def _check_format_version(meta: Dict, path: str) -> None:
    """Reject a ``meta_json`` document whose version is not the current.

    A missing field (a version-1 artifact), an older or newer version
    and a non-integer value all raise a :class:`ValueError` naming it.
    """
    if "format_version" not in meta:
        raise ValueError(f"snapshot {path} has no format_version (a "
                         "version-1 artifact); this version of repro "
                         f"reads only format_version "
                         f"{SNAPSHOT_FORMAT_VERSION}")
    version = meta["format_version"]
    if type(version) is not int:
        raise ValueError(f"invalid snapshot format_version {version!r} "
                         f"in {path}")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise ValueError(
            f"snapshot {path} has format_version {version}, but this "
            f"version of repro reads only {SNAPSHOT_FORMAT_VERSION}")


def _config_from_dict(payload: Dict) -> ModelConfig:
    # deliberately lenient (unlike repro.train.config_from_dict): a
    # snapshot written by a newer same-format repro may carry config
    # fields this build doesn't know; ignoring them keeps old readers
    # working, which is the forward-compat half of the version contract
    known = {f.name for f in fields(ModelConfig)}
    kwargs = {k: (tuple(v) if isinstance(v, list) else v)
              for k, v in payload.items() if k in known}
    return ModelConfig(**kwargs)


def resolve_snapshot_path(path: str) -> str:
    """The on-disk name :func:`save_snapshot` will write ``path`` under.

    Snapshots always carry the ``.npz`` extension; callers that accept a
    user-supplied path (the CLI, the Trainer) resolve through this so
    existence checks and reloads name the same file the save did.
    """
    return path if path.endswith(".npz") else path + ".npz"


def _write_npz_atomic(path: str, arrays: Dict[str, np.ndarray]) -> None:
    """Write an uncompressed ``.npz`` atomically (tmp + ``os.replace``).

    A reader (or a memory-mapping service) never observes a
    half-written artifact, and a crash mid-save leaves only the
    ``*.tmp.npz`` file, which the next successful save of the same path
    replaces.
    """
    tmp = path + SNAPSHOT_TMP_SUFFIX
    try:
        # np.savez (not savez_compressed): ZIP_STORED members are the
        # precondition for load_snapshot(..., mmap=True)
        np.savez(tmp, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _snapshot_arrays(meta: Dict, train: sp.csr_matrix,
                     state: Dict[str, np.ndarray],
                     user_embeddings: Optional[np.ndarray],
                     item_embeddings: Optional[np.ndarray],
                     include_ann: bool,
                     ann_config: Optional[ANNConfig]) -> Dict:
    """Assemble the full ``.npz`` entry dict (and stamp the ANN meta)."""
    arrays = {"train_indptr": train.indptr.astype(np.int64),
              "train_indices": train.indices.astype(np.int64)}
    for name, value in state.items():
        arrays[_PARAM_PREFIX + name] = value
    if user_embeddings is not None:
        arrays["user_embeddings"] = user_embeddings
        arrays["item_embeddings"] = item_embeddings
        if include_ann:
            config = ann_config or ANNConfig()
            index = IVFIndex.build(item_embeddings, config)
            for name, value in index.arrays().items():
                arrays[_ANN_PREFIX + name] = value
            meta["ann"] = config.to_meta()
    arrays["meta_json"] = np.array(json.dumps(meta))
    return arrays


def save_snapshot(model, dataset: InteractionDataset, path: str,
                  include_ann: bool = True,
                  ann_config: Optional[ANNConfig] = None) -> str:
    """Persist ``model`` (trained on ``dataset``) as one ``.npz`` artifact.

    See the module docstring for the artifact layout.  For models under
    the embedding-dot contract the IVF retrieval index is built from the
    serving embeddings and stored alongside them (``include_ann=False``
    skips it; services then rebuild on demand).  The write is atomic.
    Returns the path written (``.npz`` appended when missing).
    """
    state = model.state_dict()
    try:
        dtype = next(iter(state.values())).dtype
    except StopIteration:
        dtype = np.dtype(np.float64)
    train = dataset.train.matrix
    if not train.has_sorted_indices:
        train = train.copy()
        train.sort_indices()
    meta = {
        "schema": SNAPSHOT_SCHEMA,
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "model": getattr(model, "name", type(model).__name__),
        "config": config_to_dict(model.config),
        "seed": int(getattr(model, "seed", 0)),
        "dtype": np.dtype(dtype).name,
        "num_users": int(dataset.num_users),
        "num_items": int(dataset.num_items),
        "dataset": dataset.name,
    }
    embeddings = model.serving_embeddings()
    user_emb, item_emb = (None, None) if embeddings is None else embeddings
    arrays = _snapshot_arrays(meta, train, state, user_emb, item_emb,
                              include_ann, ann_config)
    path = resolve_snapshot_path(path)
    _write_npz_atomic(path, arrays)
    return path


def save_embedding_snapshot(path: str, user_embeddings: np.ndarray,
                            item_embeddings: np.ndarray,
                            train_matrix: Optional[sp.spmatrix] = None,
                            model_name: str = "embeddings",
                            dataset_name: str = "embeddings",
                            include_ann: bool = True,
                            ann_config: Optional[ANNConfig] = None) -> str:
    """Persist bare embedding tables as a (model-free) serving snapshot.

    The load-test and chaos suites use this to build million-user-scale
    artifacts without training a model: the result is a perfectly
    ordinary v3 embedding snapshot — :func:`load_snapshot` (with or
    without ``mmap``) and ``RecommenderService.from_snapshot`` treat it
    like any other.  ``train_matrix=None`` means an empty exclusion CSR
    (no seen items).  The write is atomic.  Returns the path written.
    """
    user_embeddings = np.asarray(user_embeddings)
    item_embeddings = np.asarray(item_embeddings)
    if user_embeddings.ndim != 2 or item_embeddings.ndim != 2 \
            or user_embeddings.shape[1] != item_embeddings.shape[1]:
        raise ValueError("embedding tables must be 2-D with a shared "
                         f"dim, got {user_embeddings.shape} and "
                         f"{item_embeddings.shape}")
    num_users, num_items = len(user_embeddings), len(item_embeddings)
    if train_matrix is None:
        train = sp.csr_matrix((num_users, num_items))
    else:
        train = sp.csr_matrix(train_matrix)
        if train.shape != (num_users, num_items):
            raise ValueError(f"train matrix shape {train.shape} does not "
                             f"match ({num_users}, {num_items})")
        train.sort_indices()
    meta = {
        "schema": SNAPSHOT_SCHEMA,
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "model": model_name,
        "config": {},
        "seed": 0,
        "dtype": np.dtype(user_embeddings.dtype).name,
        "num_users": int(num_users),
        "num_items": int(num_items),
        "dataset": dataset_name,
    }
    arrays = _snapshot_arrays(meta, train, {}, user_embeddings,
                              item_embeddings, include_ann, ann_config)
    path = resolve_snapshot_path(path)
    _write_npz_atomic(path, arrays)
    return path


@dataclass
class Snapshot:
    """A loaded serving snapshot (see the module docstring for layout)."""

    meta: Dict
    state: Dict[str, np.ndarray]
    train_matrix: sp.csr_matrix
    user_embeddings: Optional[np.ndarray] = None
    item_embeddings: Optional[np.ndarray] = None
    ann_centroids: Optional[np.ndarray] = None
    ann_indptr: Optional[np.ndarray] = None
    ann_items: Optional[np.ndarray] = None
    #: True when the embedding tables are read-only ``np.memmap`` views
    mmap: bool = False

    @property
    def model_name(self) -> str:
        return self.meta["model"]

    @property
    def num_users(self) -> int:
        return int(self.meta["num_users"])

    @property
    def num_items(self) -> int:
        return int(self.meta["num_items"])

    @property
    def has_embeddings(self) -> bool:
        return self.user_embeddings is not None

    @property
    def has_ann(self) -> bool:
        """Whether the stored IVF index arrays are present."""
        return self.ann_centroids is not None

    @property
    def ann_config(self) -> ANNConfig:
        """ANN build config from ``meta_json`` (defaults when absent)."""
        return ANNConfig.from_meta(self.meta.get("ann"))

    def build_ann_index(self) -> IVFIndex:
        """The snapshot's IVF retrieval index.

        Restored from the stored arrays when present; otherwise (saves
        with ``include_ann=False``) rebuilt deterministically from the
        item embeddings, which by construction yields the same index a
        default save would have stored.
        Requires an embedding snapshot.
        """
        if not self.has_embeddings:
            raise ValueError(
                f"snapshot of model {self.model_name!r} carries no "
                "serving embeddings; the ANN backend needs them")
        if self.has_ann:
            return IVFIndex.from_arrays(self.ann_centroids,
                                        self.ann_indptr, self.ann_items,
                                        self.ann_config)
        return IVFIndex.build(np.asarray(self.item_embeddings),
                              self.ann_config)

    def build_dataset(self) -> InteractionDataset:
        """Reconstruct the training-graph dataset (empty test split)."""
        empty_test = sp.csr_matrix((self.num_users, self.num_items))
        return InteractionDataset(
            name=self.meta.get("dataset", "snapshot"),
            train=InteractionGraph(self.train_matrix),
            test_matrix=empty_test)

    def build_model(self, dataset: Optional[InteractionDataset] = None):
        """Registry round-trip: rebuild the live model and load its state.

        The model is constructed under the snapshot's parameter dtype and
        seed so construction-time structural state (e.g. GraphAug's
        candidate edges) and inference arithmetic match the saved model
        exactly.
        """
        # imported here so embedding-only serving never pulls in the zoo
        from ..autograd import default_dtype
        from ..models import build_model

        if dataset is None:
            dataset = self.build_dataset()
        config = _config_from_dict(self.meta.get("config", {}))
        with default_dtype(self.meta.get("dtype", "float64")):
            model = build_model(self.model_name, dataset, config,
                                seed=int(self.meta.get("seed", 0)))
        model.load_state_dict(self.state)
        return model


#: entries eligible for zero-copy mapping — the tables that dominate a
#: snapshot's footprint; everything else is loaded eagerly as usual
_MMAP_ENTRIES = ("user_embeddings", "item_embeddings",
                 _ANN_PREFIX + "centroids", _ANN_PREFIX + "indptr",
                 _ANN_PREFIX + "items")


def _mmap_npz_entries(path: str, names) -> Dict[str, np.ndarray]:
    """Map ``.npy`` members of an uncompressed ``.npz`` as ``np.memmap``.

    ``np.load(..., mmap_mode=...)`` cannot map inside a zip, so this
    walks the archive itself: for each requested member it locates the
    payload (local file header + the ``.npy`` header parsed via
    :mod:`numpy.lib.format`) and hands the absolute file offset to
    :class:`np.memmap`.  Members stored compressed (an artifact
    rewritten by another tool) raise a :class:`ValueError` naming the
    fix — there is no zero-copy view of deflate data.
    """
    out: Dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as zf, open(path, "rb") as raw:
        members = set(zf.namelist())
        for name in names:
            member = name + ".npy"
            if member not in members:
                continue
            info = zf.getinfo(member)
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(
                    f"snapshot {path} stores {name!r} compressed; "
                    "mmap=True needs the uncompressed members "
                    "save_snapshot writes — load it without mmap and "
                    "re-save it")
            # the central directory's name/extra lengths may differ from
            # the local header's, so read the local header to find the
            # payload start
            raw.seek(info.header_offset + 26)
            lengths = raw.read(4)
            name_len = int.from_bytes(lengths[0:2], "little")
            extra_len = int.from_bytes(lengths[2:4], "little")
            payload = info.header_offset + 30 + name_len + extra_len
            raw.seek(payload)
            version = np.lib.format.read_magic(raw)
            if version >= (2, 0):
                header = np.lib.format.read_array_header_2_0(raw)
            else:
                header = np.lib.format.read_array_header_1_0(raw)
            shape, fortran_order, dtype = header
            out[name] = np.memmap(path, dtype=dtype, mode="r",
                                  shape=shape, offset=raw.tell(),
                                  order="F" if fortran_order else "C")
    return out


def load_snapshot(path: str, mmap: bool = False) -> Snapshot:
    """Load a :func:`save_snapshot` artifact back into a :class:`Snapshot`.

    With ``mmap=True`` the embedding tables and stored ANN arrays come
    back as read-only :class:`np.memmap` views onto the file, so N
    processes loading the same snapshot share one resident copy through
    the page cache (metadata, parameters and the exclusion CSR are still
    loaded eagerly — they are small).  Requires uncompressed members;
    a compressed artifact raises a clear error.  Only format v3 loads.
    """
    with np.load(path, allow_pickle=False) as blob:
        if "meta_json" not in blob.files:
            raise ValueError(f"{path} is not a serving snapshot "
                             "(missing meta_json)")
        meta = json.loads(str(blob["meta_json"]))
        if meta.get("schema") != SNAPSHOT_SCHEMA:
            raise ValueError(f"unsupported snapshot schema "
                             f"{meta.get('schema')!r} in {path} "
                             f"(expected {SNAPSHOT_SCHEMA})")
        _check_format_version(meta, path)
        state = {name[len(_PARAM_PREFIX):]: blob[name]
                 for name in blob.files if name.startswith(_PARAM_PREFIX)}
        shape = (int(meta["num_users"]), int(meta["num_items"]))
        indptr = blob["train_indptr"]
        indices = blob["train_indices"]
        train = sp.csr_matrix(
            (np.ones(len(indices)), indices, indptr), shape=shape)
        present = [n for n in _MMAP_ENTRIES if n in blob.files]
        tables: Dict[str, np.ndarray] = {}
        if not mmap:
            tables = {n: blob[n] for n in present}
    if mmap:
        tables = _mmap_npz_entries(path, present)
    return Snapshot(meta=meta, state=state, train_matrix=train,
                    user_embeddings=tables.get("user_embeddings"),
                    item_embeddings=tables.get("item_embeddings"),
                    ann_centroids=tables.get(_ANN_PREFIX + "centroids"),
                    ann_indptr=tables.get(_ANN_PREFIX + "indptr"),
                    ann_items=tables.get(_ANN_PREFIX + "items"),
                    mmap=mmap)
