"""Synthetic feature generation, episode sampling, and few-shot evaluation.

Features stand in for extractor outputs: each leaf class gets an anchor
vector generated by a random walk down the hierarchy (children perturb their
parent's anchor), so sibling classes look similar in feature space the way
visually related categories do. Episodes are w-way s-shot tasks over novel
classes; evaluation fine-tunes a copy of the base projector per episode.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import mmap
import os
import pickle
import re
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding import BallSpace
from .evaluation import direct_parents
from .negatives import NegativeSets
from .ontology import Ich, Ontology, _topological_order, ontology_from_dict
from .projector import (Mlp, ProjectorConfig, ancestor_report, classify_batch,
                        finetune_fewshot, mlp_forward)

# feature file reads and checks work in blocks of this size, so that their
# temporaries stay small next to the matrix at any size
_BLOCK_BYTES = 1 << 16

# a feature CSV is scanned in blocks of this many bytes, and its rows are
# converted in blocks of about this many bytes of matrix; it is parsed in
# more than one share only when each share gets at least _SHARE_MIN_BYTES
# of text, below which a fork costs more than it saves
_TEXT_BLOCK_BYTES = 1 << 20
_SHARE_MIN_BYTES = 1 << 20

# full-scale results from the original evaluation, recorded in reports as
# non-reproducible reference points for the desk-scale figures
REFERENCE_RESULTS = {
    "mini_imagenet_5way_1shot": {"accuracy": 65.71, "ci95": 0.13},
    "mini_imagenet_5way_5shot": {"accuracy": 93.65, "ci95": 0.07},
    "tiered_imagenet_5way_1shot": {"accuracy": 73.4, "ci95": 0.13},
    "tiered_imagenet_5way_5shot": {"accuracy": 88.95, "ci95": 0.09},
    "mini_imagenet_20way_1shot": {"accuracy": 48.02},
    "mini_imagenet_20way_5shot": {"accuracy": 84.13},
    "base_learning_train_accuracy": 85.32,
    "base_learning_test_accuracy": 95.36,
    "note": "full-scale reference values; not reproducible without the "
            "original image corpus and backbone",
}


@dataclass(frozen=True)
class FeatureDataset:
    """Labelled feature vectors for one split of the leaf classes."""

    dim: int
    labels: tuple[str, ...]
    features: np.ndarray  # (n_examples, dim)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"feature dim must be >= 1, got {self.dim}")
        if self.features.shape != (len(self.labels), self.dim):
            raise ValueError("feature array shape does not match labels/dim")
        self.features.setflags(write=False)

    def class_names(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.labels)))

    def class_indices(self) -> dict[str, np.ndarray]:
        out: dict[str, list[int]] = {}
        for i, label in enumerate(self.labels):
            out.setdefault(label, []).append(i)
        return {label: np.array(idx) for label, idx in sorted(out.items())}

    def subset(self, indices) -> "FeatureDataset":
        indices = np.asarray(indices, dtype=int)
        return FeatureDataset(self.dim, tuple(self.labels[i] for i in indices),
                              self.features[indices])


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Handle on a temporary file beside ``path``, text for ``mode="w"`` and
    binary for ``mode="wb"``, fsynced and renamed onto ``path`` when the block
    completes and removed if the block raises."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the OS does not say (there
    is no ``os.sched_getaffinity`` on macOS or Windows)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _map_shares(fn, items) -> list:
    """``[fn(item) for item in items]``, computed over contiguous shares of
    ``items``, one share per usable CPU (at most one per item).

    Share 0 runs in this process. Each other share runs in a forked child,
    which sends back its pickled result list, or its exception, through a
    pipe and leaves only through ``os._exit``, so no ``finally`` block or
    exit handler of this process runs twice. A child's exception is raised
    here again with its type and message; one that does not pickle becomes
    a RuntimeError carrying its repr. Every pipe is closed and every child
    reaped before this returns or raises. With one CPU or one item, the
    list is computed here.
    """
    items = list(items)
    n_shares = min(_usable_cpus(), len(items))
    if n_shares <= 1:
        return [fn(item) for item in items]
    cuts = [len(items) * k // n_shares for k in range(n_shares + 1)]
    children = []  # (pid, read end of its pipe)
    try:
        for k in range(1, n_shares):
            read_fd, write_fd = os.pipe()
            try:
                # Python 3.12+ warns in the parent when a process with
                # threads forks. The threads are BLAS's: the OpenBLAS in
                # numpy's wheels stops them in its own fork handler, and a
                # child runs only numpy and pickle before os._exit.
                with warnings.catch_warnings():
                    warnings.filterwarnings(
                        "ignore", "This process .* is multi-threaded",
                        DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    _share_child(fn, items[cuts[k]:cuts[k + 1]], write_fd,
                                 [read_fd, *(fd for _, fd in children)])
                children.append((pid, read_fd))
            except BaseException:
                os.close(read_fd)
                raise
            finally:
                os.close(write_fd)
        results = [fn(item) for item in items[:cuts[1]]]
        for pid, read_fd in children:
            results.extend(_share_result(pid, read_fd))
        return results
    finally:
        for _, read_fd in children:
            os.close(read_fd)
        for pid, _ in children:
            os.waitpid(pid, 0)


def _share_child(fn, share, write_fd: int, inherited_fds) -> None:
    """The body of a forked share: its pickled ``(error, results)`` go into
    ``write_fd``. It never returns."""
    status = 1
    try:
        for fd in inherited_fds:
            os.close(fd)
        try:
            payload = pickle.dumps((None, [fn(item) for item in share]))
        except BaseException as exc:
            try:
                payload = pickle.dumps((exc, None))
                pickle.loads(payload)
            except Exception:
                payload = pickle.dumps((RuntimeError(repr(exc)), None))
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _share_result(pid: int, read_fd: int) -> list:
    """The results a forked share sent, or its exception raised here."""
    with open(read_fd, "rb", closefd=False) as pipe:
        payload = pipe.read()
    try:
        error, results = pickle.loads(payload)
    except Exception as exc:
        raise RuntimeError(f"share process {pid} ended without sending "
                           "its results") from exc
    if error is not None:
        raise error
    return results


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted where csv.reader would misread it."""
    if text.startswith('"') or any(ch in text for ch in ',\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_lines(dataset: FeatureDataset):
    """The feature CSV line by line: a header, then one row per example with
    repr-formatted floats so values round-trip exactly."""
    yield "label," + ",".join(f"f_{i + 1}" for i in range(dataset.dim)) + "\n"
    for label, row in zip(dataset.labels, dataset.features):
        yield _csv_field(label) + "," + ",".join(map(repr, row.tolist())) + "\n"


def write_features_csv(dataset: FeatureDataset, path) -> None:
    """The feature CSV that ``read_features_csv`` reads back exactly. CSV is
    the import format; the pipeline writes ``.npz``, so outside the tests
    only the benchmark's fewshot set-up calls this."""
    with atomic_open(path) as fh:
        fh.writelines(_csv_lines(dataset))


def _line_ends(block: bytes, start: int, stop: int) -> int:
    """The line endings in ``block[start:stop]``: ``\\n``, ``\\r\\n`` and bare
    ``\\r``, as a text handle opened with ``newline=""`` splits lines."""
    ends = block.count(b"\n", start, stop)
    if block.find(b"\r", start, stop) < 0:  # a memchr, unlike the counts
        return ends
    return (ends + block.count(b"\r", start, stop)
            - block.count(b"\r\n", start, stop))


def _scan_csv(raw, size: int, n_shares: int):
    """One pass over the binary file ``raw`` in blocks: the byte offset at
    which each share starts and the line endings in each share.

    Share ``k`` starts just after the first ``\\n`` at or after ``k/n_shares``
    of the file, so every cut falls between lines. A quoted label may hold
    a line break, so a file with any ``"`` byte is one share.
    """
    targets = [size * k // n_shares for k in range(1, n_shares)]
    starts, ends = [0], [0]
    quoted = after_cr = False
    pos = 0
    for block in iter(lambda: raw.read(_TEXT_BLOCK_BYTES), b""):
        quoted = quoted or b'"' in block
        if after_cr and block.startswith(b"\n"):
            ends[-1] -= 1  # a \r\n split between blocks was counted twice
        at = 0
        while targets and targets[0] < pos + len(block):
            newline = block.find(b"\n", max(targets[0] - pos, at))
            if newline < 0:
                break
            ends[-1] += _line_ends(block, at, newline + 1)
            at = newline + 1
            starts.append(pos + at)
            ends.append(0)
            targets = [t for t in targets if t >= pos + at]
        ends[-1] += _line_ends(block, at, len(block))
        after_cr = block.endswith(b"\r")
        pos += len(block)
    if quoted:
        return [0], [sum(ends)]
    return starts, ends


# numpy's row numbers count from the start of each row block; the reader
# names the line of the file instead
_NUMPY_ROW = re.compile(r" at row \d+")


def _require_finite(features: np.ndarray, what: str) -> None:
    """Raise unless every value is finite. The test runs over row blocks of
    at most ``_BLOCK_BYTES`` values, so its bool temporary stays small."""
    rows = max(1, _BLOCK_BYTES // max(1, features.shape[1]))
    for start in range(0, len(features), rows):
        if not np.isfinite(features[start:start + rows]).all():
            raise ValueError(f"{what} holds non-finite values")


def read_features_csv(path) -> FeatureDataset:
    """The feature CSV ``write_features_csv`` writes, or any CSV with a
    ``label`` column first and one float column per feature; anything else
    is a ValueError that names the file.

    A first pass over the bytes bounds the rows of each share of the file,
    and the matrix is allocated once, by that bound, in an anonymous shared
    mapping. Each share (one per usable CPU, see ``_map_shares``) parses
    its lines in row blocks straight into its rows of the matrix and sends
    back only its labels; the gaps the bounds leave are then closed.
    """
    with open(path, newline="") as fh:
        try:
            first = fh.readline()
        except UnicodeDecodeError as exc:
            raise ValueError(f"feature CSV {path}: {exc}") from exc
    if not first:
        raise ValueError(f"feature CSV {path} is empty")
    header = next(csv.reader([first]))
    if not header or header[0] != "label":
        raise ValueError(f"feature CSV {path} must start with a 'label' "
                         "column")
    dim = len(header) - 1
    if dim < 1:
        raise ValueError(f"feature CSV {path} has no feature columns")
    with open(path, "rb") as raw:
        size = os.fstat(raw.fileno()).st_size
        n_shares = max(1, min(_usable_cpus(), size // _SHARE_MIN_BYTES))
        starts, ends = _scan_csv(raw, size, n_shares)
    last = len(ends) - 1
    # every line of a share but the header holds at most one row, and the
    # last line of the file may lack its line ending
    offsets = np.cumsum([0, *(lines - (k == 0) + (k == last)
                              for k, lines in enumerate(ends))]).tolist()
    lines_before = np.cumsum([0, *ends]).tolist()
    row_bytes = 8 * dim
    buffer = mmap.mmap(-1, max(1, offsets[-1]) * row_bytes)
    matrix = np.frombuffer(buffer, dtype=np.float64).reshape(-1, dim)
    row = np.dtype([("label", object), ("f", float, (dim,))])
    block_rows = max(1, _TEXT_BLOCK_BYTES // row_bytes)

    def parse(k: int) -> list[str]:
        """Share ``k``'s rows, converted block by block into its slice of
        the matrix; returns their labels."""
        out = matrix[offsets[k]:offsets[k + 1]]
        labels: list[str] = []
        line = lines_before[k]  # the line of the file read last

        def counted(lines):
            nonlocal line
            for text in lines:
                line += 1
                yield text

        with open(path, "rb") as raw:
            raw.seek(starts[k])
            fh = io.TextIOWrapper(raw, newline="")
            lines = counted(fh if k == last else
                            itertools.islice(fh, ends[k]))
            if k == 0:
                next(lines)  # the header
            # comments=None: a label may start with '#'. A header-only file
            # is a valid empty dataset, so loadtxt's no-data warning is not
            # passed on.
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained "
                                        "no data", UserWarning)
                while True:
                    try:
                        table = np.loadtxt(lines, dtype=row, delimiter=",",
                                           quotechar='"', comments=None,
                                           ndmin=1, max_rows=block_rows)
                        out[len(labels):len(labels) + len(table)] = table["f"]
                    except ValueError as exc:
                        raise ValueError(f"feature CSV {path}, line {line}: "
                                         f"{_NUMPY_ROW.sub('', str(exc))}"
                                         ) from exc
                    labels.extend(table["label"].tolist())
                    if len(table) < block_rows:
                        return labels

    shares = _map_shares(parse, range(len(ends)))
    rows = 0
    for k, labels in enumerate(shares):  # close the gaps between shares
        if offsets[k] != rows:
            buffer.move(rows * row_bytes, offsets[k] * row_bytes,
                        len(labels) * row_bytes)
        rows += len(labels)
    features = matrix[:rows]
    _require_finite(features, f"feature CSV {path}")
    return FeatureDataset(dim, tuple(itertools.chain.from_iterable(shares)),
                          features)


def _write_npy_member(archive: zipfile.ZipFile, name: str, array) -> None:
    """``array`` as the ``.npy`` member ``np.savez`` writes, with the data
    streamed from the array's own buffer instead of a copy of it (only an
    array that is neither C- nor Fortran-contiguous is copied first)."""
    header = np.lib.format.header_data_from_array_1_0(array)
    data = array.T if header["fortran_order"] else array
    with archive.open(name, "w", force_zip64=True) as entry:
        np.lib.format.write_array_header_1_0(entry, header)
        entry.write(memoryview(np.ascontiguousarray(data)))


def write_features_npz(dataset: FeatureDataset, path) -> None:
    """The uncompressed ``np.savez`` archive of ``labels`` (a str_ array) and
    ``features`` (float64), byte for byte, written without copying the
    features: exact like the CSV, at a fraction of its size and time. A str_
    array drops trailing NULs, so such a label is refused."""
    for label in dataset.labels:
        if label.endswith("\x00"):
            raise ValueError(f"feature NPZ {path}: label {label!r} ends in NUL, "
                             "which a str_ array would drop")
    with atomic_open(path, "wb") as fh, zipfile.ZipFile(
            fh, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
        _write_npy_member(archive, "labels.npy",
                          np.array(dataset.labels, dtype=str))
        _write_npy_member(archive, "features.npy",
                          np.asarray(dataset.features, dtype=np.float64))


def _read_npy_member(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    """The array of the ``.npy`` member ``name``, read straight into its own
    buffer in blocks (``np.load`` holds two 256 KiB chunk copies at a time).
    An object array, which only unpickling could read, is refused."""
    fmt = np.lib.format
    with archive.open(name) as entry:
        version = fmt.read_magic(entry)
        if version not in ((1, 0), (2, 0)):
            raise ValueError(f"{name}: unsupported .npy version {version}")
        read_header = (fmt.read_array_header_1_0 if version == (1, 0)
                       else fmt.read_array_header_2_0)
        shape, fortran_order, dtype = read_header(entry)
        if dtype.hasobject:
            raise ValueError(f"{name} holds Python objects, which are not "
                             "unpickled (allow_pickle=False)")
        array = np.empty(shape[::-1] if fortran_order else shape, dtype)
        buf = memoryview(array.reshape(-1).view(np.uint8))
        for start in range(0, len(buf), _BLOCK_BYTES):
            block = buf[start:start + _BLOCK_BYTES]
            if entry.readinto(block) != len(block):
                raise ValueError(f"{name} is truncated")
    return array.T if fortran_order else array


def read_features_npz(path) -> FeatureDataset:
    """The dataset ``write_features_npz`` wrote, loaded without unpickling;
    anything else is a ValueError that names the file."""
    try:
        with open(path, "rb") as fh, zipfile.ZipFile(fh) as archive:
            members = set(archive.namelist())
            missing = [key for key in ("features", "labels")
                       if f"{key}.npy" not in members]
            if missing:
                raise ValueError(f"missing arrays {missing}")
            labels = _read_npy_member(archive, "labels.npy")
            features = _read_npy_member(archive, "features.npy")
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"feature NPZ {path}: {exc}") from exc
    if (features.dtype != np.float64 or features.ndim != 2
            or features.shape[1] < 1):
        raise ValueError(f"feature NPZ {path} needs a float64 matrix with at "
                         f"least one column, not {features.dtype} "
                         f"{features.shape}")
    if labels.dtype.kind != "U" or labels.shape != features.shape[:1]:
        raise ValueError(f"feature NPZ {path} needs one str label per row: "
                         f"{labels.dtype} {labels.shape} for "
                         f"{len(features)} rows")
    _require_finite(features, f"feature NPZ {path}")
    return FeatureDataset(features.shape[1], tuple(labels.tolist()), features)


def synthetic_ontology(fanouts) -> Ontology:
    """Balanced tree ontology: "root" at level 1, fanouts[i] children per node.

    Sibling disjointness is declared at every level (pairwise within each
    parent) so the embedding has separation signal throughout.
    """
    levels = [["root"]]
    subclass = []
    disjoint = []
    for fanout in fanouts:
        nxt = []
        for parent in levels[-1]:
            children = [f"{parent}_{i}" for i in range(fanout)]
            nxt.extend(children)
            subclass.extend([child, parent] for child in children)
            for i in range(len(children)):
                for j in range(i + 1, len(children)):
                    disjoint.append([children[i], children[j]])
        levels.append(nxt)
    concepts = [c for level in levels for c in level]
    return ontology_from_dict({
        "concepts": concepts,
        "subclass": subclass,
        "disjoint": disjoint,
        "leaves": levels[-1],
    })


def split_leaves(ontology: Ontology):
    """Deterministic base/novel split: alternate over the sorted leaves."""
    ordered = sorted(ontology.leaves)
    base = tuple(leaf for i, leaf in enumerate(ordered) if i % 2 == 0)
    novel = tuple(leaf for i, leaf in enumerate(ordered) if i % 2 == 1)
    return base, novel


def _hierarchy_anchors(ontology: Ontology, dim: int, rng, anchor_scale: float,
                       step_scale: float) -> dict[str, np.ndarray]:
    # refuse a cycle the way every entry point does; then each sorted pass
    # below anchors at least one concept
    _topological_order(ontology.concepts, ontology.told_parents)
    anchors: dict[str, np.ndarray] = {}
    pending = sorted(ontology.concepts)
    while pending:
        remaining = []
        for concept in pending:
            parents = ontology.told_parents.get(concept, ())
            if not parents:
                anchors[concept] = anchor_scale * rng.normal(size=dim)
            elif all(p in anchors for p in parents):
                base = np.mean([anchors[p] for p in sorted(parents)], axis=0)
                anchors[concept] = base + step_scale * rng.normal(size=dim)
            else:
                remaining.append(concept)
        pending = remaining
    return anchors


def generate_synthetic_features(ontology: Ontology, dim: int, per_class: int,
                                noise_sigma: float, seed: int, *,
                                anchor_scale: float, step_scale: float,
                                intrinsic_dim: int | None):
    """Seeded feature datasets for the (base, novel) halves of
    ``split_leaves``, aligned with the hierarchy.

    Anchors follow the told hierarchy (child anchor = mean of parent anchors
    plus a step), so siblings end up closer than unrelated classes;
    examples add isotropic Gaussian noise to the class anchor. With
    intrinsic_dim set, anchors live on a low-dimensional subspace of the
    feature space (noise stays full-dimensional), mimicking extractor
    features that occupy a thin manifold of their ambient space.

    Each split's matrix is allocated once and every leaf's rows are written
    into their slice of it, so the outputs are the largest thing held.
    """
    leaves = sorted(ontology.leaves)
    if len(leaves) < 2:
        raise ValueError("need at least 2 leaves")

    rng = np.random.default_rng(seed)
    if intrinsic_dim is None:
        anchors = _hierarchy_anchors(ontology, dim, rng, anchor_scale, step_scale)
    else:
        if not 1 <= intrinsic_dim <= dim:
            raise ValueError("intrinsic_dim must lie in [1, dim]")
        lift, _ = np.linalg.qr(rng.normal(size=(dim, intrinsic_dim)))
        thin = _hierarchy_anchors(ontology, intrinsic_dim, rng, anchor_scale,
                                  step_scale)
        anchors = {name: lift @ a for name, a in thin.items()}
    splits = split_leaves(ontology)
    matrices = [np.empty((len(names) * per_class, dim)) for names in splits]
    rows_of = {leaf: matrix[i * per_class:(i + 1) * per_class]
               for names, matrix in zip(splits, matrices)
               for i, leaf in enumerate(names)}
    if len(rows_of) != len(leaves):
        raise ValueError("leaves must be distinct")
    for leaf in leaves:
        noise = rng.normal(size=(per_class, dim))
        noise *= noise_sigma
        np.add(anchors[leaf], noise, out=rows_of[leaf])
    return tuple(FeatureDataset(dim, tuple(leaf for leaf in names
                                           for _ in range(per_class)), matrix)
                 for names, matrix in zip(splits, matrices))


@dataclass(frozen=True)
class Episode:
    """One w-way s-shot task: candidate classes, and the rows of the novel
    split that form its support and query examples. The subsets are copied
    out on access, so a list of episodes holds row indices, not features."""

    classes: tuple[str, ...]
    novel: FeatureDataset
    support_rows: np.ndarray
    query_rows: np.ndarray

    @property
    def support(self) -> FeatureDataset:
        return self.novel.subset(self.support_rows)

    @property
    def query(self) -> FeatureDataset:
        return self.novel.subset(self.query_rows)


def sample_episode(novel: FeatureDataset, w: int, s: int, q: int,
                   seed: int) -> Episode:
    """Seeded class and example sampling without replacement."""
    by_class = novel.class_indices()
    names = sorted(by_class)
    if w > len(names):
        raise ValueError(f"episode wants {w} classes, split has {len(names)}")
    rng = np.random.default_rng(seed)
    chosen = [names[i] for i in rng.choice(len(names), size=w, replace=False)]
    support_idx, query_idx = [], []
    for name in chosen:
        pool = by_class[name]
        if len(pool) < s + q:
            raise ValueError(
                f"class {name!r} has {len(pool)} examples, needs {s + q}")
        picked = pool[rng.choice(len(pool), size=s + q, replace=False)]
        support_idx.extend(picked[:s])
        query_idx.extend(picked[s:])
    return Episode(tuple(chosen), novel, np.array(support_idx, dtype=int),
                   np.array(query_idx, dtype=int))


def sample_episodes(novel: FeatureDataset, w: int, s: int, q: int,
                    n_episodes: int, seed: int) -> list[Episode]:
    seeds = np.random.SeedSequence(seed).generate_state(n_episodes)
    return [sample_episode(novel, w, s, q, int(ep_seed)) for ep_seed in seeds]


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    ci95: float
    per_episode: tuple[float, ...]
    semantic_error_fraction: float | None = None

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "ci95": self.ci95,
            "episodes": len(self.per_episode),
            "per_episode": list(self.per_episode),
            "semantic_error_fraction": self.semantic_error_fraction,
        }


def _aggregate(per_episode, semantic: float | None) -> EvalReport:
    arr = np.array(per_episode)
    ci = 1.96 * arr.std(ddof=1) / math.sqrt(len(arr)) if len(arr) > 1 else 0.0
    return EvalReport(float(arr.mean()), float(ci), tuple(per_episode), semantic)


def evaluate_episodes(space: BallSpace, base_mlp: Mlp, episodes,
                      projector_config: ProjectorConfig,
                      negatives: NegativeSets, ich: Ich | None = None) -> EvalReport:
    """Few-shot protocol: per episode fine-tune a copy of the base projector
    on the support set, then classify the queries against the w candidate
    balls. Semantic errors (wrong but inside the true class's parent ball)
    are tallied when the closure is supplied. Episodes are independent, so
    they run in shares, one per usable CPU (``_map_shares``)."""
    parents_of: dict[str, frozenset[str]] = {}

    def run(episode: Episode) -> tuple[float, int, int]:
        """The episode's accuracy, its missed queries and how many of those
        fell inside a parent ball of their true class."""
        query = episode.query
        tuned = finetune_fewshot(base_mlp, episode.support, space, negatives,
                                 projector_config)
        candidates = [(name, space.ball(name)) for name in episode.classes]
        outputs = mlp_forward(query.features, tuned)
        picks, _, _ = classify_batch(outputs, candidates)
        truths = np.array(query.labels)
        missed = np.flatnonzero(np.array(episode.classes)[picks] != truths)
        semantic_hits = 0
        for i in missed if ich is not None else ():
            truth = truths[i]
            if truth not in parents_of:
                parents_of[truth] = direct_parents(ich, [truth])
            report = ancestor_report(outputs[i], space, ich)
            semantic_hits += any(p in report for p in parents_of[truth])
        return ((len(truths) - len(missed)) / len(truths), len(missed),
                semantic_hits)

    results = _map_shares(run, episodes)
    wrong = sum(missed for _, missed, _ in results)
    semantic_wrong = sum(hits for _, _, hits in results)
    semantic = (semantic_wrong / wrong) if (ich is not None and wrong) else (
        0.0 if ich is not None else None)
    return _aggregate([accuracy for accuracy, _, _ in results], semantic)


def nearest_centroid_accuracy(episodes) -> EvalReport:
    """Baseline: classify each query by the nearest support-class centroid.
    Episodes run in shares, like ``evaluate_episodes``."""

    def run(episode: Episode) -> float:
        support, query = episode.support, episode.query
        idx = support.class_indices()
        names = episode.classes
        centroids = np.stack([support.features[idx[name]].mean(axis=0)
                              for name in names])
        correct = 0
        for row, truth in zip(query.features, query.labels):
            d = np.linalg.norm(centroids - row, axis=1)
            correct += names[int(d.argmin())] == truth
        return correct / len(query.labels)

    return _aggregate(_map_shares(run, episodes), None)


def dataset_accuracy(space: BallSpace, mlp: Mlp, dataset: FeatureDataset,
                     candidates=None) -> float:
    """Fraction of examples classified into their own label's ball."""
    names = tuple(candidates) if candidates is not None else dataset.class_names()
    balls = [(name, space.ball(name)) for name in names]
    picks, _, _ = classify_batch(mlp_forward(dataset.features, mlp), balls)
    correct = int((np.array(names)[picks] == np.array(dataset.labels)).sum())
    return correct / len(dataset.labels)
