"""Synthetic feature generation, episode sampling, and few-shot evaluation.

Features stand in for extractor outputs: each leaf class gets an anchor
vector generated by a random walk down the hierarchy (children perturb their
parent's anchor), so sibling classes look similar in feature space the way
visually related categories do. Episodes are w-way s-shot tasks over novel
classes; evaluation fine-tunes a copy of the base projector per episode and
scores the nearest-support-centroid baseline on the same queries, returning
the projector's report and the baseline's.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import mmap
import multiprocessing
import os
import pickle
import re
import stat
import struct
import warnings
import weakref
import zipfile
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .embedding import BallSpace, distances
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


class _Labelled:
    """The classes of a split with ``labels``, and the rows of each."""

    def class_names(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.labels)))

    def class_indices(self) -> dict[str, np.ndarray]:
        out: dict[str, list[int]] = {}
        for i, label in enumerate(self.labels):
            out.setdefault(label, []).append(i)
        return {label: np.array(idx) for label, idx in sorted(out.items())}


@dataclass(frozen=True)
class FeatureDataset(_Labelled):
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

    def subset(self, indices) -> "FeatureDataset":
        indices = np.asarray(indices, dtype=int)
        return FeatureDataset(self.dim, tuple(self.labels[i] for i in indices),
                              self.features[indices])


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Handle on a temporary file beside ``path``, text for ``mode="w"`` and
    binary for ``mode="wb"``, fsynced and renamed onto ``path`` when the block
    completes and removed if the block raises. An existing ``path`` that is
    not a regular file (a symlink, FIFO, device or directory) is refused
    before anything is written, since the rename would replace it."""
    with contextlib.suppress(FileNotFoundError):
        if not stat.S_ISREG(os.lstat(path).st_mode):
            raise ValueError(f"output {path} exists and is not a regular "
                             "file; it is not replaced")
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

    Share 0 runs here, every other share in a child of multiprocessing's
    fork context, which sends back its results or its exception. A child's
    exception is raised here again; one that does not survive a pickle
    round trip becomes a RuntimeError carrying its repr. Every child is
    joined before this returns or raises.
    """
    items = list(items)
    n_shares = min(_usable_cpus(), len(items))
    if n_shares <= 1:
        return [fn(item) for item in items]
    cuts = [len(items) * k // n_shares for k in range(n_shares + 1)]
    fork = multiprocessing.get_context("fork")
    children = []  # (process, read end of its pipe)
    try:
        for k in range(1, n_shares):
            reader, writer = fork.Pipe(duplex=False)
            child = fork.Process(target=_share_child, args=(
                fn, items[cuts[k]:cuts[k + 1]], reader, writer))
            # Python 3.12+ warns when a process with threads forks; they are
            # BLAS's, which numpy's OpenBLAS stops in its fork handler
            with warnings.catch_warnings():
                warnings.filterwarnings(
                    "ignore", "This process .* is multi-threaded",
                    DeprecationWarning)
                child.start()
            writer.close()
            children.append((child, reader))
        results = [fn(item) for item in items[:cuts[1]]]
        for child, reader in children:
            try:
                error, share = reader.recv()
            except Exception as exc:
                raise RuntimeError(f"share process {child.pid} ended "
                                   "without sending its results") from exc
            if error is not None:
                raise error
            results.extend(share)
        return results
    finally:
        # a later child holds the read ends of earlier pipes, so a child
        # may wait for a sibling; every read end is closed before any join
        for _, reader in children:
            reader.close()
        for child, _ in children:
            child.join()


def _share_child(fn, share, reader, writer) -> None:
    """The body of a forked share: sends ``(error, results)`` through
    ``writer``. Once the parent has closed its end of the pipe, nothing is
    sent and nothing is written to stderr."""
    reader.close()  # else a parent that stopped reading would not be seen
    with contextlib.suppress(OSError):
        try:
            writer.send((None, [fn(item) for item in share]))
        except BaseException as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(repr(exc))
            writer.send((exc, None))


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
            # is a valid empty dataset and a blank line holds no row, so
            # loadtxt's no-data warnings are not passed on.
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained "
                                        "no data", UserWarning)
                warnings.filterwarnings("ignore", r"Input line \d+ contained "
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
    _refuse_nul_labels(dataset.labels, f"feature NPZ {path}")
    with atomic_open(path, "wb") as fh, zipfile.ZipFile(
            fh, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
        _write_npy_member(archive, "labels.npy",
                          np.array(dataset.labels, dtype=str))
        _write_npy_member(archive, "features.npy",
                          np.asarray(dataset.features, dtype=np.float64))


# what reading a member of a damaged archive raises besides ValueError:
# zipfile's NotImplementedError for an unknown compression method and its
# RuntimeError for an encrypted member among them
_ARCHIVE_FAULTS = (EOFError, ValueError, zipfile.BadZipFile,
                   NotImplementedError, RuntimeError)


def _npy_header(entry, name: str, size: int):
    """``(shape, fortran_order, dtype)`` of the ``.npy`` member open as
    ``entry``, whose uncompressed size is ``size`` bytes; ``entry`` is left
    at the member's data. An object array, which only unpickling could
    read, is refused, and so is a header that claims more data than the
    member holds, before anything is allocated for it."""
    fmt = np.lib.format
    version = fmt.read_magic(entry)
    if version not in ((1, 0), (2, 0)):
        raise ValueError(f"{name}: unsupported .npy version {version}")
    read_header = (fmt.read_array_header_1_0 if version == (1, 0)
                   else fmt.read_array_header_2_0)
    shape, fortran_order, dtype = read_header(entry)
    if dtype.hasobject:
        raise ValueError(f"{name} holds Python objects, which are not "
                         "unpickled (allow_pickle=False)")
    if math.prod(shape) * dtype.itemsize > size - entry.tell():
        raise ValueError(f"{name} is truncated")
    return shape, fortran_order, dtype


def _read_npy_data(entry, name: str, shape, fortran_order, dtype):
    """The array whose data ``entry`` is at, read straight into its own
    buffer in blocks (``np.load`` holds two 256 KiB chunk copies at a
    time)."""
    array = np.empty(shape[::-1] if fortran_order else shape, dtype)
    buf = memoryview(array.reshape(-1).view(np.uint8))
    for start in range(0, len(buf), _BLOCK_BYTES):
        block = buf[start:start + _BLOCK_BYTES]
        if entry.readinto(block) != len(block):
            raise ValueError(f"{name} is truncated")
    return array.T if fortran_order else array


def _checked_npz(fh, path, whole: bool):
    """The checks that ``read_features_npz`` and ``FeatureNpz`` share, run on
    the feature NPZ open as the binary file ``fh``. Returns its labels, its
    width, and either its matrix and None, or None and the file offset at
    which the matrix's rows start. The second form is given only when
    ``whole`` is false and the matrix is stored uncompressed in C order; its
    values are then streamed through in blocks for the finite check. Every
    refusal is a ValueError that names the file."""
    try:
        with zipfile.ZipFile(fh) as archive:
            members = set(archive.namelist())
            missing = [key for key in ("features", "labels")
                       if f"{key}.npy" not in members]
            if missing:
                raise ValueError(f"missing arrays {missing}")
            info = archive.getinfo("labels.npy")
            with archive.open(info) as entry:
                labels = _read_npy_data(entry, "labels.npy", *_npy_header(
                    entry, "labels.npy", info.file_size))
            info = archive.getinfo("features.npy")
            with archive.open(info) as entry:
                shape, fortran_order, dtype = _npy_header(
                    entry, "features.npy", info.file_size)
                if dtype != np.float64 or len(shape) != 2 or shape[1] < 1:
                    raise ValueError("needs a float64 matrix with at least "
                                     f"one column, not {dtype} {shape}")
                if labels.dtype.kind != "U" or labels.shape != shape[:1]:
                    raise ValueError(f"needs one str label per row: "
                                     f"{labels.dtype} {labels.shape} for "
                                     f"{shape[0]} rows")
                if (whole or fortran_order
                        or info.compress_type != zipfile.ZIP_STORED):
                    features = _read_npy_data(entry, "features.npy", shape,
                                              fortran_order, dtype)
                    _require_finite(features, "features.npy")
                    return tuple(labels.tolist()), shape[1], features, None
                at = entry.tell()
                block = np.empty(_BLOCK_BYTES // 8)
                for start in range(0, math.prod(shape), len(block)):
                    part = block[:math.prod(shape) - start]
                    if entry.readinto(part) != part.nbytes:
                        raise ValueError("features.npy is truncated")
                    if not np.isfinite(part).all():
                        raise ValueError("features.npy holds non-finite values")
        # the member's data follows its local header, whose extra field
        # need not match the central directory's
        fh.seek(info.header_offset)
        local = fh.read(zipfile.sizeFileHeader)
        if (len(local) != zipfile.sizeFileHeader
                or not local.startswith(zipfile.stringFileHeader)):
            raise zipfile.BadZipFile("features.npy has no local header")
        *_, name_bytes, extra_bytes = struct.unpack(zipfile.structFileHeader,
                                                    local)
        return (tuple(labels.tolist()), shape[1], None,
                info.header_offset + len(local) + name_bytes + extra_bytes + at)
    except _ARCHIVE_FAULTS as exc:
        raise ValueError(f"feature NPZ {path}: {exc}") from exc


def read_features_npz(path) -> FeatureDataset:
    """The dataset ``write_features_npz`` wrote, loaded without unpickling;
    anything else is a ValueError that names the file."""
    with open(path, "rb") as fh:
        labels, dim, features, _ = _checked_npz(fh, path, whole=True)
    return FeatureDataset(dim, labels, features)


def _read_at(fh, buffer, offset: int) -> int:
    """Reads ``fh`` from ``offset`` on into ``buffer``; returns the bytes
    read. ``os.preadv`` leaves alone the file offset, which forked shares
    share; where it is missing (Windows), so is ``os.sched_getaffinity``,
    and the shares run one after another in this process."""
    if hasattr(os, "preadv"):
        return os.preadv(fh.fileno(), [buffer], offset)
    fh.seek(offset)
    return fh.readinto(buffer)


class FeatureNpz(_Labelled):
    """The feature NPZ at ``path``, kept open with only its labels in
    memory; ``subset`` reads the rows it is asked for. Opening runs every
    check that ``read_features_npz`` runs (``_checked_npz``). A matrix
    stored compressed or in Fortran order has no rows to read in place, so
    it is read whole at open and the file is closed.

    Rows come only from the file that was checked: they are read through
    the handle opened here, so a file put in place of ``path`` later is not
    read, and a checked file that has changed or shrunk since is a
    ValueError that names it. Close the handle with ``close`` or a with
    block; it is also closed when the object is collected.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb")
        self._finalizer = weakref.finalize(self, self._fh.close)
        self._whole = None
        try:
            self._stamp = self._fstamp()
            self.labels, self.dim, features, self._offset = _checked_npz(
                self._fh, path, whole=False)
        except BaseException:
            self.close()
            raise
        if features is not None:
            self._whole = FeatureDataset(self.dim, self.labels, features)
            self.close()

    def _fstamp(self):
        info = os.fstat(self._fh.fileno())
        return info.st_size, info.st_mtime_ns

    def subset(self, indices) -> FeatureDataset:
        """The rows at ``indices``, as ``FeatureDataset.subset`` gives them,
        in a new C-ordered matrix."""
        if self._whole is not None:
            return self._whole.subset(indices)
        indices = np.asarray(indices, dtype=int)
        labels = tuple(self.labels[i] for i in indices)  # IndexError first
        if self._fstamp() != self._stamp:
            raise ValueError(f"feature NPZ {self.path} changed after its "
                             "checks")
        out = np.empty((len(indices), self.dim))
        row_bytes = self.dim * out.itemsize
        rows = np.where(indices < 0, indices + len(self.labels), indices)
        for row, target in zip(rows.tolist(), out):
            if (_read_at(self._fh, target, self._offset + row * row_bytes)
                    != row_bytes):
                raise ValueError(f"feature NPZ {self.path} was truncated "
                                 "after its checks")
        return FeatureDataset(self.dim, labels, out)

    def close(self) -> None:
        self._finalizer()

    def __enter__(self) -> "FeatureNpz":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _refuse_nul_labels(labels, what: str) -> None:
    """A str_ array drops a label's trailing NULs, so such a label is
    refused before it is written."""
    for label in labels:
        if label.endswith("\x00"):
            raise ValueError(f"{what}: label {label!r} ends in NUL, which a "
                             "str_ array would drop")


def write_mlp_npz(mlp: Mlp, path) -> None:
    """``mlp`` as an uncompressed ``np.savez``-style archive: ``sizes``
    (int64), ``trained_labels`` (sorted, a str_ array), ``weights_<i>`` and
    ``biases_<i>`` (float64), and ``input_mean`` and ``input_basis`` when
    there is an input reduction. The parameters are streamed from their own
    buffers, so what is read back is bitwise what was trained."""
    _refuse_nul_labels(mlp.trained_labels, f"projector NPZ {path}")
    members = {"sizes": np.array(mlp.sizes, dtype=np.int64),
               "trained_labels": np.array(sorted(mlp.trained_labels),
                                          dtype=str)}
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        members[f"weights_{i}"], members[f"biases_{i}"] = w, b
    if mlp.input_basis is not None:
        members["input_mean"] = mlp.input_mean
        members["input_basis"] = mlp.input_basis
    with atomic_open(path, "wb") as fh, zipfile.ZipFile(
            fh, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
        for name, array in members.items():
            _write_npy_member(archive, f"{name}.npy", array)


def read_mlp_npz(path) -> Mlp:
    """The projector ``write_mlp_npz`` wrote, loaded without unpickling and
    built through ``Mlp``'s constructor, which checks shapes and finiteness.
    A missing or extra member, a parameter that is not float64, ``sizes``
    that are not 1-D integers, or labels that are not 1-D str, sorted and
    distinct (a str_ array drops trailing NULs, so a label that ended in
    one can come back as another) is a ValueError that names the file."""
    try:
        with open(path, "rb") as fh, zipfile.ZipFile(fh) as archive:
            def read(name):
                info = archive.getinfo(f"{name}.npy")
                with archive.open(info) as entry:
                    return _read_npy_data(entry, info.filename, *_npy_header(
                        entry, info.filename, info.file_size))

            members = archive.namelist()
            if "sizes.npy" not in members:
                raise ValueError("missing members ['sizes.npy']")
            sizes = read("sizes")
            if sizes.ndim != 1 or sizes.dtype.kind not in "iu":
                raise ValueError("sizes must be 1-D integers, not "
                                 f"{sizes.dtype} {sizes.shape}")
            layers = [f"{kind}_{i}" for i in range(len(sizes) - 1)
                      for kind in ("weights", "biases")]
            if {"input_mean.npy", "input_basis.npy"} & set(members):
                layers += ["input_mean", "input_basis"]
            expected = [f"{name}.npy"
                        for name in ("sizes", "trained_labels", *layers)]
            missing = sorted(set(expected) - set(members))
            extra = sorted((Counter(members) - Counter(expected)).elements())
            if missing or extra:
                raise ValueError(", ".join(
                    f"{what} members {names}" for what, names in
                    (("missing", missing), ("unexpected", extra)) if names))
            labels = read("trained_labels")
            if labels.ndim != 1 or labels.dtype.kind != "U":
                raise ValueError("trained_labels must be 1-D str, not "
                                 f"{labels.dtype} {labels.shape}")
            labels = labels.tolist()
            if any(a >= b for a, b in zip(labels, labels[1:])):
                raise ValueError("trained_labels must be sorted and distinct")
            params = {}
            for name in layers:
                params[name] = read(name)
                if params[name].dtype != np.float64:
                    raise ValueError(f"{name}.npy must be float64, not "
                                     f"{params[name].dtype}")
        n = len(sizes) - 1
        return Mlp(sizes=tuple(sizes.tolist()),
                   weights=tuple(params[f"weights_{i}"] for i in range(n)),
                   biases=tuple(params[f"biases_{i}"] for i in range(n)),
                   trained_labels=frozenset(labels),
                   input_mean=params.get("input_mean"),
                   input_basis=params.get("input_basis"))
    except _ARCHIVE_FAULTS as exc:
        raise ValueError(f"projector NPZ {path}: {exc}") from exc


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
    out on access, so a list of episodes holds row indices, not features;
    from a ``FeatureNpz`` split, each access reads just its rows from the
    file, in whichever share scores the episode."""

    classes: tuple[str, ...]
    novel: FeatureDataset | FeatureNpz
    support_rows: np.ndarray
    query_rows: np.ndarray

    @property
    def support(self) -> FeatureDataset:
        return self.novel.subset(self.support_rows)

    @property
    def query(self) -> FeatureDataset:
        return self.novel.subset(self.query_rows)


def sample_episode(novel: FeatureDataset | FeatureNpz, w: int, s: int,
                   q: int, seed: int) -> Episode:
    """Seeded class and example sampling without replacement."""
    return _sample_episode(novel, novel.class_indices(), w, s, q, seed)


def _sample_episode(novel: FeatureDataset | FeatureNpz,
                    by_class: dict[str, np.ndarray], w: int, s: int, q: int,
                    seed: int) -> Episode:
    """``sample_episode`` with the rows of each class (``class_indices``)
    given, so that a run of episodes passes over the labels once."""
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


def sample_episodes(novel: FeatureDataset | FeatureNpz, w: int, s: int,
                    q: int, n_episodes: int, seed: int) -> list[Episode]:
    seeds = np.random.SeedSequence(seed).generate_state(n_episodes)
    by_class = novel.class_indices()
    return [_sample_episode(novel, by_class, w, s, q, int(ep_seed))
            for ep_seed in seeds]


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    ci95: float
    per_episode: tuple[float, ...]
    semantic_error_fraction: float | None = None

    def to_dict(self) -> dict:
        return {**asdict(self), "episodes": len(self.per_episode)}


def _aggregate(per_episode, semantic: float | None) -> EvalReport:
    arr = np.array(per_episode)
    ci = 1.96 * arr.std(ddof=1) / math.sqrt(len(arr)) if len(arr) > 1 else 0.0
    return EvalReport(float(arr.mean()), float(ci), tuple(per_episode), semantic)


def evaluate_episodes(space: BallSpace, base_mlp: Mlp, episodes,
                      projector_config: ProjectorConfig,
                      negatives: NegativeSets, ich: Ich | None = None
                      ) -> tuple[EvalReport, EvalReport]:
    """Few-shot protocol: per episode fine-tune a copy of the base projector
    on the support set, then classify the queries against the w candidate
    balls. Semantic errors (wrong but inside the true class's parent ball)
    are tallied when the closure is supplied. The same queries are scored by
    the baseline, which ignores the ontology: the nearest support-class
    centroid, the first class winning ties. Returns the projector's report
    and the baseline's. Episodes are independent, so they run in shares,
    one per usable CPU (``_map_shares``)."""
    parents_of: dict[str, frozenset[str]] = {}

    def run(episode: Episode) -> tuple[float, int, int, float]:
        """The episode's accuracy, its missed queries, how many of those
        fell inside a parent ball of their true class, and the baseline's
        accuracy."""
        support, query = episode.support, episode.query
        tuned = finetune_fewshot(base_mlp, support, space, negatives,
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
        idx = support.class_indices()
        centroids = np.stack([support.features[idx[name]].mean(axis=0)
                              for name in episode.classes])
        nearest = distances(query.features, centroids).argmin(axis=1)
        baseline_hits = int((np.array(episode.classes)[nearest] == truths).sum())
        return ((len(truths) - len(missed)) / len(truths), len(missed),
                semantic_hits, baseline_hits / len(truths))

    results = _map_shares(run, episodes)
    wrong = sum(missed for _, missed, _, _ in results)
    semantic_wrong = sum(hits for _, _, hits, _ in results)
    semantic = (semantic_wrong / wrong) if (ich is not None and wrong) else (
        0.0 if ich is not None else None)
    return (_aggregate([accuracy for accuracy, _, _, _ in results], semantic),
            _aggregate([baseline for _, _, _, baseline in results], None))
