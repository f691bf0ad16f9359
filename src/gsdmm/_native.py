"""The compiled sweep kernel (_sweep.c): build, cache, load and call.

The library is built on the first kernel call, never at import, with the
system C compiler (cc -O2 -shared -fPIC, never -ffast-math), and loaded
through ctypes. The built file is cached in $XDG_CACHE_HOME/gsdmm (default
~/.cache/gsdmm), a directory only the current user may write, under a key
hashed from the source, the compiler (its real path and its file's device,
inode, size and modification time, so that loading a cached build starts no
process) and the flags; it is written to a temporary name and renamed into
place, so concurrent processes never load a partial file. When the cache
directory is not private, or cannot be made, the library is built in a
private temporary directory for this process only.

The library has three entry points: Kernel.sweep runs document steps,
Kernel.log_scores scores one document, and Kernel.cells lists the occupied
count cells that gsdmm+'s entropy refresh reads, from the corpus in
word-major order (TokenCSR.by_word); the refresh's arithmetic stays in
numpy. kernel() returns None when no compiler exists or the build fails;
the sampler and the refresh then run their numpy references, which give
the same assignments and tables.
Every pointer passed to C is checked first: dtype, contiguity and size.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import NonFiniteScore

__all__ = ["Kernel", "kernel", "cache_dir"]

log = logging.getLogger("gsdmm")

SOURCE = Path(__file__).with_name("_sweep.c")
FLAGS = ("-O2", "-shared", "-fPIC")

# return codes and io slots, mirrored from _sweep.c
DONE, REFRESH, NONFINITE, ALL_ZERO, DEGENERATE = 0, 1, -1, -2, -3
IO_POS, IO_K, IO_MOVED, IO_RESUME, IO_ZOLD, IO_PRUNED, IO_BAD, IO_LEN = range(8)

# A document with more scored slots than this takes the kernel's sparse
# path; with k_max at most this no document can, and no bitmaps are kept.
# Sparse scoring pays where a word's count row (k_max int32) spans many
# cache lines of which the document's words occupy a few, and where many
# slots share an (m, n), as at k_max 300 and 500 in the benchmark. At
# k_max 128 over a 5k-word vocabulary a document overlaps nearly every
# cluster, and with this at 64 the run took 23% longer than dense; at
# k_max 256 and 500, on that corpus and on gsdmm-k500's, 64 and 128 ran
# alike (README, Performance).
_CROSSOVER = 128


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "gsdmm"


def _private(path: Path) -> Path:
    """Create path if needed; refuse it unless the current user owns it and
    nobody else may write to it."""
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = os.lstat(path)
    if st.st_uid != os.getuid() or st.st_mode & 0o022 or not path.is_dir() \
            or path.is_symlink():
        raise PermissionError(f"{path} is not a private directory")
    return path


def _compile(cc: str, source: bytes, target: Path) -> None:
    """Compile source into target atomically: build under a temporary name
    in the same directory, then rename."""
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run([cc, *FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
                       input=source, capture_output=True, check=True, timeout=300)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _compiler_identity(cc: str) -> bytes:
    """The compiler's real path and its file's identity (device, inode,
    size, modification time): a reinstalled or upgraded compiler gets a new
    key, and a cached build loads without starting a process."""
    real = os.path.realpath(cc)
    st = os.stat(real)
    return f"{real}\0{st.st_dev}:{st.st_ino}:{st.st_size}:{st.st_mtime_ns}".encode()


def _build_and_load() -> ctypes.CDLL:
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise FileNotFoundError("no C compiler (cc or gcc) on PATH")
    source = SOURCE.read_bytes()
    key = hashlib.sha256(b"\0".join(
        [source, _compiler_identity(cc), " ".join(FLAGS).encode()]
    )).hexdigest()[:24]
    name = f"sweep-{key}.so"
    try:
        target = _private(cache_dir()) / name
    except (OSError, RuntimeError) as exc:  # RuntimeError: no home directory
        log.info("kernel cache unavailable (%s); building privately", exc)
        with tempfile.TemporaryDirectory() as tmp:
            _compile(cc, source, Path(tmp) / name)
            return ctypes.CDLL(str(Path(tmp) / name))
    if not target.exists():
        _compile(cc, source, target)
    return ctypes.CDLL(str(target))


@functools.cache
def kernel() -> "Kernel | None":
    """The compiled kernel, built and loaded on first use; None when it
    cannot be built here, in which case callers run the numpy reference."""
    try:
        return Kernel(_build_and_load())
    except (OSError, subprocess.SubprocessError) as exc:
        log.info("compiled sweep kernel unavailable (%s); using numpy", exc)
        return None


def _arr(dtype, ndim=1):
    return np.ctypeslib.ndpointer(dtype=dtype, ndim=ndim, flags="C_CONTIGUOUS")


_I64, _F64 = ctypes.c_int64, ctypes.c_double
_STATE = [_arr(np.int32, 2), _I64, _I64, _arr(np.int64), _arr(np.int64)]
_SPARSE = [_arr(np.uint64, 2), _I64, _I64]  # bitmaps, their width, crossover
_LOGM = [_arr(np.float64), _I64]  # the log(m + alpha) table and its length


class Kernel:
    """Typed entry points of the loaded library."""

    def __init__(self, lib: ctypes.CDLL):
        self._sweep = lib.dmm_sweep
        self._sweep.argtypes = [
            *_STATE, _arr(np.int64), _I64,                    # assignments, D
            _arr(np.int64), _arr(np.int64), _arr(np.int32),   # corpus CSR
            _arr(np.int64), _arr(np.float64), _I64,           # order, u, n
            _arr(np.float64), _F64, _F64, *_LOGM,            # weights
            _I64, _I64, *_SPARSE,                             # flags
            _arr(np.float64), _arr(np.int64), _arr(np.int64),  # work space, io
        ]
        self._sweep.restype = _I64
        self._scores = lib.dmm_scores
        self._scores.argtypes = [
            *_STATE, _I64, _arr(np.int64), _arr(np.int32), _I64,
            _arr(np.float64), _F64, _F64, *_LOGM, *_SPARSE,
            _arr(np.float64), _arr(np.int64), _arr(np.float64),
            ctypes.POINTER(_I64),
        ]
        self._scores.restype = _I64
        self._cells = lib.dmm_cells
        self._cells.argtypes = [
            _arr(np.int32, 2), _I64, _arr(np.int64), _I64,    # wz, assignments
            _arr(np.int64), _I64, _arr(np.int64), _arr(np.int32), _I64,  # index
            _arr(np.uint64), _arr(np.int64), _arr(np.int32),  # work space, out
        ]
        self._cells.restype = _I64

    def sweep(self, state, csr, order: np.ndarray, uniforms: np.ndarray,
              weights, prune: bool, refresh_step: int = 0,
              refresh: Callable[[], object] | None = None) -> int:
        """Run the document steps for order (document order[i] draws with
        uniforms[i]) on state in place; returns how many documents moved.

        At every position that is a multiple of refresh_step the document is
        detached (and its cluster pruned) before refresh() is called for the
        new weights, exactly where the numpy reference refreshes.

        The state must hold the counts of csr's documents under its
        assignments: a prune finds the moved cluster's cells from the words
        of its documents.
        """
        order = np.ascontiguousarray(order, dtype=np.int64)
        uniforms = np.ascontiguousarray(uniforms, dtype=np.float64)
        word_ptr, words, counts = _corpus_arrays(state, csr)
        if order.shape != uniforms.shape or \
                (len(order) and not 0 <= order.min() <= order.max() < state.D):
            raise ValueError("order and uniforms must match, with ids in [0, D)")
        if refresh_step and refresh is None:
            raise ValueError("a refresh step needs a refresh callback")
        bits = _bitmaps(state)
        work, iwork = _work(state.k_max, bits.shape[1])
        logm = np.empty(state.D + 1)  # filled once, on the first entry
        io = np.zeros(IO_LEN, dtype=np.int64)
        io[IO_K] = state.k_active
        while True:
            h, ctot = weights.pseudocounts(state.V)
            code = self._sweep(state.wz, state.V, state.k_max, state.m, state.n,
                               state.assignments, state.D, word_ptr, words,
                               counts, order, uniforms, len(order), h, ctot,
                               state.alpha, logm, len(logm), int(prune),
                               int(refresh_step), bits, bits.shape[1],
                               _CROSSOVER, work, iwork, io)
            state.k_active = int(io[IO_K])
            if code != REFRESH:
                break
            weights = refresh()
        _raise_for(code, int(io[IO_BAD]))
        return int(io[IO_MOVED])

    def log_scores(self, state, words: np.ndarray, counts: np.ndarray,
                   weights) -> np.ndarray:
        """Compiled scores of one document (already excluded from the state)
        against every active cluster: the values the sweep draws from. Its
        numpy reference is model.cluster_log_scores, with these arguments."""
        _check_state(state)
        words = np.ascontiguousarray(words, dtype=np.int64)
        counts = np.ascontiguousarray(counts, dtype=np.int32)
        if words.shape != counts.shape or \
                (len(words) and not 0 <= words.min() <= words.max() < state.V):
            raise ValueError("words and counts must match, with ids in [0, V)")
        h, ctot = weights.pseudocounts(state.V)
        bits = _bitmaps(state)
        logm = np.empty(int(state.m[:state.k_active].max(initial=0)) + 1)
        out = np.empty(state.k_active, dtype=np.float64)
        bad = _I64(-1)
        code = self._scores(state.wz, state.V, state.k_max, state.m, state.n,
                            state.k_active, words, counts, len(words), h, ctot,
                            state.alpha, logm, len(logm), bits, bits.shape[1],
                            _CROSSOVER, *_work(state.k_max, bits.shape[1]), out,
                            ctypes.byref(bad))
        _raise_for(code, bad.value)
        return out

    def cells(self, state, csr) -> tuple[np.ndarray, np.ndarray]:
        """The count cells that csr's attached documents occupy in state,
        as (words, nz): word ids (int64) ascending and, within a word,
        clusters ascending, with the cells' counts (int32) read from
        state.wz. Its numpy reference is model._occupied_cells, with these
        arguments. The cells are found from csr.by_word, the corpus in
        word-major order, so the state must hold csr's counts. The index's
        sizes are checked here, its offsets and document ids by the C loop
        as it reads them."""
        _, words, _ = _corpus_arrays(state, csr)
        start, docs, counts = (np.ascontiguousarray(a, dtype=t) for a, t in
                               zip(csr.by_word, (np.int64, np.int64, np.int32)))
        if not 1 <= len(start) <= state.V + 1 or start[0] != 0 \
                or start[-1] != len(words) or docs.shape != words.shape \
                or counts.shape != words.shape:
            raise ValueError("word-major index does not match the corpus")
        out_w = np.empty(len(words), dtype=np.int64)
        out_nz = np.empty(len(words), dtype=np.int32)
        n = self._cells(state.wz, state.k_max, state.assignments, state.D,
                        start, len(start) - 1, docs, counts, len(docs),
                        np.zeros(-(-state.k_active // 64), dtype=np.uint64),
                        out_w, out_nz)
        if n < 0:
            raise ValueError("word-major index does not match the corpus")
        return out_w[:n], out_nz[:n]


def _check_state(state) -> None:
    if state.wz.shape != (state.V, state.k_max) or \
            state.m.shape != (state.k_max,) or state.n.shape != (state.k_max,) \
            or state.assignments.shape != (state.D,) \
            or not 0 <= state.k_active <= state.k_max:
        raise ValueError("model state arrays do not match its sizes")
    if state.D and state.assignments.max() >= state.k_active:
        raise ValueError("assignment outside the active clusters")


def _bitmaps(state) -> np.ndarray:
    """Zeroed per-word occupancy bitmaps, (V, ceil(k_max / 64)) words, for
    the kernel to fill; (V, 0) when no document can have more scored slots
    (at most k_max) than the crossover."""
    width = -(-state.k_max // 64) if state.k_max > _CROSSOVER else 0
    return np.zeros((state.V, width), dtype=np.uint64)


def _work(k_max: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's float and integer work space, which carries nothing
    from one C call to the next (_sweep.c's carve lays it out).

    Float, four k_max arrays: the chunk products (the first then holds the
    exponentiated scores), the scores and the cumulated weights. Integer:
    four k_max arrays (the dense slots and each cluster's slot, the sparse
    scored clusters and each cluster's entry), the (m, n) classes' nine
    k_max arrays and their hash table of the first power of two at or above
    2 * k_max cells, then the document's overlap set of width words."""
    cells = 1 << (2 * k_max - 1).bit_length()
    return (np.empty(4 * k_max, dtype=np.float64),
            np.empty(13 * k_max + cells + width, dtype=np.int64))


def _corpus_arrays(state, csr):
    """The corpus CSR arrays as the kernel reads them, checked against the
    state so that every index the kernel follows stays in bounds."""
    _check_state(state)
    word_ptr = np.ascontiguousarray(csr.word_ptr, dtype=np.int64)
    words = np.ascontiguousarray(csr.words, dtype=np.int64)
    counts = np.ascontiguousarray(csr.counts, dtype=np.int32)
    if word_ptr.shape != (state.D + 1,) or word_ptr[0] != 0 \
            or word_ptr[-1] != len(words) or words.shape != counts.shape \
            or (state.D and np.diff(word_ptr).min() < 0):
        raise ValueError("corpus arrays do not match the model state")
    if len(words) and not 0 <= words.min() <= words.max() < state.V:
        raise ValueError("corpus word id outside the vocabulary")
    return word_ptr, words, counts


def _raise_for(code: int, bad: int) -> None:
    if code == NONFINITE:
        raise NonFiniteScore(
            f"non-finite score for clusters [{bad}]; "
            "check that all pseudo-counts are strictly positive"
        )
    if code == ALL_ZERO:
        raise NonFiniteScore("every active cluster has zero probability")
    if code == DEGENERATE:
        raise NonFiniteScore("degenerate normalizer")
    if code != DONE:
        raise RuntimeError(f"sweep kernel returned {code}")
