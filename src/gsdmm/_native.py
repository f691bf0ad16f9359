"""The compiled sweep kernel (_sweep.c): build, cache, load and call.

The library is built on the first kernel call, never at import, with the
system C compiler (cc -O2 -ftree-vectorize -shared -fPIC, never
-ffast-math), and loaded through ctypes. The built file is cached in
$XDG_CACHE_HOME/gsdmm (default ~/.cache/gsdmm), a directory only the
current user may write, under a key hashed from the source, the compiler
(its real path and its file's device, inode, size and modification time, so
that loading a cached build starts no process) and the flags; it is written
to a temporary name and renamed into place, so concurrent processes never
load a partial file. When the cache directory is not private, or cannot be
made, the library is built in a private temporary directory for this
process only.

The entry points, each with the numpy (or regex, or line loop) reference
that runs in its place when the kernel cannot be built:

- Kernel.sweep runs document steps (sampler's numpy steps) and
  Kernel.log_scores scores one document (model.cluster_log_scores). A
  document is scored sparse while more than _CROSSOVER clusters are
  occupied, so the mode can change within a call as clusters empty and
  fill.
- Kernel.cells lists the occupied count cells that gsdmm+'s entropy
  refresh reads, in one pass over the count tables
  (model._nonzero_cells); the refresh's arithmetic stays in numpy.
- Kernel.add adds to cells one by one (ModelState.add_counts, reference
  ModelState._add_counts), and Kernel.counts reads them, one probe each
  (ModelState.counts_of, reference ModelState._probe).
- Kernel.runs finds the runs of a..z bytes of build_corpus's joined texts
  and numbers the distinct ones (corpus._split's regex and a dict).
- Kernel.pairs parses documents.txt's word_id:count pairs,
  Kernel.vocabulary checks vocabulary.tsv's columns and ids and parses its
  document frequencies, and Kernel.assignments parses the cluster ids of a
  run's assignments.csv (archive's line loops, which also read any value
  of more than 18 digits and name the first bad line of a refused file).
- Kernel.lines formats documents.txt and the rows of assignments.csv
  from the lines' joined prefixes and integer arrays (archive's plain
  loop, which writes the same bytes).

The five table operations work on the state's per-word count tables
(cell_ptr and table; see model.ModelState) in place, as the numpy reference
does, through the state's binding (_sweep.c's dmm_bind): one buffer with
its arrays' pointers and sizes, the work space and the log(m + alpha)
table. A Kernel binds a state on its first call and again when one of its
arrays is replaced (they are never reallocated), and keeps the binding in
a weak mapping, not in the state, so no copy or pickle carries one. Calls
on one state share its work space and must not overlap, not even two
log_scores calls from two threads.

kernel() returns None when no compiler exists or the build fails; the
callers then run the references, which give the same assignments, counts,
corpora and archive errors. Every array passed to C is checked first:
dtype, contiguity and size; what the kernel follows as an index (k_active,
the assignments, the clusters of the tables, the corpus rows) is checked
on every call.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import operator
import os
import shutil
import subprocess
import tempfile
import weakref
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import NonFiniteScore

__all__ = ["Kernel", "kernel", "cache_dir"]

log = logging.getLogger("gsdmm")

SOURCE = Path(__file__).with_name("_sweep.c")
# -ftree-vectorize: the scoring loops are element-wise, so vector code gives
# the same bits, and -O2 alone vectorizes only loops with no scalar remainder
FLAGS = ("-O2", "-ftree-vectorize", "-shared", "-fPIC")

# return codes and io slots, mirrored from _sweep.c
DONE, REFRESH, NONFINITE, ALL_ZERO, DEGENERATE, FULL = 0, 1, -1, -2, -3, -4
IO_POS, IO_K, IO_MOVED, IO_RESUME, IO_ZOLD, IO_PRUNED, IO_BAD, IO_LEN = range(8)
_LONG = -2  # the byte scans' code for a value of more than 18 digits

# A document is scored sparse while more clusters than this are occupied and
# dense otherwise; the kernel checks as clusters empty and fill, so one call
# can change mode (README, Performance, has the timings).
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


def _typed(fn, *argtypes, restype=_I64):
    """fn, a function of the library, with its argument and result types."""
    fn.argtypes, fn.restype = argtypes, restype
    return fn


class Kernel:
    """Typed entry points of the loaded library."""

    def __init__(self, lib: ctypes.CDLL):
        self._bindings = weakref.WeakKeyDictionary()  # state: (buffer, arrays)
        i64, i32, f64 = _arr(np.int64), _arr(np.int32), _arr(np.float64)
        text = ctypes.c_char_p
        # the tables, V, k_max, m, n, the assignments, D; the binding, its size
        self._bind = _typed(lib.dmm_bind, i64, _arr(np.int32, 2), _I64, _I64,
                            i64, i64, i64, _I64, i64, _I64)
        # the table operations take the binding first. The sweep: the corpus
        # rows; order, u, their length; the weights; prune, the refresh step,
        # the crossover; io
        self._sweep = _typed(lib.dmm_sweep, i64, i64, i64, i32, i64, f64, _I64,
                             f64, _F64, _F64, _I64, _I64, _I64, i64)
        self._scores = _typed(lib.dmm_scores, i64, _I64, i64, i32, _I64, f64,
                              _F64, _F64, _I64, f64, ctypes.POINTER(_I64))
        self._cells = _typed(lib.dmm_cells, i64, _I64, i64, i64, i32)
        self._add = _typed(lib.dmm_add, i64, i64, i64, i32, _I64)
        self._counts = _typed(lib.dmm_counts, i64, i64, i64, _I64, i32,
                              restype=None)
        self._count_runs = _typed(lib.dmm_count_runs, text, _I64)
        self._runs = _typed(lib.dmm_runs, text, _I64, _I64, i64, i64, i64, i64,
                            i64, _I64)
        self._count_bytes = _typed(lib.dmm_count_bytes, text, _I64, _I64)
        self._pairs = _typed(lib.dmm_pairs, text, _I64, i64, i64, _I64, i64,
                             _I64)
        self._vocabulary = _typed(lib.dmm_vocabulary, text, _I64, i64, _I64)
        self._assignments = _typed(lib.dmm_assignments, text, _I64, i64, _I64)
        # the prefixes, sep, per line; the line offsets, the items, their
        # width; the output, its size
        self._lines = _typed(lib.dmm_lines, text, _I64, _I64, _I64, i64, _I64,
                             _arr(np.int64, 2), _I64, _arr(np.uint8), _I64)

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
        bound = self._checked(state)  # held to the end, its arrays with it
        word_ptr, words, counts = _corpus_arrays(state, csr)
        if order.shape != uniforms.shape or \
                (len(order) and not 0 <= order.min() <= order.max() < state.D):
            raise ValueError("order and uniforms must match, with ids in [0, D)")
        if refresh_step and refresh is None:
            raise ValueError("a refresh step needs a refresh callback")
        io = np.zeros(IO_LEN, dtype=np.int64)
        io[IO_K] = state.k_active
        while True:
            h, ctot = weights.pseudocounts(state.V)
            code = self._sweep(bound[0], word_ptr, words, counts, order,
                               uniforms, len(order), h, ctot, state.alpha,
                               int(prune), int(refresh_step), _CROSSOVER, io)
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
        bound = self._checked(state)[0]
        words = np.ascontiguousarray(words, dtype=np.int64)
        counts = np.ascontiguousarray(counts, dtype=np.int32)
        if words.shape != counts.shape or \
                (len(words) and not 0 <= words.min() <= words.max() < state.V):
            raise ValueError("words and counts must match, with ids in [0, V)")
        h, ctot = weights.pseudocounts(state.V)
        out = np.empty(state.k_active, dtype=np.float64)
        bad = _I64(-1)
        code = self._scores(bound, state.k_active, words, counts, len(words),
                            h, ctot, state.alpha, _CROSSOVER, out,
                            ctypes.byref(bad))
        _raise_for(code, bad.value)
        return out

    def cells(self, state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The occupied count cells of state's tables as (words, clusters,
        counts): word ids (int64) ascending and, within a word, clusters
        (int64) ascending, with their counts (int32). Its numpy reference
        is model._nonzero_cells, with the same argument and result. A table
        with a slot for every active cluster is read up to k_active."""
        bound = self._checked(state)[0]
        out_w, out_z = (np.empty(len(state.table), dtype=np.int64)
                        for _ in range(2))
        out_n = np.empty(len(state.table), dtype=np.int32)
        n = self._cells(bound, state.k_active, out_w, out_z, out_n)
        return out_w[:n], out_z[:n], out_n[:n]

    def add(self, state, words: np.ndarray, clusters: np.ndarray,
            counts: np.ndarray) -> None:
        """ModelState.add_counts in C, with its arguments: int64 word ids in
        [0, V) and clusters in [0, k_max), which add_counts checks, and
        their counts, of one length. Each pair in turn, so a pair given
        twice adds twice."""
        words, clusters = (np.ascontiguousarray(a, dtype=np.int64)
                           for a in (words, clusters))
        counts = np.ascontiguousarray(counts, dtype=np.int32)
        if not words.shape == clusters.shape == counts.shape:
            raise ValueError("count tables or cells do not match")
        _raise_for(self._add(self._bound(state)[0], words, clusters, counts,
                             len(words)), -1)

    def counts(self, state, words: np.ndarray, clusters: np.ndarray) -> np.ndarray:
        """ModelState.counts_of in C, with its arguments: int64 word ids in
        [0, V) and clusters in [0, k_max), which counts_of checks, of one
        length. Returns their counts (int32), one probe each."""
        words, clusters = (np.ascontiguousarray(a, dtype=np.int64)
                           for a in (words, clusters))
        if words.shape != clusters.shape:
            raise ValueError("count tables or cells do not match")
        out = np.empty(len(words), dtype=np.int32)
        self._counts(self._bound(state)[0], words, clusters, len(words), out)
        return out

    def _bound(self, state) -> tuple[np.ndarray, tuple]:
        """state's binding and the arrays it binds: made on the first call
        and again when one of the state's arrays is not the one bound, after
        checking their dtypes, contiguity and shapes. The tables' length and
        k_active are checked on every call."""
        arrays = (state.cell_ptr, state.table, state.m, state.n,
                  state.assignments)
        if state.table.shape != (state.cell_ptr[-1], 2) or \
                not 0 <= state.k_active <= state.k_max:
            raise ValueError("model state arrays do not match its sizes")
        held = self._bindings.get(state)
        if held is None or not all(map(operator.is_, held[1], arrays)):
            if state.n.shape != state.m.shape:
                raise ValueError("model state arrays do not match its sizes")
            args = (*arrays[:2], state.V, state.k_max, *arrays[2:], state.D)
            size = self._bind(*args, np.empty(0, dtype=np.int64), 0)
            held = np.empty(size, dtype=np.int64), arrays
            self._bind(*args, held[0], size)
            self._bindings[state] = held
        return held

    def _checked(self, state) -> tuple[np.ndarray, tuple]:
        """_bound, after the per-call checks of the indices the scoring and
        the cell listing follow: the assignments and every slot's cluster,
        -1 (free) or in [0, k_max)."""
        held, z = self._bound(state), state.cell_z
        if state.D and state.assignments.max() >= state.k_active:
            raise ValueError("assignment outside the active clusters")
        if z.min(initial=-1) < -1 or z.max(initial=-1) >= state.k_max:
            raise ValueError("count cell outside the clusters")
        return held

    def _float_work(self, state) -> np.ndarray:
        """The float work space of state's binding, a view for tests: it
        lies between the first two pointers of the binding's Model."""
        buf = self._bound(state)[0]
        end, start = ((int(p) - buf.ctypes.data) // 8 for p in buf[:2])
        return buf[start:end].view(np.float64)

    def runs(self, raw: bytes) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """The runs of a..z bytes in raw, as corpus.build_corpus reads its
        texts: each run's segment (the NUL bytes before it) and its part id
        (int64 both), the parts (the distinct runs) numbered by first
        appearance, and the parts' text in that order."""
        n = self._count_runs(raw, len(raw))
        seg, part = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        first, first_len = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        table = np.empty(1 << (2 * n).bit_length(), dtype=np.int64)
        parts = self._runs(raw, len(raw), n, seg, part, first, first_len,
                           table, len(table) - 1)
        if parts < 0:
            raise RuntimeError("the run count changed between the passes")
        return seg, part, [raw[a:a + b].decode("ascii") for a, b in
                           zip(first[:parts].tolist(), first_len[:parts].tolist())]

    def pairs(self, raw: bytes
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(words, counts, word_ptr) of the bytes of documents.txt, every
        line ended by a line feed: each pair's word id and count (int64)
        in line order, and the pairs before each line (int64, one more
        than the lines); None for a line without exactly three columns
        or with a pair other than word_id:count in ASCII digits. A value
        of more than 18 digits raises OverflowError."""
        cap = self._count_bytes(raw, len(raw), ord(":"))  # one in each pair
        word_ptr = np.empty(self._count_bytes(raw, len(raw), ord("\n")) + 1,
                            dtype=np.int64)
        words, counts = np.empty(cap, dtype=np.int64), np.empty(cap, dtype=np.int64)
        n = self._pairs(raw, len(raw), words, counts, cap, word_ptr,
                        len(word_ptr) - 1)
        if n == _LONG:
            raise OverflowError("a value of more than 18 digits")
        if n < 0:
            return None
        return words[:n], counts[:n], word_ptr

    def vocabulary(self, raw: bytes) -> np.ndarray | None:
        """The document frequencies (int64) of the bytes of vocabulary.tsv,
        every line ended by a line feed, or None for a line other than
        id<TAB>word<TAB>df with the id and df in ASCII digits and the id
        equal to the line's index (from 0). A value of more than 18 digits
        raises OverflowError."""
        return self._per_line(self._vocabulary, raw)

    def assignments(self, raw: bytes) -> np.ndarray | None:
        """The cluster ids (int64) of the bytes of assignments.csv after
        its header line, every line ended by a line feed, or None for a
        line other than doc_id,cluster with a comma-free doc id and the
        cluster id in ASCII digits. A cluster id of more than 18 digits
        after its leading zeros raises OverflowError."""
        return self._per_line(self._assignments, raw)

    def _per_line(self, scan, raw: bytes) -> np.ndarray | None:
        """A scan's one value per line of raw, or None if it refuses raw."""
        out = np.empty(self._count_bytes(raw, len(raw), ord("\n")), dtype=np.int64)
        code = scan(raw, len(raw), out, len(out))
        if code == _LONG:
            raise OverflowError("a value of more than 18 digits")
        return out if code == DONE else None

    def lines(self, prefix: bytes, sep: str, per_line: int, ptr: np.ndarray,
              items: np.ndarray) -> bytearray:
        """The bytes of a line file. Line d is the d-th prefix of
        prefix, its bytes through its per_line-th sep; then the rows
        ptr[d]:ptr[d + 1] of the 2-D integer array items in decimal, a
        row's values separated by colons and the rows by spaces; then a
        line feed. Raises ValueError where ptr does not rise from 0 to
        len(items) or prefix is not one such prefix per line."""
        ptr = np.ascontiguousarray(ptr, dtype=np.int64)
        items = np.ascontiguousarray(items, dtype=np.int64)
        if items.ndim != 2 or not items.shape[1] or not len(ptr) or ptr[0] \
                or ptr[-1] != len(items) or (ptr[1:] < ptr[:-1]).any():
            raise ValueError("line offsets do not match the items")
        args = (prefix, len(prefix), ord(sep), per_line, ptr, len(ptr) - 1,
                items, items.shape[1])
        size = self._lines(*args, np.empty(0, dtype=np.uint8), 0)
        if size < 0:
            raise ValueError(f"the prefixes are not {per_line} {sep!r} per line")
        out = bytearray(size)
        self._lines(*args, np.frombuffer(out, dtype=np.uint8), size)
        return out


def _corpus_arrays(state, csr):
    """The corpus CSR arrays as the kernel reads them, checked against the
    state so that every index the kernel follows stays in bounds."""
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
    if code == FULL:
        raise ValueError("a count table is full: the state was sized for "
                         "another corpus")
    if code != DONE:
        raise RuntimeError(f"sweep kernel returned {code}")
