"""Outside-in tracing for the traced benchmark run.

The tracer replaces module attributes of the package with timing wrappers,
at the place each caller looks them up: ``gsdmm.sampler.cluster_log_scores``
as well as ``gsdmm.model.cluster_log_scores``, ``gsdmm.cli.read_archive``
and so on. Nothing under ``src/`` changes, and untraced runs never import
this module, so they run the package exactly as users do.

A span records its run id, its own id, the id of the enclosing span, its
name, and start and end times. Spans stay in memory until the run ends.
Self time is a span's duration minus the time its direct children cover;
calls are single-threaded, so children never overlap.

A target that a refactor removed or renamed is skipped: its metrics read
0 calls and 0 s instead of failing the run, so a later change that stops
calling a function shows as a count change.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

# span name -> lookups that name it; layer = the name's first component
TARGETS = {
    "corpus.read_dataset": [("gsdmm.cli", "read_dataset"),
                            ("gsdmm.corpus", "read_dataset")],
    "corpus.build_corpus": [("gsdmm.cli", "build_corpus"),
                            ("gsdmm.corpus", "build_corpus")],
    "corpus.token_views": [("gsdmm.corpus:Corpus", "token_views")],
    "cli.cmd_preprocess": [("gsdmm.cli", "cmd_preprocess")],
    "cli.cmd_cluster": [("gsdmm.cli", "cmd_cluster")],
    "cli.cmd_eval": [("gsdmm.cli", "cmd_eval")],
    "cli.cmd_topwords": [("gsdmm.cli", "cmd_topwords")],
    "cli.read_archive": [("gsdmm.cli", "read_archive")],
    "cli.write_archive": [("gsdmm.cli", "write_archive")],
    "sampler.run": [("gsdmm.sampler", "run_gsdmm"),
                    ("gsdmm.sampler", "run_gsdmm_plus"),
                    ("gsdmm.cli", "run_gsdmm"),
                    ("gsdmm.cli", "run_gsdmm_plus")],
    "sampler.random_init": [("gsdmm.sampler", "random_init")],
    "sampler.adaptive_init": [("gsdmm.sampler", "adaptive_init")],
    "sampler.gibbs_sweep": [("gsdmm.sampler", "gibbs_sweep")],
    "sampler._draw": [("gsdmm.sampler", "_draw")],
    "sampler._record": [("gsdmm.sampler", "_record")],
    "model.cluster_log_scores": [("gsdmm.sampler", "cluster_log_scores"),
                                 ("gsdmm.model", "cluster_log_scores")],
    "model.normalize_log_scores": [("gsdmm.sampler", "normalize_log_scores"),
                                   ("gsdmm.model", "normalize_log_scores")],
    "model.add_doc": [("gsdmm.model:ModelState", "add_doc")],
    "model.remove_doc": [("gsdmm.model:ModelState", "remove_doc")],
    "model.deactivate_cluster": [("gsdmm.model:ModelState", "deactivate_cluster")],
    "model.word_entropy": [("gsdmm.sampler", "word_entropy"),
                           ("gsdmm.model", "word_entropy")],
    "model.top_words": [("gsdmm.cli", "top_words"), ("gsdmm.model", "top_words")],
    "merge.merge_to_k": [("gsdmm.sampler", "merge_to_k"),
                         ("gsdmm.merge", "merge_to_k")],
    "merge.compute_icf": [("gsdmm.merge", "compute_icf")],
    "merge.cosine": [("gsdmm.merge", "cosine")],
    "evaluation.accuracy": [("gsdmm.sampler", "accuracy"),
                            ("gsdmm.evaluation", "accuracy")],
    "evaluation.nmi": [("gsdmm.sampler", "nmi"), ("gsdmm.evaluation", "nmi")],
    "evaluation.evaluate": [("gsdmm.cli", "evaluate"),
                            ("gsdmm.evaluation", "evaluate")],
}

LAYERS = ("corpus", "cli", "model", "sampler", "merge", "evaluation")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # (run_id, span_id, parent_id, name, start, end); parent -1 = root
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, t0: float) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append((self.run_id, sid, parent, name, t0, t1))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a timed region."""
        sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, t0)

    def _wrap(self, fn, name: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = tracer._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, t0)
            if after is not None:
                try:
                    after(tracer.counters, args, kwargs, result)
                except Exception:  # a changed signature must not fail the run
                    tracer.counters[name + ".hook_errors"] += 1
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import importlib

        for name, lookups in TARGETS.items():
            for where, attr in lookups:
                modname, _, clsname = where.partition(":")
                owner = importlib.import_module(modname)
                if clsname:
                    owner = getattr(owner, clsname, None)
                raw = None if owner is None else \
                    (owner.__dict__.get(attr) if clsname else getattr(owner, attr, None))
                if raw is None:
                    self.missing.append(f"{where}.{attr}")
                    continue
                wrapped = self._wrapped_attr(raw, name, clsname and owner, attr)
                if wrapped is None:
                    self.missing.append(f"{where}.{attr}")
                    continue
                setattr(owner, attr, wrapped)
                self._restore.append((owner, attr, raw))

    def _wrapped_attr(self, raw, name, cls, attr):
        after = AFTER_HOOKS.get(name)
        if isinstance(raw, functools.cached_property):
            prop = functools.cached_property(self._wrap(raw.func, name, after))
            prop.__set_name__(cls, attr)
            return prop
        if isinstance(raw, property):
            return property(self._wrap(raw.fget, name, after))
        if callable(raw):
            return self._wrap(raw, name, after)
        return None

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        base = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id,span,parent,name,start_s,end_s\n")
            for run_id, sid, parent, name, t0, t1 in sorted(self.spans, key=lambda s: s[1]):
                fh.write(f"{run_id},{sid},{parent},{name},{t0 - base:.9f},{t1 - base:.9f}\n")

    def metrics(self, root_name: str) -> dict[str, float]:
        """Per-layer metrics from the spans and counters, plus the
        accounting of the timed root span: its duration equals the layers'
        self times inside it plus the unattributed remainder."""
        dur: dict[str, list[float]] = defaultdict(list)
        child_time: dict[int, float] = defaultdict(float)
        for _, sid, parent, name, t0, t1 in self.spans:
            dur[name].append(t1 - t0)
            if parent >= 0:
                child_time[parent] += t1 - t0
        self_of = {s[1]: (s[5] - s[4]) - child_time[s[1]] for s in self.spans}

        roots = [s for s in self.spans if s[3] == root_name]
        root = roots[-1] if roots else None
        layer_self = dict.fromkeys(LAYERS, 0.0)
        if root is not None:
            inside = {root[1]}
            for s in sorted(self.spans, key=lambda s: s[1]):
                if s[2] in inside:
                    inside.add(s[1])
                    layer = s[3].split(".", 1)[0]
                    if layer in layer_self:
                        layer_self[layer] += self_of[s[1]]

        def total(n):
            return float(sum(dur.get(n, ())))

        def calls(n):
            return len(dur.get(n, ()))

        c = self.counters
        m: dict[str, float] = {}
        for n in ("corpus.read_dataset", "corpus.build_corpus", "corpus.token_views",
                  "cli.cmd_preprocess", "cli.cmd_cluster", "cli.cmd_eval",
                  "cli.cmd_topwords", "cli.read_archive", "cli.write_archive",
                  "sampler.random_init", "sampler.adaptive_init",
                  "sampler.gibbs_sweep", "sampler._record",
                  "model.cluster_log_scores", "model.normalize_log_scores",
                  "model.add_doc", "model.remove_doc", "model.word_entropy",
                  "model.top_words", "merge.merge_to_k", "merge.compute_icf",
                  "evaluation.accuracy", "evaluation.nmi"):
            m[n + ".s"] = total(n)
        m["corpus.tokens"] = c["corpus.tokens"]
        m["cli.read_archive.calls"] = calls("cli.read_archive")
        m["sampler.gibbs_sweep.self_s"] = sum(
            self_of[s[1]] for s in self.spans if s[3] == "sampler.gibbs_sweep")
        m["sampler.gibbs_sweep.p50_s"] = _pct(dur.get("sampler.gibbs_sweep"), 50)
        m["sampler._draw.us_p50"] = 1e6 * _pct(dur.get("sampler._draw"), 50)
        m["sampler._draw.us_p99"] = 1e6 * _pct(dur.get("sampler._draw"), 99)
        m["sampler.moved_frac_last"] = c["sampler.moved_frac_last"]
        m["sampler.active_clusters_final"] = c["sampler.active_clusters_final"]
        scored = c["model.cluster_log_scores.clusters_scored"]
        m["model.cluster_log_scores.calls"] = calls("model.cluster_log_scores")
        m["model.cluster_log_scores.us_p50"] = \
            1e6 * _pct(dur.get("model.cluster_log_scores"), 50)
        m["model.cluster_log_scores.us_p99"] = \
            1e6 * _pct(dur.get("model.cluster_log_scores"), 99)
        m["model.cluster_log_scores.clusters_scored"] = scored
        m["model.cluster_log_scores.live_frac"] = \
            c["model.cluster_log_scores.live_scored"] / scored if scored else 0.0
        m["model.cluster_log_scores.bytes_gathered"] = \
            c["model.cluster_log_scores.bytes_gathered"]
        m["model.deactivate_cluster.calls"] = calls("model.deactivate_cluster")
        m["model.word_entropy.calls"] = calls("model.word_entropy")
        m["model.nzw_bytes"] = c["model.nzw_bytes"]
        m["merge.steps"] = c["merge.steps"]
        m["merge.cosine.calls"] = calls("merge.cosine")
        m["evaluation.calls"] = calls("evaluation.accuracy") + calls("evaluation.nmi")
        for layer in LAYERS:
            m[layer + ".self_s"] = layer_self[layer]
        m["trace.root_s"] = (root[5] - root[4]) if root is not None else 0.0
        m["trace.unattributed_s"] = self_of[root[1]] if root is not None else 0.0
        m["trace.spans"] = len(self.spans)
        m["trace.hook_errors"] = sum(v for k, v in c.items() if k.endswith(".hook_errors"))
        return m


def _pct(values, q: float) -> float:
    """Nearest-rank percentile; 0 for a function that was never called."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# -- counters taken from arguments and results ------------------------------

def _after_cluster_log_scores(c, args, kwargs, result):
    import numpy as np

    state, word_rep = args[0], args[1]
    clusters = kwargs.get("clusters", args[5] if len(args) > 5 else None)
    item = state.nzw.itemsize
    scored = len(result)
    length = len(word_rep)
    if clusters is None:
        live = np.count_nonzero(state.m[: state.k_active])
        # nzw[:k] is a view; the word gather reads K x len(doc) counts
        gathered = scored * length * item
    else:
        live = np.count_nonzero(state.m[clusters])
        # nzw[clusters] copies whole rows before the word gather
        gathered = len(clusters) * (state.V + length) * item \
            + 2 * len(clusters) * state.m.itemsize
    c["model.cluster_log_scores.clusters_scored"] += scored
    c["model.cluster_log_scores.live_scored"] += int(live)
    c["model.cluster_log_scores.bytes_gathered"] += gathered


def _after_token_views(c, args, kwargs, result):
    corpus = args[0]
    tokens = sum(doc.total_len for doc in corpus.documents)
    c["corpus.tokens"] = max(c["corpus.tokens"], tokens)


def _after_run(c, args, kwargs, result):
    import numpy as np

    assignments, state, trace = result
    c["model.nzw_bytes"] = max(c["model.nzw_bytes"], state.nzw.nbytes)
    c["sampler.active_clusters_final"] = len(np.unique(assignments))
    if trace.records:
        c["sampler.moved_frac_last"] = trace.records[-1].moved_docs / len(assignments)


def _after_merge(c, args, kwargs, result):
    c["merge.steps"] += len(result)


AFTER_HOOKS = {
    "model.cluster_log_scores": _after_cluster_log_scores,
    "corpus.token_views": _after_token_views,
    "sampler.run": _after_run,
    "merge.merge_to_k": _after_merge,
}
