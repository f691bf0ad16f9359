"""The numpy reference draws from exp(score - max) with the compiled
kernel's arithmetic: a sequential cumulation, u times its total, the first
cumulated value above that (searchsorted, side right), a clamp and a
back-off from zero-width entries."""

import numpy as np
import pytest

from gsdmm import _native, sampler
from gsdmm.errors import NonFiniteScore
from gsdmm.model import normalize_log_scores, relative_weights
from gsdmm.sampler import _draw

from conftest import disjoint_corpus


def _kernel_draw(scores, u):
    """_sweep.c::draw transcribed: the weights as numpy computes them, the
    cumulation and the search in scalar float arithmetic."""
    top = max(scores)
    p = np.exp(np.asarray(scores) - top).tolist()
    cum, acc = [], 0.0
    for x in p:
        acc += x
        cum.append(acc)
    target = u * acc
    lo, hi = 0, len(p)
    while lo < hi:
        mid = (lo + hi) // 2
        if cum[mid] <= target:
            lo = mid + 1
        else:
            hi = mid
    z = min(lo, len(p) - 1)
    while p[z] == 0.0:
        z -= 1
    return z


class _Fixed:
    """A generator stand-in that returns one given uniform."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_draw_is_the_kernel_draw():
    gen = np.random.default_rng(17)
    for _ in range(300):
        k = int(gen.integers(1, 12))
        scores = gen.normal(0, 30, size=k)
        scores[gen.random(k) < 0.2] = -np.inf
        if np.isneginf(scores).all():
            scores[0] = 0.0
        p = relative_weights(scores)
        cum = np.cumsum(p)
        # uniforms at and next to every boundary, and at random
        us = [*(cum / cum[-1]).tolist(), *np.nextafter(cum / cum[-1], 0).tolist(),
              *gen.random(4).tolist(), 0.0]
        for u in us:
            u = min(u, np.nextafter(1.0, 0))
            assert _draw(_Fixed(u), p) == _kernel_draw(scores.tolist(), u)


def test_relative_weights_peak_at_one():
    p = relative_weights(np.array([-3.0, 2.0, -np.inf, 2.0]))
    assert p.max() == 1.0 and p[2] == 0.0
    assert p.tolist() == (np.exp(np.array([-5.0, 0.0, -np.inf, 0.0]))).tolist()


def test_error_texts_kept():
    with pytest.raises(NonFiniteScore, match="every active cluster has zero probability"):
        relative_weights(np.array([-np.inf, -np.inf]))
    with pytest.raises(NonFiniteScore, match="every active cluster has zero probability"):
        normalize_log_scores(np.array([-np.inf]))
    with pytest.raises(NonFiniteScore, match="degenerate normalizer"):
        _draw(_Fixed(0.5), np.array([0.0, 0.0]))
    with pytest.raises(NonFiniteScore, match="degenerate normalizer"):
        _draw(_Fixed(0.5), np.array([np.inf, 1.0]))


def test_numpy_sampler_draws_from_relative_weights(monkeypatch):
    # the weights reach the draw unnormalized, largest exactly 1, in both
    # the numpy sweep and the numpy adaptive initialization
    monkeypatch.setattr(_native, "kernel", lambda: None)
    seen = []
    real = sampler._draw

    def checked(rng, p):
        seen.append((p.max(), p.sum()))
        return real(rng, p)

    monkeypatch.setattr(sampler, "_draw", checked)
    corpus = disjoint_corpus(3, 10, 6, 5, seed=2)
    cfg = sampler.RunConfig(algorithm="gsdmm+", k_max=8, beta=0.1, iterations=2)
    sampler.run_gsdmm_plus(corpus, cfg)
    assert len(seen) == len(corpus) - cfg.k_max + 2 * len(corpus)
    assert all(top == 1.0 for top, _ in seen)
    assert any(total > 1.0 for _, total in seen)
