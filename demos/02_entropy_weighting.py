"""What entropy-based word weighting sees in a clustered corpus.

Words spread evenly over clusters carry no clustering signal and get
weights near 1; words concentrated in one cluster are the discriminative
ones and get weights near 0. The enhanced sampler uses these values in
place of the uniform pseudo-count, so low-entropy words dominate the
conditional.
"""

import numpy as np

from gsdmm import (
    GenSpec,
    RunConfig,
    generate_corpus,
    run_gsdmm_plus,
    word_entropy,
)

spec = GenSpec(k=5, v=300, d=800, doc_len=10, beta_gen=0.02, seed=3)
corpus, labels, _, _ = generate_corpus(spec)

# cluster first, then look at the entropy table the clustering induces
cfg = RunConfig(algorithm="gsdmm+", k_max=10, k_real=5, beta=0.02,
                iterations=10, seed=1)
_, state, _ = run_gsdmm_plus(corpus, cfg)
table = word_entropy(state, epsilon=1e-9, normalized=True)

order = np.argsort(table.h)
vocab = corpus.vocabulary.id_to_word
wz = state.wz[:, : state.k_active]  # a dense copy of the per-word count tables
used = [w for w in order if wz[w].sum() > 0]

print("most cluster-specific words (lowest entropy):")
for w in used[:10]:
    spread = wz[w]
    print(f"   {vocab[w]:>8}  h={table.h[w]:.2e}  counts per cluster {spread}")

print("\nleast informative words (highest entropy):")
for w in used[-10:]:
    spread = wz[w]
    print(f"   {vocab[w]:>8}  h={table.h[w]:.4f}  counts per cluster {spread}")

print(f"\ntable covers {len(table.h)} words, total weight {table.sum_h:.1f} "
      f"(uniform pseudo-count of {table.sum_h / len(table.h):.3f} per word)")
