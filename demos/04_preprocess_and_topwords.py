"""Text normalization and cluster inspection on raw strings.

Builds a tiny two-topic corpus from raw text, shows what the tokenizer
keeps, clusters it, and prints each cluster's most representative words by
posterior word probability.
"""

import numpy as np

from gsdmm import (
    RunConfig,
    TokenRules,
    build_corpus,
    default_stopwords,
    run_gsdmm,
    tokenize,
    top_words,
)

raw = [
    ("s1", "The senate votes on the budget bill tonight!", "politics"),
    ("s2", "Senators debate budget amendments before the vote", "politics"),
    ("s3", "Budget vote delayed as senate leaders negotiate", "politics"),
    ("s4", "Vote counting continues in the senate budget session", "politics"),
    ("s5", "Striker scores twice as the team wins the derby", "sports"),
    ("s6", "Late goal wins the derby for the home team", "sports"),
    ("s7", "Team celebrates derby win after dramatic goal", "sports"),
    ("s8", "Derby crowd cheers the winning goal by the striker", "sports"),
]

rules = TokenRules(stopword_list=default_stopwords(), min_df=2)
print("tokenizer at work:")
print(f"   {raw[0][1]!r}")
print(f"   -> {tokenize(raw[0][1], rules)}")

corpus = build_corpus(raw, rules)
print(f"\ncorpus: {corpus.stats.D} docs, {corpus.stats.V} words kept "
      f"(document frequency >= {rules.min_df})")

cfg = RunConfig(algorithm="gsdmm", k_max=4, alpha=0.1, beta=0.1,
                iterations=15, seed=2)
assign, state, _ = run_gsdmm(corpus, cfg)

print(f"\nnon-empty clusters: {state.nonempty_count()}")
for z in range(state.k_active):
    if state.m[z] == 0:
        continue
    ranked = top_words(state, corpus.vocabulary, z, n=4, beta=0.1)
    words = ", ".join(f"{w} ({p:.2f})" for w, p in ranked)
    members = [corpus.doc_ids[d]
               for d in np.flatnonzero(state.assignments == z)]
    print(f"   cluster {z} {members}: {words}")
