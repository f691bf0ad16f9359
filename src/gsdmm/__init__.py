"""Collapsed Gibbs sampling for Dirichlet multinomial mixtures.

Short text clustering with two samplers: the classic collapsed sampler over
a fixed cluster budget, and an enhanced variant adding adaptive
initialization, entropy-based word weighting, and similarity-driven cluster
merging. Ships with evaluation metrics, a ground-truth synthetic generator,
and exact verification oracles.
"""

from .corpus import (
    Corpus,
    CorpusStats,
    Document,
    TokenRules,
    Vocabulary,
    build_corpus,
    default_stopwords,
    load_stopwords,
    read_dataset,
    tokenize,
)
from .errors import (
    AllDocumentsEmpty,
    ConfigError,
    DuplicateDocId,
    EmptyCluster,
    GsdmmError,
    InactiveCluster,
    InstanceTooLarge,
    KMaxExceedsCorpus,
    KRealOutOfRange,
    LengthMismatch,
    MalformedRecord,
    NonFiniteScore,
    NonPositiveArgument,
    TooManyClusters,
    ZeroNorm,
)
from .evaluation import (
    EvalReport,
    LabeledPartitionPair,
    accuracy,
    confusion_matrix,
    evaluate,
    nmi,
)
from .merge import (
    TfIcfVector,
    compute_icf,
    cosine,
    merge_to_k,
    tficf_vector,
)
from .model import (
    EntropyTable,
    ModelState,
    UniformBeta,
    WeightingScheme,
    conditional_distribution,
    doc_cluster_log_score,
    posterior_phi,
    prior_cluster_factor,
    top_words,
    word_entropy,
)
from .sampler import (
    GSDMM,
    GSDMM_PLUS,
    RunConfig,
    SweepRecord,
    SweepTrace,
    adaptive_init,
    gibbs_sweep,
    random_init,
    run_gsdmm,
    run_gsdmm_plus,
)
from .synth import (
    GenSpec,
    generate_corpus,
    oracle_assignment_bruteforce,
    oracle_delta_ratio,
    oracle_enumerate_joint,
    write_jsonl,
)

__version__ = "0.1.0"
