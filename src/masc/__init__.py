"""Graph-based classification of multiple-observation sets and its baselines."""

from .data import (
    DataError,
    Dataset,
    DimensionError,
    LabelError,
    ParseError,
    augment_virtual_samples,
    load_dataset,
    load_gallery,
    resample_set,
    rotate_pattern,
    save_dataset,
    save_gallery,
    vectorize,
)
from .evaluate import (
    CLASSIFIERS,
    Decision,
    TrialReport,
    error_rate,
    make_classifier,
    observation_sweep,
    random_split_errors,
    session_metric,
    session_pair_errors,
)
from .fixtures import (
    CurvedManifoldConfig,
    CurvedManifoldFixture,
    RotatedRasterConfig,
    RotatedRasterFixture,
    make_fixture,
)
from .graph import (
    GalleryIndex,
    GraphConfig,
    SimilarityGraph,
    build_knn_graph,
    dump_edges,
    estimate_sigma,
    normalize_similarity,
)
from .labelprop import LPConfig, lp_iterate, lp_solve, lp_votes, observation_votes
from .smoothing import (
    ClassScores,
    class_conditional_matrix,
    full_smoothness,
    interface_smoothness,
    labeled_constant,
    masc_classify,
    one_hot_labels,
)
from .statdist import GaussianModel, fit_gaussian, kl_gaussian, symmetric_kl
from .subspace import (
    KernelSubspace,
    Subspace,
    kpca_subspace,
    msm_similarity,
    pca_subspace,
    principal_angles,
)

__version__ = "0.1.0"
