"""Mixture-prior VAEs over tile-grid game level chunks: unsupervised
clustering of level design patterns, per-cluster generation, and the
evaluation suite (clustering accuracy, disentanglement, tile densities,
playability)."""

__version__ = "0.1.0"

from .corpus import (
    BalancedSampler,
    Chunk,
    LevelGrid,
    TileVocab,
    build_vocab,
    decode,
    extract_chunks,
    load_corpus,
    load_manifest,
    one_hot_encode,
    parse_level,
)
from .gmvae import (
    GmvaeConfig,
    GmvaeModel,
    build_model,
    generate,
    train,
)
from .baseline import (
    GmmModel,
    PcaProjection,
    VaeConfig,
    VaeGmmModel,
    fit_vae_gmm,
    gmm_fit,
    gmm_predict,
    pca_fit,
    pca_project,
    train_vae,
)
from .evaluation import (
    ClusterReport,
    DisentanglementReport,
    TileDensityMatrix,
    clustering_accuracy,
    disentanglement,
    export_latents,
    tile_densities,
)
from .playability import (
    PlayabilityRules,
    bfs_crossable,
    playability_suite,
    rules_from_manifest,
)
