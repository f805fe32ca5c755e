"""Weight initializers.

Embedding initializers double as the mechanism for planting the paper's
observed data regimes (Section III-B): the value *distribution* (normal =
concentrated Gaussian histograms, uniform = broad dispersion) and optional
*cluster* structure (many rows = centroid + tiny jitter), which produces
vector homogenization once quantization rounds the jitter away.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_count, check_finite_nonnegative, check_positive

__all__ = [
    "xavier_uniform",
    "uniform_embedding",
    "normal_embedding",
    "laplace_embedding",
    "embedding_init",
    "clustered_embedding",
]


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform init for a (fan_in, fan_out) weight matrix."""
    check_count("fan_in", fan_in, 1)
    check_count("fan_out", fan_out, 1)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def uniform_embedding(rng: np.random.Generator, cardinality: int, dim: int, scale: float) -> np.ndarray:
    """DLRM-style uniform embedding init in ``[-scale, scale]``.

    Produces the broad, flat value histograms of the paper's "EMB Table 5"
    regime (hard for entropy coding).
    """
    check_positive("scale", scale)
    return rng.uniform(-scale, scale, size=(cardinality, dim))


def normal_embedding(rng: np.random.Generator, cardinality: int, dim: int, scale: float) -> np.ndarray:
    """Gaussian embedding init, std ``scale``.

    Produces concentrated value histograms (observation ❸).
    """
    check_positive("scale", scale)
    return rng.normal(0.0, scale, size=(cardinality, dim))


def laplace_embedding(rng: np.random.Generator, cardinality: int, dim: int, scale: float) -> np.ndarray:
    """Heavy-tailed (Laplace) embedding init, std ``scale``.

    Learned embeddings are heavy-tailed in practice: most mass is tightly
    concentrated but rare large coordinates stretch the value range.  Under
    quantization this yields a *wide* alphabet with *low* entropy — the
    regime where the paper's optimized Huffman wins decisively over
    fixed-width literals ("EMB Table 1" of Fig. 13).
    """
    check_positive("scale", scale)
    return rng.laplace(0.0, scale / np.sqrt(2.0), size=(cardinality, dim))


_DISTRIBUTIONS = {
    "uniform": uniform_embedding,
    "normal": normal_embedding,
    "laplace": laplace_embedding,
}


def embedding_init(
    rng: np.random.Generator, cardinality: int, dim: int, scale: float, distribution: str
) -> np.ndarray:
    """Dispatch to the named embedding initializer."""
    try:
        fn = _DISTRIBUTIONS[distribution]
    except KeyError:
        raise ValueError(
            f"distribution must be one of {sorted(_DISTRIBUTIONS)}, got {distribution!r}"
        ) from None
    return fn(rng, cardinality, dim, scale)


def clustered_embedding(
    rng: np.random.Generator,
    cardinality: int,
    dim: int,
    scale: float,
    n_clusters: int,
    jitter: float,
    distribution: str = "normal",
) -> np.ndarray:
    """Rows = cluster centroid + small jitter.

    When ``jitter`` is below the compression error bound, quantization
    collapses same-cluster rows into identical vectors — the paper's
    *vector homogenization* (observation ❷).  Cluster sizes are skewed
    (Zipf-ish) so homogenization strength varies within a table.
    """
    check_positive("scale", scale)
    check_count("n_clusters", n_clusters, 1)
    check_finite_nonnegative("jitter", jitter)
    centroids = embedding_init(rng, n_clusters, dim, scale, distribution)
    weights = 1.0 / np.arange(1, n_clusters + 1, dtype=np.float64)
    assignment = rng.choice(n_clusters, size=cardinality, p=weights / weights.sum())
    return centroids[assignment] + rng.normal(0.0, jitter, size=(cardinality, dim))
