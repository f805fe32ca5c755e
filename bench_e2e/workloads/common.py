"""World building and span-name matchers the workloads share."""

from __future__ import annotations

from repro.adaptive import OfflineAnalyzer
from repro.data import CRITEO_KAGGLE, SyntheticClickDataset, scaled_spec
from repro.model import DLRM, DLRMConfig

__all__ = [
    "build_world",
    "is_name",
    "ENCODE_KERNELS",
    "DECODE_KERNELS",
    "PACK_FRAMING",
    "PARSE_FRAMING",
    "COLLECTIVES",
]


def build_world(seed: int, embedding_dim: int, **mlp_sizes):
    """Seeded dataset + model config + offline compression plan (the
    Criteo-Kaggle-shaped tables of the headline example, capped at 4000
    rows)."""
    spec = scaled_spec(CRITEO_KAGGLE, max_cardinality=4000)
    dataset = SyntheticClickDataset(spec, seed=seed, teacher_scale=3.0)
    config = DLRMConfig.from_dataset(spec, embedding_dim=embedding_dim, seed=seed + 1, **mlp_sizes)
    probe = DLRM(config)
    batch = dataset.batch(256, batch_index=10_000_000)
    samples = {j: probe.lookup(j, batch.sparse[:, j]) for j in range(config.n_tables)}
    return dataset, config, OfflineAnalyzer().analyze(samples)


def is_name(*suffixes: str):
    """Matcher for span names (``Class.method`` / ``module.function``)."""
    return lambda name: name.endswith(suffixes)


ENCODE_KERNELS = is_name("._compress_body", ".pack_codes")
DECODE_KERNELS = is_name("._decompress_body")
PACK_FRAMING = is_name(
    ".frame_parts",
    ".pack_meta",
    ".compress",
    ".compress_into",
    ".compress_keyed",
    ".compress_keyed_into",
)
PARSE_FRAMING = is_name(".parse_payload", ".unpack_meta", ".decompress_any", ".decompress")
COLLECTIVES = is_name(
    "Communicator.all_to_all",
    "Communicator.all_to_all_bytes",
    "Communicator.compressed_all_to_all",
    "Communicator.all_reduce_bytes",
)
