"""The declared table of traced callables, by ``repro`` layer.

Layer names are ``repro`` module paths; a layer's metrics in
``BENCHMARK.json`` carry the same prefix.  Two rules keep the tracer honest:

* only callables at a *layer boundary* are listed, so a layer's self time
  is what it does itself and not what it delegates;
* callables that finish in under ~20 us and run more than ~10^4 times per
  segment (``read_varint``, ``_unpack_value``, ``stream_compute``,
  ``Timeline.record``) are **not** wrapped — the shim would cost more than
  the call — and stay attributed to their caller's span.
"""

from __future__ import annotations

from bench_e2e.trace import Target

__all__ = ["build_targets"]

#: public entry points every codec inherits or overrides: validation,
#: framing and dispatch — their self time is framing, not kernel work
CODEC_FRAMING_METHODS = (
    "compress",
    "compress_into",
    "compress_keyed",
    "compress_keyed_into",
    "decompress",
)


def _encode_bytes(args, kwargs, result) -> dict[str, float]:
    return {"encode_bytes": args[1].nbytes}  # (self, array, error_bound)


def _decode_bytes(args, kwargs, result) -> dict[str, float]:
    return {"decode_bytes": result.nbytes}


#: the hooks between framing and the kernels (quantize / LZ / Huffman /
#: pack), with the byte count taken at each
CODEC_KERNEL_METHODS = {"_compress_body": _encode_bytes, "_decompress_body": _decode_bytes}


_STATIC = (
    ("repro.data.synthetic:SyntheticClickDataset", "data", ("batch",)),
    (
        "repro.model.dlrm:DLRM",
        "model",
        (
            "forward",
            "forward_dense",
            "lookup",
            "lookup_all",
            "forward_interaction",
            "backward_interaction",
            "backward_dense",
            "accumulate_embedding_grad",
        ),
    ),
    ("repro.nn.optim:SGD", "nn", ("step",)),
    ("repro.nn.loss", "nn", ("bce_with_logits", "bce_grad")),
    ("repro.train.hybrid:HybridParallelTrainer", "train.hybrid", ("train_step",)),
    ("repro.train.reference", "train.reference", ("evaluate_model",)),
    ("repro.train.metrics", "train.metrics", ("binary_accuracy", "roc_auc")),
    (
        "repro.train.pipeline:CompressionPipeline",
        "train.pipeline",
        (
            "compress_slices",
            "compress_slice",
            "decompress_batch",
            "decompress_slice",
            "compression_seconds",
            "decompression_seconds",
        ),
    ),
    ("repro.adaptive.controller:AdaptiveController", "adaptive", ("error_bound", "compressor_name")),
    ("repro.compression.base", "compression.framing", ("frame_parts", "parse_payload")),
    (
        "repro.compression.serialization",
        "compression.framing",
        ("pack_meta", "unpack_meta", "frame_with_checksum", "verify_checksum_frame"),
    ),
    ("repro.compression.registry", "compression.framing", ("decompress_any",)),
    ("repro.compression.bitstream", "compression.kernels", ("pack_codes",)),
    (
        "repro.dist.comm:Communicator",
        "dist",
        ("all_to_all", "all_to_all_bytes", "compressed_all_to_all", "all_reduce_bytes"),
    ),
    ("repro.dist.simulator:ClusterSimulator", "dist", ("compute", "collective", "makespan")),
    ("repro.serve.publisher:DeltaPublisher", "serve.publisher", ("publish", "staleness")),
    ("repro.serve.shard_server:EmbeddingShardServer", "serve.shard_server", ("set_table", "pull")),
    ("repro.serve.replica:InferenceReplica", "serve.replica", ("gather", "invalidate_tables")),
    ("repro.serve.simulator:ServingSimulator", "serve.simulator", ("run",)),
    ("repro.obs.critpath", "obs", ("extract_critical_path",)),
)


def _codec_classes() -> list[type]:
    """Every registered codec class plus the bases that define its entry
    points, discovered through the public registry so new codecs are traced
    without editing this table."""
    from repro.compression.base import Compressor
    from repro.compression.registry import available_compressors, get_compressor

    classes: list[type] = []
    for name in available_compressors():
        for cls in type(get_compressor(name)).__mro__:
            if issubclass(cls, Compressor) and cls not in classes:
                classes.append(cls)
    return classes


def build_targets() -> tuple[Target, ...]:
    targets = [
        Target(owner, attr, layer) for owner, layer, attrs in _STATIC for attr in attrs
    ]
    for cls in _codec_classes():
        owner = f"{cls.__module__}:{cls.__qualname__}"
        for attr in CODEC_FRAMING_METHODS:
            if attr in vars(cls):
                targets.append(Target(owner, attr, "compression.framing"))
        for attr, count in CODEC_KERNEL_METHODS.items():
            hook = vars(cls).get(attr)
            if hook is not None and not getattr(hook, "__isabstractmethod__", False):
                targets.append(Target(owner, attr, "compression.kernels", count))
    return tuple(targets)
