"""Golden digests for the hybrid trainer's compressed embedding exchanges.

Every digest below was recorded at commit ``6745582`` — the last one whose
``HybridParallelTrainer._backward_exchange`` compressed the gradient
all-to-all with its own per-slice ``compress_slice`` / ``decompress_slice``
loop instead of the forward exchange's stacked stage ①–④ routine.  The
world is ``TestBatchedExchangePin``'s (8 ranks, the 26 Criteo-Kaggle-shaped
tables, tables 3 and 17 pinned to Huffman), trained 4 steps with OBS on,
for ``compress_backward`` x ``overlap`` in every combination.

Each case pins, as separate blake2b digests: losses, parameter bytes,
``forward_wire_bytes``, the bytes of every ``sendbufs[src][dst]`` handed
to each ``Communicator.compressed_all_to_all``, the full timeline ledger
(events, counters and final stream clocks), the ``TableCodebookCache``
counters, the OBS registry snapshot, and ``pipeline.stats`` as a *sorted*
multiset.  The one permitted observable difference of a fused backward
exchange is the *order* of the backward ``pipeline.stats`` records
(src-major before, owner-major after) — hence the sort.

``timing`` pins the schedule alone — the sorted ``(rank, category,
start, duration, stream)`` of every event plus the final stream clocks —
and was recorded at ``2f6ed0b``, the last commit that priced the
sequential exchange and the uncompressed all-to-alls outside the
chunk-pipeline builder.  A change of ledger bookkeeping (args, release
edges, recording order) may re-record ``ledger``; never ``timing``.
The ``ledger`` digests of the four cases that run an uncompressed or a
``overlap=False`` exchange were re-recorded when those exchanges moved
onto the chunk-pipeline builder (chunk args, release edges, exchange ids).

Run ``python tests/train/test_exchange_golden.py`` to print the digests of
the current checkout (only ever paste them here from a commit whose
exchanges are known good; never re-record them in a refactor).
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.adaptive import AdaptiveController, OfflineAnalyzer, StepwiseDecay
from repro.data import CRITEO_KAGGLE, SyntheticClickDataset, scaled_spec
from repro.dist import ClusterSimulator
from repro.model import DLRM, DLRMConfig
from repro.obs.runtime import capture
from repro.train import CompressionPipeline, HybridParallelTrainer

N_RANKS, BATCH, STEPS = 8, 256, 4
ENTROPY_TABLES = (3, 17)


def _digest(*parts: object) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _world():
    spec = scaled_spec(CRITEO_KAGGLE, max_cardinality=300)
    dataset = SyntheticClickDataset(spec, seed=100, teacher_scale=3.0)
    config = DLRMConfig.from_dataset(
        spec, embedding_dim=16, bottom_hidden=(32, 16), top_hidden=(32, 16), seed=101
    )
    model = DLRM(config)
    sample = dataset.batch(128, batch_index=777)
    plan = OfflineAnalyzer().analyze(
        {j: model.lookup(j, sample.sparse[:, j]) for j in range(config.n_tables)}
    )
    tables = {
        t: replace(table, compressor="entropy") if t in ENTROPY_TABLES else table
        for t, table in plan.tables.items()
    }
    return dataset, config, replace(plan, tables=tables)


def run_case(compress_backward: bool, overlap) -> dict[str, str]:
    dataset, config, plan = _world()
    pipe = CompressionPipeline(
        AdaptiveController(plan, StepwiseDecay(2.0, 2, n_steps=2)),
        compress_backward=compress_backward,
    )
    sim = ClusterSimulator(N_RANKS)
    trainer = HybridParallelTrainer(
        DLRM(config), dataset, sim, pipeline=pipe, lr=0.2, overlap=overlap
    )
    posted = hashlib.blake2b(digest_size=16)
    exchange = trainer.comm.compressed_all_to_all

    def compressed_all_to_all(sendbufs, *args, **kwargs):
        for src, row in enumerate(sendbufs):
            for dst, payloads in enumerate(row):
                posted.update(repr((src, dst, len(payloads))).encode())
                for payload in payloads:
                    posted.update(len(payload).to_bytes(8, "little"))
                    posted.update(payload)
        return exchange(sendbufs, *args, **kwargs)

    trainer.comm.compressed_all_to_all = compressed_all_to_all
    with capture() as registry:
        losses = [float(trainer.train_step(BATCH, it)) for it in range(STEPS)]
    timeline = sim.timeline
    ledger = [
        (
            e.rank,
            str(e.category),
            e.start.hex(),
            e.duration.hex(),
            e.stream,
            sorted(e.args.items()) if e.args else None,
            e.release_edges,
        )
        for e in timeline.events
    ]
    clocks = [(s, [c.hex() for c in sim._streams[s]]) for s in sorted(sim._streams)]
    cache = pipe.codebook_cache
    stats = sorted(
        (s.iteration, s.table_id, s.codec, s.error_bound.hex(), s.original_nbytes, s.compressed_nbytes)
        for s in pipe.stats
    )
    return {
        "losses": _digest([x.hex() for x in losses]),
        "params": _digest(*(np.ascontiguousarray(p.data).tobytes() for p in trainer.model.parameters())),
        "forward_wire_bytes": _digest(trainer.forward_wire_bytes, trainer.forward_raw_bytes),
        "sendbufs": posted.hexdigest(),
        "ledger": _digest(
            ledger,
            [(c.name, c.time.hex(), c.value.hex()) for c in timeline.counters],
            clocks,
        ),
        "timing": _digest(sorted(event[:5] for event in ledger), clocks),
        "codebook_cache": _digest(
            cache.hits, cache.misses, cache.stale_refreshes, cache.coverage_misses, cache.shift_misses
        ),
        "obs": _digest(registry.snapshot()),
        "stats": _digest(stats),
    }


CASES = [(cb, ov) for cb in (False, True) for ov in (False, True, "cross_stage")]

GOLDEN: dict[tuple[bool, object], dict[str, str]] = {
    (False, False): {'losses': 'c92f4b0575bc9a4d4eacc3467e409835', 'params': '5f49f3c74d241b1968c2caf40e314501', 'forward_wire_bytes': '970dd5a625a1b8b620c550ad55b71910', 'sendbufs': '90f172bb71098fed9b6c8cc4887ea391', 'ledger': 'edd097db79f55de4f657473ad2c27cb7', 'timing': '2f059014251c61a4f397b2dff8ff8744', 'codebook_cache': 'bb0965fda2d65d8e2a2f5badc4f37a7e', 'obs': '3b51d5280c10e9e8d7fd70916b98af18', 'stats': '8fa27ac7e1f21eb80cb29aabcb203a07'},
    (False, True): {'losses': 'c92f4b0575bc9a4d4eacc3467e409835', 'params': '5f49f3c74d241b1968c2caf40e314501', 'forward_wire_bytes': '970dd5a625a1b8b620c550ad55b71910', 'sendbufs': '90f172bb71098fed9b6c8cc4887ea391', 'ledger': 'dff5f69f79728e9c7d566f1ddceefd21', 'timing': 'f6a012fab44da490ac0860d814ce7084', 'codebook_cache': 'bb0965fda2d65d8e2a2f5badc4f37a7e', 'obs': 'cfc78c18f77e60002f4661ad9c9943b3', 'stats': '8fa27ac7e1f21eb80cb29aabcb203a07'},
    (False, 'cross_stage'): {'losses': 'c92f4b0575bc9a4d4eacc3467e409835', 'params': '5f49f3c74d241b1968c2caf40e314501', 'forward_wire_bytes': '970dd5a625a1b8b620c550ad55b71910', 'sendbufs': '90f172bb71098fed9b6c8cc4887ea391', 'ledger': '7cb45187b3c17a58ea0eafe12cce4d4c', 'timing': '4ee7479153d910705a98c2e3378be7ed', 'codebook_cache': 'bb0965fda2d65d8e2a2f5badc4f37a7e', 'obs': '61dce8276557cf50ea899af9514bfaf3', 'stats': '8fa27ac7e1f21eb80cb29aabcb203a07'},
    (True, False): {'losses': '29607c3b5327a1d266d40b85b82c0ecb', 'params': '698aad4c75a6c8b78a3c3740732290c8', 'forward_wire_bytes': '8684554feba9532be9e74f1795d9421a', 'sendbufs': '7b6aad9448c103da15a7bf9e807abe7d', 'ledger': 'b8da7a6bfc14c8f980477de4af1ef5a5', 'timing': 'f9b221c9bf4b6f5163ccb2437213b951', 'codebook_cache': '3c684674936d98f7f623eba38d3ad210', 'obs': 'd77c1be5c5ac6f95047a34af3be65827', 'stats': 'e17426938b08af56687895fcb36ffa1f'},
    (True, True): {'losses': '29607c3b5327a1d266d40b85b82c0ecb', 'params': '698aad4c75a6c8b78a3c3740732290c8', 'forward_wire_bytes': '8684554feba9532be9e74f1795d9421a', 'sendbufs': '7b6aad9448c103da15a7bf9e807abe7d', 'ledger': '89ff95a721a99cccc127c97032495b45', 'timing': '0cbb7cb0c179371c3023b6681585b484', 'codebook_cache': '3c684674936d98f7f623eba38d3ad210', 'obs': '0daa814c716dd691e47baf4da6203fd2', 'stats': 'e17426938b08af56687895fcb36ffa1f'},
    (True, 'cross_stage'): {'losses': '29607c3b5327a1d266d40b85b82c0ecb', 'params': '698aad4c75a6c8b78a3c3740732290c8', 'forward_wire_bytes': '8684554feba9532be9e74f1795d9421a', 'sendbufs': '7b6aad9448c103da15a7bf9e807abe7d', 'ledger': 'e606c03cb98b4f1a3147d30951ce2b6e', 'timing': '077948323246861e79e45837a5a668fe', 'codebook_cache': '3c684674936d98f7f623eba38d3ad210', 'obs': 'bbb49dbfff69e010a61a6b08606526ad', 'stats': 'e17426938b08af56687895fcb36ffa1f'},
}


@pytest.mark.parametrize("compress_backward, overlap", CASES)
def test_exchange_reproduces_golden(compress_backward, overlap):
    assert run_case(compress_backward, overlap) == GOLDEN[(compress_backward, overlap)]


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {run_case(*case)!r},")
