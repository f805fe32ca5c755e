"""Golden digests for the hybrid trainer's compressed embedding exchanges.

``losses`` and ``params`` were recorded at commit ``6745582`` — the last
one whose ``HybridParallelTrainer._backward_exchange`` compressed the
gradient all-to-all with its own per-slice ``compress_slice`` /
``decompress_slice`` loop instead of the forward exchange's stacked
stage ①–④ routine.  The world is ``TestBatchedExchangePin``'s (8 ranks,
the 26 Criteo-Kaggle-shaped tables, tables 3 and 17 pinned to Huffman),
trained 4 steps with OBS on, for ``compress_backward`` x ``overlap`` in
every combination.

Each case pins, as separate blake2b digests: losses, parameter bytes,
``forward_wire_bytes``, the bytes of every ``sendbufs[src][dst]`` handed
to each ``Communicator.compressed_all_to_all``, the full timeline ledger
(events, counters and final stream clocks), the OBS registry snapshot,
and ``pipeline.stats`` as a *sorted* multiset.  The one permitted
observable difference of a fused backward exchange is the *order* of the
backward ``pipeline.stats`` records (src-major before, owner-major
after) — hence the sort.

``timing`` pins the schedule alone — the sorted ``(rank, category,
start, duration, stream)`` of every event plus the final stream clocks.
A change of ledger bookkeeping (args, release edges, recording order) may
re-record ``ledger``; never ``timing``.

Every digest but ``losses`` and ``params`` was last re-recorded at
``06298b5`` with the per-table Huffman codebook cache forced to miss on
every lookup — the behaviour of the entropy leg once that cache was
deleted.  Its stale books had shipped a few more payload bytes, which
reach the wire bytes, the simulated exchange times and the stats; the
losses and parameters are the same either way.  ``ledger`` alone was
re-recorded again when ``ClusterSimulator`` began recording every
dependency it creates as a release edge; ``timing`` did not move.
``obs`` of the four overlapped compressed cases was re-recorded from
``773985e`` with ``Communicator._obs_overlap_accounting`` forced to return
at once: that commit's live ``comm_wire_stall_seconds_total`` /
``comm_wire_hidden_seconds_total`` counters were deleted, and
``overlap_efficiency`` is the one measure of hidden wire.

The three ``compress_backward=None`` cases train the same world with
``pipeline=None``, so both exchanges are uncompressed.  Their digests were
recorded at ``6a2e8b7``, the last commit whose uncompressed forward
exchange posted per-destination row views through
``Communicator.all_to_all``; it is now charged from its byte matrix, like
the backward one, and must reproduce them.

``losses``, ``params`` and ``ledger`` of all nine cases were re-recorded
once when the model moved from float64 to float32 (``Parameter`` stores
float32 and every layer follows it).  ``ledger`` moved only through the
``loss`` each TRAIN_STEP event carries: with that argument dropped, the
ledger digest of every case equals the float64 parent's.  Every other
digest — ``timing``, ``sendbufs``, ``forward_wire_bytes``, ``obs`` and
``stats`` — did not move: the float32 steps post the same payload bytes.

In float64, ``params`` depended on the BLAS thread count (six cases missed
by ~1e-17 under ``OPENBLAS_NUM_THREADS=1``).  In float32 every case passes
with 1, 2, 3, 4 and 8 threads.  Still record only from a shell with the
default thread count.

Run ``python tests/train/test_exchange_golden.py`` to print the digests of
the current checkout (only ever paste them here from a commit whose
exchanges are known good; never re-record them in a refactor).  A digest
moves only when a change deletes a path whose bytes differ, and then it is
re-recorded from the parent's own output with that path forced off.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.adaptive import AdaptiveController, OfflineAnalyzer, StepwiseDecay
from repro.data import CRITEO_KAGGLE, SyntheticClickDataset, scaled_spec
from repro.dist import ClusterSimulator, EventCategory
from repro.model import DLRM, DLRMConfig
from repro.obs.critpath import TimelineDag
from repro.obs.runtime import capture
from repro.train import CompressionPipeline, HybridParallelTrainer
from tests.dist.test_ledger_golden import ledger_rows

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


def _train(compress_backward: bool | None, overlap):
    """Train ``run_case``'s world (``compress_backward=None``: no pipeline,
    both exchanges uncompressed); returns what its digests read."""
    dataset, config, plan = _world()
    pipe = None if compress_backward is None else CompressionPipeline(
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
    return trainer, pipe, posted, registry, losses


def run_case(compress_backward: bool | None, overlap) -> dict[str, str]:
    trainer, pipe, posted, registry, losses = _train(compress_backward, overlap)
    sim = trainer.simulator
    timeline = sim.timeline
    ledger = ledger_rows(timeline)
    clocks = [(s, [c.hex() for c in sim._streams[s]]) for s in sorted(sim._streams)]
    stats = sorted(
        (s.iteration, s.table_id, s.codec, s.error_bound.hex(), s.original_nbytes, s.compressed_nbytes)
        for s in (pipe.stats if pipe else [])
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
        "obs": _digest(registry.snapshot()),
        "stats": _digest(stats),
    }


CASES = [(cb, ov) for cb in (False, True, None) for ov in (False, True, "cross_stage")]

GOLDEN: dict[tuple[bool, object], dict[str, str]] = {
    (False, False): {'losses': '6f4b2b73e6065c592d19478f3c7af0cb', 'params': '0a9fac35471b45da7e0567050718b725', 'forward_wire_bytes': '325edfacacbbb481853ce9db0d3d9f74', 'sendbufs': '264a62a0a422fd813514c22626f9d557', 'ledger': '49b2f33e873ed0f49698b5b7a8adfff8', 'timing': '19b274d1b3af7cf5b217ca20f6a2df15', 'obs': '7d732424fbd403e82d3fe6455761cc6a', 'stats': '98660084a4ecb6990fdea7056e3934fe'},
    (False, True): {'losses': '6f4b2b73e6065c592d19478f3c7af0cb', 'params': '0a9fac35471b45da7e0567050718b725', 'forward_wire_bytes': '325edfacacbbb481853ce9db0d3d9f74', 'sendbufs': '264a62a0a422fd813514c22626f9d557', 'ledger': '8ab6b562e4cfbb1733423bc37e17e393', 'timing': '0ac463c006db5e9c6ca45364895e2579', 'obs': '2788b006ba5c05b9d3052506eeecf54f', 'stats': '98660084a4ecb6990fdea7056e3934fe'},
    (False, 'cross_stage'): {'losses': '6f4b2b73e6065c592d19478f3c7af0cb', 'params': '0a9fac35471b45da7e0567050718b725', 'forward_wire_bytes': '325edfacacbbb481853ce9db0d3d9f74', 'sendbufs': '264a62a0a422fd813514c22626f9d557', 'ledger': '171595ea62e580dff12f4aa0b1766101', 'timing': '9556953cc3bfb84d9527233d31ac0fbb', 'obs': '6bdb6246993c2bbee98cfe468e69aff6', 'stats': '98660084a4ecb6990fdea7056e3934fe'},
    (True, False): {'losses': '733f56c60615e4bc42ac0e04e0d22c28', 'params': 'bc9e927d962fcfa66cf5e2ee23489a32', 'forward_wire_bytes': '2c5b3c2b1b461fa7e261d38bf9b7e77a', 'sendbufs': '5ca57128250e415828f0faf2bc121d8a', 'ledger': 'ce6f29f8f5938c29b8454ebccce58fdc', 'timing': '629003cfbedf961445593bd66cb228d1', 'obs': 'f61433605555037d81255a7a6d20950b', 'stats': '3de8ac84549fb894792459ac625d31d1'},
    (True, True): {'losses': '733f56c60615e4bc42ac0e04e0d22c28', 'params': 'bc9e927d962fcfa66cf5e2ee23489a32', 'forward_wire_bytes': '2c5b3c2b1b461fa7e261d38bf9b7e77a', 'sendbufs': '5ca57128250e415828f0faf2bc121d8a', 'ledger': '8985c6d9ef34f8924ce28a8e0ccf1d30', 'timing': '46a2bc25082d0779d543a0a8f1aef3aa', 'obs': '973cbc4486fee857c539f90c86f719e8', 'stats': '3de8ac84549fb894792459ac625d31d1'},
    (True, 'cross_stage'): {'losses': '733f56c60615e4bc42ac0e04e0d22c28', 'params': 'bc9e927d962fcfa66cf5e2ee23489a32', 'forward_wire_bytes': '2c5b3c2b1b461fa7e261d38bf9b7e77a', 'sendbufs': '5ca57128250e415828f0faf2bc121d8a', 'ledger': '41e120dd5f02f28a6a66ba57ed33ee40', 'timing': '0491b35af860cc2f11d94fe9c13d0e41', 'obs': '3fdfb6a5edf54ef4e492dc6947385160', 'stats': '3de8ac84549fb894792459ac625d31d1'},
    (None, False): {'losses': 'f628df8944d6c72584f40744d7d18e18', 'params': '005e4a073f7ca54d89e5e14daf7d7f0b', 'forward_wire_bytes': '9b6080e759ac2a7d76c64820c465986c', 'sendbufs': 'cae66941d9efbd404e4d88758ea67670', 'ledger': '4ee548433fea1d544a9e80a634766f5b', 'timing': '6d56a70e676140d9b34bac72330b54ba', 'obs': '113e1380632a822d83c806703b0681fe', 'stats': '7ebb3c7c2a87b1a2f8a7ed729ecb040d'},
    (None, True): {'losses': 'f628df8944d6c72584f40744d7d18e18', 'params': '005e4a073f7ca54d89e5e14daf7d7f0b', 'forward_wire_bytes': '9b6080e759ac2a7d76c64820c465986c', 'sendbufs': 'cae66941d9efbd404e4d88758ea67670', 'ledger': '4ee548433fea1d544a9e80a634766f5b', 'timing': '6d56a70e676140d9b34bac72330b54ba', 'obs': '113e1380632a822d83c806703b0681fe', 'stats': '7ebb3c7c2a87b1a2f8a7ed729ecb040d'},
    (None, 'cross_stage'): {'losses': 'f628df8944d6c72584f40744d7d18e18', 'params': '005e4a073f7ca54d89e5e14daf7d7f0b', 'forward_wire_bytes': '9b6080e759ac2a7d76c64820c465986c', 'sendbufs': 'cae66941d9efbd404e4d88758ea67670', 'ledger': '690f3f060f71d7cccc963a9503a671bb', 'timing': '8c8c6eea598d0f4b57036aae500c7364', 'obs': '53fef44cb44913c480009c5f0e5f26a5', 'stats': '7ebb3c7c2a87b1a2f8a7ed729ecb040d'},
}


@pytest.mark.parametrize("compress_backward, overlap", CASES)
def test_exchange_reproduces_golden(compress_backward, overlap):
    assert run_case(compress_backward, overlap) == GOLDEN[(compress_backward, overlap)]


@pytest.mark.parametrize("compress_backward, overlap", CASES)
def test_identity_speedup_if_reproduces_makespan(compress_backward, overlap):
    """Every dependency of a trainer step is a recorded edge: equal-cost
    per-rank kernels are not read as collectives, and the DAG re-timed
    with nothing sped up lands on the makespan exactly."""
    sim = _train(compress_backward, overlap)[0].simulator
    estimate = TimelineDag.from_timeline(sim.timeline).speedup_if(EventCategory.COMPRESS, 1.0)
    assert estimate.predicted_makespan == sim.makespan()


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {run_case(*case)!r},")
