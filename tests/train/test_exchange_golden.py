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

Every digest but ``losses`` and ``params`` of the six compressed cases was
re-recorded once more when codec frames moved from a varint header
dictionary to a fixed prelude and per-codec tail: smaller headers reach the
posted bytes, the wire bytes, the simulated exchange times, the obs
counters and the stats.  ``losses`` and ``params`` did not move, and
neither did any digest of the uncompressed cases.  The same digests were
re-recorded once more when the CRC32 joined the prelude (4 bytes per
frame), from the parent commit with its prelude packed in the new layout
and its CRC filled; the new tree reproduces them.  Again ``losses``,
``params`` and the uncompressed cases did not move.

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
    (False, False): {'losses': '6f4b2b73e6065c592d19478f3c7af0cb', 'params': '0a9fac35471b45da7e0567050718b725', 'forward_wire_bytes': 'fa52c1e06c1ca20e90c05f16170e7980', 'sendbufs': '7f0efda05f3341e7ac163b512ba68dc8', 'ledger': '5616ea14c15f7b10779260bfd19717c9', 'timing': 'a4ccbf4206b2906fcc0fa124d9794148', 'obs': 'ed459a9c30973cde8bf7ff0c10e9c988', 'stats': 'a2c319c4729dfc4a8fbe885ebc4cec00'},
    (False, True): {'losses': '6f4b2b73e6065c592d19478f3c7af0cb', 'params': '0a9fac35471b45da7e0567050718b725', 'forward_wire_bytes': 'fa52c1e06c1ca20e90c05f16170e7980', 'sendbufs': '7f0efda05f3341e7ac163b512ba68dc8', 'ledger': 'a38d262bb24d620dda62e3ddf34994ad', 'timing': 'eb850bded2645d4fc03b17d0a4bbcd03', 'obs': '1a739b2d5d221d4b18232e34bb11a270', 'stats': 'a2c319c4729dfc4a8fbe885ebc4cec00'},
    (False, 'cross_stage'): {'losses': '6f4b2b73e6065c592d19478f3c7af0cb', 'params': '0a9fac35471b45da7e0567050718b725', 'forward_wire_bytes': 'fa52c1e06c1ca20e90c05f16170e7980', 'sendbufs': '7f0efda05f3341e7ac163b512ba68dc8', 'ledger': 'de7153868ca69499d24c411d31c04e07', 'timing': '70d99b3cd994a5621d1b46666e44aca0', 'obs': '8a8ec1f8c10566f4e45620d7e70ae765', 'stats': 'a2c319c4729dfc4a8fbe885ebc4cec00'},
    (True, False): {'losses': '733f56c60615e4bc42ac0e04e0d22c28', 'params': 'bc9e927d962fcfa66cf5e2ee23489a32', 'forward_wire_bytes': '171c7d60f0d2c22f363a1509ff918d6a', 'sendbufs': '32670503bc6af3cc0b3b8990e731e8d3', 'ledger': '57ddb16bd49248a919d08dd81696bbb1', 'timing': 'd5623784fe06bdd52372e9d8a6467ce0', 'obs': 'f3e4cb482455b601e4a28df1c545d1e6', 'stats': '00923b8b73577031136bf0b9d56eeb5d'},
    (True, True): {'losses': '733f56c60615e4bc42ac0e04e0d22c28', 'params': 'bc9e927d962fcfa66cf5e2ee23489a32', 'forward_wire_bytes': '171c7d60f0d2c22f363a1509ff918d6a', 'sendbufs': '32670503bc6af3cc0b3b8990e731e8d3', 'ledger': 'e0e517080fbb60cba319aacb60b5eea8', 'timing': '619d0412c8a0f33954620762c0b9066a', 'obs': 'cf10e7253fc3b7e9bb73b9b13baa0b1f', 'stats': '00923b8b73577031136bf0b9d56eeb5d'},
    (True, 'cross_stage'): {'losses': '733f56c60615e4bc42ac0e04e0d22c28', 'params': 'bc9e927d962fcfa66cf5e2ee23489a32', 'forward_wire_bytes': '171c7d60f0d2c22f363a1509ff918d6a', 'sendbufs': '32670503bc6af3cc0b3b8990e731e8d3', 'ledger': '051baef1d90dccfe55e34c49604d37d8', 'timing': '6fb05ac4a108ff94556d74e5fb718131', 'obs': 'edf63f5dcc57b44dda90590c2d3009d2', 'stats': '00923b8b73577031136bf0b9d56eeb5d'},
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
