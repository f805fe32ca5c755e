"""Golden bytes of what the ledger's readers export.

For every world of ``tests/dist/test_ledger_golden.py`` (healthy and
fault-bent) and the traced ledger of the serving golden
(``tests/serve/test_serving_golden.py``), this pins:

* ``chrome_trace`` — blake2b over ``json.dumps(timeline.to_chrome_trace())``,
  so lane ids, lane names, microsecond times, release edges, args and
  counter samples keep every byte;
* ``rank0`` / ``all`` — ``total_by_category(rank=0)`` and
  ``total_by_category()`` as ``(category, seconds.hex())`` pairs in the
  dict's own key order (first use in the ledger);
* ``overlap`` — ``overlap_efficiency(timeline).hex()``.

The values were recorded at ``c2326d5``, whose readers built one
``TimelineEvent`` per ledger entry, before they were ported to read the
ledger's columns; they are never re-recorded in a refactor.  The serving
entry alone was re-recorded once, when codec frames moved from a varint
header dictionary to a fixed prelude and per-codec tail: its blocks pull
fewer bytes, which reaches the request latencies priced on them.  It was
re-recorded a second time when the CRC32 joined the prelude, from the
parent commit with its prelude packed in the new layout and its CRC
filled: each block pulls 4 bytes more.  Run
``python tests/dist/test_export_golden.py`` to print the values of the
current checkout.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.dist import Timeline
from repro.profiling import overlap_efficiency
from tests.dist.test_ledger_golden import WORLDS
from tests.serve.test_serving_golden import build_world, run_healthy


def read_outs(timeline: Timeline) -> dict[str, object]:
    text = json.dumps(timeline.to_chrome_trace())
    return {
        "chrome_trace": hashlib.blake2b(text.encode(), digest_size=16).hexdigest(),
        "rank0": [(str(k), v.hex()) for k, v in timeline.total_by_category(rank=0).items()],
        "all": [(str(k), v.hex()) for k, v in timeline.total_by_category().items()],
        "overlap": overlap_efficiency(timeline).hex(),
    }


def serving_trace() -> Timeline:
    """The serving golden's ``trace=`` ledger: SERVE_REQUEST spans with
    args, and the queue-depth and hit-rate counter tracks."""
    trace = Timeline()
    run_healthy(build_world(), "hier/available_at=per-replica", trace=trace)
    return trace


LEDGERS = {
    **{name: (lambda world=world: world().timeline) for name, world in WORLDS.items()},
    "serving_trace": serving_trace,
}

GOLDEN: dict[str, dict[str, object]] = {
    "benchmark_shape": {
        "chrome_trace": "a174d547ce26d964fce93068816c3bb9",
        "rank0": [
            ("compress", "0x1.84ae29030616dp-12"),
            ("metadata", "0x1.9496638433d66p-12"),
            ("alltoall_fwd", "0x1.dcaf5ab7dc7b2p-11"),
            ("decompress", "0x1.33fc25f1e0222p-13"),
            ("allreduce", "0x1.15bcb911bd501p-12"),
        ],
        "all": [
            ("compress", "0x1.c822ac8a62029p-6"),
            ("metadata", "0x1.9496638433d4cp-5"),
            ("alltoall_fwd", "0x1.dcaf5ab7dc7a3p-4"),
            ("decompress", "0x1.b9657715231e7p-6"),
            ("allreduce", "0x1.15bcb911bd501p-5"),
        ],
        "overlap": "0x1.c89bf42e83b54p-3",
    },
    "ragged_chunks": {
        "chrome_trace": "495bbc293c46f5af62e2447dfd883b5d",
        "rank0": [
            ("compress", "0x1.eec8273487983p-14"),
            ("metadata", "0x1.615c8d9f9053ap-17"),
            ("alltoall_fwd", "0x1.fe68b69552e2fp-17"),
            ("decompress", "0x1.fd5993c7ff445p-13"),
        ],
        "all": [
            ("compress", "0x1.a10ca51fcfb7fp-10"),
            ("metadata", "0x1.615c8d9f90539p-14"),
            ("alltoall_fwd", "0x1.fe68b69552e32p-14"),
            ("decompress", "0x1.9536aef341e2dp-10"),
        ],
        "overlap": "0x1.6af8a16b2a63dp-1",
    },
    "default_chunks": {
        "chrome_trace": "bfa60d888677e287bc39df1d2bf01a41",
        "rank0": [
            ("compress", "0x1.60e2f56ce4e7dp-12"),
            ("metadata", "0x1.94c737110e454p-18"),
            ("alltoall_fwd", "0x1.7d929b888722ap-17"),
            ("decompress", "0x1.8a76d71239843p-12"),
        ],
        "all": [
            ("compress", "0x1.49e181025e3bap-10"),
            ("metadata", "0x1.2f95694ccab3fp-15"),
            ("alltoall_fwd", "0x1.1e2df4a6655a1p-14"),
            ("decompress", "0x1.d0dc346209476p-10"),
        ],
        "overlap": "0x1.cf5b81a691bd4p-1",
    },
    "zero_cost_ranks": {
        "chrome_trace": "3d38465c9647f14cb9fb283cf5d8a6de",
        "rank0": [
            ("metadata", "0x1.1c6f7a0b5ed8dp-19"),
            ("alltoall_fwd", "0x1.211def416bdb2p-16"),
            ("decompress", "0x1.61395bf1f89c7p-14"),
        ],
        "all": [
            ("compress", "0x1.01a4d5e059637p-10"),
            ("metadata", "0x1.aaa737110e455p-17"),
            ("alltoall_fwd", "0x1.b1ace6e221c89p-14"),
            ("decompress", "0x1.24ae2716e543bp-10"),
        ],
        "overlap": "0x1.132ed0e3bf495p-4",
    },
    "metadata_skipped": {
        "chrome_trace": "282c6f0bb5472d7f0ed8edefd9f081ec",
        "rank0": [
            ("compress", "0x1.754c4ccbef1a0p-12"),
            ("alltoall_bwd", "0x1.1fcb19f49dcc2p-20"),
            ("decompress", "0x1.d60626ed72089p-13"),
        ],
        "all": [
            ("compress", "0x1.e4f00c98349d0p-11"),
            ("alltoall_bwd", "0x1.67bde071c53f2p-18"),
            ("decompress", "0x1.050f7ee01b8e0p-10"),
        ],
        "overlap": "0x1.9999999999b5fp-2",
    },
    "payload_shapes": {
        "chrome_trace": "c0950b869df56c645f992fb1d81a01cb",
        "rank0": [
            ("compress", "0x1.229aba0a2128cp-12"),
            ("metadata", "0x1.f81dd1a21ea36p-18"),
            ("alltoall_fwd", "0x1.1329ca18bd663p-17"),
            ("decompress", "0x1.2398f15de38c4p-12"),
        ],
        "all": [
            ("compress", "0x1.1954d566ef031p-10"),
            ("metadata", "0x1.7a165d3996fa9p-15"),
            ("alltoall_fwd", "0x1.9cbeaf251c196p-15"),
            ("decompress", "0x1.825c0cf07e743p-10"),
        ],
        "overlap": "0x1.66565ad52c669p-1",
    },
    "overlap_compute": {
        "chrome_trace": "55079b305519a84457c3af12353bd4e7",
        "rank0": [
            ("compress", "0x1.885069dbf5054p-13"),
            ("metadata", "0x1.30ac9b2910c57p-17"),
            ("alltoall_bwd", "0x1.702d0eabea542p-16"),
            ("bottom_mlp_bwd", "0x1.3a92a30553261p-12"),
            ("decompress", "0x1.7663f1191ae95p-12"),
        ],
        "all": [
            ("top_mlp_bwd", "0x1.a36e2eb1c432dp-14"),
            ("optimizer", "0x1.a36e2eb1c432dp-15"),
            ("compress", "0x1.89538030af8aap-11"),
            ("metadata", "0x1.30ac9b2910c57p-15"),
            ("alltoall_bwd", "0x1.702d0eabea542p-14"),
            ("bottom_mlp_bwd", "0x1.22fad6cb53501p-10"),
            ("decompress", "0x1.30f4f08bb14c2p-10"),
        ],
        "overlap": "0x1.7fffffffffff6p-1",
    },
    "back_to_back": {
        "chrome_trace": "52b668cbe3c18d8b0a9b75a0ed58d23d",
        "rank0": [
            ("compress", "0x1.2e415a8611456p-11"),
            ("metadata", "0x1.09dc74751ce2ap-15"),
            ("alltoall_fwd", "0x1.4b509a5657fb6p-13"),
            ("decompress", "0x1.0f994f3c2c9e8p-11"),
            ("allreduce", "0x1.76cce5f7403dep-13"),
        ],
        "all": [
            ("compress", "0x1.861d0cb4d9654p-8"),
            ("metadata", "0x1.09dc74751ce2bp-12"),
            ("alltoall_fwd", "0x1.4b509a5657fb3p-10"),
            ("decompress", "0x1.2b2abe829bb09p-8"),
            ("allreduce", "0x1.76cce5f7403dfp-10"),
            ("bottom_mlp_bwd", "0x1.d34f43c1a205ep-10"),
        ],
        "overlap": "0x1.423648b1bb49bp-2",
    },
    "faults": {
        "chrome_trace": "115acf83113baf104dec5c661f740799",
        "rank0": [
            ("compress", "0x1.63f9afa8a6be5p-12"),
            ("metadata", "0x1.f8c1a8ac5c140p-17"),
            ("alltoall_fwd", "0x1.46f452bb72540p-15"),
            ("decompress", "0x1.02bec08f1668dp-11"),
            ("allreduce", "0x1.90a63482d6683p-17"),
        ],
        "all": [
            ("compress", "0x1.710308bcf6f22p-10"),
            ("metadata", "0x1.7a913e81450f0p-14"),
            ("alltoall_fwd", "0x1.cec666f6373d2p-13"),
            ("bottom_mlp_bwd", "0x1.d7dbf487fcb93p-11"),
            ("decompress", "0x1.8b35847641b95p-9"),
            ("allreduce", "0x1.2c7ca76220ce1p-14"),
        ],
        "overlap": "0x1.95835a8cc9fb6p-2",
    },
    "sequential_plain_bytes_under_faults": {
        "chrome_trace": "98da8c889dc4de905faed8dbc4814f67",
        "rank0": [
            ("compress", "0x1.1c6d339a78bf3p-14"),
            ("metadata", "0x1.952737110e454p-18"),
            ("alltoall_fwd", "0x1.00f71a5332ad0p-14"),
            ("decompress", "0x1.766c00830ab17p-12"),
            ("alltoall_bwd", "0x1.07d71a5332ad0p-14"),
            ("bottom_mlp_bwd", "0x1.4bbd513de7187p-14"),
        ],
        "all": [
            ("compress", "0x1.3f6476c739893p-9"),
            ("metadata", "0x1.2fdd694ccab3fp-15"),
            ("alltoall_fwd", "0x1.8172a77ccc037p-12"),
            ("decompress", "0x1.5e17fe198c5adp-9"),
            ("alltoall_bwd", "0x1.8bc2a77ccc037p-12"),
            ("bottom_mlp_bwd", "0x1.2e613bf4537a3p-11"),
        ],
        "overlap": "0x1.fdf135c329e4dp-3",
    },
    "serving_trace": {
        "chrome_trace": "c5f802c6bf595e4269c3fc8672bf4e48",
        "rank0": [
            ("serve_request", "0x1.8830bd51c664ap-8"),
        ],
        "all": [
            ("serve_request", "0x1.8870a0c20fc52p-7"),
        ],
        "overlap": "0x0.0p+0",
    },
}


@pytest.mark.parametrize("name", sorted(LEDGERS))
def test_export_matches_golden(name):
    assert read_outs(LEDGERS[name]()) == GOLDEN[name]


if __name__ == "__main__":  # pragma: no cover - golden recorder
    for ledger_name, build in LEDGERS.items():
        print(f"    {ledger_name!r}: {read_outs(build())!r},")
