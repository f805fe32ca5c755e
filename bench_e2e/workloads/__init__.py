"""The four workloads, by the names ``BENCHMARK.json`` gives them."""

from __future__ import annotations

from bench_e2e.workloads.exchange import ExchangeEngine
from bench_e2e.workloads.publish_serve import PublishServe
from bench_e2e.workloads.train import TrainWorkload

__all__ = ["WORKLOADS"]

WORKLOADS = {
    "train_compressed": lambda: TrainWorkload(compressed=True),
    "train_baseline": lambda: TrainWorkload(compressed=False),
    "publish_serve": PublishServe,
    "exchange_engine": ExchangeEngine,
}
