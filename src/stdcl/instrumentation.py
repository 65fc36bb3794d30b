"""Lightweight call counters used to verify path purity.

The inference path must never touch the contrastive machinery; tests reset
these counters, run inference, and assert they stayed at zero.
"""

from __future__ import annotations

from collections import Counter

counters: Counter = Counter()


def bump(name: str, n: int = 1) -> None:
    counters[name] += n


def reset() -> None:
    counters.clear()


def count(name: str) -> int:
    return counters[name]
