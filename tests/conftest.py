"""Shared fixtures, config helpers and the stream rule's scalar references."""

import hashlib

import numpy as np
import pytest

from fleetfl import config


def make_cfg(**overrides) -> config.RunConfig:
    """Small, fast run configuration; keyword overrides are merged shallowly
    into the top level and one level deep into nested sections."""
    base = {
        "seed": 7,
        "rounds": 2,
        "fleet": {"n_nodes": 3, "samples_per_node": 40, "feature_dim": 4, "heterogeneity": 0.2},
        "train": {"lr": 0.5, "epochs": 1, "batch": 16},
        "privacy": {"eps_max": "inf", "budget_cap": 100.0},
        "feedback": {"enabled": True, "max_validation_samples": 4, "explain_repeats": 3},
        "holdout_samples": 200,
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            base[key].update(value)
        else:
            base[key] = value
    return config.from_dict(base)


def ref_words(seed: int, n: int) -> list[int]:
    """The first n words of the seed's stream, from hashlib alone: SHAKE-128 of
    the seed's 8 big-endian bytes, read as big-endian 64-bit integers."""
    raw = hashlib.shake_128(seed.to_bytes(8, "big")).digest(8 * n)
    return [int.from_bytes(raw[i : i + 8], "big") for i in range(0, 8 * n, 8)]


def ref_permutations(seed: int, count: int, n: int) -> list[list[int]]:
    """count permutations of range(n): the j-th orders words j·n .. (j + 1)·n − 1
    of the seed's stream, ties by position."""
    words = ref_words(seed, count * n)
    return [sorted(range(n), key=lambda i: words[j * n + i]) for j in range(count)]


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def pytest_runtest_logreport(report):
    """Emit one visible pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {status} {name}", flush=True)
