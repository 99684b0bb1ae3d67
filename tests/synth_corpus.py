"""Seeded random corpora for extraction property tests.

The word pool mixes marked seed terms, near-variants whose relatedness to a
seed term lands at different magnitudes (so threshold sweeps are
non-trivial), and junk that should never be admitted.
"""

import random

SEED_TERMS = {
    "energy": 40,
    "wind": 25,
    "solar": 20,
    "storage": 15,
    "turbines": 12,
    "battery": 10,
    "capacity": 8,
    "panels": 7,
}

# Single-character perturbations of seed terms; code-point deltas of 1-7
# spread their best relatedness across the sweep bands: under 0.009
# (enerfy ... energz), under 0.01 (solat), under 0.02 (turbinep, solau,
# batteru), and above every band (turbinez).
NEAR_VARIANTS = [
    "energx",
    "enerfy",
    "turbiner",
    "turbinez",
    "turbinep",
    "solat",
    "solau",
    "batterz",
    "batteru",
    "storagf",
    "capacitz",
]

JUNK = ["zebra", "quartz", "mountain", "paper", "jjj", "xylophone", "river"]

POOL = list(SEED_TERMS) + NEAR_VARIANTS + JUNK


def fresh_marking() -> dict[str, int]:
    return dict(SEED_TERMS)


def make_corpus(rng: random.Random, n_docs: int, words_per_doc: int = 30):
    return {
        f"d{i:03d}": " ".join(rng.choices(POOL, k=words_per_doc))
        for i in range(n_docs)
    }
