"""Deterministic random-stream construction shared across modules."""

import numpy as np


def substream(seed, *path):
    """Independent generator keyed by (seed, path), whatever order streams are made in.

    Streams for distinct paths are statistically independent, and the mapping
    from (seed, path) to the stream is fixed, so a Monte Carlo loop gives the
    same results whichever order it evaluates its replicates in.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(path)))
