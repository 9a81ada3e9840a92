"""Named, independently seeded random generators.

Every consumer of randomness (latent noise, penalty interpolation, batch
sampling, synthetic images, ...) draws from a one-shot generator spawned for
its own name and an index (a step, an image), so adding a draw in one place
never perturbs the sequence seen by another, and no draw depends on call
order.  Each generator is derived from a single base seed plus the name and
index, so a run is fully reproducible from one integer.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RngStreams"]


class RngStreams:
    def __init__(self, seed: int):
        self.seed = int(seed)

    def spawn(self, name: str, key: int) -> np.random.Generator:
        """A fresh generator for (name, key): the same draws on every call."""
        ss = np.random.SeedSequence([self.seed, key, *name.encode("utf-8")])
        return np.random.default_rng(ss)
