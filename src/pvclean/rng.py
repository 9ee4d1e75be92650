"""Seeded, counted uniform random streams.

Every stochastic quantity in the simulator is drawn from a ``RandomStream``.
A stream is identified by a base seed plus an integer ``stream_id`` (and an
optional tuple of extra tags such as a replication index).  Sub-seed mixing
is delegated to :class:`numpy.random.SeedSequence`, which guarantees that
distinct (seed, tags, stream_id) tuples yield statistically independent
sequences, and that equal tuples yield byte-identical sequences on every
platform.

A stream yields uniforms only.  Normals are the inverse-CDF transform
(:func:`pvclean.distributions.ndtri`) of one uniform each, so the number of
uniforms consumed per distribution draw stays documented and reproducible.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomStream", "replication_entropy", "training_entropy"]

# Tags separating the seed spaces of evaluation replications and training
# episodes so that the two never share draws.
_REPLICATION_TAG = 0
_TRAINING_TAG = 1
# A look-ahead draws at least this many uniforms from the generator and
# keeps them for the draws that follow, so that the samplers' many short
# look-aheads and skips each cost a slice rather than a generator call.
_AHEAD = 1024
_NONE = np.empty(0)


def replication_entropy(seed: int, replication: int) -> tuple:
    """Entropy tuple for evaluation/Sim-Opt replication ``replication``."""
    return (int(seed), _REPLICATION_TAG, int(replication))


def training_entropy(seed: int, episode: int) -> tuple:
    """Entropy tuple for training episode ``episode`` (disjoint from replications)."""
    return (int(seed), _TRAINING_TAG, int(episode))


class RandomStream:
    """One independent, counted uniform stream.

    Parameters
    ----------
    seed:
        Base seed: a non-negative integer or a tuple of non-negative
        integers (e.g. from :func:`replication_entropy`).
    stream_id:
        Small integer distinguishing parallel streams under the same seed
        (one per weather variable in the simulator).
    """

    def __init__(self, seed, stream_id: int = 0):
        if isinstance(seed, (tuple, list)):
            entropy = [int(s) for s in seed]
        else:
            entropy = [int(seed)]
        self.seed = tuple(entropy)
        self.stream_id = int(stream_id)
        self.counter = 0
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy + [self.stream_id]))
        )
        # Uniforms drawn from the generator but not yet consumed.
        self._ahead = _NONE

    def uniform(self) -> float:
        """One 53-bit uniform in [0, 1)."""
        return float(self.uniforms(1)[0])

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` uniforms in [0, 1), identical to ``n`` successive uniform() calls."""
        n = int(n)
        k = self._ahead.size
        if n <= k:
            u = self._ahead[:n]
        else:
            more = self._gen.random(n - k)
            u = np.concatenate([self._ahead, more]) if k else more
        self._ahead = self._ahead[n:] if n < k else _NONE
        self.counter += n
        return u

    def peek(self, n: int) -> np.ndarray:
        """The next ``n`` uniforms, leaving the stream where it was.

        The result is a view of the uniforms held ahead: read it, do not
        write it.
        """
        n = int(n)
        k = self._ahead.size
        if k < n:
            more = self._gen.random(max(n - k, _AHEAD))
            self._ahead = np.concatenate([self._ahead, more]) if k else more
        return self._ahead[:n]

    def skip(self, n: int) -> None:
        """Consume ``n`` uniforms without drawing them, as ``uniforms(n)`` would."""
        n = int(n)
        self.counter += n
        k = self._ahead.size
        # An emptied store lets go of the array it viewed.
        self._ahead = self._ahead[n:] if n < k else _NONE
        if n > k:
            # PCG64 makes one 64-bit output per double, so advancing n outputs
            # lands where n draws would.
            self._gen.bit_generator.advance(n - k)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"RandomStream(seed={self.seed}, stream_id={self.stream_id}, "
                f"counter={self.counter})")
