"""Reproducible randomness plumbing.

Every stochastic component in the package draws from a
:class:`numpy.random.Generator` (PCG64).  A single user-facing ``seed``
is expanded into statistically independent streams via
:meth:`numpy.random.SeedSequence.spawn`, following numpy's recommended
practice for parallel stochastic simulations.  This gives:

* bitwise reproducibility of every experiment from one integer, and
* independence between components (e.g. ball choices vs. bin tie-breaks)
  without correlated low-entropy seeds.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

__all__ = [
    "RngFactory",
    "as_generator",
    "as_seed_sequence",
    "spawn_generators",
]

SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]


def as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Coerce any accepted seed form into a root :class:`SeedSequence`.

    This is the package-wide root-seed idiom: ints/None become a fresh
    sequence, an existing sequence passes through, and a Generator is
    *frozen* — one ``integers`` draw becomes the root entropy, so the
    derived sequence is deterministic afterwards while distinct
    generators (or repeated freezes of one generator) stay independent.
    Both :class:`RngFactory` and :func:`repro.api.spawn_seeds` derive
    their roots through this single function.
    """
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(
            int(seed.integers(0, 2**63, dtype=np.int64))
        )
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Coerce any accepted seed form into a Generator.

    Passing an existing Generator returns it unchanged so callers can
    thread one stream through helper functions.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_generators(
    seed: SeedLike, count: int
) -> list[np.random.Generator]:
    """Spawn ``count`` independent generators from one seed.

    If ``seed`` is already a Generator, child streams are derived from
    its internal bit generator's seed sequence when available, otherwise
    from fresh entropy seeded by the generator itself.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children deterministically from the generator's stream.
        child_seeds = seed.integers(0, 2**63, size=count, dtype=np.int64)
        return [np.random.default_rng(int(s)) for s in child_seeds]
    sequence = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def _uint32_words(value) -> list[int]:
    """``value`` as the 32-bit words SeedSequence mixes: an int splits
    low word first (zero is one word), and a sequence gives its items'
    words in order."""
    if not isinstance(value, (int, np.integer)):
        return [word for item in value for word in _uint32_words(item)]
    value = int(value)
    words = [value & 0xFFFFFFFF]
    while value >> 32:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


class RngFactory:
    """A hierarchical source of named, independent random streams.

    The simulation engine hands each agent (ball or bin) and each
    subsystem its own stream.  Streams are derived lazily so creating a
    factory for ``m = 10^7`` balls does not allocate ``10^7`` generators
    up front.

    Examples
    --------
    >>> factory = RngFactory(seed=7)
    >>> ball_rng = factory.stream("ball", 12)
    >>> bin_rng = factory.stream("bin", 3)
    >>> factory2 = RngFactory(seed=7)
    >>> bool(factory2.stream("ball", 12).integers(1 << 30)
    ...      == ball_rng.integers(1 << 30))
    True
    """

    def __init__(self, seed: SeedLike = None) -> None:
        self._root = as_seed_sequence(seed)
        # Streams seed from uint32 words: SeedSequence then skips the
        # per-int coercion of a list, and mixes the same pool.
        self._root_words = _uint32_words(self._root_material())

    def _root_material(self) -> list:
        """Entropy plus spawn key, so spawned children stay distinct.

        A ``SeedSequence.spawn()`` child shares its parent's entropy and
        differs only in ``spawn_key`` — dropping the key would collapse
        every spawned child onto the parent's streams (the bug this
        guards against).  Sequences with an empty spawn key (ints, None,
        fresh sequences) produce exactly the historical material, so
        existing seeds reproduce bitwise.
        """
        entropy = self._root.entropy
        if not isinstance(entropy, (list, tuple, np.ndarray)):
            entropy = [entropy]
        material = list(entropy)
        material.extend(int(k) for k in self._root.spawn_key)
        return material

    @property
    def root_entropy(self) -> Sequence[int]:
        """The root entropy tuple (for logging/reproduction).

        Includes the spawn key for spawned sequences, so independent
        repetitions of a batch record distinct reproduction tuples.
        """
        return tuple(int(e) for e in self._root_material())

    def stream(self, *key: Union[str, int]) -> np.random.Generator:
        """Return the generator for a hierarchical key.

        Keys mix strings (component names) and ints (agent indices,
        round numbers).  The same key always yields a generator with the
        same state; distinct keys yield independent streams.
        """
        words = list(self._root_words)
        for part in key:
            if isinstance(part, str):
                words.extend(part.encode("utf-8"))
            elif isinstance(part, (int, np.integer)):
                words.append(int(part) & 0xFFFFFFFF)
                words.append((int(part) >> 32) & 0xFFFFFFFF)
            else:
                raise TypeError(
                    f"stream key parts must be str or int, got {type(part).__name__}"
                )
        return np.random.default_rng(
            np.random.SeedSequence(np.array(words, dtype=np.uint32))
        )

    def spawn(self, count: int) -> list[np.random.Generator]:
        """Spawn ``count`` sequential independent generators."""
        return [np.random.default_rng(c) for c in self._root.spawn(count)]

    def child_factory(self, *key: Union[str, int]) -> "RngFactory":
        """A sub-factory rooted at a hierarchical key."""
        material = self._root_material()
        for part in key:
            if isinstance(part, str):
                material.extend(part.encode("utf-8"))
            else:
                material.append(int(part) & 0xFFFFFFFF)
        return RngFactory(np.random.SeedSequence(material))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngFactory(entropy={self.root_entropy})"
