"""Deterministic random number generator plumbing.

All stochastic components of the reproduction (random walks, random
initializations, random graphs) accept either an integer seed or a
:class:`numpy.random.Generator`.  Centralizing the coercion here keeps
experiments reproducible: the same seed always yields the same runs.
"""

from __future__ import annotations

import hashlib
import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

RngLike = "int | np.random.Generator | None"

#: numpy's ``SeedSequence`` hash constants (``bit_generator.pyx``).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

#: PCG64's 128-bit LCG multiplier as four 32-bit limbs, least
#: significant first (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG64_MULT = tuple(
    (0x2360ED051FC65DA44385DF649FCCF645 >> (32 * i)) & 0xFFFFFFFF
    for i in range(4)
)

#: Seeds :func:`default_rng_states` accepts: ``[0, 2**63)``, the range
#: of :func:`derive_seed`, whose entropy is one or two 32-bit words.
_SEED_LIMIT = 1 << 63


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` yields a fresh nondeterministic generator; an ``int`` yields a
    deterministic PCG64 generator; an existing generator is returned as-is
    (not copied), so callers sharing a generator share its stream.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(base: int, *labels: object) -> int:
    """Derive a stable 63-bit sub-seed from ``base`` and context labels.

    Experiments that fan out over a parameter grid use this to give every
    cell its own independent-but-reproducible stream::

        seed = derive_seed(1234, "table1", n, k, repetition)

    The derivation is a SHA-256 hash, so it is stable across processes,
    platforms and Python versions (unlike ``hash()``).
    """
    text = ":".join([str(base), *[str(label) for label in labels]])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def default_rng_states(seeds: Sequence[int]) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` that ``np.random.default_rng(seed)``
    starts from, for every seed at once.

    One array pass over all seeds ports the two steps a fresh generator
    takes: ``SeedSequence`` mixes the seed's 32-bit words into a pool
    of four (a seed below 2**32 has one word, and a missing word hashes
    exactly like a zero one), then ``generate_state`` draws four 64-bit
    words from the pool, and PCG64's set-seed turns them into the
    initial state and increment with two 128-bit LCG steps.  Setting
    these on an existing PCG64 costs about a sixth of building a
    generator.  Seeds outside ``[0, 2**63)`` raise ``ValueError``.
    """
    values = [operator.index(seed) for seed in seeds]
    for seed in values:
        if not 0 <= seed < _SEED_LIMIT:
            raise ValueError(f"seed {seed} is outside [0, 2**63)")
    if not values:
        return []
    wide = np.array(values, dtype=np.uint64)
    words = [
        (wide & 0xFFFFFFFF).astype(np.uint32),
        (wide >> np.uint64(32)).astype(np.uint32),
        np.zeros(len(values), dtype=np.uint32),
        np.zeros(len(values), dtype=np.uint32),
    ]
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(word) for word in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = np.uint32(_MIX_MULT_L) * pool[dst] - (
                    np.uint32(_MIX_MULT_R) * hashmix(pool[src])
                )
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        out.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # generate_state(4, uint64) pairs the words little-endian; set-seed
    # reads words 0-1 as the state's high and low halves, 2-3 as the
    # sequence's.  Limbs are 32 bits, least significant first.
    initstate = [out[2], out[3], out[0], out[1]]
    initseq = [out[6], out[7], out[4], out[5]]
    # pcg_setseq_128_srandom_r: inc = 2·seq + 1; the state steps from 0
    # to inc, takes the initial state, and steps once more.
    inc = _carry([limb << np.uint64(1) for limb in initseq])
    inc[0] |= np.uint64(1)
    state = _add128(_mul128(_add128(inc, initstate), _PCG64_MULT), inc)
    return list(zip(_limbs_to_ints(state), _limbs_to_ints(inc)))


def _carry(columns: list[np.ndarray]) -> list[np.ndarray]:
    """Column sums (uint64 arrays) as four 32-bit limbs, mod 2**128."""
    limbs: list[np.ndarray] = []
    carry = np.uint64(0)
    for column in columns[:4]:
        column = column + carry
        limbs.append(column & np.uint64(0xFFFFFFFF))
        carry = column >> np.uint64(32)
    return limbs


def _add128(a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
    """``a + b`` mod 2**128 over four 32-bit limbs."""
    return _carry([x + y for x, y in zip(a, b)])


def _mul128(
    a: list[np.ndarray], constant: tuple[int, ...]
) -> list[np.ndarray]:
    """``a · constant`` mod 2**128 over four 32-bit limbs.

    Each limb product fits 64 bits; its halves go to two columns, so no
    column sums more than seven 32-bit values before the carry pass.
    """
    columns = [np.zeros_like(a[0]) for _ in range(4)]
    for i in range(4):
        for j in range(4 - i):
            product = a[i] * np.uint64(constant[j])
            columns[i + j] += product & np.uint64(0xFFFFFFFF)
            if i + j < 3:
                columns[i + j + 1] += product >> np.uint64(32)
    return _carry(columns)


def _limbs_to_ints(limbs: list[np.ndarray]) -> list[int]:
    low = (limbs[0] | (limbs[1] << np.uint64(32))).tolist()
    high = (limbs[2] | (limbs[3] << np.uint64(32))).tolist()
    return [(hi << 64) | lo for hi, lo in zip(high, low)]


def default_rng_stream(
    seeds: Sequence[int],
) -> Iterator[np.random.Generator]:
    """One generator, yielded once per seed in the state
    ``np.random.default_rng(seed)`` starts from.

    Every yield is the same :class:`numpy.random.Generator`, reseeded
    from :func:`default_rng_states`: draw from it before taking the
    next one.  Reseeding also clears PCG64's buffered half-word (an odd
    count of 32-bit draws leaves one), which a fresh generator does not
    have, so each stream draws exactly what ``default_rng(seed)`` would.
    """
    states = default_rng_states(seeds)
    rng = np.random.default_rng(0)
    bit_generator = rng.bit_generator
    for state, inc in states:
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def spawn_rngs(
    seed: int, count: int, *labels: object
) -> list[np.random.Generator]:
    """Create ``count`` independent deterministic generators.

    Each generator is seeded from :func:`derive_seed` with its index
    appended, so the list is reproducible and its members independent.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return [
        make_rng(derive_seed(seed, *labels, index)) for index in range(count)
    ]


def choice_seeded(
    rng: np.random.Generator, options: Sequence[object]
) -> object:
    """Pick one element of ``options`` uniformly (helper for tests)."""
    if not options:
        raise ValueError("cannot choose from an empty sequence")
    return options[int(rng.integers(0, len(options)))]


def shuffled(rng: np.random.Generator, items: Iterable[object]) -> list:
    """Return a new list with the elements of ``items`` shuffled."""
    result = list(items)
    rng.shuffle(result)
    return result
