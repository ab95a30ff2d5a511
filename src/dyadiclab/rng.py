"""Seeded, splittable random number generation.

Every stochastic routine derives its own counter-based Philox substream
keyed by (seed, *labels), so results are reproducible across runs and
independent of evaluation order or thread count.

The streams are pinned to NumPy's `SeedSequence` hash (NEP 19) and its
`Philox`: a stream is `Philox(SeedSequence([seed, *label ints]))`, which
is fixed by the key `SeedSequence(...).generate_state(2, uint64)` and a
zero counter.  `substreams` computes those keys for many label rows at
once and re-keys one `Philox`, drawing exactly what `substream` draws;
`array_substreams` does the same for rows of integer labels held in one
array, with one seed per group of rows.  Both pack their rows into one
uint64 array for `_pack_keys`.
`tests/test_rng.py::test_pinned_key` guards the pin: it fails loudly if
a NumPy release changes its seeding.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

_MASK = (1 << 63) - 1
_MASK32 = 0xFFFFFFFF
_STRING_INTS = {}  # str label -> its 63-bit int; only strings, since 1 == 1.0 == True


def _label_int(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK
    if type(label) is str:
        value = _STRING_INTS.get(label)
        if value is None:
            value = _STRING_INTS[label] = _hash_string(label)
        return value
    return _hash_string(str(label))


def _hash_string(text: str) -> int:
    digest = hashlib.blake2s(text.encode()).digest()
    return int.from_bytes(digest[:8], "little") & _MASK


def substream(seed: int, *labels) -> np.random.Generator:
    """Generator for the operation identified by `labels` under `seed`."""
    entropy = [int(seed) & _MASK] + [_label_int(lab) for lab in labels]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


# -- the SeedSequence hash on arrays ----------------------------------------------
# NumPy's constants for a pool of four uint32 words; see numpy/random/bit_generator.pyx.

_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_OTHERS = [[i for i in range(_POOL) if i != src] for src in range(_POOL)]


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(count)],
                    dtype=np.uint32)


@functools.lru_cache(maxsize=None)
def _hash_a(count: int) -> np.ndarray:
    """The hash constants of the first `count` hashmix calls, and one more."""
    return _powers(_INIT_A, _MULT_A, count + 1)


_HASH_B = _powers(_INIT_B, _MULT_B, _POOL + 1)  # generate_state's output constants


def _hashmix(value, xor, mul):
    value = (value ^ xor) * mul
    return value ^ (value >> _SHIFT)


def _mix(x, y):
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> _SHIFT)


def _keys(words: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Philox keys `SeedSequence(words[r, :count[r]]).generate_state(2, uint64)`
    of each row r of `words`, a (rows, n) uint32 array, zero after each row's
    `count[r] >= 1` entropy words.

    The four pool words are the columns of one array.  Every step of NumPy's
    mixing hashes one word against consecutive constants for several pool
    words at once, so each step is one array expression over those columns.
    A pool word past the entropy hashes a zero, which the padding supplies;
    a word past it in the tail is not mixed in.
    """
    n = words.shape[1]
    consts = _hash_a(_POOL * _POOL + _POOL * max(n - _POOL, 0))
    pool = np.zeros((len(words), _POOL), dtype=np.uint32)
    pool[:, :min(n, _POOL)] = words[:, :_POOL]
    pool = _hashmix(pool, consts[:_POOL], consts[1:_POOL + 1])
    for src, dst in enumerate(_OTHERS):
        k = _POOL + (_POOL - 1) * src  # after 4 pool hashes, 3 per source word
        hashed = _hashmix(pool[:, src, None], consts[k:k + 3], consts[k + 1:k + 4])
        pool[:, dst] = _mix(pool[:, dst], hashed)
    for src in range(_POOL, n):
        k = _POOL * src  # after 4 pool and 12 mixing hashes, 4 per tail word
        hashed = _hashmix(words[:, src, None], consts[k:k + 4], consts[k + 1:k + 5])
        pool = np.where((count > src)[:, None], _mix(pool, hashed), pool)
    state = _hashmix(pool, _HASH_B[:-1], _HASH_B[1:]).astype(np.uint64)
    return state[:, 0::2] | (state[:, 1::2] << np.uint64(32))


def _pack_keys(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(rows, 2) uint64 Philox keys of `SeedSequence(values[r, :lengths[r]])` for
    each row r of `values`, a (rows, width) uint64 array of 63-bit ints.

    SeedSequence makes one uint32 word of an int below 2^32 and two of a
    larger one; each row's words are packed to the left of one array.
    """
    rows, width = values.shape
    high = values >> np.uint64(32)
    # low and high word of each int, and which of them SeedSequence keeps
    words = np.stack([values & np.uint64(_MASK32), high], axis=2).reshape(rows, 2 * width)
    kept = np.stack([np.arange(width) < lengths[:, None], high != 0],
                    axis=2).reshape(rows, 2 * width)
    count = kept.sum(axis=1)
    packed = np.zeros((rows, int(count.max(initial=1))), dtype=np.uint32)
    packed[np.nonzero(kept)[0], np.cumsum(kept, axis=1)[kept] - 1] = words[kept]
    return _keys(packed, count)


def _substream_keys(seed: int, label_rows) -> np.ndarray:
    """(rows, 2) uint64 Philox keys of `substream(seed, *row)` for each row."""
    seed = int(seed) & _MASK
    rows = [[seed, *map(_label_int, row)] for row in label_rows]
    lengths = np.array([len(ints) for ints in rows], dtype=np.intp)
    width = int(lengths.max(initial=1))
    values = np.array([ints + [0] * (width - len(ints)) for ints in rows],
                      dtype=np.uint64).reshape(len(rows), width)
    return _pack_keys(values, lengths)


def _array_keys(seeds, labels: tuple, ints: np.ndarray, counts) -> np.ndarray:
    """(rows, 2) uint64 Philox keys of `substream(seed, *labels, *row)` for each
    row of the (rows, k) integer array `ints`, masked to 63 bits as arrays,
    where the first counts[0] rows key on seeds[0], the next counts[1] on
    seeds[1], and so on."""
    ints = np.asarray(ints, dtype=np.int64)
    head = list(map(_label_int, labels))
    values = np.empty((len(ints), 1 + len(head) + ints.shape[1]), dtype=np.uint64)
    values[:, 0] = np.repeat(np.array([int(s) & _MASK for s in seeds], dtype=np.uint64), counts)
    values[:, 1:1 + len(head)] = head
    values[:, 1 + len(head):] = ints & _MASK
    return _pack_keys(values, np.full(len(ints), values.shape[1], dtype=np.intp))


def _rekeyed(keys: np.ndarray):
    """One Philox generator, re-keyed to each key in turn and yielded.

    The state holds Python ints, which the setter reads faster than numpy
    scalars: the key as a list, the zero counter and buffer as tuples."""
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bits)
    zero = (0, 0, 0, 0)
    inner = {"counter": zero, "key": None}
    state = {"bit_generator": "Philox", "state": inner, "buffer": zero, "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for key in keys.tolist():
        inner["key"] = key
        bits.state = state
        yield gen


def substreams(seed: int, label_rows):
    """For each row, a generator that draws exactly what `substream(seed, *row)`
    draws, keyed for all rows at once.

    One Philox generator is re-keyed and yielded for every row, so a caller
    must finish drawing from one row before taking the next; the generator
    must not be kept.
    """
    return _rekeyed(_substream_keys(seed, label_rows))


def array_substreams(seeds, labels: tuple, ints, counts):
    """`substreams` of the rows `(*labels, *row)` for each row of the (rows, k)
    integer array `ints`: the shared labels are hashed once and the integer
    labels are keyed as one array, with no label tuple per row.

    `seeds` holds one seed per group of consecutive rows: group g is the next
    counts[g] rows, and draws what `substream(seeds[g], *labels, *row)` draws."""
    return _rekeyed(_array_keys(seeds, labels, ints, counts))
