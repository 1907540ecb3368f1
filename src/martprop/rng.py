"""Counter-based random streams for reproducible parallel Monte Carlo.

Every path owns an independent Philox stream keyed by (seed, stream,
path index), so a path is a pure function of its index: results are
bit-identical regardless of chunking, worker count, or scheduling.  A
small stream id carves out an auxiliary per-path stream (the jump kit's
uniforms) without disturbing the main one.

`normal_block` and `uniform_block` draw the normals or uniforms of a
whole chunk of paths in one batch; their rows are bit-identical to the
per-path streams that `path_generator` opens.  Every engine draws this
way: the diffusion engine d normals per step, the jump kit one normal
per step, and the Hilbert kit K per step (a row of (T-1)*K, step by
step, mode by mode).  No engine calls `path_generator`; it is left to
reference computations.
"""

from __future__ import annotations

import threading

import numpy as np

_STREAM_SHIFT = 48
_MAX_INDEX = 1 << _STREAM_SHIFT
_SEED_MASK = 0xFFFFFFFFFFFFFFFF

MAIN_STREAM = 0
# id 1 is unused; renumbering JUMP_STREAM would change every jump draw
# and report
JUMP_STREAM = 2

# a block hands the interpreter lock over once per row, so blocks
# drawn in several threads at once only trade it back and forth: they queue
_BLOCK_LOCK = threading.Lock()


def path_generator(seed: int, path_index: int,
                   stream: int = MAIN_STREAM) -> np.random.Generator:
    """Independent generator for one (seed, path, stream) triple."""
    if not 0 <= path_index < _MAX_INDEX:
        raise ValueError(f"path index {path_index} out of range")
    key = [np.uint64(seed & _SEED_MASK),
           np.uint64((stream << _STREAM_SHIFT) | path_index)]
    return np.random.Generator(np.random.Philox(key=key))


def normal_block(seed: int, indices, count: int,
                 stream: int = MAIN_STREAM) -> np.ndarray:
    """Standard normals of shape (len(indices), count), one row per path.

    Row r is bit-identical to
    ``path_generator(seed, indices[r], stream).standard_normal(count)``.
    """
    return _block(seed, indices, count, stream, "standard_normal")


def uniform_block(seed: int, indices, count: int,
                  stream: int = JUMP_STREAM) -> np.ndarray:
    """Uniforms in [0, 1) of shape (len(indices), count), one row per path.

    Row r is bit-identical to
    ``path_generator(seed, indices[r], stream).random(count)``.
    """
    return _block(seed, indices, count, stream, "random")


def _block(seed, indices, count, stream, method):
    """One Philox bit generator is re-keyed per row through its state,
    with the counter and buffer of a freshly keyed Philox, so no
    generator is built and no OS entropy is read per path."""
    indices = np.asarray(indices, dtype=np.int64)
    bad = indices[(indices < 0) | (indices >= _MAX_INDEX)]
    if bad.size:
        raise ValueError(f"path index {int(bad[0])} out of range")
    out = np.empty((indices.size, count))
    bitgen = np.random.Philox(0)
    fill = getattr(np.random.Generator(bitgen), method)
    # plain lists: the state setter reads them faster than arrays
    key = [seed & _SEED_MASK, 0]
    fresh = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0],
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    high = stream << _STREAM_SHIFT
    with _BLOCK_LOCK:
        for row, index in enumerate(indices.tolist()):
            key[1] = high | index
            bitgen.state = fresh
            fill(out=out[row])
    return out
