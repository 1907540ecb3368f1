import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from martprop.rng import (JUMP_STREAM, MAIN_STREAM, normal_block,
                          path_generator, uniform_block)


def test_same_key_same_stream():
    a = path_generator(42, 7).standard_normal(16)
    b = path_generator(42, 7).standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_distinct_paths_distinct_streams():
    a = path_generator(42, 0).standard_normal(16)
    b = path_generator(42, 1).standard_normal(16)
    assert not np.array_equal(a, b)


def test_distinct_seeds_distinct_streams():
    a = path_generator(1, 0).standard_normal(16)
    b = path_generator(2, 0).standard_normal(16)
    assert not np.array_equal(a, b)


def test_named_streams_are_independent():
    a = path_generator(42, 0, stream=MAIN_STREAM).standard_normal(16)
    b = path_generator(42, 0, stream=JUMP_STREAM).standard_normal(16)
    assert not np.array_equal(a, b)


def test_index_bound():
    with pytest.raises(Exception):
        path_generator(0, 2 ** 48)


@pytest.mark.parametrize("seed", [0, 42, 2 ** 63 + 12345])
# stream 1 is named by no engine: any id keys a stream the same way
@pytest.mark.parametrize("stream", [MAIN_STREAM, 1])
def test_normal_block_rows_are_path_streams(seed, stream):
    indices = [0, 5, 2 ** 48 - 2, 2 ** 48 - 1]
    block = normal_block(seed, indices, 23, stream)
    assert block.shape == (len(indices), 23)
    for row, index in enumerate(indices):
        np.testing.assert_array_equal(
            block[row],
            path_generator(seed, index, stream).standard_normal(23))


@pytest.mark.parametrize("seed", [0, 42, 2 ** 63 + 12345])
@pytest.mark.parametrize("stream", [MAIN_STREAM, JUMP_STREAM])
def test_uniform_block_rows_are_path_streams(seed, stream):
    indices = [0, 5, 2 ** 48 - 2, 2 ** 48 - 1]
    block = uniform_block(seed, indices, 23, stream)
    assert block.shape == (len(indices), 23)
    for row, index in enumerate(indices):
        np.testing.assert_array_equal(
            block[row], path_generator(seed, index, stream).random(23))


@pytest.mark.parametrize("index", [-1, 2 ** 48])
def test_normal_block_index_bound(index):
    with pytest.raises(ValueError):
        normal_block(0, [3, index], 4)


def test_normal_block_threads_match_serial():
    # more threads than cores, switching often: each block equals its
    # serial draw
    blocks = [np.arange(50 * i, 50 * i + 50) for i in range(6)]
    expected = [normal_block(7, idx, 33) for idx in blocks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
            futures = [pool.submit(normal_block, 7, idx, 33)
                       for idx in blocks]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(results, expected):
        np.testing.assert_array_equal(got, want)
