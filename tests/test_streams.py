"""``streams.Streams`` against numpy's own ``SeedSequence`` + ``PCG64``: the
same state for every entropy, and the same values from every draw that
ilrkit's callers make, also right after a stream that left a 32-bit half
buffered; entropy the array path does not cover gets numpy's own stream
or error."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ilrkit
from ilrkit.streams import Streams

_EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**100]
_VALUES = st.one_of(st.sampled_from(_EDGES), st.integers(0, 2**100))


def _draws(rng: np.random.Generator) -> bytes:
    """The bytes of the draws of synthgen and dataengine: normals into
    buffers and as new arrays, bounded integers, a float, a choice without
    replacement and a permutation."""
    eps, noise = np.empty(8), np.empty((3, 4))
    rng.standard_normal(out=eps)
    rng.standard_normal(out=noise)
    draws = [eps, noise, rng.standard_normal((2, 3)), rng.integers(1000), rng.random(),
             rng.choice(50, size=4, replace=False), rng.permutation(6), rng.integers(7)]
    return b"".join(np.asarray(draw).tobytes() for draw in draws)


def _assert_numpy_streams(entropies) -> None:
    streams = Streams(entropies)
    for i, entropy in enumerate(entropies):
        want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        got = streams[i]
        assert got.bit_generator.state == want.bit_generator.state, entropy
        assert _draws(got) == _draws(want), entropy
        if not want.bit_generator.state["has_uint32"]:
            assert got.integers(7) == want.integers(7)
        # the next stream starts right after a buffered 32-bit half
        assert got.bit_generator.state == want.bit_generator.state
        assert want.bit_generator.state["has_uint32"] == 1


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(entropies=st.lists(st.lists(_VALUES, min_size=1, max_size=6), min_size=1, max_size=8))
def test_streams_are_numpys(entropies):
    _assert_numpy_streams(entropies)


def test_fixed_lists_are_numpys():
    # 10,000 lists of 1-6 ints of 0-100 bits, in one call: every word count
    # from 1 to 24, so every hash width from the pool's 4 up
    rng = np.random.default_rng(2024)
    entropies = [
        [int(rng.integers(2**62)) >> int(rng.integers(63)) << int(rng.integers(39))
         for _ in range(rng.integers(1, 7))]
        for _ in range(10_000)
    ]
    entropies[:len(_EDGES)] = [[value] for value in _EDGES]
    _assert_numpy_streams(entropies)


@pytest.mark.parametrize("entropy", [
    [], [0, 0, 0, 0, 0], [7, 2**64 - 1], [np.uint64(2**63), 5], [True, 3], ["7", 1], (4, 2**40),
])
def test_edge_entropies_are_numpys(entropy):
    _assert_numpy_streams([[1, 2], entropy, [3]])


@pytest.mark.parametrize("entropy", [[-1], [5, -(2**40)], [1.5], [None]])
def test_numpys_error_when_the_stream_is_taken(entropy):
    with pytest.raises(Exception) as want:
        np.random.SeedSequence(entropy)
    streams = Streams([[1], entropy, [2]])
    assert streams[0].bit_generator.state == np.random.PCG64(1).state
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        streams[1]
    assert streams[2].bit_generator.state == np.random.PCG64(np.random.SeedSequence([2])).state


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # a command that draws nothing does not pay for numpy.random's import
    src = os.path.dirname(os.path.dirname(ilrkit.__file__))
    code = "import sys, ilrkit.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "False"
