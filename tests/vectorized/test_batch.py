"""Structure-of-arrays particle batch container."""

import numpy as np
import pytest

from repro.errors import InferenceError
from repro.vectorized import ParticleBatch, batch_state_words, gather


class TestGather:
    def test_array_leaf(self):
        state = np.array([10.0, 11.0, 12.0])
        out = gather(state, np.array([2, 0, 2]))
        assert np.array_equal(out, [12.0, 10.0, 12.0])

    def test_none_passthrough(self):
        assert gather(None, np.array([0, 1])) is None

    def test_nested_pytree(self):
        state = (np.arange(4.0), {"p": np.arange(4.0) * 2}, [None])
        out = gather(state, np.array([3, 1]))
        assert np.array_equal(out[0], [3.0, 1.0])
        assert np.array_equal(out[1]["p"], [6.0, 2.0])
        assert out[2] == [None]

    def test_matrix_leaf_gathers_rows(self):
        state = np.arange(6.0).reshape(3, 2)
        out = gather(state, np.array([0, 0, 2]))
        assert out.shape == (3, 2)
        assert np.array_equal(out[0], out[1])

    def test_gather_copies_storage(self):
        state = np.array([1.0, 2.0])
        out = gather(state, np.array([0, 0]))
        out[0] = 99.0
        assert state[0] == 1.0  # source untouched
        assert out[1] == 1.0  # duplicated rows do not alias each other

    def test_bad_leaf_rejected(self):
        with pytest.raises(InferenceError):
            gather(object(), np.array([0]))


class TestParticleBatch:
    def test_n_from_log_weights(self):
        batch = ParticleBatch(np.zeros(5), np.zeros(5))
        assert batch.n == 5

    def test_empty_weights_rejected(self):
        with pytest.raises(InferenceError):
            ParticleBatch(None, np.array([]))

    def test_memory_words_counts_state_and_weights(self):
        batch = ParticleBatch((np.zeros(4), np.zeros(4)), np.zeros(4))
        # tuple header + two arrays (1+4 each) + weight vector (1+4)
        assert batch.memory_words() == 1 + 5 + 5 + 5


class TestBatchStateWords:
    def test_none_is_one_word(self):
        assert batch_state_words(None) == 1

    def test_array_counts_size(self):
        assert batch_state_words(np.zeros((2, 3))) == 7

    def test_dict_counts_values(self):
        assert batch_state_words({"a": np.zeros(2)}) == 1 + 3
