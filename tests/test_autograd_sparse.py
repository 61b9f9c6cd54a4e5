"""Tests for sparse matmul primitives (gradients to dense AND edge weights)."""

import gc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import (Tensor, clear_sparse_caches, coo_from_scipy,
                            enable_primitive_profiling, gradcheck,
                            primitive_profile, reset_primitive_profile,
                            spmm, weighted_spmm)
from repro.autograd import sparse as sparse_mod


def dense_tensor(shape, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestSpmm:
    def test_forward_matches_dense(self):
        matrix = sp.random(6, 4, density=0.5, random_state=0, format="csr")
        x = dense_tensor((4, 3))
        out = spmm(matrix, x)
        np.testing.assert_allclose(out.data, matrix.toarray() @ x.data)

    def test_gradcheck(self):
        matrix = sp.random(5, 4, density=0.6, random_state=1, format="csr")
        assert gradcheck(lambda x: spmm(matrix, x).tanh().sum(),
                         [dense_tensor((4, 2))])

    def test_chained_propagation(self):
        # A(A(AX)) — the iterated power application used by mixhop
        matrix = sp.random(4, 4, density=0.7, random_state=2, format="csr")

        def fn(x):
            h = x
            for _ in range(3):
                h = spmm(matrix, h)
            return h.sum()

        assert gradcheck(fn, [dense_tensor((4, 2))])

    def test_empty_rows_ok(self):
        matrix = sp.csr_matrix((3, 3))
        x = dense_tensor((3, 2))
        out = spmm(matrix, x)
        np.testing.assert_allclose(out.data, np.zeros((3, 2)))


class TestWeightedSpmm:
    def _pattern(self):
        rows = np.array([0, 0, 1, 2, 3])
        cols = np.array([1, 2, 0, 3, 2])
        return rows, cols, (4, 4)

    def test_forward_matches_dense(self):
        rows, cols, shape = self._pattern()
        w = dense_tensor((5,), 3)
        x = dense_tensor((4, 2), 4)
        out = weighted_spmm(rows, cols, w, shape, x)
        dense = np.zeros(shape)
        dense[rows, cols] = w.data
        np.testing.assert_allclose(out.data, dense @ x.data)

    def test_grad_to_both_operands(self):
        rows, cols, shape = self._pattern()
        assert gradcheck(
            lambda w, x: weighted_spmm(rows, cols, w, shape, x)
            .sigmoid().sum(),
            [dense_tensor((5,), 5), dense_tensor((4, 3), 6)])

    def test_grad_weights_only(self):
        rows, cols, shape = self._pattern()
        x = Tensor(np.random.default_rng(7).normal(size=(4, 2)))
        assert gradcheck(
            lambda w: (weighted_spmm(rows, cols, w, shape, x) ** 2).sum(),
            [dense_tensor((5,), 8)])

    def test_duplicate_coordinates_sum(self):
        # scipy sums duplicate COO entries; gradient must follow suit
        rows = np.array([0, 0])
        cols = np.array([1, 1])
        w = dense_tensor((2,), 9)
        x = dense_tensor((2, 1), 10)
        out = weighted_spmm(rows, cols, w, (2, 2), x)
        expected = (w.data[0] + w.data[1]) * x.data[1]
        np.testing.assert_allclose(out.data[0], expected)
        assert gradcheck(
            lambda w, x: weighted_spmm(rows, cols, w, (2, 2), x).sum(),
            [w, x])

    def test_rejects_bad_values_shape(self):
        rows, cols, shape = self._pattern()
        with pytest.raises(ValueError):
            weighted_spmm(rows, cols, dense_tensor((5, 1)), shape,
                          dense_tensor((4, 2)))


class TestOperandCaches:
    def test_spmm_reuses_csr_and_transpose(self):
        clear_sparse_caches()
        matrix = sp.random(6, 6, density=0.4, random_state=11, format="csr")
        x = dense_tensor((6, 2), 11)
        first = sparse_mod._cached_csr_pair(matrix, x.data.dtype)
        spmm(matrix, x).sum().backward()
        second = sparse_mod._cached_csr_pair(matrix, x.data.dtype)
        assert first[0] is second[0] and first[1] is second[1]

    def test_spmm_cache_evicted_on_gc(self):
        clear_sparse_caches()
        matrix = sp.random(4, 4, density=0.5, random_state=12, format="csr")
        spmm(matrix, dense_tensor((4, 2), 12))
        assert len(sparse_mod._adjacency_cache) == 1
        del matrix
        gc.collect()
        assert len(sparse_mod._adjacency_cache) == 0

    def test_spmm_correct_after_matrix_identity_reuse(self):
        """A fresh matrix must never see a stale entry, even on id reuse."""
        clear_sparse_caches()
        for seed in range(5):
            matrix = sp.random(5, 5, density=0.5, random_state=seed,
                               format="csr")
            x = dense_tensor((5, 2), seed)
            np.testing.assert_allclose(spmm(matrix, x).data,
                                       matrix.toarray() @ x.data)

    def test_weighted_spmm_pattern_cached_across_calls(self):
        clear_sparse_caches()
        rows = np.array([0, 1, 2, 2])
        cols = np.array([1, 2, 0, 1])
        x = dense_tensor((3, 2), 13)
        for seed in (1, 2, 3):
            w = dense_tensor((4,), seed)
            out = weighted_spmm(rows, cols, w, (3, 3), x)
            dense = np.zeros((3, 3))
            dense[rows, cols] = w.data
            np.testing.assert_allclose(out.data, dense @ x.data)
        assert len(sparse_mod._pattern_cache) == 1

    def test_weighted_spmm_duplicate_pattern_not_structural(self):
        clear_sparse_caches()
        rows = np.array([0, 0])
        cols = np.array([1, 1])
        weighted_spmm(rows, cols, dense_tensor((2,), 14), (2, 2),
                      dense_tensor((2, 1), 14))
        (key,) = sparse_mod._pattern_cache
        assert sparse_mod._pattern_cache[key]["pattern"] is None

    def test_clear_sparse_caches(self):
        matrix = sp.random(3, 3, density=0.5, random_state=15, format="csr")
        spmm(matrix, dense_tensor((3, 1), 15))
        assert len(sparse_mod._adjacency_cache) >= 1
        clear_sparse_caches()
        assert len(sparse_mod._adjacency_cache) == 0
        assert len(sparse_mod._pattern_cache) == 0


class TestSpmmProfiling:
    def test_counters_accumulate_when_enabled(self):
        matrix = sp.random(4, 4, density=0.5, random_state=16, format="csr")
        reset_primitive_profile()
        enable_primitive_profiling(True)
        try:
            spmm(matrix, dense_tensor((4, 2), 16)).sum().backward()
        finally:
            enable_primitive_profiling(False)
        profile = primitive_profile()["spmm"]
        assert profile["calls"] == 2  # forward + backward
        assert profile["seconds"] >= 0.0

    def test_disabled_by_default(self):
        matrix = sp.random(4, 4, density=0.5, random_state=17, format="csr")
        reset_primitive_profile()
        spmm(matrix, dense_tensor((4, 2), 17))
        assert "spmm" not in primitive_profile()


class TestCooFromScipy:
    def test_roundtrip(self):
        matrix = sp.random(5, 6, density=0.4, random_state=3, format="csr")
        rows, cols, vals, shape = coo_from_scipy(matrix)
        rebuilt = sp.csr_matrix((vals, (rows, cols)), shape=shape)
        np.testing.assert_allclose(rebuilt.toarray(), matrix.toarray())
