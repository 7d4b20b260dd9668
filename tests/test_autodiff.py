"""Tests for the reverse-mode tape and its primitives.

Analytic gradients are checked two ways: against hand-derived closed forms
for small fixed cases, and against central finite differences on random
inputs. Expected constants below were computed once by hand or with an
independent script and are frozen here.
"""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from aspectcrf import autodiff as ad
from aspectcrf.autodiff import (
    DimensionError,
    NonFiniteError,
    Tape,
    Tensor,
)
from reference import (
    clamp_min,
    dense_gather_rows,
    exp,
    grad_check,
    index,
    log,
    log_sum_exp,
    mean,
    reduce_sum,
    sigmoid,
    softmax,
    taped_nll,
    tanh,
)


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product, independent of numpy's dot."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def fd_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f(x)
        flat[i] = orig - eps
        down = f(x)
        flat[i] = orig
        gf[i] = (up - down) / (2 * eps)
    return g


class TestForwardValues:
    def test_log_sum_exp_two_zeros_is_ln2(self):
        out = log_sum_exp(Tensor([0.0, 0.0]))
        npt.assert_allclose(out.item(), np.log(2.0), rtol=0, atol=1e-15)

    def test_log_sum_exp_overflow_guard(self):
        out = log_sum_exp(Tensor([1000.0, 1000.0]))
        npt.assert_allclose(out.item(), 1000.0 + np.log(2.0), rtol=0, atol=1e-12)

    def test_log_sum_exp_single_element_exact(self):
        out = log_sum_exp(Tensor([3.25]))
        assert out.item() == 3.25

    def test_log_sum_exp_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.normal(size=rng.integers(1, 9))
            out = log_sum_exp(Tensor(x))
            npt.assert_allclose(out.item(), np.log(np.exp(x).sum()), rtol=1e-12)

    def test_log_sum_exp_axis(self):
        x = np.array([[0.0, 0.0], [1.0, 2.0]])
        out = log_sum_exp(Tensor(x), axis=1)
        expected = np.array([np.log(2.0), np.log(np.e + np.e**2)])
        npt.assert_allclose(out.numpy(), expected, rtol=1e-12)

    def test_softmax_uniform_on_equal_scores(self):
        out = softmax(Tensor([5.0, 5.0, 5.0, 5.0]))
        npt.assert_allclose(out.numpy(), np.full(4, 0.25), rtol=0, atol=1e-15)

    def test_softmax_shift_invariance_and_normalization(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.normal(size=6)
            a = softmax(Tensor(x)).numpy()
            b = softmax(Tensor(x + 123.0)).numpy()
            npt.assert_allclose(a, b, rtol=1e-12)
            npt.assert_allclose(a.sum(), 1.0, rtol=1e-12)
            assert (a > 0).all()

    def test_sigmoid_midpoint(self):
        assert sigmoid(Tensor([0.0])).numpy()[0] == 0.5

    def test_matmul_against_triple_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, k, m = rng.integers(1, 6, size=3)
            a = rng.normal(size=(n, k))
            b = rng.normal(size=(k, m))
            out = ad.matmul(Tensor(a), Tensor(b))
            npt.assert_allclose(out.numpy(), matmul_oracle(a, b), rtol=1e-13)

    def test_matmul_vector_promotion(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        v = np.array([5.0, 6.0])
        npt.assert_allclose(ad.matmul(Tensor(a), Tensor(v)).numpy(), a @ v)
        npt.assert_allclose(ad.matmul(Tensor(v), Tensor(a)).numpy(), v @ a)

    def test_matmul_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_concat_split_round_trip(self):
        rng = np.random.default_rng(5)
        parts = [rng.normal(size=(k, 3)) for k in (1, 4, 2)]
        joined = ad.concat([Tensor(p) for p in parts], axis=0)
        npt.assert_array_equal(joined.numpy(), np.concatenate(parts, axis=0))

    def test_clamp_min_values(self):
        out = clamp_min(Tensor([-1.0, 0.5, 2.0]), 0.5)
        npt.assert_array_equal(out.numpy(), [0.5, 0.5, 2.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_forward_rejected(self):
        x = Tensor([710.0])  # exp overflows float64
        with pytest.raises(NonFiniteError):
            exp(x)
        with pytest.raises(NonFiniteError):
            Tensor([np.inf])
        with pytest.raises(NonFiniteError):
            Tensor(np.nan)  # 0-d
        with pytest.raises(NonFiniteError):
            Tensor([1e308, np.nan, -1e308])  # a NaN among entries whose sum overflows
        with pytest.raises(NonFiniteError):
            Tensor([1e308, 1e308, -np.inf])
        # finite entries whose sum overflows float64 are still finite
        npt.assert_array_equal(Tensor([1e308, 1e308]).numpy(), [1e308, 1e308])
        npt.assert_array_equal(ad.mul(Tensor([1e308, 1.0]), Tensor([1.0, 1e308])).numpy(), [1e308, 1e308])
        with pytest.raises(NonFiniteError, match="operation log"):
            with np.errstate(invalid="ignore"):
                log(Tensor([[1.0, 2.0], [-1.0, 3.0]]))  # one NaN in a 2-D output
        # finite forward (log of a subnormal is about -737), but d log x / dx = 1/x
        # overflows, so the check on the way into the gradient accumulator fires
        x = Tensor([1e-320, 1.0], requires_grad=True, name="x")
        with Tape() as tape:
            loss = reduce_sum(log(x))
            with pytest.raises(NonFiniteError, match="gradient flowing into x"):
                with np.errstate(over="ignore"):
                    tape.backward(loss)

    def test_dropout_identity_at_zero(self):
        rng = np.random.default_rng(0)
        (mask,) = ad.dropout_masks([50], (1,), 0.0, rng)
        npt.assert_array_equal(mask.numpy(), np.ones((50, 1)))

    def test_dropout_scale(self):
        rng = np.random.default_rng(0)
        (mask,) = ad.dropout_masks([10000], (1,), 0.4, rng)
        assert set(np.unique(mask.numpy())) <= {0.0, 1.0 / 0.6}
        npt.assert_allclose(mask.numpy().mean(), 1.0, atol=0.05)

    def test_dropout_draws_sentence_by_sentence(self):
        # sentence 0's rows of both masks, then sentence 1's, as forwarding
        # the sentences one at a time draws them
        (a, b), rng = ad.dropout_masks([2, 3], (4, 1), 0.5, np.random.default_rng(1)), np.random.default_rng(1)
        first = [rng.random((2, 4)), rng.random((2, 1))]
        second = [rng.random((3, 4)), rng.random((3, 1))]
        for mask, parts in ((a, (first[0], second[0])), (b, (first[1], second[1]))):
            npt.assert_array_equal(mask.numpy(), (np.concatenate(parts) >= 0.5) / 0.5)


class TestBackward:
    def test_quadratic_gradient_exact(self):
        # d/dx sum(x*x) = 2x, checked to near machine precision
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True, name="x")
        report = grad_check(lambda: reduce_sum(ad.mul(x, x)), [x], epsilon=1e-5, tolerance=1e-8)
        assert report.passed, report.failures
        assert report.num_coordinates == 3

    def test_constant_function_zero_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True, name="x")
        c = Tensor([4.0])
        with Tape() as tape:
            loss = reduce_sum(ad.mul(c, c))
            tape.backward(loss)
        assert x.grad is None

    @pytest.mark.parametrize(
        "op",
        [sigmoid, tanh, exp, softmax, lambda t: log_sum_exp(t), lambda t: clamp_min(t, -0.5)],
        ids=["sigmoid", "tanh", "exp", "softmax", "lse", "clamp_min"],
    )
    def test_elementwise_ops_match_finite_differences(self, op):
        # weighting the output keeps the check meaningful for softmax,
        # whose unweighted sum is the constant 1
        rng = np.random.default_rng(13)
        w = Tensor(rng.normal(size=5))
        for _ in range(25):
            x = Tensor(rng.uniform(-2.0, 2.0, size=5), requires_grad=True, name="x")
            report = grad_check(lambda: reduce_sum(ad.mul(op(x), w)), [x], epsilon=1e-5, tolerance=1e-5)
            assert report.passed, report.failures

    def test_log_positive_domain(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            x = Tensor(rng.uniform(0.5, 3.0, size=4), requires_grad=True, name="x")
            report = grad_check(lambda: reduce_sum(log(x)), [x], epsilon=1e-5, tolerance=1e-6)
            assert report.passed, report.failures

    def test_matmul_gradients(self):
        rng = np.random.default_rng(19)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True, name="a")
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True, name="b")
        report = grad_check(lambda: reduce_sum(ad.matmul(a, b)), [a, b], tolerance=1e-6)
        assert report.passed, report.failures

    def test_gather_rows_scatter_add(self):
        # duplicate indices must accumulate, not overwrite
        table = Tensor(np.arange(6, dtype=float).reshape(3, 2), requires_grad=True, name="table")
        with Tape() as tape:
            picked = ad.gather_rows(table, [0, 2, 0])
            loss = reduce_sum(picked)
            tape.backward(loss)
        npt.assert_array_equal(table.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_index_and_concat_gradients(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True, name="x")
        y = Tensor(rng.normal(size=(2, 3)), requires_grad=True, name="y")

        def f():
            joined = ad.concat([x, y], axis=0)
            return reduce_sum(ad.mul(index(joined, slice(1, 5)), index(joined, slice(1, 5))))

        report = grad_check(f, [x, y], tolerance=1e-6)
        assert report.passed, report.failures

    def test_stack_gradients(self):
        # vectors stack into rows, matrices into a 3-D tensor
        rng = np.random.default_rng(29)
        for shape in ((3,), (2, 2)):
            parts = [Tensor(rng.normal(size=shape), requires_grad=True, name=f"p{i}") for i in range(4)]
            stacked = ad.stack(parts)
            npt.assert_array_equal(stacked.numpy(), np.stack([p.data for p in parts]))
            report = grad_check(lambda: reduce_sum(tanh(ad.stack(parts))), parts, tolerance=1e-6)
            assert report.passed, report.failures

    def test_broadcast_add_unbroadcasts_grad(self):
        m = Tensor(np.ones((3, 4)), requires_grad=True, name="m")
        bias = Tensor(np.ones(4), requires_grad=True, name="bias")
        with Tape() as tape:
            loss = reduce_sum(ad.add(m, bias))
            tape.backward(loss)
        npt.assert_array_equal(m.grad, np.ones((3, 4)))
        npt.assert_array_equal(bias.grad, np.full(4, 3.0))

    @pytest.mark.parametrize("op", [ad.add, ad.mul])
    @pytest.mark.parametrize("constant_first", [False, True])
    def test_constant_operand_forms_no_gradient_term(self, op, constant_first):
        rng = np.random.default_rng(53)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True, name="x")
        c = Tensor(rng.normal(size=4) * 1e3)  # broadcast, like a mask or decay factor
        upstream = rng.normal(size=(3, 4))
        with Tape() as tape:
            out = op(c, x) if constant_first else op(x, c)
            (_, adjoint), = tape._entries
        c_data, x_data = c.data, x.data
        # mul's adjoint would need x to form the constant's term g * x
        x.data = np.full(x.shape, None, dtype=object)
        adjoint(upstream)
        assert c.grad is None
        expected = upstream if op is ad.add else upstream * c_data
        npt.assert_array_equal(x.grad, expected)
        npt.assert_array_equal(out.data, x_data + c_data if op is ad.add else x_data * c_data)

    def test_transpose_value_and_gradient(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True, name="a")
        w = Tensor(np.arange(6.0).reshape(3, 2) * 0.5)
        with Tape() as tape:
            out = ad.transpose(a)
            tape.backward(reduce_sum(ad.mul(out, w)))
        npt.assert_array_equal(out.numpy(), a.data.T)
        npt.assert_array_equal(a.grad, w.data.T)
        with pytest.raises(ad.DimensionError):
            ad.transpose(Tensor(np.zeros(3)))

    def test_mean_gradient(self):
        x = Tensor([2.0, 4.0, 6.0, 8.0], requires_grad=True, name="x")
        with Tape() as tape:
            tape.backward(mean(x))
        npt.assert_allclose(x.grad, np.full(4, 0.25), rtol=1e-15)

    def test_second_backward_independent(self):
        # gradients accumulate within a tape but zero_grad resets cleanly
        x = Tensor([3.0], requires_grad=True, name="x")
        for _ in range(2):
            x.zero_grad()
            with Tape() as tape:
                tape.backward(reduce_sum(ad.mul(x, x)))
            npt.assert_allclose(x.grad, [6.0])

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = ad.mul(x, x)
            with pytest.raises(DimensionError):
                tape.backward(y)

    def test_no_tape_records_nothing(self):
        x = Tensor([1.0], requires_grad=True)
        y = ad.mul(x, x)
        assert y.requires_grad
        with Tape() as tape:
            pass
        assert len(tape) == 0


def add_at_gather_rows(a: Tensor, indices) -> Tensor:
    """gather_rows with the row-sparse adjoint before the sorted scatter:
    np.unique plus one np.add.at into a k x d block."""
    idx = np.asarray(indices, dtype=np.intp)
    out_data = a.data[idx]

    def backward(g):
        ids, slot = np.unique(idx.reshape(-1) % a.shape[0], return_inverse=True)
        rows = np.zeros((ids.size, a.shape[1]))
        np.add.at(rows, slot, g.reshape(-1, a.shape[1]))
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[ids] += rows

    return ad._make(out_data, (a,), backward, "gather_rows")


class TestSparseGatherRows:
    """The row-sparse adjoint against the dense |V| x d scatter it replaced."""

    @staticmethod
    def table_grads(gather, table_data, calls, weights, dense=None, grad=None):
        """Gradients of sum_k <weights[k], gather(table, calls[k])>, plus an
        optional <dense[1], table @ dense[0]> term recorded between the gathers,
        added to ``grad`` when the table already holds one."""
        table = Tensor(table_data, requires_grad=True, name="table")
        table.grad = None if grad is None else grad.copy()
        with Tape() as tape:
            terms = []
            for k, (ids, w) in enumerate(zip(calls, weights)):
                if dense is not None and k == len(calls) // 2:
                    terms.append(reduce_sum(ad.mul(ad.matmul(table, Tensor(dense[0])), dense[1])))
                terms.append(reduce_sum(ad.mul(gather(table, ids), w)))
            loss = terms[0]
            for term in terms[1:]:
                loss = ad.add(loss, term)
            tape.backward(loss)
        return table.grad

    def assert_matches_dense(self, table_data, calls, weights, dense=None, grad=None):
        sparse = self.table_grads(ad.gather_rows, table_data, calls, weights, dense, grad)
        for gather in (dense_gather_rows, add_at_gather_rows):
            reference = self.table_grads(gather, table_data, calls, weights, dense, grad)
            npt.assert_array_equal(sparse, reference)

    SCATTER_CASES = ("d1", "d300", "one_id_500_times", "negative_ids", "all_distinct", "grad_already_held")

    @pytest.mark.parametrize("case", SCATTER_CASES)
    def test_sorted_scatter_bit_for_bit(self, case):
        rng = np.random.default_rng(self.SCATTER_CASES.index(case))
        rows, d, n = 30, {"d1": 1, "d300": 300}.get(case, 5), 200
        ids = rng.integers(0, rows, size=n)
        scale = 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        grad = None
        if case == "one_id_500_times":
            # signs and magnitudes from 1e-8 to 1e8 on one row: a pairwise or
            # blocked sum gives other bits than position order
            ids = np.r_[np.full(500, 7), ids]
            rng.shuffle(ids)
            n = ids.size
            scale = 10.0 ** rng.uniform(-8, 8, size=(n, d))
        elif case == "negative_ids":
            ids = np.where(rng.random(n) < 0.5, ids - rows, ids)
        elif case == "all_distinct":
            ids = rng.permutation(rows)[:25]
            n, scale = 25, 1.0
        elif case == "grad_already_held":
            grad = rng.normal(size=(rows, d))
        weights = rng.normal(size=(n, d)) * scale
        self.assert_matches_dense(rng.normal(size=(rows, d)), [ids], [weights], grad=grad)

    def test_repeated_ids_in_one_call(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            # negative ids select the same rows as their positive aliases
            ids = rng.integers(-9, 9, size=12)
            ids[:2] = -1, 8
            self.assert_matches_dense(rng.normal(size=(9, 4)), [ids], [rng.normal(size=(12, 4))])

    def test_many_calls_on_one_table(self):
        # one gather per instance of a 64-instance batch, ids shared across calls
        rng = np.random.default_rng(37)
        lengths = rng.integers(1, 20, size=64)
        calls = [rng.integers(0, 40, size=n) for n in lengths]
        weights = [rng.normal(size=(n, 6)) * rng.uniform(1e-3, 1e3) for n in lengths]
        self.assert_matches_dense(rng.normal(size=(50, 6)), calls, weights)

    def test_table_with_a_dense_gradient_in_the_same_tape(self):
        rng = np.random.default_rng(41)
        calls = [rng.integers(0, 8, size=n) for n in (5, 9, 3, 7)]
        weights = [rng.normal(size=(len(ids), 3)) for ids in calls]
        dense = (rng.normal(size=(3, 2)), rng.normal(size=(10, 2)))
        self.assert_matches_dense(rng.normal(size=(10, 3)), calls, weights, dense)

    def test_non_finite_row_gradient_names_the_table(self):
        table = Tensor(np.ones((4, 2)), requires_grad=True, name="table")
        with Tape() as tape:
            picked = ad.gather_rows(table, [1, 1, 2])
        (_, adjoint), = tape._entries
        g = np.ones(picked.shape)
        g[2, 0] = np.nan
        with pytest.raises(NonFiniteError, match="table"):
            adjoint(g)
        # finite rows whose sum overflows are caught as the dense table caught them
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="table"):
            adjoint(np.full(picked.shape, 1e308))
        assert table.grad is None

    def test_frozen_table_gets_no_gradient(self):
        table = Tensor(np.ones((4, 2)), name="table")
        w = Tensor(np.full((3, 2), 0.5), requires_grad=True, name="w")
        with Tape() as tape:
            tape.backward(reduce_sum(ad.mul(ad.gather_rows(table, [0, 3, 0]), w)))
        assert table.grad is None
        npt.assert_array_equal(w.grad, np.ones((3, 2)))


class TestNll:
    """The fused loss against the taped composition it replaced."""

    @staticmethod
    def batch(rng, size):
        # every other row at scale 40, where a random gold class is often
        # below PROB_FLOOR, so the floored branch is exercised
        scale = np.where(np.arange(size) % 2 == 1, 40.0, 2.0)[:, None]
        return rng.normal(size=(size, 3)) * scale, rng.integers(0, 3, size=size)

    @pytest.mark.filterwarnings("ignore:gold-class probability")
    @pytest.mark.parametrize("size", [1, 2, 3, 64, 96])
    def test_equals_taped_composition(self, size):
        rng = np.random.default_rng(size)
        for _ in range(20):
            data, gold = self.batch(rng, size)
            results = []
            for loss_fn in (ad.nll, taped_nll):
                logits = Tensor(data, requires_grad=True, name="logits")
                with Tape() as tape:
                    loss = loss_fn(logits, gold)
                    # an upstream gradient other than 1 pins the order of the 1/B scaling
                    tape.backward(ad.mul(loss, 0.37))
                results.append((loss.item(), logits.grad))
            (fused, g_fused), (taped, g_taped) = results
            assert fused == taped
            npt.assert_array_equal(g_fused, g_taped)
        if size >= 64:
            p_gold = ad.softmax_weights(data)[np.arange(size), gold]
            assert (p_gold < ad.PROB_FLOOR).any() and (p_gold >= ad.PROB_FLOOR).any()

    @pytest.mark.parametrize("size", [1, 96])
    def test_one_tape_entry_at_any_batch_size(self, size):
        logits = Tensor(np.zeros((size, 3)), requires_grad=True)
        with Tape() as tape:
            ad.nll(logits, np.zeros(size, dtype=int))
        assert len(tape) == 1

    def test_floored_row_passes_no_gradient_and_warns_once(self):
        logits = Tensor(np.array([[60.0, -60.0, 0.0], [0.5, -1.0, 2.0]]), requires_grad=True)
        with pytest.warns(UserWarning, match="floored") as caught:
            with Tape() as tape:
                tape.backward(ad.nll(logits, [1, 2]))
        assert len(caught) == 1
        npt.assert_array_equal(logits.grad[0], np.zeros(3))
        p = ad.softmax_weights(logits.data[1])
        npt.assert_allclose(logits.grad[1], (p - np.array([0.0, 0.0, 1.0])) / 2, rtol=0, atol=1e-15)

    def test_rejects_non_batch_logits(self):
        with pytest.raises(DimensionError):
            ad.nll(Tensor(np.zeros(3)), [0])
        with pytest.raises(DimensionError):
            ad.nll(Tensor(np.zeros((0, 3))), [])


class TestGradCheckHarness:
    def test_epsilon_range_enforced(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda: reduce_sum(x), [x], epsilon=1e-2)
        with pytest.raises(ValueError):
            grad_check(lambda: reduce_sum(x), [x], epsilon=1e-7)

    def test_reports_failing_coordinates(self):
        x = Tensor([1.0, 1.0], requires_grad=True, name="x")

        def f():
            first = index(x, 0)
            return ad.add(reduce_sum(ad.mul(first, first)), reduce_sum(ad.mul(x, Tensor([0.0, 1.0]))))

        # analytic: [2, 1]; fd agrees, so this passes
        report = grad_check(f, [x], tolerance=1e-6)
        assert report.passed

        # sabotage: an op computing a*a whose adjoint claims 3a instead of 2a
        # at the coordinates in `wrong`
        def bad_square(a, wrong):
            def backward(g):
                scale = np.full(a.shape, 2.0)
                scale[wrong] = 3.0
                ad._accumulate(a, g * scale * a.data)

            return ad._make(a.data * a.data, (a,), backward, "bad_square")

        v = Tensor([0.5, -1.5], requires_grad=True, name="v")
        w = Tensor(np.arange(1.0, 7.0), requires_grad=True, name="w")

        def g():
            return ad.add(reduce_sum(ad.mul(v, v)), reduce_sum(bad_square(w, [2])))

        report = grad_check(g, [v, w], tolerance=1e-6)
        assert not report.passed
        assert report.num_coordinates == 8
        assert [(name, i) for name, i, *_ in report.failures] == [("w", 2)]
        _, _, analytic, fd, rel = report.failures[0]
        npt.assert_allclose([analytic, fd, rel], [9.0, 6.0, 1.0 / 3.0], rtol=1e-6)
        npt.assert_allclose(report.max_rel_error, 1.0 / 3.0, rtol=1e-6)

        # every coordinate wrong: the list stops at max_failures, the
        # maximum still covers them all
        report = grad_check(lambda: reduce_sum(bad_square(w, slice(None))), [w], tolerance=1e-6, max_failures=4)
        assert not report.passed
        assert report.num_coordinates == 6
        assert [(name, i) for name, i, *_ in report.failures] == [("w", 0), ("w", 1), ("w", 2), ("w", 3)]
        npt.assert_allclose(report.max_rel_error, 1.0 / 3.0, rtol=1e-6)

    def test_failure_detection(self):
        # a genuinely wrong backward is caught: compare grad of x*x against x*x*x
        x = Tensor([2.0], requires_grad=True, name="x")
        with Tape() as tape:
            tape.backward(reduce_sum(ad.mul(ad.mul(x, x), x)))
        analytic = x.grad.copy()
        fd = fd_gradient(lambda v: float((v * v).sum()), x.data.copy())
        assert abs(analytic[0] - fd[0]) > 1.0
