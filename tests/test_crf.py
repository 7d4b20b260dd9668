"""Tests for the linear-chain CRF heads against closed forms and brute force."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from aspectcrf import autodiff as ad
from aspectcrf.autodiff import Tape, Tensor
from aspectcrf.crf import (
    BRUTE_FORCE_MAX_LEN,
    NO,
    YES,
    CrfHeadParams,
    brute_force_oracle,
    emissions,
    init_crf_head,
    log_partition,
    marginals,
    multi_head,
    pool_sentence,
    score_sequence,
)
from aspectcrf.crf import _forward_messages


def taped_backward_messages(e: Tensor, head: CrfHeadParams) -> list[Tensor]:
    """beta_t (length-2 log messages), t = 0..n-1; beta_{n-1} = end scores."""
    n = e.shape[0]
    beta = head.end
    msgs = [beta]
    for t in range(n - 2, -1, -1):
        # beta_t[a] = lse_b(T[a,b] + E[t+1,b] + beta_{t+1}[b])
        beta = ad.log_sum_exp(ad.add(head.trans, ad.add(e[t + 1], beta)), axis=1)
        msgs.append(beta)
    msgs.reverse()
    return msgs


def taped_marginals(e: Tensor, head: CrfHeadParams) -> tuple[Tensor, Tensor]:
    """Reference (Yes-marginals, log Z) composed from taped primitives, ~125
    tape entries per call; the fused ``marginals`` must reproduce it."""
    alpha = ad.stack_rows(_forward_messages(e, head))  # n x 2
    beta = ad.stack_rows(taped_backward_messages(e, head))  # n x 2
    log_z = ad.log_sum_exp(ad.add(alpha[-1], head.end))
    posterior = ad.exp(ad.sub(ad.add(alpha, beta), log_z))  # n x 2
    return posterior[:, YES], log_z


def fused_marginals(e: Tensor, head: CrfHeadParams) -> tuple[Tensor, Tensor]:
    table = marginals(e, head)
    return table.yes, table.log_z


def make_head(trans=None, start=None, end=None, rep_dim=4):
    head = init_crf_head(rep_dim, np.random.default_rng(0), "head")
    if trans is not None:
        head.trans.data[...] = trans
    if start is not None:
        head.start.data[...] = start
    if end is not None:
        head.end.data[...] = end
    return head


def random_potentials(rng, n):
    return (
        rng.uniform(-5, 5, size=(n, 2)),
        rng.uniform(-5, 5, size=(2, 2)),
        rng.uniform(-5, 5, size=2),
        rng.uniform(-5, 5, size=2),
    )


def head_from(trans, start, end):
    head = make_head()
    head.trans = Tensor(trans, requires_grad=True, name="trans")
    head.start = Tensor(start, requires_grad=True, name="start")
    head.end = Tensor(end, requires_grad=True, name="end")
    return head


class TestScoreSequence:
    def test_hand_summed_score(self):
        head = make_head(
            trans=[[0.5, -1.0], [2.0, 0.25]], start=[0.1, 0.2], end=[0.3, 0.4]
        )
        e = Tensor(np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]))
        # z = (Yes, No, Yes): 0.1 + (-1.0) + 2.0 + 0.3 + 1 + 20 + 3
        score = score_sequence(e, head, (YES, NO, YES))
        npt.assert_allclose(score.item(), 25.4, rtol=0, atol=1e-12)

    def test_length_mismatch_rejected(self):
        head = make_head()
        with pytest.raises(ad.DimensionError):
            score_sequence(Tensor(np.zeros((2, 2))), head, (YES,))

    def test_bad_labels_rejected(self):
        head = make_head()
        with pytest.raises(ValueError):
            score_sequence(Tensor(np.zeros((2, 2))), head, (YES, 7))


class TestLogPartition:
    def test_zero_potentials_ln2_per_position(self):
        # 2^n equally scored sequences: logZ = n ln 2
        head = make_head(trans=np.zeros((2, 2)), start=np.zeros(2), end=np.zeros(2))
        for n in (1, 2, 5, 9):
            log_z = log_partition(Tensor(np.zeros((n, 2))), head)
            npt.assert_allclose(log_z.item(), n * np.log(2.0), rtol=0, atol=1e-12)

    def test_matches_explicit_enumeration_sum(self):
        rng = np.random.default_rng(1)
        e, trans, start, end = random_potentials(rng, 4)
        head = head_from(trans, start, end)
        et = Tensor(e)
        total = []
        import itertools
        for z in itertools.product((YES, NO), repeat=4):
            total.append(score_sequence(et, head, z).item())
        expected = np.log(np.exp(np.array(total)).sum())
        npt.assert_allclose(log_partition(et, head).item(), expected, rtol=0, atol=1e-10)

    def test_single_position_closed_form(self):
        head = head_from(np.zeros((2, 2)), np.array([0.7, -0.3]), np.array([0.1, 0.9]))
        e = Tensor(np.array([[1.5, -2.5]]))
        # logZ = lse(start + e + end) over the two labels
        expected = np.logaddexp(0.7 + 1.5 + 0.1, -0.3 - 2.5 + 0.9)
        npt.assert_allclose(log_partition(e, head).item(), expected, rtol=0, atol=1e-14)


class TestMarginals:
    def test_decoupled_chain_is_sigmoid(self):
        # zero transitions decouple positions: P(Yes) = sigmoid(E_yes - E_no)
        head = make_head(trans=np.zeros((2, 2)), start=np.zeros(2), end=np.zeros(2))
        e = np.array([[1.0, 0.0], [0.0, 0.0], [-2.0, 1.5]])
        table = marginals(Tensor(e), head)
        expected = 1.0 / (1.0 + np.exp(-(e[:, 0] - e[:, 1])))
        npt.assert_allclose(table.numpy(), expected, rtol=0, atol=1e-12)
        npt.assert_allclose(table.numpy()[0], 0.731059, rtol=0, atol=1e-6)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            e, trans, start, end = random_potentials(rng, n)
            head = head_from(trans, start, end)
            table = marginals(Tensor(e), head)
            log_z, yes = brute_force_oracle(e, trans, start, end)
            npt.assert_allclose(table.log_z.item(), log_z, rtol=0, atol=1e-8)
            npt.assert_allclose(table.numpy(), yes, rtol=0, atol=1e-8)

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(3)
        e, trans, start, end = random_potentials(rng, 12)
        table = marginals(Tensor(e), head_from(trans, start, end))
        yes = table.numpy()
        assert np.all(yes >= 0.0) and np.all(yes <= 1.0)

    def test_gradient_of_log_z_is_marginal(self):
        # exponential-family identity: dlogZ/dE[t, y] = P(z_t = y | x)
        rng = np.random.default_rng(4)
        e, trans, start, end = random_potentials(rng, 6)
        head = head_from(trans, start, end)
        et = Tensor(e, requires_grad=True, name="e")
        with Tape() as tape:
            tape.backward(log_partition(et, head))
        _, yes = brute_force_oracle(e, trans, start, end)
        npt.assert_allclose(et.grad[:, YES], yes, rtol=0, atol=1e-10)
        npt.assert_allclose(et.grad[:, NO], 1.0 - yes, rtol=0, atol=1e-10)

    def test_fused_matches_taped_reference(self):
        # values and gradients into E, trans, start and end, with upstream
        # weight on both the marginals and log Z
        rng = np.random.default_rng(8)
        for n in range(1, 15):
            for _ in range(5):
                e, trans, start, end = random_potentials(rng, n)
                w_yes = Tensor(rng.normal(size=n))
                w_log_z = float(rng.normal())
                results = []
                for compute in (taped_marginals, fused_marginals):
                    head = head_from(trans, start, end)
                    et = Tensor(e, requires_grad=True, name="e")
                    with Tape() as tape:
                        yes, log_z = compute(et, head)
                        loss = ad.add(ad.reduce_sum(ad.mul(yes, w_yes)), ad.mul(log_z, w_log_z))
                        tape.backward(loss)
                    grads = [np.zeros_like(t.data) if t.grad is None else t.grad
                             for t in (et, head.trans, head.start, head.end)]
                    results.append([yes.numpy(), log_z.numpy(), *grads])
                for ref, fused in zip(*results):
                    assert ref.shape == fused.shape
                    npt.assert_allclose(fused, ref, rtol=0, atol=1e-12)

    def test_fused_is_one_tape_entry(self):
        rng = np.random.default_rng(9)
        e, trans, start, end = random_potentials(rng, 7)
        head = head_from(trans, start, end)
        with Tape() as tape:
            table = marginals(Tensor(e, requires_grad=True), head)
        assert len(tape) == 1
        assert table.yes.requires_grad and table.log_z.requires_grad

    def test_fused_rejects_bad_shapes(self):
        head = make_head()
        for bad in (np.zeros((0, 2)), np.zeros((3, 3)), np.zeros(4)):
            with pytest.raises(ad.DimensionError):
                marginals(Tensor(bad), head)
        with pytest.raises(ad.DimensionError):
            ad.crf_marginals(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 3))), head.start, head.end)

    def test_fused_log_z_alone_gets_marginal_gradient(self):
        # only log Z is consumed: the unused marginals contribute zero
        rng = np.random.default_rng(10)
        e, trans, start, end = random_potentials(rng, 6)
        head = head_from(trans, start, end)
        et = Tensor(e, requires_grad=True, name="e")
        with Tape() as tape:
            table = marginals(et, head)
            tape.backward(table.log_z)
        assert table.yes.grad is None
        npt.assert_allclose(et.grad[:, YES], table.numpy(), rtol=0, atol=1e-12)
        npt.assert_allclose(et.grad[:, NO], 1.0 - table.numpy(), rtol=0, atol=1e-12)

    def test_marginal_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        e, trans, start, end = random_potentials(rng, 5)
        head = head_from(trans, start, end)
        et = Tensor(e, requires_grad=True, name="e")
        w = Tensor(rng.normal(size=5))
        report = ad.grad_check(
            lambda: ad.reduce_sum(ad.mul(marginals(et, head).yes, w)),
            [et, head.trans, head.start, head.end],
            tolerance=1e-5,
        )
        assert report.passed, report.failures


class TestEmissionsAndPooling:
    def test_emissions_linear_oracle(self):
        rng = np.random.default_rng(6)
        head = make_head(rep_dim=3)
        r = rng.normal(size=(4, 3))
        out = emissions(Tensor(r), head).numpy()
        npt.assert_allclose(out, r @ head.w_emit.data + head.b_emit.data, rtol=0, atol=1e-14)

    def test_pool_hand_value(self):
        table_yes = Tensor(np.array([0.5, 1.0]))
        table = type("T", (), {"yes": table_yes})()
        r = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        pooled = pool_sentence(table, r)
        npt.assert_allclose(pooled.numpy(), [3.5, 5.0], rtol=0, atol=1e-15)

    def test_pool_length_mismatch(self):
        table = type("T", (), {"yes": Tensor(np.array([0.5]))})()
        with pytest.raises(ad.DimensionError):
            pool_sentence(table, Tensor(np.zeros((2, 2))))

    def test_multi_head_concat_order(self):
        rng = np.random.default_rng(7)
        heads = [init_crf_head(4, rng, f"h{k}") for k in range(3)]
        r = Tensor(rng.normal(size=(5, 4)))
        q, tables = multi_head(r, heads)
        assert q.shape == (12,) and len(tables) == 3
        for k, head in enumerate(heads):
            table = marginals(emissions(r, head), head)
            expected = pool_sentence(table, r).numpy()
            npt.assert_allclose(q.numpy()[4 * k : 4 * k + 4], expected, rtol=0, atol=1e-12)

    def test_multi_head_needs_heads(self):
        with pytest.raises(ValueError):
            multi_head(Tensor(np.zeros((2, 4))), [])


class TestBruteForce:
    def test_refuses_large_n(self):
        e = np.zeros((BRUTE_FORCE_MAX_LEN + 1, 2))
        with pytest.raises(ValueError, match="capped"):
            brute_force_oracle(e, np.zeros((2, 2)), np.zeros(2), np.zeros(2))

    def test_uniform_distribution_marginals_half(self):
        log_z, yes = brute_force_oracle(
            np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(2), np.zeros(2)
        )
        npt.assert_allclose(log_z, 3 * np.log(2.0), rtol=0, atol=1e-12)
        npt.assert_allclose(yes, 0.5, rtol=0, atol=1e-12)


class TestTransitionView:
    def test_stored_tensors_stay_finite(self):
        head = make_head()
        for t in (head.trans, head.start, head.end, head.w_emit, head.b_emit):
            assert np.isfinite(t.data).all()
