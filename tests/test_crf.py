"""Tests for the linear-chain CRF heads against closed forms and brute force."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    multi_head,
)
from reference import grad_check, log_partition, reduce_sum, score_sequence, taped_marginals


def fused_marginals(e: Tensor, head: CrfHeadParams) -> Tensor:
    """The single-chain call of the fused op."""
    return ad.crf_marginals(e, head.trans, head.start, head.end)


def per_head_reference(r: Tensor, heads: list[CrfHeadParams]) -> tuple[Tensor, Tensor]:
    """multi_head as a loop over heads: emissions, a single-chain
    crf_marginals and a mul/reduce_sum pooling per head."""
    n = r.shape[0]
    pooled, tables = [], []
    for head in heads:
        yes = fused_marginals(emissions(r, head), head)
        tables.append(yes)
        pooled.append(reduce_sum(ad.mul(r, ad.reshape(yes, (n, 1))), axis=0))
    return ad.concat(pooled), ad.stack(tables)


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
        yes = fused_marginals(Tensor(e), head).numpy()
        expected = 1.0 / (1.0 + np.exp(-(e[:, 0] - e[:, 1])))
        npt.assert_allclose(yes, expected, rtol=0, atol=1e-12)
        npt.assert_allclose(yes[0], 0.731059, rtol=0, atol=1e-6)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            e, trans, start, end = random_potentials(rng, n)
            head = head_from(trans, start, end)
            log_z, yes = brute_force_oracle(e, trans, start, end)
            npt.assert_allclose(log_partition(Tensor(e), head).item(), log_z, rtol=0, atol=1e-8)
            npt.assert_allclose(fused_marginals(Tensor(e), head).numpy(), yes, rtol=0, atol=1e-8)

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(3)
        e, trans, start, end = random_potentials(rng, 12)
        yes = fused_marginals(Tensor(e), head_from(trans, start, end)).numpy()
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
        # values and gradients into E, trans, start and end under random
        # upstream weights on the marginals
        rng = np.random.default_rng(8)
        for n in range(1, 15):
            for _ in range(5):
                e, trans, start, end = random_potentials(rng, n)
                w_yes = Tensor(rng.normal(size=n))
                results = []
                for compute in (taped_marginals, fused_marginals):
                    head = head_from(trans, start, end)
                    et = Tensor(e, requires_grad=True, name="e")
                    with Tape() as tape:
                        yes = compute(et, head)
                        tape.backward(reduce_sum(ad.mul(yes, w_yes)))
                    grads = [np.zeros_like(t.data) if t.grad is None else t.grad
                             for t in (et, head.trans, head.start, head.end)]
                    results.append([yes.numpy(), *grads])
                for ref, fused in zip(*results):
                    assert ref.shape == fused.shape
                    npt.assert_allclose(fused, ref, rtol=0, atol=1e-12)

    def test_fused_is_one_tape_entry(self):
        rng = np.random.default_rng(9)
        e, trans, start, end = random_potentials(rng, 7)
        head = head_from(trans, start, end)
        with Tape() as tape:
            yes = fused_marginals(Tensor(e, requires_grad=True), head)
        assert len(tape) == 1
        assert yes.shape == (7,) and yes.requires_grad

    def test_fused_rejects_bad_shapes(self):
        head = make_head()
        for bad in (np.zeros((0, 2)), np.zeros((3, 3)), np.zeros(4), np.zeros((0, 3, 2))):
            with pytest.raises(ad.DimensionError):
                fused_marginals(Tensor(bad), head)
        with pytest.raises(ad.DimensionError):
            ad.crf_marginals(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 3))), head.start, head.end)
        # chain axes of the potentials must equal those of the emissions
        e = Tensor(np.zeros((5, 3, 2)))
        good = (Tensor(np.zeros((3, 2, 2))), Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2))))
        assert ad.crf_marginals(e, *good).shape == (3, 5)
        for k, bad in ((0, np.zeros((2, 2))), (0, np.zeros((4, 2, 2))), (1, np.zeros(2)),
                       (2, np.zeros((2, 2))), (1, np.zeros((3, 3)))):
            potentials = list(good)
            potentials[k] = Tensor(bad)
            with pytest.raises(ad.DimensionError):
                ad.crf_marginals(e, *potentials)

    def test_marginal_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        e, trans, start, end = random_potentials(rng, 5)
        head = head_from(trans, start, end)
        et = Tensor(e, requires_grad=True, name="e")
        w = Tensor(rng.normal(size=5))
        report = grad_check(
            lambda: reduce_sum(ad.mul(fused_marginals(et, head), w)),
            [et, head.trans, head.start, head.end],
            tolerance=1e-5,
        )
        assert report.passed, report.failures


def run_chains(e, trans, start, end, w):
    """Values and gradients of sum(w * crf_marginals(...)) for one call."""
    e = Tensor(e, requires_grad=True, name="e")
    with Tape() as tape:
        yes = ad.crf_marginals(e, trans, start, end)
        tape.backward(reduce_sum(ad.mul(yes, w)))
    return yes.numpy(), e.grad


@st.composite
def head_batched_potentials(draw):
    """(e, trans, start, end) for n <= 12 positions and K <= 4 heads, entries in +-1e3."""
    n = draw(st.integers(1, BRUTE_FORCE_MAX_LEN))
    k = draw(st.integers(1, 4))
    entries = st.floats(-1e3, 1e3)
    return tuple(draw(hnp.arrays(np.float64, shape, elements=entries))
                 for shape in ((n, k, 2), (k, 2, 2), (k, 2), (k, 2)))


class TestHeadAxis:
    """crf_marginals over chain axes equals one single-chain call per chain."""

    @pytest.mark.parametrize("chains", [(1,), (2,), (4,), (2, 3)])
    def test_batched_matches_separate_chains(self, chains):
        rng = np.random.default_rng(11)
        size = int(np.prod(chains))
        for n in range(1, 15):
            e = rng.uniform(-5, 5, size=(n, *chains, 2))
            pots = [rng.uniform(-5, 5, size=(*chains, *shape)) for shape in ((2, 2), (2,), (2,))]
            w = rng.normal(size=(*chains, n))
            batched = [Tensor(p, requires_grad=True) for p in pots]
            yes, g_e = run_chains(e, *batched, Tensor(w))
            assert yes.shape == (*chains, n)
            e_flat = e.reshape(n, size, 2)
            for c in range(size):
                idx = np.unravel_index(c, chains)
                single = [Tensor(p[idx], requires_grad=True) for p in pots]
                ref_yes, ref_g_e = run_chains(e_flat[:, c], *single, Tensor(w[idx]))
                npt.assert_allclose(yes[idx], ref_yes, rtol=0, atol=1e-12)
                npt.assert_allclose(g_e.reshape(n, size, 2)[:, c], ref_g_e, rtol=0, atol=1e-12)
                for b, s in zip(batched, single):
                    npt.assert_allclose(b.grad[idx], s.grad, rtol=0, atol=1e-12)

    def test_shared_potentials_stacked_k_times(self):
        # one tensor stacked per head receives every head's gradient
        rng = np.random.default_rng(12)
        k, n = 3, 6
        e = rng.uniform(-5, 5, size=(n, k, 2))
        w = rng.normal(size=(k, n))
        shared = [Tensor(rng.uniform(-5, 5, size=s), requires_grad=True) for s in ((2, 2), (2,), (2,))]
        with Tape() as tape:
            yes = ad.crf_marginals(Tensor(e), *(ad.stack([t] * k) for t in shared))
            tape.backward(reduce_sum(ad.mul(yes, Tensor(w))))
        yes = yes.numpy()
        expected = [np.zeros_like(t.data) for t in shared]
        for h in range(k):
            single = [Tensor(t.data, requires_grad=True) for t in shared]
            ref_yes, _ = run_chains(e[:, h], *single, Tensor(w[h]))
            npt.assert_allclose(yes[h], ref_yes, rtol=0, atol=1e-12)
            for acc, s in zip(expected, single):
                acc += s.grad
        for t, acc in zip(shared, expected):
            npt.assert_allclose(t.grad, acc, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(head_batched_potentials())
    def test_matches_brute_force_per_head(self, potentials):
        # stable in log space for potentials up to +-1e3
        e, trans, start, end = potentials
        yes = ad.crf_marginals(*(Tensor(p) for p in potentials)).numpy()
        for h in range(e.shape[1]):
            _, oracle = brute_force_oracle(e[:, h], trans[h], start[h], end[h])
            npt.assert_allclose(yes[h], oracle, rtol=0, atol=1e-9)


class TestEmissionsAndPooling:
    def test_emissions_linear_oracle(self):
        rng = np.random.default_rng(6)
        head = make_head(rep_dim=3)
        r = rng.normal(size=(4, 3))
        out = emissions(Tensor(r), head).numpy()
        npt.assert_allclose(out, r @ head.w_emit.data + head.b_emit.data, rtol=0, atol=1e-14)

    def test_pool_hand_value(self):
        # constant emissions [ln 3, 0] and zero transitions: every Yes-marginal
        # is 3 / (3 + 1), so the head pools 0.75 * (r_0 + r_1)
        head = make_head(rep_dim=2)
        head.w_emit.data[...] = 0.0
        head.b_emit.data[...] = [np.log(3.0), 0.0]
        r = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        q, yes = multi_head(r, [head])
        npt.assert_allclose(yes.numpy(), [[0.75, 0.75]], rtol=0, atol=1e-15)
        npt.assert_allclose(q.numpy(), [3.0, 4.5], rtol=0, atol=1e-14)

    def test_multi_head_concat_order(self):
        # values and gradients into r and every head parameter, in head
        # order, with and without shared transitions
        rng = np.random.default_rng(7)
        for n, k, share in ((1, 1, False), (5, 3, False), (9, 4, False), (5, 3, True), (9, 4, True)):
            heads = [init_crf_head(4, rng, f"h{i}") for i in range(k)]
            for head in heads:
                for t in (head.b_emit, head.trans, head.start, head.end):
                    t.data[...] = rng.uniform(-2, 2, size=t.shape)
                if share:
                    head.trans, head.start, head.end = heads[0].trans, heads[0].start, heads[0].end
            r_data = rng.normal(size=(n, 4))
            w = Tensor(rng.normal(size=4 * k))
            params = [t for head in heads for t in (head.w_emit, head.b_emit, head.trans, head.start, head.end)]
            results = []
            for compute in (per_head_reference, multi_head):
                r = Tensor(r_data, requires_grad=True, name="r")
                for t in params:
                    t.zero_grad()
                with Tape() as tape:
                    q, yes = compute(r, heads)
                    tape.backward(reduce_sum(ad.mul(q, w)))
                results.append([q.numpy(), yes.numpy(), r.grad, *(t.grad.copy() for t in params)])
            for ref, got in zip(*results):
                assert ref.shape == got.shape
                npt.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_multi_head_tape_entries_independent_of_heads(self):
        rng = np.random.default_rng(13)
        r = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        lengths = []
        for k in (1, 2, 4, 8):
            heads = [init_crf_head(4, rng, f"h{i}") for i in range(k)]
            with Tape() as tape:
                q, yes = multi_head(r, heads)
            assert q.shape == (4 * k,) and yes.shape == (k, 6)
            lengths.append(len(tape))
            with Tape() as tape:
                q, yes = multi_head(r, heads, [2, 1, 3])
            assert q.shape == (3, 4 * k) and yes.shape == (k, 6)
            lengths.append(len(tape))
        # emission layer 5, stacked potentials 3, marginals 1, pooling 1
        assert lengths == [10] * 8

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
