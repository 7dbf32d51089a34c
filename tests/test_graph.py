import numpy as np
import pytest

from trajvrnn.autodiff import Parameter, Tensor, as_tensor, backward, linear, matmul, no_grad
from trajvrnn.errors import CapacityError, ConfigError
from trajvrnn.graph import SpatialEncoder, fuse, masked_input_vector, pool_visibility
from trajvrnn.model import ModelConfig

from oracle_ops import (CAT_BOTH_VISIBLE, CAT_NONE_VISIBLE, CAT_ONE_VISIBLE,
                        build_static_adjacency, edge_categories, grad_check, normalize_static,
                        relu, tape_memory_script, tsum)


def small_cfg(**kw):
    base = dict(n_agents_max=4, d_embed=4, d_graph=4, d_hidden=8, d_latent=8,
                ec_hidden=4, ec_pool=2, t_past=4, t_future=2)
    base.update(kw)
    return ModelConfig(**base)


def make_encoder(seed=0, **kw):
    return SpatialEncoder(small_cfg(**kw), np.random.default_rng(seed))


def pooled_branch(branch, feats, mask):
    """Run the ST or the EC branch on node features, pooled as `forward`
    pools them."""
    return branch(pool_visibility(as_tensor(feats), mask), mask)


def st_layer(feats, mask, w):
    """One ST layer, relu(A_hat F W), through `st_branch`: its second and
    third weights are identities, and relu(relu(x) I) = relu(x)."""
    d = w.shape[0]
    enc = make_encoder(d_embed=d, d_graph=d)
    enc.st_weights[0].data[...] = w
    for p in enc.st_weights[1:]:
        p.data[...] = np.eye(d)
    return pooled_branch(enc.st_branch, feats, mask)


def dl_layer(feats, adj, w):
    """relu(adj F W) through `dl_branch`, with the learned adjacency set."""
    n, d = np.shape(feats)
    enc = make_encoder(n_agents_max=n, d_embed=d, d_graph=d)
    enc.dl_adj.data[...] = adj
    enc.dl_weight.data[...] = w
    return enc.dl_branch(Tensor(feats))


# ---------------------------------------------------------------------------
# graph input


def test_masked_input_vector_visible():
    np.testing.assert_array_equal(
        masked_input_vector([[2.0, 3.0]], [1.0]), [[2.0, 3.0, 1.0]])


def test_masked_input_vector_missing():
    np.testing.assert_array_equal(
        masked_input_vector([[2.0, 3.0]], [0.0]), [[0.0, 0.0, 0.0]])


def test_future_routing_uses_only_future_weights():
    enc = make_encoder()
    y = np.array([[[1.0, 1.0]]])
    base = enc.embed(y, None).data.copy()
    enc.embed_past[0].data[...] += 10.0  # past projection must not matter
    np.testing.assert_array_equal(enc.embed(y, None).data, base)
    enc.embed_future[0].data[...] += 1.0
    assert not np.array_equal(enc.embed(y, None).data, base)


# ---------------------------------------------------------------------------
# the static adjacency and its normalisation (the ST branch's oracle)


def test_static_adjacency_mixed_visibility():
    a, i = build_static_adjacency([1, 1, 0])
    np.testing.assert_array_equal(a, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    np.testing.assert_array_equal(i, np.diag([1.0, 1.0, 0.0]))


def test_static_adjacency_all_invisible():
    a, i = build_static_adjacency([0, 0])
    assert not a.any() and not i.any()


def test_static_adjacency_all_visible():
    a, i = build_static_adjacency([1, 1])
    np.testing.assert_array_equal(a, [[0, 1], [1, 0]])
    np.testing.assert_array_equal(i, np.eye(2))


def test_normalize_symmetric_two_visible():
    # A + I = ones(2, 2), degrees (2, 2): every entry becomes 1/2
    a, i = build_static_adjacency([1, 1])
    np.testing.assert_allclose(normalize_static(a, i), np.full((2, 2), 0.5))


def test_normalize_single_visible_node():
    a, i = build_static_adjacency([1])
    np.testing.assert_array_equal(normalize_static(a, i), [[1.0]])


def test_normalize_invisible_pair_is_zero():
    a, i = build_static_adjacency([0, 0])
    np.testing.assert_array_equal(normalize_static(a, i), np.zeros((2, 2)))


def test_normalize_invisible_rows_and_columns_zero():
    rng = np.random.default_rng(5)
    for _ in range(20):
        mask = rng.integers(0, 2, size=6)
        a, i = build_static_adjacency(mask)
        a_hat = normalize_static(a, i)
        for idx in np.flatnonzero(mask == 0):
            assert not a_hat[idx, :].any() and not a_hat[:, idx].any()
        np.testing.assert_array_equal(a, a.T)


# ---------------------------------------------------------------------------
# GCL forwards


def test_st_gcl_hand_product():
    # mask (1, 1): A_hat = 0.5 everywhere
    out = st_layer(np.eye(2), [1, 1], np.eye(2))
    np.testing.assert_allclose(out.data, np.full((2, 2), 0.5))


def test_st_gcl_all_invisible_zero():
    out = st_layer(np.ones((2, 2)), [0, 0], np.eye(2))
    np.testing.assert_array_equal(out.data, np.zeros((2, 2)))


def test_st_gcl_zero_weight_zero():
    out = st_layer(np.ones((2, 2)), [1, 1], np.zeros((2, 2)))
    np.testing.assert_array_equal(out.data, np.zeros((2, 2)))


def test_dl_gcl_swap_adjacency():
    out = dl_layer([[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [1.0, 0.0]], np.eye(2))
    np.testing.assert_array_equal(out.data, [[3.0, 4.0], [1.0, 2.0]])


def test_dl_gcl_identity_propagation():
    f = [[1.0, 2.0], [3.0, 4.0]]
    out = dl_layer(f, np.eye(2), np.eye(2))
    np.testing.assert_array_equal(out.data, f)


def test_dl_gcl_negative_adjacency_relu_zeros():
    out = dl_layer([[1.0, 2.0], [3.0, 4.0]], -np.ones((2, 2)), np.eye(2))
    np.testing.assert_array_equal(out.data, np.zeros((2, 2)))


def test_dl_branch_capacity_error():
    enc = make_encoder()
    with pytest.raises(CapacityError):
        enc.dl_branch(Tensor(np.zeros((5, 4))))


def test_edge_categories_cases():
    cats = edge_categories([1, 0])
    assert cats[0, 1] == CAT_ONE_VISIBLE
    assert edge_categories([1, 1])[0, 1] == CAT_BOTH_VISIBLE
    assert edge_categories([0, 0])[0, 1] == CAT_NONE_VISIBLE


def test_edge_categories_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(50):
        cats = edge_categories(rng.integers(0, 2, size=7))
        np.testing.assert_array_equal(cats, cats.T)


def test_graph_helpers_broadcast_over_leading_axes():
    """A (B, T, N) mask gives, slice by slice, the (N,) results."""
    mask = (np.random.default_rng(12).random((2, 3, 5)) > 0.4).astype(np.float64)
    a, i = build_static_adjacency(mask)
    cats = edge_categories(mask)
    assert a.shape == i.shape == cats.shape == (2, 3, 5, 5)
    for b in range(2):
        for t in range(3):
            a_bt, i_bt = build_static_adjacency(mask[b, t])
            np.testing.assert_array_equal(a[b, t], a_bt)
            np.testing.assert_array_equal(i[b, t], i_bt)
            np.testing.assert_array_equal(cats[b, t], edge_categories(mask[b, t]))


def _force_identity_thetas(enc):
    """Zero the generator and plant identity matrices in its final bias."""
    cfg = enc.cfg
    for p in (enc.ec_w0, enc.ec_b0, enc.ec_w1):
        p.data[...] = 0.0
    eye = np.eye(cfg.d_graph, cfg.d_embed).ravel()
    enc.ec_b1.data[...] = np.tile(eye, cfg.ec_pool)
    enc.ec_bias.data[...] = 0.0


def test_ec_identity_thetas_mean_pool():
    enc = make_encoder()
    _force_identity_thetas(enc)
    f = Tensor([[1.0, 2.0, 0.0, 0.0], [3.0, 4.0, 0.0, 0.0]])
    out = pooled_branch(enc.ec_branch, f, [1, 0])
    np.testing.assert_allclose(out.data, [[2.0, 3.0, 0.0, 0.0]] * 2)


def test_ec_zero_generator_outputs_zero():
    enc = make_encoder()
    for p in (enc.ec_w0, enc.ec_b0, enc.ec_w1, enc.ec_b1, enc.ec_bias):
        p.data[...] = 0.0
    out = pooled_branch(enc.ec_branch, np.ones((3, 4)), [1, 1, 0])
    np.testing.assert_array_equal(out.data, np.zeros((3, 4)))


def test_ec_single_node_identity():
    enc = make_encoder()
    _force_identity_thetas(enc)
    f = Tensor([[1.5, -2.0, 3.0, 0.5]])
    out = pooled_branch(enc.ec_branch, f, [1])
    np.testing.assert_allclose(out.data, f.data)


BRANCH_MASKS = pytest.mark.parametrize("mask", [
    [1], [0], [1, 0, 1, 1, 0],
    [[1, 0, 0, 1, 1, 0, 1], [0, 1, 1, 0, 0, 1, 0], [1, 1, 0, 0, 1, 0, 1]],
    [1] * 6, [0] * 5,
    # a (B, T, N) window whose steps include an all-visible and an all-hidden one
    [[[1, 0, 1, 1], [1, 1, 1, 1], [0, 1, 0, 0]],
     [[0, 0, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1]]],
], ids=["n1-visible", "n1-missing", "n5", "batch3-n7", "n6-all-visible", "n5-all-hidden",
        "window2x3-n4"])


def assert_max_norm_close(got, want, rel, name=""):
    assert np.abs(got - want).max() <= rel * np.abs(want).max(), name


@BRANCH_MASKS
def test_st_matches_adjacency_oracle(mask):
    """relu(A_hat F W) three times with the oracle's dense normalised
    adjacency, on the tape: the forward, and the gradients of the three
    weights and of the features, agree with the pooled branch."""
    enc = make_encoder(seed=17)
    rng = np.random.default_rng(18)
    mask = np.array(mask, dtype=float)
    feats = Tensor(rng.normal(size=mask.shape + (enc.cfg.d_embed,)), requires_grad=True)
    weights = rng.normal(size=mask.shape + (enc.cfg.d_graph,))
    a_hat = normalize_static(*build_static_adjacency(mask))

    def grads(out):
        for t in (*enc.st_weights, feats):
            t.grad = None
        backward(tsum(out * weights))
        return [t.grad.copy() for t in (*enc.st_weights, feats)]

    out = pooled_branch(enc.st_branch, feats, mask)
    got = grads(out)
    want = feats
    for w in enc.st_weights:
        want = relu(linear([matmul(a_hat, want)], w))
    assert_max_norm_close(out.data, want.data, 1e-14)
    for name, g, w in zip(("st.0.w", "st.1.w", "st.2.w", "features"), got, grads(want)):
        assert_max_norm_close(g, w, 1e-12, name)


@BRANCH_MASKS
def test_ec_matches_per_category_oracle(mask):
    """mean_j Theta[c(i, j)] f_j + bias by a double loop, with the three
    category matrices rebuilt in numpy from the generator weights, so they
    are distinct: a category mix-up, or a pooled row that a node takes
    under the wrong category, shows."""
    enc = make_encoder(seed=15)
    cfg = enc.cfg
    rng = np.random.default_rng(16)
    enc.ec_bias.data[...] = rng.normal(size=cfg.d_graph)
    mask = np.array(mask, dtype=float)
    n = mask.shape[-1]
    feats = rng.normal(size=mask.shape + (cfg.d_embed,))
    out = pooled_branch(enc.ec_branch, feats, mask).data

    hidden = np.tanh(np.eye(3) @ enc.ec_w0.data + enc.ec_b0.data)
    raw = hidden @ enc.ec_w1.data + enc.ec_b1.data
    thetas = raw.reshape(3, cfg.ec_pool, cfg.d_graph, cfg.d_embed).mean(axis=1)
    assert min(np.abs(thetas[a] - thetas[b]).max() for a, b in ((0, 1), (0, 2), (1, 2))) > 0.1
    cats = edge_categories(mask).reshape(-1, n, n)
    flat = feats.reshape(len(cats), n, cfg.d_embed)
    expected = np.zeros((len(cats), n, cfg.d_graph))
    for b in range(len(cats)):
        for i in range(n):
            for j in range(n):
                expected[b, i] += thetas[cats[b, i, j]] @ flat[b, j]
    expected = expected / n + enc.ec_bias.data
    assert_max_norm_close(out, expected.reshape(out.shape), 1e-14)


# ---------------------------------------------------------------------------
# fusion and the full encoder


def test_fuse_selects_branches():
    f_st = Tensor([[1.0]])
    f_dl = Tensor([[2.0]])
    f_ec = Tensor([[4.0]])
    one, zero = Tensor([1.0]), Tensor([0.0])
    np.testing.assert_array_equal(
        fuse([f_st, f_dl, f_ec], [one, zero, zero]).data, [[1.0]])
    np.testing.assert_array_equal(
        fuse([f_st, f_dl, f_ec], [one, one, one]).data, [[7.0]])
    np.testing.assert_array_equal(
        fuse([None, f_dl, None], [zero, one, one]).data, [[2.0]])


def _composed_fuse(branch_outputs, weights):
    """The branch fusion as mul and add nodes, in `fuse`'s order."""
    total = None
    for out, w in zip(branch_outputs, weights):
        if out is not None:
            total = out * w if total is None else total + out * w
    return total


@pytest.mark.parametrize("present", [(1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1),
                                     (1, 0, 0), (0, 1, 0), (0, 0, 1)])
def test_fuse_matches_composed_products(present):
    """One `weighted_sum` node against the muls and adds it replaces, with
    all branches on and with one or two off: forward bit-equal, with and
    without the tape; gradients within 1e-12 of it; the node keeps no array
    (its parents hold the values that backward reads)."""
    rng = np.random.default_rng(sum(b << i for i, b in enumerate(present)))
    outs = [Parameter(f"f{i}", rng.normal(size=(2, 5, 4, 6))) if on else None
            for i, on in enumerate(present)]
    weights = [Parameter(f"w{i}", rng.normal(size=6)) for i in range(3)]
    params = [p for out, w in zip(outs, weights) if out is not None for p in (out, w)]
    upstream = rng.normal(size=(2, 5, 4, 6))
    composed = _composed_fuse(outs, weights)
    fused = fuse(outs, weights)
    assert fused.op == "weighted_sum" and fused.parents == tuple(params)
    assert np.array_equal(fused.data, composed.data)
    assert tape_memory_script().held_arrays(fused) == []
    with no_grad():
        assert np.array_equal(fuse(outs, weights).data, composed.data)
    grads = []
    for out in (composed, fused):
        for p in params:
            p.zero_grad()
        backward(tsum(out * upstream))
        grads.append([p.grad.copy() for p in params])
    for want, got in zip(*grads):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_fuse_requires_a_branch():
    with pytest.raises(ConfigError):
        fuse([None, None, None], [Tensor([1.0])] * 3)


def test_encoder_st_only_matches_weighted_branch():
    enc = make_encoder(use_dl=False, use_ec=False)
    rng = np.random.default_rng(2)
    coords = rng.normal(size=(3, 2))
    mask = np.array([1.0, 1.0, 0.0])
    out = enc.forward(coords, mask)
    feats = enc.embed(coords, mask)
    expected = pooled_branch(enc.st_branch, feats, mask).data * enc.fuse_alpha.data
    np.testing.assert_allclose(out.data, expected)


def test_encoder_compositional_all_branches():
    enc = make_encoder()
    rng = np.random.default_rng(3)
    coords = rng.normal(size=(4, 2))
    mask = np.array([1.0, 0.0, 1.0, 1.0])
    out = enc.forward(coords, mask)

    feats = enc.embed(coords, mask)
    f_st = pooled_branch(enc.st_branch, feats, mask)
    f_dl = enc.dl_branch(feats)
    f_ec = pooled_branch(enc.ec_branch, feats, mask)
    expected = (f_st.data * enc.fuse_alpha.data + f_dl.data * enc.fuse_beta.data
                + f_ec.data * enc.fuse_gamma.data)
    np.testing.assert_allclose(out.data, expected)


@pytest.mark.parametrize("past", [True, False])
def test_window_encoding_matches_per_step_calls(past):
    """One call over a (B, T, N, 2) window gives the per-step calls stacked
    on axis 1, all three branches on, and the same parameter gradients:
    a weight product over all T steps sums in another order, so both
    agree to rounding, not bit for bit."""
    enc = make_encoder(seed=11)
    rng = np.random.default_rng(12)
    coords = rng.normal(size=(2, 5, 4, 2))
    mask = (rng.random((2, 5, 4)) > 0.4).astype(float) if past else None
    thetas = enc.edge_weight_matrices()
    weights = rng.normal(size=(2, 5, 4, 4))

    def grads(loss):
        for p in enc.params.values():
            p.zero_grad()
        backward(loss)
        return {name: p.grad.copy() for name, p in enc.params.items()}

    window = enc.forward(coords, mask, thetas)
    window_grads = grads(tsum(window * weights))
    steps = [enc.forward(coords[:, t], None if mask is None else mask[:, t], thetas)
             for t in range(5)]
    step_grads = grads(sum(tsum(out * weights[:, t]) for t, out in enumerate(steps)))
    np.testing.assert_allclose(window.data, np.stack([out.data for out in steps], axis=1),
                               rtol=1e-12, atol=0)
    for name in window_grads:
        np.testing.assert_allclose(window_grads[name], step_grads[name],
                                   rtol=1e-12, atol=1e-15, err_msg=name)
    # the EC branch runs on a past window only
    assert (np.abs(enc.ec_w0.grad).max() > 0) == past


def test_encoder_future_step_never_runs_ec():
    coords = np.random.default_rng(4).normal(size=(3, 2))
    with_ec = make_encoder(seed=9)
    without_ec = make_encoder(seed=9, use_ec=False)
    np.testing.assert_array_equal(
        with_ec.forward(coords, None).data,
        without_ec.forward(coords, None).data)
    # but the gamma-weighted EC term does fire on past steps
    mask = np.ones(3)
    assert not np.array_equal(
        with_ec.forward(coords, mask).data,
        without_ec.forward(coords, mask).data)


def test_empty_branch_set_rejected():
    with pytest.raises(ConfigError):
        small_cfg(use_st=False, use_dl=False, use_ec=False)


# ---------------------------------------------------------------------------
# invariants


def test_st_and_ec_permutation_equivariance():
    enc = make_encoder(seed=6)
    rng = np.random.default_rng(7)
    for _ in range(25):
        coords = rng.normal(size=(4, 2))
        mask = rng.integers(0, 2, size=4).astype(float)
        perm = rng.permutation(4)

        feats = enc.embed(coords, mask)
        st = pooled_branch(enc.st_branch, feats, mask).data
        ec = pooled_branch(enc.ec_branch, feats, mask).data

        feats_p = enc.embed(coords[perm], mask[perm])
        st_p = pooled_branch(enc.st_branch, feats_p, mask[perm]).data
        ec_p = pooled_branch(enc.ec_branch, feats_p, mask[perm]).data

        np.testing.assert_allclose(st_p, st[perm], atol=1e-12)
        np.testing.assert_allclose(ec_p, ec[perm], atol=1e-12)


def test_dl_branch_is_not_equivariant():
    enc = make_encoder(seed=8)
    rng = np.random.default_rng(9)
    coords = rng.normal(size=(4, 2))
    mask = np.ones(4)
    perm = np.array([1, 2, 3, 0])
    feats = enc.embed(coords, mask)
    feats_p = enc.embed(coords[perm], mask[perm])
    out = enc.dl_branch(feats).data
    out_p = enc.dl_branch(feats_p).data
    assert not np.allclose(out_p, out[perm])


def test_invisible_node_st_output_zero():
    enc = make_encoder()
    coords = np.random.default_rng(10).normal(size=(3, 2))
    mask = np.array([1.0, 0.0, 1.0])
    out = pooled_branch(enc.st_branch, enc.embed(coords, mask), mask)
    np.testing.assert_array_equal(out.data[1], np.zeros(4))


def test_st_all_visible_matches_bruteforce_gcn():
    # single layer against a triple-loop degree-normalised GCN
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        feats = rng.normal(size=(n, 4))
        w = rng.normal(size=(4, 4))
        a, i = build_static_adjacency(np.ones(n))

        s = a + i
        deg = s.sum(axis=1)
        expected = np.zeros((n, 4))
        for r in range(n):
            for c in range(4):
                acc = 0.0
                for j in range(n):
                    norm = s[r, j] / np.sqrt(deg[r] * deg[j])
                    acc += norm * feats[j] @ w[:, c]
                expected[r, c] = max(acc, 0.0)

        out = st_layer(feats, np.ones(n), w)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_gradients_flow_through_all_branches():
    enc = make_encoder(seed=13)
    rng = np.random.default_rng(14)
    coords = rng.normal(size=(3, 2))
    mask = np.array([1.0, 0.0, 1.0])
    err = grad_check(lambda: tsum(enc.forward(coords, mask)),
                     enc.params.values())
    assert err <= 1e-4
