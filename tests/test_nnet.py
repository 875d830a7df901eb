"""MLP forward/backward plumbing and the Adam optimizer."""
import numpy as np
import pytest

from malguard import nnet


def test_init_mlp_shapes_and_determinism():
    rng = np.random.default_rng(0)
    mlp = nnet.init_mlp([5, 8, 3], rng)
    assert mlp.dims == [5, 8, 3]
    assert [w.shape for w in mlp.weights] == [(5, 8), (8, 3)]
    assert [b.shape for b in mlp.biases] == [(8,), (3,)]
    again = nnet.init_mlp([5, 8, 3], np.random.default_rng(0))
    for a, b in zip(mlp.weights, again.weights):
        np.testing.assert_array_equal(a, b)


def test_forward_linear_identity_case():
    mlp = nnet.init_mlp([2, 2], np.random.default_rng(0))
    mlp.weights[0][:] = np.eye(2)
    mlp.biases[0][:] = [1.0, -1.0]
    out, _ = nnet.forward(mlp, np.array([[2.0, 3.0]]))
    np.testing.assert_allclose(out, [[3.0, 2.0]])


def test_forward_applies_relu_between_layers():
    mlp = nnet.init_mlp([1, 1, 1], np.random.default_rng(0))
    mlp.weights[0][:] = [[1.0]]
    mlp.biases[0][:] = [0.0]
    mlp.weights[1][:] = [[1.0]]
    mlp.biases[1][:] = [0.0]
    out, _ = nnet.forward(mlp, np.array([[-5.0], [5.0]]))
    # negative pre-activation is clamped before the output layer
    np.testing.assert_allclose(out, [[0.0], [5.0]])


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(1)
    mlp = nnet.init_mlp([4, 6, 2], rng)
    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 2))

    def loss_and_grads():
        out, cache = nnet.forward(mlp, x)
        diff = out - target
        gw, gb = nnet.backward(mlp, cache, diff / diff.size * 2)
        return float((diff**2).mean()), gw + gb

    loss, grads = loss_and_grads()
    params = nnet.flat_params([mlp])
    eps = 1e-6
    for p, g in zip(params, grads):
        i = tuple(rng.integers(0, s) for s in p.shape)
        keep = p[i]
        p[i] = keep + eps
        up, _ = loss_and_grads()
        p[i] = keep - eps
        dn, _ = loss_and_grads()
        p[i] = keep
        assert g[i] == pytest.approx((up - dn) / (2 * eps), rel=1e-4, abs=1e-9)


def test_dropout_is_inverted_and_inference_is_clean():
    mlp = nnet.init_mlp([1, 200, 1], np.random.default_rng(2))
    mlp.weights[0][:] = 1.0
    mlp.biases[0][:] = 0.0
    mlp.weights[1][:] = 1.0
    mlp.biases[1][:] = 0.0
    x = np.ones((1, 1))
    clean, _ = nnet.forward(mlp, x)
    # training mode rescales survivors, so the expectation stays put
    outs = [
        nnet.forward(mlp, x, dropout_rate=0.5, rng=np.random.default_rng(i))[0][0, 0]
        for i in range(300)
    ]
    assert np.mean(outs) == pytest.approx(clean[0, 0], rel=0.05)
    assert np.std(outs) > 0.0
    # no rng means inference: deterministic, no masking
    again, _ = nnet.forward(mlp, x)
    np.testing.assert_array_equal(clean, again)


def test_adam_minimizes_quadratic():
    p = np.array([5.0, -3.0])
    opt = nnet.Adam([p], lr=0.1)
    for _ in range(400):
        opt.step([p], [2 * p])
    assert np.abs(p).max() < 1e-3


def test_flat_params_aliases_storage():
    mlp = nnet.init_mlp([2, 3], np.random.default_rng(3))
    params = nnet.flat_params([mlp])
    params[0][0, 0] = 42.0
    assert mlp.weights[0][0, 0] == 42.0


def test_axis0_reduction_adds_rows_in_index_order():
    # infer_row's layer 0 relies on this numpy behaviour: reducing a gather
    # of two or more columns over axis 0 adds its rows one by one, as the
    # CSR product does. Pairwise or reordered sums of these rows give 0 or 2.
    rows = np.array([[1e16], [1.0], [-1e16], [1.0]])
    assert np.add.reduce(rows, axis=0, initial=0.0)[0] == 1.0
    # From eight rows on, numpy sums a lone column pairwise, which gives 0
    # here, so infer_row takes a running sum from zero for a one-unit layer 0.
    col = np.array([1e16, 1.0, -1e16, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert np.cumsum(np.concatenate(([0.0], col)))[-1] == 1.0
    pair = np.stack([col, -col], axis=1)
    assert np.array_equal(np.add.reduce(pair, axis=0, initial=0.0), [1.0, -1.0])
    wide = np.random.default_rng(0).normal(size=(300, 64)) * 10.0 ** np.arange(-8, 8, 0.25)
    in_order = np.zeros(64)
    for row in wide:
        in_order = in_order + row
    assert np.array_equal(np.add.reduce(wide, axis=0, initial=0.0), in_order)


def test_infer_row_equals_infer_of_each_batch_row():
    from scipy import sparse

    rng = np.random.default_rng(1)
    mlp = nnet.init_mlp([40, 32, 16, 4], rng)
    dense = (rng.random((19, 40)) < 0.3).astype(np.float64)
    dense[3] = 0.0  # an empty row
    dense = np.vstack([dense, np.ones(40)])  # every feature
    x = sparse.csr_matrix(dense)
    # A one-unit layer 0, where numpy would sum a row's weights pairwise;
    # weights of widely spread magnitudes make any reordering show.
    one_unit = [nnet.init_mlp(dims, rng) for dims in ([40, 1], [40, 1, 1])]
    for net in one_unit:
        net.weights[0] *= 10.0 ** rng.uniform(-8, 8, size=(40, 1))
    # Batches of 9 and 17 rows end in a partial block after one and two full
    # ones; each ends with the every-feature row.
    for net in [mlp, *one_unit, nnet.init_mlp([40, 8, 1], rng)]:
        for size in (9, 17, x.shape[0]):
            part = x[x.shape[0] - size :]
            batch = nnet.infer(net, part)
            for i in range(size):
                row = nnet.infer_row(net, part[i].indices)
                assert row.shape == (1, net.dims[-1]) and np.array_equal(row[0], batch[i])
