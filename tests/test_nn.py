"""Dense networks: forward oracles, exact gradients, Adam, persistence."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import dense_backward, dense_forward
from pvclean.nn import Adam, DenseNet, clip_global_norm, load_net, save_net


def _softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def test_constructor_validation():
    with pytest.raises(ValueError):
        DenseNet([4, 3], ["relu", "linear"])
    with pytest.raises(ValueError):
        DenseNet([4, 3, 2], ["sigmoid", "linear"])
    with pytest.raises(ValueError):
        DenseNet([4, 3, 2], ["softmax", "linear"])


def test_forward_oracle_hand_weights():
    net = DenseNet([2, 2, 2], ["relu", "linear"])
    net.weights[0] = np.array([[1.0, -1.0], [0.5, 2.0]])
    net.biases[0] = np.array([0.1, -0.2])
    net.weights[1] = np.array([[2.0, 0.0], [1.0, 1.0]])
    net.biases[1] = np.array([0.0, 1.0])
    x = np.array([1.0, 2.0])
    h = np.maximum(net.weights[0] @ x + net.biases[0], 0.0)
    expect = net.weights[1] @ h + net.biases[1]
    np.testing.assert_allclose(net.forward(x), expect, rtol=1e-15)


def test_softmax_head_sums_to_one():
    net = DenseNet([6, 16, 2], ["relu", "softmax"], seed=1)
    x = np.random.default_rng(0).normal(size=(20, 6))
    p = net.forward(x)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-12)
    assert np.all(p > 0.0)
    # Batch row equals single-vector forward.
    np.testing.assert_allclose(net.forward(x[3]), p[3], rtol=1e-15)


def test_forward_dimension_mismatch():
    net = DenseNet([4, 2], ["linear"])
    with pytest.raises(ValueError):
        net.forward(np.zeros(3))


def test_backward_requires_forward():
    net = DenseNet([4, 2], ["linear"])
    with pytest.raises(RuntimeError):
        net.backward(np.zeros(2))


def central_difference_check(net, loss_grad, n_probe=100, eps=1e-6, seed=0):
    """Max relative error of analytic vs central-difference gradients.

    ``loss_grad`` maps the network output to (scalar loss, dL/doutput).
    """
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(5, net.in_dim))
    out = net.forward(x)
    _, g_out = loss_grad(out)
    grads = net.backward(g_out)
    params = net.parameters()
    worst = 0.0
    for _ in range(n_probe):
        i = int(gen.integers(len(params)))
        flat = params[i].reshape(-1)
        j = int(gen.integers(flat.size))
        orig = flat[j]
        flat[j] = orig + eps
        lp, _ = loss_grad(net.forward(x))
        flat[j] = orig - eps
        lm, _ = loss_grad(net.forward(x))
        flat[j] = orig
        numeric = (lp - lm) / (2 * eps)
        analytic = grads[i].reshape(-1)[j]
        denom = max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / denom)
    net.forward(x)  # restore cache consistency
    return worst


def quadratic_loss(out):
    return 0.5 * float(np.sum(out ** 2)), out


def log_loss(out):
    # Cross-entropy against the first class, exercising the softmax jacobian.
    p = np.clip(out[:, 0], 1e-12, None)
    loss = -float(np.sum(np.log(p)))
    g = np.zeros_like(out)
    g[:, 0] = -1.0 / p
    return loss, g


@pytest.mark.parametrize("dims, acts, loss", [
    ([6, 256, 2], ["relu", "softmax"], log_loss),
    ([6, 256, 1], ["relu", "linear"], quadratic_loss),
    ([6, 256, 256, 2], ["relu", "relu", "softmax"], log_loss),
    ([8, 256, 256, 1], ["relu", "relu", "linear"], quadratic_loss),
], ids=["actor", "critic", "sac-actor", "sac-critic"])
def test_gradients_match_central_differences(dims, acts, loss):
    net = DenseNet(dims, acts, seed=3)
    assert central_difference_check(net, loss) <= 1e-4


def test_adam_first_step_oracle():
    net = DenseNet([1, 1], ["linear"], seed=0)
    net.weights[0][:] = 1.0
    net.biases[0][:] = 0.5
    opt = Adam(net, lr=0.1)
    grads = [np.array([[2.0]]), np.array([3.0])]
    opt.step(grads)
    # First Adam step moves each parameter by lr * sign(g) (bias-corrected
    # moments cancel): m-hat/sqrt(v-hat) = g/|g|.
    assert net.weights[0][0, 0] == pytest.approx(1.0 - 0.1, rel=1e-6)
    assert net.biases[0][0] == pytest.approx(0.5 - 0.1, rel=1e-6)


def test_adam_converges_on_quadratic():
    net = DenseNet([3, 1], ["linear"], seed=5)
    opt = Adam(net, lr=0.05)
    x = np.random.default_rng(1).normal(size=(64, 3))
    target = x @ np.array([1.0, -2.0, 0.5]).reshape(3, 1) + 0.3
    for _ in range(2000):
        out = net.forward(x)
        err = out - target
        opt.step(net.backward(2 * err / len(x)))
    assert float(np.mean((net.forward(x) - target) ** 2)) < 1e-6


def test_adam_rejects_mismatched_grads():
    net = DenseNet([2, 1], ["linear"])
    with pytest.raises(ValueError):
        Adam(net, 0.01).step([np.zeros((1, 2))])


def test_clip_global_norm():
    grads = [np.array([3.0]), np.array([4.0])]
    clipped = clip_global_norm(grads, 1.0)
    total = np.sqrt(sum(float(np.sum(g * g)) for g in clipped))
    assert total == pytest.approx(1.0, rel=1e-12)
    # Below the threshold the list is untouched.
    same = clip_global_norm(grads, 10.0)
    assert same is grads


def test_save_load_bit_exact(tmp_path):
    net = DenseNet([6, 32, 2], ["relu", "softmax"], seed=9)
    path = tmp_path / "net.txt"
    save_net(net, path)
    loaded = load_net(path)
    x = np.random.default_rng(2).normal(size=(10, 6))
    np.testing.assert_array_equal(net.forward(x), loaded.forward(x))
    for a, b in zip(net.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(a, b)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(dims=st.lists(st.integers(1, 8), min_size=2, max_size=5),
       softmax=st.booleans(), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_save_load_net_is_the_identity(dims, softmax, seed, data):
    """Any weights, subnormals and signed zeros included, come back bit for bit."""
    acts = ["relu"] * (len(dims) - 2) + ["softmax" if softmax else "linear"]
    net = DenseNet(dims, acts, seed=seed)
    values = st.floats(-1e3, 1e3, allow_subnormal=True)
    for params in (net.weights, net.biases):
        for i, p in enumerate(params):
            params[i] = data.draw(arrays(np.float64, p.shape, elements=values))
    x = data.draw(arrays(np.float64, (3, dims[0]), elements=st.floats(-10, 10)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.txt"
        save_net(net, path)
        loaded = load_net(path)
    assert (loaded.layer_dims, loaded.activations) == (net.layer_dims, net.activations)
    for a, b in zip(net.parameters(), loaded.parameters()):
        assert a.shape == b.shape and np.array_equal(_bits(a), _bits(b))
    assert np.array_equal(_bits(net.forward(x)), _bits(loaded.forward(x)))


@st.composite
def dense_cases(draw):
    """A seeded net of 2 or 3 layers with non-zero biases, its input rows
    (a single vector, one row or 2-600 rows) and a dL/d(output) of its
    output's shape.  Hidden layers are relu or linear; the head is relu,
    linear or softmax."""
    n_layers = draw(st.integers(2, 3))
    dims = draw(st.lists(st.integers(1, 8) | st.sampled_from([64, 256]),
                         min_size=n_layers + 1, max_size=n_layers + 1))
    hidden = draw(st.lists(st.sampled_from(["relu", "linear"]),
                           min_size=n_layers - 1, max_size=n_layers - 1))
    acts = [*hidden, draw(st.sampled_from(["relu", "linear", "softmax"]))]
    seed = draw(st.integers(0, 2 ** 32 - 1))
    net = DenseNet(dims, acts, seed=seed)
    gen = np.random.default_rng(seed)
    for b in net.biases:
        b[:] = gen.normal(0.0, 0.5, size=b.shape)
    shape = draw(st.sampled_from([(dims[0],), (1, dims[0])])
                 | st.integers(2, 600).map(lambda n: (n, dims[0])))
    x = gen.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 30.0])), size=shape)
    rows = 1 if len(shape) == 1 else shape[0]
    grad_out = gen.normal(size=(rows, dims[-1]))
    return net, x, grad_out


@settings(max_examples=150, deadline=None)
@given(case=dense_cases())
def test_passes_equal_the_out_of_place_oracle(case):
    """forward's output and cache and backward's gradients are bit for bit
    the oracle's, which runs today's chain with one new array per step."""
    net, x, grad_out = case
    out = net.forward(x)
    expect, cache = dense_forward(net, np.atleast_2d(x))
    assert np.array_equal(_bits(np.atleast_2d(out)), _bits(expect))
    assert len(net._cache) == len(cache)
    for got, want in zip(net._cache, cache):
        assert np.array_equal(_bits(got), _bits(want))
    grads = net.backward(grad_out)
    oracle = dense_backward(net, cache, grad_out)
    assert [g.shape for g in grads] == [p.shape for p in net.parameters()]
    for got, want in zip(grads, oracle):
        assert np.array_equal(_bits(got), _bits(want))


@settings(max_examples=100, deadline=None)
@given(case=dense_cases(), second=st.booleans())
def test_passes_write_only_their_own_arrays(case, second):
    """forward never writes to its input or to an earlier call's output, and
    backward never writes to grad_out or to the cached activations."""
    net, x, grad_out = case
    x_bits = _bits(x).copy()
    out = net.forward(x)
    out_bits = _bits(out).copy()
    if second:
        net.forward(x + 1.0)
        assert np.array_equal(_bits(out), out_bits)
        net.forward(x)
    cache_bits = [_bits(a).copy() for a in net._cache]
    g_bits = _bits(grad_out).copy()
    net.backward(grad_out)
    assert np.array_equal(_bits(grad_out), g_bits)
    assert np.array_equal(_bits(x), x_bits)
    for a, bits in zip(net._cache, cache_bits):
        assert np.array_equal(_bits(a), bits)
    assert np.array_equal(_bits(out), out_bits)


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.txt"
    path.write_text("something else\n")
    with pytest.raises(ValueError):
        load_net(path)


_MALFORMED = {
    "header only": lambda text, lines: "".join(lines[:3]),
    "last row missing": lambda text, lines: "".join(lines[:-1]),
    "short row": lambda text, lines: "".join(lines[:3]) + lines[3].split(" ", 1)[1]
    + "".join(lines[4:]),
    "cut mid-number": lambda text, lines: text[:len(text) // 2],
    "extra line": lambda text, lines: text + lines[-1],
    "bad dims": lambda text, lines: text.replace("dims 6 32 2", "dims 6 x 2"),
    "activation count": lambda text, lines: text.replace("relu softmax", "relu"),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("line", [4, 8, 11], ids=["weight", "bias", "last-bias"])
def test_load_rejects_a_non_finite_value(tmp_path, line, value):
    path = tmp_path / "net.txt"
    save_net(DenseNet([6, 4, 2], ["relu", "softmax"], seed=9), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 11
    lines[line - 1] = " ".join([*lines[line - 1].split()[:-1], value])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"net.txt: line {line}: non-finite"):
        load_net(path)


def test_load_names_the_file_of_a_non_utf8_net(tmp_path):
    path = tmp_path / "net.txt"
    save_net(DenseNet([6, 4, 2], ["relu", "softmax"], seed=9), path)
    path.write_bytes(path.read_bytes().replace(b"relu", b"r\xfflu"))
    with pytest.raises(ValueError, match="net.txt: 'utf-8' codec"):
        load_net(path)


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_load_rejects_malformed_file(tmp_path, case):
    """A truncated or inconsistent file is a ValueError, never an IndexError."""
    path = tmp_path / "net.txt"
    save_net(DenseNet([6, 32, 2], ["relu", "softmax"], seed=9), path)
    text = path.read_text()
    path.write_text(_MALFORMED[case](text, text.splitlines(keepends=True)))
    with pytest.raises(ValueError, match="net.txt"):
        load_net(path)


def test_copy_is_deep():
    net = DenseNet([3, 2], ["linear"], seed=1)
    other = net.copy()
    other.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != other.weights[0][0, 0]


def test_same_seed_same_init():
    a = DenseNet([4, 8, 2], ["relu", "linear"], seed=42)
    b = DenseNet([4, 8, 2], ["relu", "linear"], seed=42)
    for pa, pb in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(pa, pb)
