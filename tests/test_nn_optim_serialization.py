"""Tests for optimizers, gradient clipping, and parameter serialization."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, Dense, Sequential, Tanh, load_params, save_params
from repro.nn.layers import Parameter
from repro.nn.serialization import params_from_bytes, params_to_bytes


def quadratic_params():
    """A single parameter minimizing f(w) = 0.5*||w - target||²."""
    p = Parameter("w", np.array([5.0, -3.0]))
    target = np.array([1.0, 2.0])
    return p, target


class TestSGD:
    def test_converges_on_quadratic(self):
        p, target = quadratic_params()
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            p.zero_grad()
            p.grad += p.value - target
            opt.step()
        assert np.allclose(p.value, target, atol=1e-4)

    def test_momentum_accelerates(self):
        p1, target = quadratic_params()
        p2 = Parameter("w", p1.value.copy())
        plain = SGD([p1], lr=0.01)
        momo = SGD([p2], lr=0.01, momentum=0.9)
        for _ in range(50):
            for p, opt in [(p1, plain), (p2, momo)]:
                p.zero_grad()
                p.grad += p.value - target
                opt.step()
        assert np.linalg.norm(p2.value - target) < np.linalg.norm(p1.value - target)

    def test_validation(self):
        p, _ = quadratic_params()
        with pytest.raises(ValueError):
            SGD([p], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_converges_on_quadratic(self):
        p, target = quadratic_params()
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            p.zero_grad()
            p.grad += p.value - target
            opt.step()
        assert np.allclose(p.value, target, atol=1e-3)

    def test_first_step_size_is_lr(self):
        """With bias correction the first Adam step has magnitude ≈ lr."""
        p = Parameter("w", np.array([0.0]))
        opt = Adam([p], lr=0.01)
        p.grad += np.array([123.0])
        opt.step()
        assert abs(p.value[0]) == pytest.approx(0.01, rel=1e-3)

    def test_validation(self):
        p, _ = quadratic_params()
        with pytest.raises(ValueError):
            Adam([p], lr=0.1, beta1=1.0)
        with pytest.raises(ValueError):
            Adam([p], lr=0.1, beta2=-0.1)

    def test_zero_grad_clears(self):
        p, _ = quadratic_params()
        opt = Adam([p], lr=0.1)
        p.grad += 1.0
        opt.zero_grad()
        assert np.all(p.grad == 0.0)


class TestClipGradients:
    def test_clip_reduces_norm(self):
        p = Parameter("w", np.zeros(4))
        p.grad += np.array([3.0, 4.0, 0.0, 0.0])
        pre = SGD([p], lr=0.1).clip_gradients(max_norm=1.0)
        assert pre == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-6)

    def test_no_clip_below_threshold(self):
        p = Parameter("w", np.zeros(2))
        p.grad += np.array([0.3, 0.4])
        SGD([p], lr=0.1).clip_gradients(max_norm=1.0)
        assert np.allclose(p.grad, [0.3, 0.4])

    def test_invalid_norm_raises(self):
        with pytest.raises(ValueError):
            Adam([Parameter("w", np.zeros(2))], lr=0.1).clip_gradients(max_norm=0.0)


class TestSerialization:
    def _make_net(self, seed):
        rng = np.random.default_rng(seed)
        return Sequential(Dense(3, 4, rng, name="l0"), Tanh(), Dense(4, 2, rng, name="l1"))

    def test_save_load_round_trip(self, tmp_path):
        net1 = self._make_net(0)
        net2 = self._make_net(1)
        path = tmp_path / "ckpt.npz"
        save_params(net1.parameters(), path)
        load_params(net2.parameters(), path)
        for a, b in zip(net1.parameters(), net2.parameters()):
            assert np.allclose(a.value, b.value)

    def test_bytes_round_trip(self):
        net1 = self._make_net(0)
        net2 = self._make_net(1)
        blob = params_to_bytes(net1.parameters())
        params_from_bytes(net2.parameters(), blob)
        x = np.random.default_rng(2).normal(size=(3, 3))
        assert np.allclose(net1.forward(x), net2.forward(x))

    def test_mismatched_count_raises(self, tmp_path):
        net = self._make_net(0)
        path = tmp_path / "ckpt.npz"
        save_params(net.parameters(), path)
        small = Sequential(Dense(3, 4, np.random.default_rng(0), name="l0"))
        with pytest.raises(ValueError):
            load_params(small.parameters(), path)

    def test_mismatched_name_raises(self, tmp_path):
        net = self._make_net(0)
        path = tmp_path / "ckpt.npz"
        save_params(net.parameters(), path)
        other = Sequential(Dense(3, 4, np.random.default_rng(0), name="x0"),
                           Tanh(), Dense(4, 2, np.random.default_rng(0), name="x1"))
        with pytest.raises(ValueError):
            load_params(other.parameters(), path)

    def test_mismatched_shape_raises(self, tmp_path):
        net = self._make_net(0)
        path = tmp_path / "ckpt.npz"
        save_params(net.parameters(), path)
        other = Sequential(Dense(3, 5, np.random.default_rng(0), name="l0"),
                           Tanh(), Dense(5, 2, np.random.default_rng(0), name="l1"))
        with pytest.raises(ValueError):
            load_params(other.parameters(), path)
