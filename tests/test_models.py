import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypoflow as hf
from hypoflow.models import SQRT2

from conftest import all_models, random_point


def compose_many(model, pts):
    out = pts[0]
    for p in pts[1:]:
        out = model.compose(out, p)
    return out


class TestGroupLaws:
    def test_kolmogorov_examples(self):
        np.testing.assert_allclose(
            hf.group_compose(hf.KOLMOGOROV, [1, 0, 0], [0, 0, 1]), [1, -1, 1]
        )
        np.testing.assert_allclose(
            hf.group_compose(hf.KOLMOGOROV, [1, 2, 3], [0, 0, 0]), [1, 2, 3]
        )

    def test_kolmogorov_is_the_chain_at_two(self):
        assert hf.iterated_kolmogorov(2) is hf.KOLMOGOROV
        assert hf.KOLMOGOROV.name == "kolmogorov"

    def test_kolmogorov_compose_written_out(self, rng):
        # (x0, y0, t0) o (x, y, t) = (x + x0, (y + y0) - t x0, t + t0), bit for bit
        a = rng.standard_normal((10_000, 3)) * np.exp(rng.uniform(-5, 5, (10_000, 3)))
        b = rng.standard_normal((10_000, 3)) * np.exp(rng.uniform(-5, 5, (10_000, 3)))
        (x0, y0, t0), (x, y, t) = a.T, b.T
        want = np.stack([x + x0, (y + y0) - t * x0, t + t0], axis=1)
        np.testing.assert_array_equal(hf.KOLMOGOROV.compose(a, b), want)
        one = np.stack([x + x0[0], (y + y0[0]) - t * x0[0], t + t0[0]], axis=1)
        np.testing.assert_array_equal(hf.KOLMOGOROV.compose(a[0], b), one)

    def test_heisenberg_example(self):
        np.testing.assert_allclose(
            hf.group_compose(hf.HEISENBERG, [1, 0, 0, 0], [0, 1, 0, 0]),
            [1, 1, 0.5, 0],
        )

    def test_asian_example(self):
        np.testing.assert_allclose(
            hf.group_compose(hf.ASIAN, [2, 1, 0], [3, 1, 0]), [6, 3, 0]
        )

    def test_inverse_examples(self):
        np.testing.assert_allclose(
            hf.group_inverse(hf.KOLMOGOROV, [0, 0, 0]), [0, 0, 0]
        )
        inv = hf.group_inverse(hf.KOLMOGOROV, [1, 0, 0])
        np.testing.assert_allclose(inv, [-1, 0, 0])
        np.testing.assert_allclose(
            hf.group_compose(hf.KOLMOGOROV, inv, [1, 0, 0]), [0, 0, 0], atol=1e-15
        )
        np.testing.assert_allclose(
            hf.group_inverse(hf.ASIAN, [2, 4, 1]), [0.5, -2, -1]
        )

    @pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
    def test_group_axioms(self, model, rng):
        ident = model.identity()
        for _ in range(10_000 // 8):
            a, b, c = (random_point(model, rng) for _ in range(3))
            left = model.compose(model.compose(a, b), c)
            right = model.compose(a, model.compose(b, c))
            np.testing.assert_allclose(left, right, rtol=0, atol=1e-12)
            np.testing.assert_allclose(model.compose(ident, a), a, atol=1e-12)
            np.testing.assert_allclose(model.compose(a, ident), a, atol=1e-12)
            np.testing.assert_allclose(
                model.compose(model.inverse(a), a), ident, rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_group_axioms_property(self, model, data):
        coord = st.floats(-4.0, 4.0)
        first = st.floats(0.05, 20.0) if model is hf.ASIAN else coord
        point = st.tuples(first, *[coord] * model.dim).map(np.array)
        a, b, c = data.draw(st.tuples(point, point, point))
        ident = model.identity()
        scale = 1.0 + max(np.abs(p).max() for p in (a, b, c, model.inverse(a)))
        atol = 1e-13 * scale**3  # compose is at most cubic in the coordinates
        np.testing.assert_allclose(model.compose(model.compose(a, b), c),
                                   model.compose(a, model.compose(b, c)), rtol=0, atol=atol)
        np.testing.assert_allclose(model.compose(ident, a), a, rtol=0, atol=atol)
        np.testing.assert_allclose(model.compose(a, ident), a, rtol=0, atol=atol)
        np.testing.assert_allclose(model.compose(model.inverse(a), a), ident, rtol=0, atol=atol)
        np.testing.assert_allclose(model.compose(a, model.inverse(a)), ident, rtol=0, atol=atol)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hf.group_compose(hf.KOLMOGOROV, [1, 0, 0, 0], [0, 0, 1])

    def test_asian_domain_error(self):
        with pytest.raises(hf.DomainError):
            hf.group_compose(hf.ASIAN, [-1, 0, 0], [1, 0, 0])


class TestBatchedGroupLaw:
    @pytest.mark.parametrize("model", all_models() + [hf.iterated_kolmogorov(5)],
                             ids=lambda m: m.name)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rows_match_single_calls(self, model, data):
        # an (n, dim+1) array composes, inverts and flows row by row, bit for bit
        coord = st.floats(-4.0, 4.0)
        first = st.floats(0.05, 20.0) if model is hf.ASIAN else coord
        point = st.tuples(first, *[coord] * model.dim)
        n = data.draw(st.integers(1, 6))
        a = np.array(data.draw(st.lists(point, min_size=n, max_size=n)))
        b = np.array(data.draw(st.lists(point, min_size=n, max_size=n)))
        omega = np.array(data.draw(st.lists(coord, min_size=model.n_controls,
                                            max_size=model.n_controls)))
        s = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))

        def rows(fn, *args):
            return np.array([fn(*row) for row in zip(*args)])

        np.testing.assert_array_equal(model.compose(a, b), rows(model.compose, a, b))
        np.testing.assert_array_equal(model.compose(a[0], b),
                                      rows(model.compose, [a[0]] * n, b))
        np.testing.assert_array_equal(model.compose(a, b[0]),
                                      rows(model.compose, a, [b[0]] * n))
        np.testing.assert_array_equal(model.inverse(a), rows(model.inverse, a))
        np.testing.assert_array_equal(model.flow(omega, s),
                                      rows(lambda si: model.flow(omega, float(si)), s))
        assert model.compose(a[:1], b[:1]).shape == (1, model.dim + 1)
        assert model.flow(omega, 0.5).shape == (model.dim + 1,)

    def test_array_validation(self):
        K = hf.KOLMOGOROV
        with pytest.raises(ValueError):
            K.compose(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            K.compose(np.zeros((2, 3)), [[0, 0, 0], [0, np.nan, 0]])
        with pytest.raises(ValueError):
            K.check_point(np.zeros((2, 4)))
        with pytest.raises(hf.DomainError):
            hf.ASIAN.compose([1.0, 0, 0], [[1.0, 0, 0], [0.0, 0, 0]])
        assert K.check_point(np.zeros((2, 5, 3))).shape == (2, 5, 3)


def field(model, z, omega):
    """omega.X + Y at z, written out from each model's operator."""
    xs, w = z[:-1], np.asarray(omega, dtype=float)
    if model.name.startswith("heat"):
        v = w
    elif model is hf.HEISENBERG:
        x, y, _ = xs
        v = [w[0], w[1], 0.5 * (x * w[1] - y * w[0])]
    elif model is hf.KOLMOGOROV:
        v = [w[0], xs[0]]
    elif model.name.startswith("iterated_kolmogorov"):
        v = np.append(w[0], xs[:-1])
    elif model is hf.QUADRATIC_LIFTED:
        v = [w[0], xs[0] ** 2, xs[0]]
    else:
        assert model is hf.ASIAN
        v = [w[0] * xs[0], xs[0]]
    return np.append(v, -1.0)


class TestFlow:
    @pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
    def test_derivative_is_the_field(self, model, rng):
        # d/ds z o flow(omega, s) at s = 0 is the field at z, by a central
        # difference; z = identity checks the flow itself
        h = 1e-5
        points = [model.identity()] + [random_point(model, rng) for _ in range(20)]
        for z in points:
            omega = rng.standard_normal(model.n_controls)
            ahead = model.compose(z, model.flow(omega, h))
            behind = model.compose(z, model.flow(omega, -h))
            np.testing.assert_allclose(
                (ahead - behind) / (2 * h), field(model, z, omega), rtol=1e-7, atol=1e-8
            )

    @pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
    def test_one_parameter_group(self, model, rng):
        for _ in range(200):
            omega = 2.0 * rng.standard_normal(model.n_controls)
            a, b = rng.uniform(-1.0, 1.0, 2)
            np.testing.assert_allclose(
                model.compose(model.flow(omega, a), model.flow(omega, b)),
                model.flow(omega, a + b),
                rtol=1e-12,
                atol=1e-13,
            )
        np.testing.assert_array_equal(model.flow(omega, 0.0), model.identity())


class TestEmStep:
    @pytest.mark.structural
    @pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
    def test_step_is_the_translation_by_the_increment(self, model, rng):
        # z o (SQRT2 dW, 0, ..., -dt), or for asian z o (g, (1 + g) dt/2, -dt)
        # with g = 1 + SQRT2 dW + SQRT2^2 dt/2; the chain at N >= 3 steps by
        # the first-order truncation of that translation
        k, dt = 500, 0.01
        z = np.array([random_point(model, rng) for _ in range(k)])
        dw = rng.standard_normal((model.n_controls, k)) * np.sqrt(dt)
        if model is hf.ASIAN:
            g = 1.0 + SQRT2 * dw[0] + SQRT2**2 * dt / 2.0
            increment = np.stack([g, 0.5 * (1.0 + g) * dt, np.full(k, -dt)], axis=1)
        else:
            increment = np.zeros((k, model.dim + 1))
            increment[:, :model.n_controls] = SQRT2 * dw.T
            increment[:, -1] = -dt
        target = model.compose(z, increment)[:, :-1]
        stepped = np.ascontiguousarray(z[:, :-1].T)
        assert model.em_step(stepped, dw, dt) == 0
        if isinstance(model, type(hf.KOLMOGOROV)) and model.dim >= 3:
            gap = np.abs(stepped.T - target).max()
            assert 0.0 < gap <= dt**2 * np.abs(z).max()
        else:
            np.testing.assert_allclose(stepped.T, target, rtol=1e-13, atol=1e-15)

    @pytest.mark.structural
    def test_zero_noise_follows_the_drift(self):
        # dW = 0: 100 steps of dt = 0.01 transport y by x (kolmogorov); the
        # asian price follows its Ito drift x' = x and y is its trapezoid sum
        growth = 1.0 + 0.5 * SQRT2**2 * 0.01
        price = 1.5 * growth ** np.arange(101)
        average = np.sum(0.5 * (price[1:] + price[:-1]) * 0.01)
        for model, start, end in ((hf.KOLMOGOROV, [2.0, 1.0], [2.0, 3.0]),
                                  (hf.ASIAN, [1.5, 0.0], [price[-1], average])):
            z = np.array(start)[:, None]
            for _ in range(100):
                assert model.em_step(z, np.zeros((1, 1)), 0.01) == 0
            np.testing.assert_allclose(z[:, 0], end, rtol=1e-12)


class TestDilations:
    def test_examples(self):
        np.testing.assert_allclose(hf.dilate(hf.KOLMOGOROV, 2, [1, 1, 1]), [2, 8, 4])
        np.testing.assert_allclose(
            hf.dilate(hf.QUADRATIC_LIFTED, 2, [1, 1, 1, 1]), [2, 16, 8, 4]
        )
        np.testing.assert_allclose(
            hf.dilate(hf.HEISENBERG, 3, [1, 1, 1, 1]), [3, 3, 9, 9]
        )
        z = np.array([0.3, -0.7, 2.0])
        np.testing.assert_allclose(hf.dilate(hf.KOLMOGOROV, 1.0, z), z)

    @pytest.mark.parametrize(
        "model", [m for m in all_models() if m.has_dilation], ids=lambda m: m.name
    )
    def test_one_parameter_group(self, model, rng):
        for _ in range(200):
            z = random_point(model, rng)
            r, s = np.exp(rng.standard_normal(2) * 0.5)
            np.testing.assert_allclose(
                model.dilate(r, model.dilate(s, z)),
                model.dilate(r * s, z),
                rtol=1e-12,
                atol=1e-12,
            )

    def test_asian_unsupported(self):
        with pytest.raises(hf.UnsupportedOperationError):
            hf.dilate(hf.ASIAN, 2.0, [1, 0, 0])

    def test_homogeneous_dimension_registry(self):
        assert hf.HEISENBERG.hom_dim == 4
        assert hf.KOLMOGOROV.hom_dim == 4
        assert hf.iterated_kolmogorov(3).hom_dim == 9
        assert hf.iterated_kolmogorov(5).hom_dim == 25
        assert hf.heat(4).hom_dim == 4
        assert hf.ASIAN.hom_dim is None

    def test_dimension_registry(self):
        assert (hf.HEISENBERG.dim, hf.HEISENBERG.n_controls) == (3, 2)
        assert (hf.KOLMOGOROV.dim, hf.KOLMOGOROV.n_controls) == (2, 1)
        assert (hf.QUADRATIC_LIFTED.dim, hf.QUADRATIC_LIFTED.n_controls) == (3, 1)
        assert (hf.ASIAN.dim, hf.ASIAN.n_controls) == (2, 1)
        assert not hf.ASIAN.has_dilation
        assert (hf.iterated_kolmogorov(4).dim, hf.iterated_kolmogorov(4).n_controls) == (4, 1)
        assert (hf.heat(3).dim, hf.heat(3).n_controls) == (3, 3)
        assert hf.heat(3) is hf.heat(3)


class TestAttainableSets:
    def test_quadratic_examples(self):
        assert hf.attainable_quadratic([0, 0.1, 0.5, -1])
        assert hf.attainable_quadratic([0, 0, 0, 0])
        assert not hf.attainable_quadratic([0, 0.8, 0.5, -1])


class TestByName:
    @pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
    def test_round_trip(self, model):
        assert hf.models.by_name(model.name) is model

    def test_heat3(self):
        assert hf.models.by_name("heat3") is hf.heat(3)

    def test_iterated_two_is_kolmogorov(self):
        assert hf.models.by_name("iterated_kolmogorov2") is hf.KOLMOGOROV

    def test_unknown_name(self):
        with pytest.raises(hf.DomainError) as info:
            hf.models.by_name("nope")
        assert str(info.value) == "unknown model 'nope'"
