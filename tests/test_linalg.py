import math
import re

import numpy as np
import pytest

from alphaprobe.linalg import (
    PSD_ATOL,
    DensityMatrix,
    NotHermitianError,
    NotPositiveError,
    check_density_matrices,
    check_integer,
    check_positive,
    check_real,
    density_matrices,
    matrix_from_json,
    matrix_to_json,
)
from alphaprobe.scenario import json_bytes
from support import (
    partial_trace_env,
    project_to_state,
    rand_state,
    rand_unitary,
)


def rand_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


class TestProjectToState:
    """The eigendecomposition repair in support.py, the oracle of tomography.reconstruct."""

    def test_fixed_point(self):
        rng = np.random.default_rng(5)
        rho = rand_state(rng, 3)
        out = project_to_state(rho)
        assert np.abs(out - rho).max() <= 1e-12

    def test_clip_then_normalize(self):
        out = project_to_state(np.diag([1.1, -0.1]))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_clip_matches_grid_search_oracle(self):
        # nearest diagonal state by brute force over diag(p, 1-p)
        target = np.diag([1.1, -0.1])
        ps = np.linspace(0.0, 1.0, 100001)
        dists = (1.1 - ps) ** 2 + (-0.1 - (1.0 - ps)) ** 2
        best = ps[np.argmin(dists)]
        out = project_to_state(target)
        assert abs(out[0, 0].real - best) <= 1e-4

    def test_pure_rescaling(self):
        out = project_to_state(np.diag([0.6, 0.6]))
        assert np.allclose(out, np.diag([0.5, 0.5]))

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        m = rand_hermitian(rng, 4)
        once = project_to_state(m)
        twice = project_to_state(once)
        assert np.abs(once - twice).max() <= 1e-12

    def test_all_clipped_rejected(self):
        with pytest.raises(ValueError, match="no positive"):
            project_to_state(-np.eye(2))


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(13)
        rho = rand_state(rng, 2)
        xi = rand_state(rng, 3)
        out = partial_trace_env(np.kron(rho, xi), 2, 3)
        assert np.abs(out - rho).max() <= 1e-12

    def test_bell_projector(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / np.sqrt(2)
        out = partial_trace_env(np.outer(bell, bell.conj()), 2, 2)
        assert np.allclose(out, np.eye(2) / 2)

    def test_against_naive_oracle(self):
        from support import naive_partial_trace

        rng = np.random.default_rng(17)
        joint = rand_state(rng, 12)
        fast = partial_trace_env(joint, 3, 4)
        slow = naive_partial_trace(joint, 3, 4)
        assert np.abs(fast - slow).max() <= 1e-13

    def test_trace_preserved_under_joint_unitary(self):
        rng = np.random.default_rng(19)
        rho = rand_state(rng, 2)
        xi = rand_state(rng, 4)
        u = rand_unitary(rng, 8)
        joint = u @ np.kron(rho, xi) @ u.conj().T
        out = partial_trace_env(joint, 2, 4)
        assert abs(np.trace(out).real - 1.0) <= 1e-12
        assert abs(np.trace(out).imag) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            partial_trace_env(np.eye(6), 2, 2)


class TestDensityMatrix:
    def test_valid_state(self):
        rng = np.random.default_rng(23)
        rho = rand_state(rng, 2)
        dm = DensityMatrix(rho)
        assert dm.dim == 2
        assert not dm.matrix.flags.writeable

    def test_repr_names_the_dimension(self):
        assert repr(DensityMatrix(np.eye(2) / 2)) == "DensityMatrix(dim=2)"

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositiveError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.6, 0.6]))

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (2, 2, 2)])
    def test_rejects_arrays_that_are_not_one_square_matrix(self, shape):
        with pytest.raises(ValueError, match="must be square"):
            DensityMatrix(np.full(shape, 0.5))

    def test_imaginary_diagonal_is_bounded_by_the_hermitian_rule(self):
        # |m - m^dagger| on the diagonal is 2 |Im m_ii|: 8e-10 passes, 1.2e-9 does not
        dm = DensityMatrix(np.diag([0.5 + 4e-10j, 0.5]))
        assert np.trace(dm.matrix).imag == 0.0
        assert np.trace(dm.matrix).real == 1.0
        with pytest.raises(NotHermitianError):
            DensityMatrix(np.diag([0.5 + 6e-10j, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_rejects_non_finite_entries(self, dim, bad):
        # every invariant compares against NaN as False, so only an explicit check stops it
        m = np.eye(dim, dtype=complex) / dim
        m[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(m)

    def test_array_protocol_copies_only_when_asked(self):
        dm = DensityMatrix(np.eye(2) / 2)
        copied = np.array(dm)
        assert not np.shares_memory(copied, dm.matrix) and copied.flags.writeable
        assert np.asarray(dm) is dm.matrix
        assert np.asarray(dm, dtype=np.complex64).dtype == np.complex64
        with pytest.raises(ValueError, match="copy"):
            dm.__array__(np.complex64, copy=False)  # what np.asarray(..., copy=False) asks

    def test_json_round_trip(self):
        rng = np.random.default_rng(29)
        rho = rand_state(rng, 3)
        payload = matrix_to_json(rho)
        assert payload["dim"] == 3
        back = matrix_from_json(payload)
        assert np.abs(back - rho).max() == 0.0

    def test_json_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            matrix_from_json({"dim": 2, "re": [[1.0]], "im": [[0.0]]})

    def test_json_dim_must_be_a_positive_integer(self):
        for dim in (0, -1):
            with pytest.raises(ValueError, match="matrix dim must be at least 1"):
                matrix_from_json({"dim": dim, "re": [], "im": []})
        for dim in (2.0, True):
            with pytest.raises(ValueError, match="matrix dim must be an integer"):
                matrix_from_json({"dim": dim, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]})

    def test_json_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            matrix_from_json({"dim": 2, "re": [[1, 0], [0, 0]]})

    def test_json_payload_must_be_an_object(self):
        for payload, kind in ((5, "int"), ([[1, 0], [0, 0]], "list"), ("x", "str")):
            with pytest.raises(ValueError, match=f"^matrix payload must be a JSON object, got {kind}$"):
                matrix_from_json(payload)

    def test_save_matrix_refuses_non_finite_entries(self):
        # NaN would be written as a token that matrix_from_json cannot read back
        with pytest.raises(ValueError):
            json_bytes(matrix_to_json(np.array([[np.nan, 0.0], [0.0, 1.0]])))


NOT_FINITE_REALS = {
    "bool": True,
    "numpy-bool": np.True_,
    "string": "1",
    "bytes": b"1",
    "nan": np.nan,
    "inf": np.inf,
    "float32-inf": np.float32(np.inf),
    "int-beyond-float": 10**400,
}


class TestScalarRules:
    @pytest.mark.parametrize("bad", NOT_FINITE_REALS.values(), ids=NOT_FINITE_REALS.keys())
    def test_check_real_and_check_positive_reject(self, bad):
        with pytest.raises(ValueError, match=r"^x must be a finite number, got "):
            check_real(bad, "x")
        with pytest.raises(ValueError, match=r"^x must be positive, got "):
            check_positive(bad, "x")

    @pytest.mark.parametrize("bad", ["1e12", 0, -2.5])
    def test_check_positive_quotes_its_value(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"x must be positive, got {bad!r}")):
            check_positive(bad, "x")

    @pytest.mark.parametrize(
        "good, want", [(np.float32(0.25), 0.25), (np.int64(-3), -3.0), (7, 7.0), (-1e308, -1e308)]
    )
    def test_check_real_accepts_numpy_reals_as_floats(self, good, want):
        got = check_real(good, "x")
        assert type(got) is float and got == want

    @pytest.mark.parametrize("zero", [-0.0, np.float64(-0.0), np.float32(-0.0)])
    def test_check_real_keeps_the_sign_of_zero(self, zero):
        got = check_real(zero, "x")
        assert type(got) is float and got == 0.0 and math.copysign(1.0, got) == -1.0

    @pytest.mark.parametrize("good, want", [(np.float64(2.5), 2.5), (np.int64(7), 7.0),
                                            (2.5, 2.5), (7, 7.0)])
    def test_check_positive_accepts_exact_and_numpy_numbers(self, good, want):
        got = check_positive(good, "x")
        assert type(got) is float and got == want

    @pytest.mark.parametrize("bad", [True, math.inf, -math.inf, math.nan, 10**400, -10**400])
    def test_exact_types_are_rejected_with_the_same_messages(self, bad):
        with pytest.raises(ValueError) as error:
            check_real(bad, "x")
        assert str(error.value) == f"x must be a finite number, got {bad!r}"
        with pytest.raises(ValueError) as error:
            check_positive(bad, "x")
        assert str(error.value) == f"x must be positive, got {bad!r}"

    def test_check_integer_takes_exact_and_numpy_integers_only(self):
        for good in (7, np.int64(7), np.uint8(7)):
            got = check_integer(good, "n", 0, 10)
            assert type(got) is int and got == 7
        for bad in (True, np.True_, 7.0, np.float64(7.0), "7"):
            with pytest.raises(ValueError) as error:
                check_integer(bad, "n")
            assert str(error.value) == f"n must be an integer, got {bad!r}"
        for bad, rule in ((-1, "at least 0"), (11, "at most 10")):
            with pytest.raises(ValueError, match=f"^n must be {rule}, got {bad}$"):
                check_integer(bad, "n", 0, 10)


GOOD_QUBITS = [
    np.eye(2) / 2,
    np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]),
    np.diag([1.0, 0.0]),
]


BAD_QUBITS = {
    "nan-entry": np.array([[0.5, np.nan], [0.0, 0.5]]),
    "anti-hermitian-1e-8": np.eye(2) / 2 + 1e-8 * np.array([[0.0, 1.0], [-1.0, 0.0]]),
    "eigenvalue-minus-2e-9": np.diag([1.0 + 2e-9, -2e-9]),
    "trace-1-plus-1e-8": np.diag([0.5 + 1e-8, 0.5]),
}


class TestStackedCheck:
    """check_density_matrices, the one validator behind DensityMatrix, on stacks."""

    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("bad", BAD_QUBITS.values(), ids=BAD_QUBITS.keys())
    def test_one_bad_matrix_raises_as_density_matrix(self, bad, position):
        stack = np.array([GOOD_QUBITS[k % len(GOOD_QUBITS)] for k in range(6)], dtype=complex)
        stack[position] = bad
        with pytest.raises(ValueError) as want:
            DensityMatrix(bad)
        with pytest.raises(ValueError) as got:
            check_density_matrices(stack.reshape(2, 3, 2, 2))
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_good_stack_returns_what_density_matrix_stores(self):
        rng = np.random.default_rng(41)
        stack = np.array([rand_state(rng, 3) for _ in range(4)])
        stack[1, 0, 2] += 1e-10  # a defect within tolerance, removed by both
        out = check_density_matrices(stack)
        for m, got in zip(stack, out):
            assert np.array_equal(got, DensityMatrix(m).matrix)

    def test_non_square_stack_rejected(self):
        with pytest.raises(ValueError, match="square"):
            check_density_matrices(np.zeros((3, 2, 3)))


class TestDensityMatrices:
    """density_matrices: one check of a stack, one read-only DensityMatrix per slice."""

    def test_states_are_read_only_and_bit_equal_to_density_matrix(self):
        rng = np.random.default_rng(43)
        for dim in (2, 3):
            stack = np.array([rand_state(rng, dim) for _ in range(3)])
            stack[0, 0, 1] += 1e-10  # a defect within tolerance, removed by both
            states = density_matrices(stack)
            assert len(states) == 3
            for state, m in zip(states, stack):
                assert type(state) is DensityMatrix and state.dim == dim
                assert not state.matrix.flags.writeable
                with pytest.raises(ValueError):
                    state.matrix[0, 0] = 1.0
                assert state.matrix.tobytes() == DensityMatrix(m).matrix.tobytes()

    def test_takes_a_list_of_arrays(self):
        rng = np.random.default_rng(44)
        pair = [rand_state(rng, 2), rand_state(rng, 2)]
        for state, m in zip(density_matrices(pair), pair):
            assert state.matrix.tobytes() == DensityMatrix(m).matrix.tobytes()

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("bad", BAD_QUBITS.values(), ids=BAD_QUBITS.keys())
    def test_a_bad_slice_raises_as_density_matrix(self, bad, position):
        pair = [GOOD_QUBITS[1], GOOD_QUBITS[1]]
        pair[position] = bad
        with pytest.raises(ValueError) as want:
            DensityMatrix(bad)
        with pytest.raises(ValueError) as got:
            density_matrices(pair)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


def near_boundary_qubits(n=10_000):
    """n unit-trace qubits whose smaller eigenvalue is uniform in [-2e-9, 0]."""
    rng = np.random.default_rng(37)
    lam_min = rng.uniform(-2e-9, 0.0, n)
    direction = rng.standard_normal((n, 3))
    r = (1.0 - 2.0 * lam_min)[:, None] * direction / np.linalg.norm(direction, axis=1)[:, None]
    # (I + r.sigma) / 2 has unit trace and eigenvalues (1 -+ |r|) / 2
    mats = np.empty((n, 2, 2), dtype=complex)
    mats[:, 0, 0] = (1.0 + r[:, 2]) / 2
    mats[:, 1, 1] = (1.0 - r[:, 2]) / 2
    mats[:, 0, 1] = (r[:, 0] - 1j * r[:, 1]) / 2
    mats[:, 1, 0] = (r[:, 0] + 1j * r[:, 1]) / 2
    return mats


class TestQubitPositivity:
    """DensityMatrix's closed-form qubit eigenvalue tr/2 - hypot((a00 - a11)/2, |a01|)."""

    def test_same_decision_as_eigvalsh_near_the_tolerance(self):
        n = 10_000
        mats = near_boundary_qubits(n)
        rejected = compared = 0
        for m, w in zip(mats, np.linalg.eigvalsh(mats)[:, 0]):
            if abs(w + PSD_ATOL) <= 1e-15:
                continue
            try:
                DensityMatrix(m)
                accepted = True
            except NotPositiveError:
                accepted = False
            assert accepted == (w >= -PSD_ATOL), w
            rejected += not accepted
            compared += 1
        assert compared >= n - 10
        assert 0.3 * n < rejected < 0.7 * n

    def test_stack_makes_the_same_decision_as_density_matrix(self):
        mats = near_boundary_qubits()
        accepted = np.ones(len(mats), dtype=bool)
        messages = []
        for k, m in enumerate(mats):
            try:
                DensityMatrix(m)
            except NotPositiveError as exc:
                accepted[k] = False
                messages.append(str(exc))
                with pytest.raises(NotPositiveError) as info:
                    check_density_matrices(m[None])
                assert str(info.value) == str(exc)
        assert 0.3 < accepted.mean() < 0.7
        check_density_matrices(mats[accepted])
        # the whole stack quotes its lowest eigenvalue
        with pytest.raises(NotPositiveError) as info:
            check_density_matrices(mats)
        assert str(info.value) == min(messages, key=lambda text: float(text.split()[-1]))

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.diag([1.5, -0.5]), "density matrix has negative eigenvalue -5.000e-01"),
            ([[0.5, 0.6], [0.6, 0.5]], "density matrix has negative eigenvalue -1.000e-01"),
            ([[0.2, 0.5j], [-0.5j, 0.8]], "density matrix has negative eigenvalue -8.310e-02"),
            (np.diag([0.7, 0.5, -0.2]), "density matrix has negative eigenvalue -2.000e-01"),
        ],
    )
    def test_negative_eigenvalue_message(self, matrix, message):
        with pytest.raises(NotPositiveError) as info:
            DensityMatrix(np.asarray(matrix, dtype=complex))
        assert str(info.value) == message
