import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minent import (
    EPS_CERT,
    Certificate,
    CertificationError,
    DimensionError,
    DomainError,
    GreedyStep,
    SparseCoupling,
    certify_local_optimum,
    extended_entropy,
    greedy_coupling,
    greedy_coupling_two_phase,
)

import reference_certify
from conftest import marginal_families, perturbed_families, tied_and_tiny_families
from reference_certify import CertificateSystem, build_system, check_last_one_property
from reference_greedy import trace_from_steps

SOLVERS = [greedy_coupling, greedy_coupling_two_phase]


def rebuilt_mass(cert, tup):
    """A cell's mass in the certificate's product form,
    ``2 ** (sum of u at the cell's states - 1)``."""
    return 2.0 ** (sum(vec[state - 1] for vec, state in zip(cert.u, tup)) - 1.0)


def step(iteration, tup, mass):
    return GreedyStep(iteration, tup, mass, frozenset())


class TestBuildSystem:
    def test_worked_instance(self):
        _, trace = greedy_coupling([[0.6, 0.4], [0.5, 0.5]])
        system = build_system(trace, n=2, m=2)
        expected = np.array(
            [
                [1, 0, 1, 0],
                [0, 1, 0, 1],
                [1, 0, 0, 1],
            ],
            dtype=float,
        )
        assert np.array_equal(system.matrix, expected)
        assert system.rhs == pytest.approx(
            [0.0, math.log2(0.4) + 1.0, math.log2(0.1) + 1.0], abs=1e-9
        )
        assert system.rhs[1] == pytest.approx(-0.321928, abs=1e-6)
        assert system.rhs[2] == pytest.approx(-2.321928, abs=1e-6)

    def test_single_full_mass_step(self):
        system = build_system((step(1, (1, 1), 1.0),), n=3, m=2)
        row = np.zeros(6)
        row[0] = row[3] = 1.0
        assert np.array_equal(system.matrix, row.reshape(1, 6))
        assert system.rhs == pytest.approx([1.0])

    def test_diagonal_trace(self):
        _, trace = greedy_coupling([[0.5, 0.5], [0.5, 0.5]])
        system = build_system(trace, n=2, m=2)
        assert np.array_equal(
            system.matrix, np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=float)
        )
        assert system.rhs == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_every_row_has_m_ones(self):
        _, trace = greedy_coupling([[0.2, 0.3, 0.5], [0.4, 0.4, 0.2], [1 / 3] * 3])
        system = build_system(trace, n=3, m=3)
        assert np.all(system.matrix.sum(axis=1) == 3)

    def test_zero_mass_rejected(self):
        with pytest.raises(DomainError):
            build_system((step(1, (1, 1), 0.0),), n=2, m=2)

    def test_negative_mass_rejected(self):
        with pytest.raises(DomainError):
            build_system((step(1, (1, 1), -0.5),), n=2, m=2)

    def test_empty_trace_rejected(self):
        with pytest.raises(DomainError):
            build_system((), n=2, m=2)


class TestLastOneProperty:
    def test_worked_system_passes(self):
        _, trace = greedy_coupling([[0.6, 0.4], [0.5, 0.5]])
        assert check_last_one_property(build_system(trace, 2, 2))

    def test_duplicate_rows_fail(self):
        system = CertificateSystem(
            matrix=np.array([[1.0, 1.0], [1.0, 1.0]]),
            rhs=np.zeros(2),
            n=1,
            m=2,
            tuples=((1, 1), (1, 1)),
        )
        assert not check_last_one_property(system)

    def test_single_row_passes(self):
        system = CertificateSystem(
            matrix=np.array([[1.0, 0.0, 1.0, 0.0]]),
            rhs=np.zeros(1),
            n=2,
            m=2,
            tuples=((1, 1),),
        )
        assert check_last_one_property(system)


class TestCertifyLocalOptimum:
    def test_worked_instance(self):
        coupling, trace = greedy_coupling([[0.6, 0.4], [0.5, 0.5]])
        cert = certify_local_optimum(coupling, trace)
        assert cert.residual_norm <= 1e-8
        assert cert.max_reconstruction_error <= 1e-8
        for tup, mass in coupling.entries.items():
            assert rebuilt_mass(cert, tup) == pytest.approx(mass, abs=1e-8)

    def test_hand_solved_witness_reconstructs(self):
        # independent check of the product form with a free variable at zero
        u1 = [0.0, 2.0]
        u2 = [0.0, math.log2(0.4) + 1.0 - 2.0]
        masses = {(1, 1): 0.5, (2, 2): 0.4, (1, 2): 0.1}
        for (i, j), mass in masses.items():
            rebuilt = 2.0 ** (-1.0 + u1[i - 1] + u2[j - 1])
            assert rebuilt == pytest.approx(mass, abs=1e-9)

    def test_diagonal_coupling_zero_witness(self):
        coupling, trace = greedy_coupling([[0.5, 0.5], [0.5, 0.5]])
        cert = certify_local_optimum(coupling, trace)
        assert all(abs(v) <= 1e-10 for vec in cert.u for v in vec)
        assert rebuilt_mass(cert, (1, 1)) == pytest.approx(0.5, abs=1e-10)

    def test_factor_vectors_multiply_to_masses(self):
        coupling, trace = greedy_coupling_two_phase(
            [[0.25] * 4, [0.375, 0.375, 0.125, 0.125]]
        )
        cert = certify_local_optimum(coupling, trace)
        # per-axis factors 2**(u - 1/m) restate the product form
        m = len(cert.u)
        factors = [[2.0 ** (val - 1.0 / m) for val in vec] for vec in cert.u]
        for tup, mass in coupling.entries.items():
            product = 1.0
            for axis, state in enumerate(tup):
                product *= factors[axis][state - 1]
            assert product == pytest.approx(mass, abs=1e-8)

    def test_tampered_trace_mass_fails(self):
        coupling, trace = greedy_coupling([[0.6, 0.4], [0.5, 0.5]])
        doctored = list(trace.steps)
        victim = doctored[1]
        doctored[1] = GreedyStep(
            victim.iteration, victim.chosen_tuple, 0.35, victim.saturated_axes
        )
        with pytest.raises(CertificationError):
            certify_local_optimum(coupling, trace_from_steps(tuple(doctored)))

    def test_trace_without_exhausted_slots_fails(self):
        # all four cells occupied: every column sees a later 1
        entries = {(1, 1): 0.25, (2, 2): 0.25, (1, 2): 0.25, (2, 1): 0.25}
        coupling = SparseCoupling(2, (2, 2), entries)
        trace = trace_from_steps(
            tuple(
                step(k + 1, tup, mass)
                for k, (tup, mass) in enumerate(entries.items())
            )
        )
        with pytest.raises(CertificationError):
            certify_local_optimum(coupling, trace)

    def test_trace_with_fewer_steps_than_entries_fails(self):
        coupling = SparseCoupling(2, (2, 2), {(1, 1): 0.5, (2, 2): 0.5})
        trace = trace_from_steps((step(1, (1, 1), 0.5),))
        with pytest.raises(CertificationError, match="does not match"):
            certify_local_optimum(coupling, trace)

    def test_unequal_cardinalities_rejected(self):
        coupling = SparseCoupling(2, (2, 3), {(1, 1): 1.0})
        trace = trace_from_steps((step(1, (1, 1), 1.0),))
        with pytest.raises(DimensionError, match="equal cardinalities"):
            certify_local_optimum(coupling, trace)

    def test_zero_mass_sweep_rounds_are_ignored(self):
        coupling, trace = greedy_coupling_two_phase([[1.0, 0.0], [1.0, 0.0]])
        cert = certify_local_optimum(coupling, trace)
        assert rebuilt_mass(cert, (1, 1)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "tup, mass",
        [((1, 2), math.nan), ((1, 2), -0.25), ((1, 2), -math.inf), ((7, 9), 0.0),
         ((0, 1), 0.0), ((1,), 0.0), ((1, 1, 1), 0.0), ((7, 9), math.nan)],
        ids=["nan", "negative", "minus-inf", "zero-outside", "zero-state-0",
             "zero-short", "zero-long", "nan-outside"],
    )
    def test_step_off_the_coupling_needs_zero_mass_in_shape(self, tup, mass):
        coupling, trace = greedy_coupling([[0.6, 0.4], [0.5, 0.5]])
        steps = trace.steps
        # with step 2's mass changed the trace does not match either; the
        # step off the coupling is still the one reported
        mismatched = steps[:1] + (steps[1]._replace(mass=0.35),) + steps[2:]
        message = f"^step 7 assigns {re.escape(repr(mass))} to the cell {re.escape(str(list(tup)))}; "
        for kept in (steps, mismatched):
            doctored = trace_from_steps(kept + (step(7, tup, mass),))
            with pytest.raises(CertificationError, match=message):
                certify_local_optimum(coupling, doctored)

    def test_zero_mass_steps_in_shape_keep_the_certificate(self):
        coupling, trace = greedy_coupling([[0.6, 0.4], [0.5, 0.5]])
        extra = (step(4, (2, 2), 0.0), step(5, (1, 1), -0.0))
        doctored = trace_from_steps(extra[:1] + trace.steps + extra[1:])
        assert certify_local_optimum(coupling, doctored) == certify_local_optimum(coupling, trace)

    @pytest.mark.parametrize("solver", SOLVERS)
    @given(family=marginal_families())
    @settings(max_examples=120, deadline=None)
    def test_never_fails_on_solver_output(self, solver, family):
        coupling, trace = solver(family)
        cert = certify_local_optimum(coupling, trace)
        assert cert.residual_norm <= 1e-8
        assert cert.max_reconstruction_error <= 1e-8

    @pytest.mark.parametrize("solver", SOLVERS)
    @given(family=st.one_of(marginal_families(), tied_and_tiny_families()))
    @settings(max_examples=80, deadline=None)
    def test_system_never_overdetermined_and_full_rank(self, solver, family):
        m, n = len(family), len(family[0])
        coupling, trace = solver(family)
        system = build_system(trace.positive_steps(), n, m)
        assert system.num_rows <= n * m - m + 1
        assert check_last_one_property(system)
        assert np.linalg.matrix_rank(system.matrix) == system.num_rows

    @pytest.mark.parametrize(
        "residual, error, message",
        [(2 * EPS_CERT, 0.0, "certificate residual"), (0.0, 2 * EPS_CERT, "reconstruction error")],
        ids=["residual", "reconstruction"],
    )
    def test_certificate_rejects_errors_above_eps_cert(self, residual, error, message):
        with pytest.raises(DomainError, match=message):
            Certificate(((0.0,), (0.0,)), residual, error)
        assert Certificate(((0.0,), (0.0,)), EPS_CERT, EPS_CERT).residual_norm == EPS_CERT

    def test_to_dict_shape(self):
        coupling, trace = greedy_coupling([[0.6, 0.4], [0.5, 0.5]])
        payload = certify_local_optimum(coupling, trace).to_dict()
        assert set(payload) == {"u", "residual_norm", "max_reconstruction_error"}
        assert len(payload["u"]) == 2
        assert len(payload["u"][0]) == 2


class TestAgainstDenseReference:
    @pytest.mark.parametrize("solver", SOLVERS)
    @given(family=st.one_of(marginal_families(), tied_and_tiny_families()))
    @settings(max_examples=150, deadline=None)
    def test_back_substituted_witness_solves_dense_system(self, solver, family):
        m, n = len(family), len(family[0])
        coupling, trace = solver(family)
        cert = certify_local_optimum(coupling, trace)
        system = build_system(trace.positive_steps(), n, m)
        u = np.concatenate([np.asarray(vec) for vec in cert.u])
        gap = np.linalg.norm(system.matrix @ u - system.rhs)
        assert gap <= EPS_CERT * max(1.0, np.linalg.norm(system.rhs))
        relative = max(
            abs(rebuilt_mass(cert, tup) - mass) / mass
            for tup, mass in coupling.entries.items()
        )
        assert relative <= 1e-12

    def test_unowned_witnesses_are_zero(self):
        # steps (1,1) 0.5, (2,2) 0.4, (1,2) 0.1: slot (2, 2) is last used
        # by step 3, which owns its lower-axis slot (1, 1) instead, so the
        # witness at axis 2, state 2 is owned by no step and stays 0
        coupling, trace = greedy_coupling([[0.6, 0.4], [0.5, 0.5]])
        cert = certify_local_optimum(coupling, trace)
        b = [math.log2(mass) + 1.0 for mass in (0.5, 0.4, 0.1)]
        assert cert.u[1][1] == 0.0
        assert cert.u[0][0] == pytest.approx(b[2], abs=1e-12)
        assert cert.u[0][1] == pytest.approx(b[1], abs=1e-12)
        assert cert.u[1][0] == pytest.approx(b[0] - b[2], abs=1e-12)

    def test_reconstruction_check_is_relative(self):
        # the trace's mass for the tiny cell is within the 1e-12 matching
        # tolerance and rebuilds within 1e-12 absolute, far inside
        # EPS_CERT, yet it is 30% off the stored mass
        entries = {(1, 1): 0.5, (2, 2): 0.5 - 3e-12, (2, 1): 3e-12}
        coupling = SparseCoupling(2, (2, 2), entries)
        traced = dict(entries)
        traced[(2, 1)] = 3.9e-12
        trace = trace_from_steps(
            tuple(step(k + 1, tup, mass) for k, (tup, mass) in enumerate(traced.items()))
        )
        with pytest.raises(CertificationError, match="reconstruction") as info:
            certify_local_optimum(coupling, trace)
        assert info.value.max_reconstruction_error < 1e-12

    def test_memory_at_n2000_m2(self):
        rng = np.random.default_rng(20260808)
        coupling, trace = greedy_coupling(rng.dirichlet(np.ones(2000), size=2))
        tracemalloc.start()
        try:
            certify_local_optimum(coupling, trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the dense (steps, n*m) system alone would take ~128 MB here
        assert peak < 10 * 2**20


def certify_outcome(certify, coupling, trace):
    """A certificate's fields bit for bit, or what certifying raised.

    ``float.hex`` keeps ``-0.0`` apart from ``0.0``, which ``==`` does not.
    """
    try:
        cert = certify(coupling, trace)
    except Exception as exc:  # the type, message and fields are compared
        return type(exc), str(exc), vars(exc)
    return (
        [[v.hex() for v in vec] for vec in cert.u],
        cert.residual_norm.hex(),
        cert.max_reconstruction_error.hex(),
    )


def _trace_of_entries(entries):
    return trace_from_steps(
        tuple(step(k + 1, tup, mass) for k, (tup, mass) in enumerate(entries.items()))
    )


def _doctored_mass():
    coupling, trace = greedy_coupling([[0.6, 0.4], [0.5, 0.5]])
    steps = list(trace.steps)
    steps[1] = steps[1]._replace(mass=0.35)
    return coupling, trace_from_steps(tuple(steps))


def _doctored_no_owned_slot():
    # all four cells occupied: every row's slots are used again later
    entries = {(1, 1): 0.25, (2, 2): 0.25, (1, 2): 0.25, (2, 1): 0.25}
    return SparseCoupling(2, (2, 2), entries), _trace_of_entries(entries)


def _doctored_no_owned_slot_and_mass():
    # the mismatch is reported before the dependent row
    coupling, trace = _doctored_no_owned_slot()
    steps = list(trace.steps)
    steps[2] = steps[2]._replace(mass=0.3)
    return coupling, trace_from_steps(tuple(steps))


def _doctored_growing_witnesses(rows=300, m=4):
    # Cells in the order back-substitution fixes them: after the all-ones
    # cell, the k-th owns a fresh state on axis k % m and uses the slots the
    # (k-1)-th and (k-3)-th own, so the witnesses grow about 1.47x a cell.
    # Rounding leaves totals past 1024, so the residual check fails; a mass
    # rebuilt from such a total would overflow.
    fresh = [2] * m
    owned = []
    cells = [(1,) * m]
    for k in range(rows):
        cell = [1] * m
        for earlier in (k - 1, k - 3):
            if earlier >= 0:
                axis, state = owned[earlier]
                cell[axis] = state
        axis = k % m
        cell[axis] = fresh[axis]
        fresh[axis] += 1
        owned.append((axis, cell[axis]))
        cells.append(tuple(cell))
    total = len(cells) * (len(cells) + 1) / 2
    entries = {cell: (k + 1) / total for k, cell in enumerate(reversed(cells))}
    return SparseCoupling(m, (max(fresh) - 1,) * m, entries), _trace_of_entries(entries)


def _doctored_no_positive_step():
    coupling, trace = greedy_coupling([[0.6, 0.4], [0.5, 0.5]])
    return coupling, trace_from_steps(tuple(s._replace(mass=0.0) for s in trace.steps))


def _doctored_reconstruction():
    # matches within 1e-12, but the tiny cell rebuilds 30% off its mass
    entries = {(1, 1): 0.5, (2, 2): 0.5 - 3e-12, (2, 1): 3e-12}
    traced = dict(entries)
    traced[(2, 1)] = 3.9e-12
    return SparseCoupling(2, (2, 2), entries), _trace_of_entries(traced)


class TestAgainstGeneratorReference:
    """The plain-loop back-substitution against the generator form it replaced."""

    @pytest.mark.parametrize("solver", SOLVERS)
    @given(
        family=st.one_of(
            marginal_families(),
            tied_and_tiny_families(),
            perturbed_families(),
            marginal_families(max_m=10, min_n=9, max_n=40),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_same_certificate_bits(self, solver, family):
        try:
            coupling, trace = solver(family)
        except DomainError:
            return  # totals too far apart: rejected before any trace exists
        fast = certify_outcome(certify_local_optimum, coupling, trace)
        assert fast == certify_outcome(reference_certify.certify_local_optimum, coupling, trace)

    @pytest.mark.parametrize(
        "doctor",
        [
            _doctored_mass,
            _doctored_no_owned_slot,
            _doctored_no_owned_slot_and_mass,
            _doctored_no_positive_step,
            _doctored_reconstruction,
            _doctored_growing_witnesses,
        ],
    )
    def test_same_error_on_doctored_traces(self, doctor):
        coupling, trace = doctor()
        fast = certify_outcome(certify_local_optimum, coupling, trace)
        assert fast[0] is CertificationError
        assert fast == certify_outcome(reference_certify.certify_local_optimum, coupling, trace)

    @pytest.mark.parametrize("solver", SOLVERS)
    @given(
        family=marginal_families(),
        victim=st.integers(min_value=0),
        factor=st.sampled_from([0.5, 1.0 - 1e-6, 1.0 + 1e-11, 2.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_outcome_with_one_mass_changed(self, solver, family, victim, factor):
        coupling, trace = solver(family)
        steps = list(trace.steps)
        k = victim % len(steps)
        steps[k] = steps[k]._replace(mass=steps[k].mass * factor)
        doctored = trace_from_steps(tuple(steps), trace.phase_boundary)
        fast = certify_outcome(certify_local_optimum, coupling, doctored)
        assert fast == certify_outcome(reference_certify.certify_local_optimum, coupling, doctored)


@pytest.mark.parametrize("rows", [1500, 3000])
def test_witnesses_past_the_float_range_fail_closed(rows):
    # the squares overflow, their sum overflows, and from 1,900 cells on
    # the witnesses themselves turn inf and NaN: each must fail as the
    # residual, with no inf or NaN kept on the error
    coupling, trace = _doctored_growing_witnesses(rows)
    with pytest.raises(CertificationError, match="^witness system residual ") as caught:
        certify_local_optimum(coupling, trace)
    for value in (caught.value.residual_norm, caught.value.max_reconstruction_error):
        assert value is None or math.isfinite(value)


def _northwest_corner(p, q, rows, cols):
    """The vertex the north-west corner rule builds in the given state orders."""
    a, b = p[rows].copy(), q[cols].copy()
    vertex = np.zeros((len(p), len(q)))
    i = j = 0
    while i < len(a) and j < len(b):
        t = min(a[i], b[j])
        vertex[rows[i], cols[j]] += t
        a[i] -= t
        b[j] -= t
        if a[i] <= b[j]:
            i += 1
        else:
            j += 1
    return vertex


class TestVertexIsStrictLocalMinimum:
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_entropy_rises_along_feasible_directions(self, solver):
        # Every feasible direction at P is a multiple of Q - P for some
        # coupling Q; Q is drawn as a random mixture of the independent
        # coupling and north-west-corner vertices. Q - P has zero row and
        # column sums and is nonnegative off P's support.
        rng = np.random.default_rng(20260808)
        checked = 0
        for _ in range(150):
            n = int(rng.integers(2, 5))
            p, q = rng.dirichlet(np.ones(n), size=2)
            coupling, trace = solver([p, q])
            certify_local_optimum(coupling, trace)
            joint = np.zeros((n, n))
            for (i, j), mass in coupling.entries.items():
                joint[i - 1, j - 1] = mass
            h = extended_entropy(joint.ravel())
            for _ in range(4):
                corners = [np.outer(p, q)] + [
                    _northwest_corner(p, q, rng.permutation(n), rng.permutation(n))
                    for _ in range(3)
                ]
                weights = rng.dirichlet(np.ones(len(corners)))
                direction = sum(w * c for w, c in zip(weights, corners)) - joint
                assert np.abs(direction.sum(axis=0)).max() <= 1e-12
                assert np.abs(direction.sum(axis=1)).max() <= 1e-12
                assert direction[joint == 0.0].min() >= 0.0
                for eps in (1e-6, 1e-9):
                    assert extended_entropy((joint + eps * direction).ravel()) > h
                checked += 1
        assert checked == 600
