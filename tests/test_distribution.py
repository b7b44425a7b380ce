import math

import numpy as np
import pytest

from mscatter import (
    DimensionMismatchError,
    DomainError,
    InvalidInputError,
    MatrixDistribution,
    PsdAtom,
    SolverConfig,
    WishartGroup,
    augment,
    build_kstat,
    check_existence,
    criterion,
    fixed_point_solve,
    from_observations,
    from_wishart_groups,
    gaussian,
    sample_covariance,
    t_dist,
    transform,
    tyler,
    weibull,
)
from mscatter import distribution
from mscatter.distribution import _subsets


class TestConstruction:
    def test_single_row(self):
        q = from_observations(np.array([[1.0, 0.0]]))
        assert q.n_atoms == 1
        assert np.allclose(q.atoms[0], [[1.0, 0.0], [0.0, 0.0]])
        assert q.weights[0] == pytest.approx(1.0)

    def test_two_unit_rows(self):
        q = from_observations(np.eye(2))
        assert q.n_atoms == 2
        assert np.allclose(q.weights, 0.5)
        assert all(np.linalg.matrix_rank(a) == 1 for a in q.atoms)

    def test_zero_row_blocks_case0(self):
        q = from_observations(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(DomainError, match="positive trace"):
            criterion(np.eye(2), q, tyler(2))

    def test_center_subtraction(self):
        q = from_observations(np.array([[2.0, 1.0]]), center=[1.0, 1.0])
        assert np.allclose(q.atoms[0], [[1.0, 0.0], [0.0, 0.0]])

    def test_weights_normalized(self):
        q = MatrixDistribution(np.stack([np.eye(2), 2 * np.eye(2)]), weights=[2.0, 6.0])
        assert np.allclose(q.weights, [0.25, 0.75])
        assert q.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_weights(self):
        with pytest.raises(InvalidInputError):
            MatrixDistribution(np.stack([np.eye(2)]), weights=[0.0])

    def test_mean_atom(self):
        q = from_observations(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(q.mean_atom(), np.eye(2) / 2)

    def test_atom_accessor(self):
        q = from_observations(np.eye(3))
        atom = q.atom(1)
        assert isinstance(atom, PsdAtom)
        assert atom.trace == pytest.approx(1.0)


class TestSampleCovariance:
    def test_identical_points_zero(self):
        atom = sample_covariance(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert np.allclose(atom.mat, 0.0)
        assert atom.trace == 0.0

    def test_two_points_by_formula(self):
        # mean (1, 0); centered rows (-1, 0), (1, 0); denominator k - 1 = 1.
        atom = sample_covariance(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert np.allclose(atom.mat, [[2.0, 0.0], [0.0, 0.0]])

    def test_three_affinely_independent_points_rank_two(self):
        atom = sample_covariance(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert np.linalg.matrix_rank(atom.mat) == 2

    def test_needs_two_points(self):
        with pytest.raises(InvalidInputError):
            sample_covariance(np.array([[1.0, 2.0]]))

    def test_column_space_identity(self):
        # rank S(x_1..x_k) = dim span{x_i - x_1} for 100 random point sets.
        rng = np.random.default_rng(10)
        for _ in range(100):
            q = int(rng.integers(2, 6))
            k = int(rng.integers(2, 7))
            pts = rng.standard_normal((k, q))
            if rng.random() < 0.3 and k >= 3:
                pts[-1] = pts[0]  # force a repeat
            atom = sample_covariance(pts)
            diffs = pts[1:] - pts[0]
            expected = np.linalg.matrix_rank(diffs, tol=1e-10)
            got = np.sum(np.linalg.eigvalsh(atom.mat) > 1e-10)
            assert got == expected

    def test_difference_span_closure(self):
        # Two point sets sharing a point, each with difference span inside V,
        # have a union difference span inside V.
        v = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]).T  # V = span(e1, e2)
        shared = np.array([1.0, 2.0, 0.5])
        xs = np.stack([shared, shared + v[:, 0], shared + v[:, 1]])
        ys = np.stack([shared, shared + v[:, 0] + v[:, 1]])
        union = np.vstack([xs, ys])
        proj = v @ v.T
        for pts in (xs, ys, union):
            diffs = pts[1:] - pts[0]
            assert np.allclose(proj @ diffs.T, diffs.T)


class TestBuildKstat:
    def test_enumeration_small(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        q2 = build_kstat(x, 2, cap=100)
        assert q2.n_atoms == 3
        assert np.allclose(q2.weights, 1.0 / 3.0)
        q3 = build_kstat(x, 3, cap=100)
        assert q3.n_atoms == 1

    def test_pair_atoms_are_halved_outer_products(self):
        x = np.array([[0.0, 0.0], [2.0, 0.0]])
        q = build_kstat(x, 2, cap=10)
        d = x[0] - x[1]
        assert np.allclose(q.atoms[0], np.outer(d, d) / 2.0)

    def test_subsampled_reproducible(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((100, 2))
        a = build_kstat(x, 2, cap=1000, seed=42)
        b = build_kstat(x, 2, cap=1000, seed=42)
        c = build_kstat(x, 2, cap=1000, seed=43)
        assert a.n_atoms == 1000
        assert np.array_equal(a.atoms, b.atoms)
        assert not np.array_equal(a.atoms, c.atoms)

    def test_full_enumeration_permutation_invariant(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 3))
        perm = rng.permutation(8)
        a = build_kstat(x, 3, cap=10_000)
        b = build_kstat(x[perm], 3, cap=10_000)
        key = lambda arr: np.sort(arr.reshape(arr.shape[0], -1) @ np.arange(9.0))
        assert np.allclose(key(a.atoms), key(b.atoms))

    @pytest.mark.parametrize("seed", range(51))
    def test_sparse_valid_draws(self, seed):
        # Only 7 of the 7**6 sorted draws are valid 6-subsets of 7 indices,
        # so a rejection batch often holds none of them.
        rows = _subsets(7, 6, 3, seed)
        assert rows.shape == (3, 6)
        assert np.all(np.diff(rows, axis=1) > 0)
        assert np.unique(rows, axis=0).shape[0] == 3

    @pytest.mark.parametrize("cap", [1, 100])
    def test_negative_seed_refused_whether_or_not_sampled(self, cap):
        with pytest.raises(InvalidInputError, match="seed"):
            build_kstat(np.eye(4), 2, cap=cap, seed=-1)

    def test_k_bounds(self):
        x = np.zeros((3, 2))
        with pytest.raises(InvalidInputError):
            build_kstat(x, 1, cap=10)
        with pytest.raises(InvalidInputError):
            build_kstat(x, 4, cap=10)
        with pytest.raises(InvalidInputError):
            build_kstat(np.eye(3), 2, cap=0)


class TestWishartGroups:
    def test_single_group_weight_one(self):
        q = from_wishart_groups([WishartGroup(PsdAtom(np.eye(2)), 5)])
        assert np.allclose(q.weights, [1.0])

    def test_dof_weights(self):
        groups = [
            WishartGroup(PsdAtom(np.eye(2)), 2),
            WishartGroup(PsdAtom(2 * np.eye(2)), 3),
        ]
        q = from_wishart_groups(groups)
        assert np.allclose(q.weights, [0.4, 0.6])

    def test_mixed_rank_atoms_pass_through(self):
        low = PsdAtom(np.diag([1.0, 0.0]))
        groups = [WishartGroup(low, 1), WishartGroup(PsdAtom(np.eye(2)), 1)]
        q = from_wishart_groups(groups)
        assert np.allclose(q.atoms[0], low.mat)

    def test_rejects_bad_dof_and_mixed_dims(self):
        with pytest.raises(InvalidInputError):
            WishartGroup(PsdAtom(np.eye(2)), 0)
        with pytest.raises(DimensionMismatchError):
            from_wishart_groups(
                [WishartGroup(PsdAtom(np.eye(2)), 1), WishartGroup(PsdAtom(np.eye(3)), 1)]
            )
        with pytest.raises(InvalidInputError):
            from_wishart_groups([])


class TestTransform:
    def test_identity_no_op(self):
        q = from_observations(np.eye(2))
        t = transform(q, np.eye(2), "forward")
        assert np.allclose(t.atoms, q.atoms)

    def test_forward_then_inverse_round_trip(self):
        rng = np.random.default_rng(13)
        q = from_observations(rng.standard_normal((6, 3)))
        b = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        back = transform(transform(q, b, "forward"), b, "inverse")
        assert np.max(np.abs(back.atoms - q.atoms)) <= 1e-10

    def test_congruence_example(self):
        q = MatrixDistribution(np.stack([np.eye(2)]))
        t = transform(q, np.diag([2.0, 1.0]), "forward")
        assert np.allclose(t.atoms[0], np.diag([4.0, 1.0]))

    def test_rejects_singular(self):
        q = from_observations(np.eye(2))
        with pytest.raises(InvalidInputError):
            transform(q, np.array([[1.0, 1.0], [1.0, 1.0]]), "forward")


class TestExistence:
    def test_two_point_tyler_violated(self):
        # Mass on span(e1) is 1/2 = dim/q: boundary counts as violated.
        q = from_observations(np.eye(2))
        rep = check_existence(q, tyler(2))
        assert rep.verdict == "violated"
        assert rep.method == "exact_enumeration"
        assert any(w.subspace_dim == 1 and w.mass >= 0.5 for w in rep.witnesses)

    def test_three_point_tyler_satisfied(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]) / np.array([[1.0], [1.0], [math.sqrt(2)]])
        rep = check_existence(from_observations(x), tyler(2))
        assert rep.verdict == "satisfied"
        assert rep.method == "exact_enumeration"

    def test_full_rank_single_atom_case1_satisfied(self):
        q = MatrixDistribution(np.stack([np.eye(3)]))
        rep = check_existence(q, t_dist(2.0, 3))
        assert rep.verdict == "satisfied"

    def test_duplicated_directions_aggregate(self):
        # Four points on one line out of six: mass 2/3 >= 1/2 under Case 0.
        x = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [3.0, 0.0],
                      [0.0, 1.0], [1.0, 1.0]])
        rep = check_existence(from_observations(x), tyler(2))
        assert rep.verdict == "violated"
        w = max(rep.witnesses, key=lambda w: w.mass)
        assert w.mass == pytest.approx(4.0 / 6.0)

    def test_case1_zero_atom_mass(self):
        # t loss with nu = 1, q = 2: threshold at dim 0 is 1/3; half the
        # mass at the zero matrix violates it.
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        rep = check_existence(from_observations(x), t_dist(1.0, 2))
        assert rep.verdict == "violated"
        assert any(w.subspace_dim == 0 for w in rep.witnesses)

    def test_unbounded_psi_needs_full_span(self):
        flat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        rep = check_existence(from_observations(flat), gaussian())
        assert rep.verdict == "violated"
        assert rep.witnesses[0].subspace_dim == 2
        full = np.vstack([flat, [0.0, 0.0, 1.0]])
        assert check_existence(from_observations(full), gaussian()).verdict == "satisfied"

    def test_rank_two_atom_contains_line(self):
        # A plane atom plus two collinear line atoms inside it: the plane
        # carries 3/4 of the mass, above the 2/3 threshold in R^3.
        plane = np.diag([1.0, 1.0, 0.0])
        line = np.diag([1.0, 0.0, 0.0])
        q = MatrixDistribution(np.stack([plane, line, line, np.eye(3)]))
        rep = check_existence(q, tyler(3))
        assert rep.verdict == "violated"
        dims = {w.subspace_dim for w in rep.witnesses}
        assert 2 in dims

    def test_budget_stopped_check_is_settled_by_the_fit(self):
        # The check stopped by its budget stays undecided; the fit settles
        # the verdict with the Hessian at its fitted point.
        rng = np.random.default_rng(14)
        x = rng.standard_normal((40, 3))
        rep = check_existence(from_observations(x), tyler(3), budget=10)
        assert rep.verdict == "undecided"
        assert rep.method == "budget_exceeded"
        est = fixed_point_solve(from_observations(x), tyler(3), SolverConfig(existence_budget=10))
        assert est.status == "converged"
        assert est.existence.verdict == "satisfied"
        assert est.existence.method == "sufficient_condition"

    def test_budget_stopped_check_of_dense_atoms_is_undecided(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((40, 3))
        q = MatrixDistribution(from_observations(x).atoms)  # dense storage
        rep = check_existence(q, tyler(3), budget=10)
        assert rep.verdict == "undecided"
        assert rep.method == "budget_exceeded"

    def test_wishart_mass_check(self):
        groups = [
            WishartGroup(PsdAtom(np.diag([1.0, 0.0, 0.0])), 3),
            WishartGroup(PsdAtom(np.eye(3)), 1),
        ]
        rep = check_existence(from_wishart_groups(groups), tyler(3))
        assert rep.verdict == "violated"  # line carries 3/4 >= 1/3

    def test_exact_enumeration_in_three_dims(self):
        # Five generic lines in R^3: no line or plane union reaches its
        # threshold; BFS must terminate exactly.
        rng = np.random.default_rng(16)
        x = rng.standard_normal((5, 3))
        rep = check_existence(from_observations(x), tyler(3), budget=1000)
        assert rep.verdict == "satisfied"
        assert rep.method == "exact_enumeration"


def planar_rows(seed):
    """Four points of a random plane in R^3, rounded to 8 digits: the third
    singular value of the rows is about 1e-9 of the first."""
    rng = np.random.default_rng(seed)
    return np.round(rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3)), 8)


def both_storages(q):
    return [q, MatrixDistribution(q.atoms, q.weights)]


class TestMeanAtomSpan:
    """Gaussian and Weibull fits need the atoms to span R^q as far as the
    solver resolves it; rows of a plane rounded to 8 digits do not."""

    @pytest.mark.parametrize("loss", [gaussian, lambda: weibull(0.5)], ids=["gaussian", "weibull"])
    def test_rounded_plane_is_violated(self, loss):
        for seed in range(200):
            for q in both_storages(from_observations(planar_rows(seed))):
                rep = check_existence(q, loss())
                assert (rep.verdict, rep.method) == ("violated", "exact_enumeration")
                assert [(w.subspace_dim, round(w.mass, 12)) for w in rep.witnesses] == [(2, 1.0)]
                assert fixed_point_solve(q, loss()).status == "existence_violated"

    @pytest.mark.parametrize("loss", [gaussian, lambda: weibull(0.5)], ids=["gaussian", "weibull"])
    def test_full_rank_control_converges(self, loss, monkeypatch):
        # A mean atom of full rank settles the check before any atom is
        # decomposed into its column space.
        monkeypatch.setattr(distribution, "_atom_groups", lambda q: pytest.fail("atoms decomposed"))
        for seed in range(100):
            x = np.random.default_rng(seed).standard_normal((4, 3))
            for q in both_storages(from_observations(x)):
                assert check_existence(q, loss()).verdict == "satisfied"
                assert fixed_point_solve(q, loss()).status == "converged"


class TestEnumerationKeys:
    def test_subspace_reached_along_several_unions_is_one_witness(self):
        # Three lines in R^4 span one 3-D subspace, reached from each of the
        # three planes; the search reports it once.
        x = np.array([[0.0, 0.0, 0.0], [0.20, -0.92, 0.18], [2.48, 1.63, -0.35]])
        prob = augment(x, 1.0)
        for q in both_storages(prob.q_aug):
            rep = check_existence(q, prob.augmented_rho)
            assert rep.verdict == "violated"
            assert [w.mass for w in rep.witnesses if w.subspace_dim == 3] == [pytest.approx(1.0)]

    def test_mixed_ranks_keep_the_general_budget(self):
        # 3 line and 4 plane groups: 7 + C(7, 2) > 20, but only lines-only
        # searches stop on that count; the 3-D witness is found within budget.
        x = np.array([[0, 0, 0, 0], [3, 2, 3, 1], [2, 2, 1, 0], [-4, -1, -2, -1], [3, 2, 3, 1]], float)
        rep = check_existence(build_kstat(x, 3), t_dist(1.5, 4), budget=20)
        assert (rep.verdict, rep.method) == ("violated", "exact_enumeration")
        assert any(w.subspace_dim == 3 and w.mass == pytest.approx(1.0) for w in rep.witnesses)


class TestSubsetSamplingNearFullCoverage:
    def test_cap_close_to_total_is_exact_and_reproducible(self):
        # 45 pairs exist; asking for 40 must not stall in rejection sampling.
        rng = np.random.default_rng(17)
        x = rng.standard_normal((10, 2))
        a = build_kstat(x, 2, cap=40, seed=3)
        b = build_kstat(x, 2, cap=40, seed=3)
        assert a.n_atoms == 40
        assert np.array_equal(a.atoms, b.atoms)
        flat = a.atoms.reshape(40, -1)
        assert np.unique(flat, axis=0).shape[0] == 40


class TestCappedSubsetDraws:
    """A capped draw keeps k uniform indices when they are distinct at least
    half the time, and otherwise draws k-subsets by construction, so every
    valid (n, k, cap) returns."""

    @staticmethod
    def assert_valid(rows, n, k, cap):
        assert rows.shape == (cap, k) and rows.dtype == np.int64
        assert np.all(np.diff(rows, axis=1) > 0)
        assert rows.min() >= 0 and rows.max() < n
        assert len({r.tobytes() for r in rows}) == cap

    @pytest.mark.parametrize("n, k, cap", [(40, 39, 3), (7, 6, 3), (12, 5, 100), (100, 3, 50)])
    def test_rows_are_valid_and_reproducible(self, n, k, cap):
        rows = _subsets(n, k, cap, 0)
        self.assert_valid(rows, n, k, cap)
        assert np.array_equal(rows, _subsets(n, k, cap, 0))
        assert not np.array_equal(rows, _subsets(n, k, cap, 1))

    def test_distinct_rows_match_unique(self):
        rows = np.random.default_rng(19).integers(0, 4, size=(500, 3))
        got = distribution._distinct_rows(rows)
        assert np.array_equal(got, np.unique(rows, axis=0)) and got.dtype == rows.dtype
        # A first rejection batch can hold no valid row at all.
        empty = np.empty((0, 3), dtype=np.int64)
        assert distribution._distinct_rows(empty).shape == (0, 3)

    def test_half_of_thirty_at_the_default_cap(self):
        # What ``scatter --k 15`` draws on 30 rows: distinct uniform indices
        # would turn up once in about 10^6 draws.
        self.assert_valid(_subsets(30, 15, 200_000, 0), 30, 15, 200_000)

    def test_kstat_of_half_the_rows(self):
        x = np.random.default_rng(18).standard_normal((100, 3))
        assert build_kstat(x, 50, cap=100).n_atoms == 100

    def test_subsets_by_construction_are_uniform(self):
        # 4 distinct indices out of 6 turn up 28% of the time, so these rows
        # are built as subsets; each of the 15 subsets should be one of the 7
        # kept for 7/15 of the seeds: 140 of 300, standard deviation 8.6.
        counts = {}
        for seed in range(300):
            for row in _subsets(6, 4, 7, seed):
                counts[tuple(row)] = counts.get(tuple(row), 0) + 1
        assert len(counts) == 15
        assert 100 <= min(counts.values()) and max(counts.values()) <= 180


class TestWitnessVerification:
    def verify_witness(self, q, w):
        """Independent mass recomputation: an atom lies inside the witness
        subspace iff its column space projects onto it without residual."""
        if w.subspace_dim == 0:
            mass = sum(
                wt for wt, tr in zip(q.weights, q.traces) if tr == 0.0
            )
        else:
            proj = w.basis @ w.basis.T
            mass = 0.0
            for i in range(q.n_atoms):
                lam, vec = np.linalg.eigh(q.atoms[i])
                cols = vec[:, lam > 1e-9 * max(lam[-1], 1e-300)]
                if cols.shape[1] == 0 or np.linalg.norm(cols - proj @ cols) <= 1e-6:
                    mass += q.weights[i]
        return mass

    def test_reported_witnesses_carry_their_mass(self):
        rng = np.random.default_rng(18)
        fixtures = []
        # duplicated directions
        x = np.vstack([rng.standard_normal((4, 3)),
                       np.outer(np.ones(5), [1.0, 2.0, 0.0]) * rng.uniform(0.5, 2, (5, 1))])
        fixtures.append((from_observations(x), tyler(3)))
        # plane concentration via rank-2 atoms: mass 2/3 meets the Case 0
        # threshold dim/q = 2/3 exactly
        plane = np.diag([1.0, 1.0, 0.0])
        fixtures.append((
            MatrixDistribution(np.stack([plane, plane, np.eye(3)])), tyler(3)))
        # zero-atom mass under the t loss
        xz = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 2.0]])
        fixtures.append((from_observations(xz), t_dist(1.0, 2)))
        found = 0
        for q, f in fixtures:
            rep = check_existence(q, f)
            assert rep.verdict == "violated"
            for w in rep.witnesses:
                found += 1
                mass = self.verify_witness(q, w)
                assert mass == pytest.approx(w.mass, abs=1e-10)
                assert mass >= w.threshold - 1e-12
        assert found >= 3
