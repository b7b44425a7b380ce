"""Cholesky-screened rank and dust decisions against eigen-only references.

``clip_psd_dust`` and ``distribution._atom_groups`` decompose only the blocks
of a dense stack that the Cholesky screen cannot settle, and take rank-one
directions from the factor rows without an SVD.  The existence search's
per-matrix screen ``symmat.cholesky_passes`` must answer as LAPACK's
Cholesky does, and pass no union that the search's SVD cut calls singular.  The references below
decompose every atom, as the decisions are defined; the screened versions
must give the same clipped stack, the same error index, and the same groups
and masses, also when the stacks cross block boundaries.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mscatter import MatrixDistribution, NotPositiveDefiniteError, from_observations, symmat
from mscatter.distribution import _RANK_RTOL, _UNION_SCREEN_RTOL, _atom_groups
from mscatter.symmat import PSD_DUST_RTOL, cholesky_passes, clip_psd_dust


def eigen_clip(a):
    """Dust clipping with ``eigvalsh`` of every matrix."""
    lam = np.linalg.eigvalsh(a)
    lo, hi = lam[:, 0], lam[:, -1]
    bad = lo < -PSD_DUST_RTOL * np.maximum(hi, 1e-300)
    if np.any(bad):
        i = np.argmax(bad)
        raise NotPositiveDefiniteError(
            f"matrix {i} is not positive semidefinite: "
            f"min eigenvalue {lo[i]:.3e} vs max {hi[i]:.3e}"
        )
    dust = lo < 0.0
    if not np.any(dust):
        return a
    lam_full, u = np.linalg.eigh(a[dust])
    out = a.copy()
    out[dust] = (u * np.maximum(lam_full, 0.0)[..., None, :]) @ np.swapaxes(u, -1, -2)
    return out


def eigen_groups(lam, vec, w):
    """Atom groups from the spectra of every atom: lines first, then the
    higher-rank spaces in order of first appearance."""
    dim = vec.shape[1]
    keep = lam > _RANK_RTOL * np.maximum(lam.max(axis=1), 1e-300)[:, None]
    rank = keep.sum(axis=1)
    bases, masses = [], []
    lines = np.nonzero((rank == 1) & (rank < dim))[0]
    if lines.size:
        u = vec[lines, :, keep[lines].argmax(axis=1)]
        u *= np.where(u @ np.sin(np.arange(1.0, dim + 1.0)) < 0, -1.0, 1.0)[:, None]
        _, first, inverse = np.unique(np.round(u, 9), axis=0, return_index=True,
                                      return_inverse=True)
        bases += list(u[first][:, :, None])
        masses += np.bincount(inverse.ravel(), w[lines], first.size).tolist()
    spaces = np.nonzero((rank >= 2) & (rank < dim))[0]
    if spaces.size:
        kept = vec[spaces] * keep[spaces][:, None, :]
        keys = np.round(kept @ np.swapaxes(kept, 1, 2), 9).reshape(spaces.size, -1)
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        mass = np.bincount(inverse.ravel(), w[spaces])
        for g in np.argsort(first):
            i = spaces[first[g]]
            bases.append(vec[i][:, keep[i]])
            masses.append(float(mass[g]))
    return bases, np.asarray(masses)


KINDS = ("full", "deficient", "dust", "indefinite", "zero", "repeat")


@st.composite
def mixed_stacks(draw):
    """A dense stack mixing full-rank, rank-deficient, dust-carrying, zero,
    indefinite and repeated (power-of-two rescaled) atoms at scales 1e±3,
    positive weights, and a block size of 1 to 4 atoms."""
    q = draw(st.integers(2, 4))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = []
    for kind in kinds:
        if kind == "zero":
            atoms.append(np.zeros((q, q)))
            continue
        if kind == "repeat" and atoms:
            atoms.append(atoms[rng.integers(len(atoms))] * 2.0 ** rng.integers(-3, 4))
            continue
        rows = q + 1 if kind == "full" else int(rng.integers(1, q))
        y = rng.standard_normal((rows, q))
        a = y.T @ y * 10.0 ** rng.uniform(-3.0, 3.0)
        top = np.linalg.eigvalsh(a)[-1]
        if kind == "dust":  # negative dust well inside the clipping tolerance
            a = a - 1e-13 * top * np.eye(q)
        elif kind == "indefinite":
            a = a - 1e-6 * top * np.eye(q)
        atoms.append((a + a.T) / 2.0)
    weights = rng.uniform(0.5, 2.0, len(atoms))
    return np.stack(atoms), weights, draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=mixed_stacks())
def test_screened_dust_and_groups_match_eigen_only(data):
    atoms, weights, block = data
    q = atoms.shape[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symmat, "_BLOCK_ENTRIES", block * q * q)
        try:
            expected = eigen_clip(atoms)
        except NotPositiveDefiniteError as exc:
            with pytest.raises(NotPositiveDefiniteError) as got:
                clip_psd_dust(atoms)
            assert str(got.value) == str(exc)
            event("indefinite")
            return
        clipped = clip_psd_dust(atoms)
        assert np.array_equal(clipped, expected)
        event("dust clipped" if clipped is not atoms else "no dust")
        dist = MatrixDistribution(clipped, weights, clip=False)
        bases, ranks, masses = _atom_groups(dist)
    bases = [b[:, :r] for b, r in zip(bases, ranks)]
    lam, vec = np.linalg.eigh(dist.atoms)
    ref_bases, ref_masses = eigen_groups(lam, vec, dist.weights)
    assert len(bases) == len(ref_bases)
    assert all(np.array_equal(b, r) for b, r in zip(bases, ref_bases))
    assert np.array_equal(masses, ref_masses)
    event(f"{sum(b.shape[1] == 1 for b in bases)} lines, {sum(b.shape[1] > 1 for b in bases)} spaces")


def test_single_matrix_dust_keeps_its_message():
    a = np.diag([1.0, 0.0, -1e-6])
    with pytest.raises(NotPositiveDefiniteError, match=r"^matrix is not positive semidefinite"):
        clip_psd_dust(a)
    dusty = np.diag([1.0, 0.0, -1e-13])
    assert np.array_equal(clip_psd_dust(dusty), np.diag([1.0, 0.0, 0.0]))
    clean = np.eye(3)
    assert clip_psd_dust(clean) is clean


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 5), n=st.integers(1, 30))
def test_rank_one_directions_match_the_svd(seed, q, n):
    """Rows with zero rows, exact (power-of-two and sign) and inexact (x3)
    rescaled copies: the row over its norm groups as the SVD direction does."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, q))
    for i in range(1, n):
        pick = rng.integers(5)
        if pick == 0:
            x[i] = 0.0
        elif pick in (1, 2):
            x[i] = x[rng.integers(i)] * rng.choice([-1.0, 0.25, 2.0, 3.0])
    dist = from_observations(x)
    bases, ranks, masses = _atom_groups(dist)
    bases = [b[:, :r] for b, r in zip(bases, ranks)]
    _, sv, vt = np.linalg.svd(x[:, None, :], full_matrices=False)
    ref_bases, ref_masses = eigen_groups(sv**2, np.swapaxes(vt, 1, 2), dist.weights)
    assert len(bases) == len(ref_bases)
    assert np.array_equal(masses, ref_masses)
    for b, r in zip(bases, ref_bases):
        assert np.max(np.abs(b - r)) <= 1e-15


def lapack_passes(m, rtol):
    """Whether M - rtol tr(M) I has a Cholesky factor by ``np.linalg.cholesky``."""
    try:
        np.linalg.cholesky(m - rtol * np.trace(m) * np.eye(len(m)))
    except np.linalg.LinAlgError:
        return False
    return True


@pytest.mark.parametrize("q", range(1, 7))
def test_union_screen_matches_lapack_and_the_svd_cut(q):
    """One stack of Gram matrices Y Y^T whose smallest eigenvalue is 1e-3 to
    1e-15 of the largest, or zero, and of the zero, a singular and an
    indefinite matrix."""
    rng = np.random.default_rng(q)
    factors, grams = [], []
    for rel in [1.0, 1e-3, 1e-6, 1e-9, 1e-10, 1e-11, 1e-13, 1e-14, 1e-15, 0.0] * 3:
        u = np.linalg.qr(rng.standard_normal((q, q)))[0]
        lam = np.concatenate([[1.0], rng.uniform(0.1, 1.0, q - 1)])
        lam[-1] *= rel if q > 1 else 1.0
        y = (u * np.sqrt(lam)) @ np.linalg.qr(rng.standard_normal((q + 2, q)))[0].T
        factors.append(y)
        grams.append(y @ y.T)
    others = [np.zeros((q, q)), np.diag(np.arange(q, dtype=float)), -np.eye(q)]
    stack = np.stack(grams + others)
    passes = cholesky_passes(stack, _UNION_SCREEN_RTOL)  # raises for no member
    assert passes.tolist() == [lapack_passes(m, _UNION_SCREEN_RTOL) for m in stack]
    assert not passes[len(grams):].any()
    assert passes.any() and (q == 1 or not passes[:len(grams)].all())
    for y, ok in zip(factors, passes):
        sv = np.linalg.svd(y, compute_uv=False)
        if ok:
            assert np.all(sv > 1e-10 * sv[0])
