import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sddpkit.cuts import Cut, CutPool, load_cuts
from sddpkit.errors import DimensionMismatch, FormatVersionError, MalformedFileError
from sddpkit.subproblem import BundledSolver, SubproblemSpec
from support import (
    random_bounded_lp,
    random_recourse_instance,
    vertex_enumeration_optimum,
)


def newsvendor_stage0_spec():
    return SubproblemSpec(
        c=np.array([1.0, 0.0]), A=np.array([[1.0, 1.0]]), rhs=np.array([3.0])
    )


def single_stage_pool(cuts=()):
    pool = CutPool(resource_dims=(1,), n_info=(1,))
    for cut in cuts:
        pool.add_cut(0, 0, cut)
    return pool


def cut(alpha, beta, anchor=0.0, born=0):
    return Cut(alpha=alpha, beta=np.atleast_1d(beta), anchor=np.atleast_1d(anchor), born_iteration=born)


def test_evaluate_empty_pool_returns_marker():
    pool = single_stage_pool()
    assert pool.evaluate(0, 0, np.array([1.0])) is None


def test_evaluate_single_cut():
    pool = single_stage_pool([cut(15.0, -10.0)])
    assert pool.evaluate(0, 0, np.array([1.0])) == pytest.approx(5.0)


def test_evaluate_max_of_two_cuts():
    pool = single_stage_pool([cut(15.0, -10.0), cut(0.0, 0.0)])
    assert pool.evaluate(0, 0, np.array([2.0])) == pytest.approx(0.0)


def test_evaluate_dimension_mismatch():
    pool = single_stage_pool([cut(1.0, 1.0)])
    with pytest.raises(DimensionMismatch):
        pool.evaluate(0, 0, np.array([1.0, 2.0]))


def test_add_cut_dimension_mismatch():
    pool = CutPool(resource_dims=(2,), n_info=(1,))
    with pytest.raises(DimensionMismatch):
        pool.add_cut(0, 0, cut(1.0, 1.0))


def test_add_identical_cut_changes_nothing():
    pool = single_stage_pool([cut(15.0, -10.0)])
    probes = np.linspace(-2.0, 4.0, 25)
    before = [pool.evaluate(0, 0, np.array([p])) for p in probes]
    pool.add_cut(0, 0, cut(15.0, -10.0))
    after = [pool.evaluate(0, 0, np.array([p])) for p in probes]
    assert before == after


def test_add_dominated_cut_changes_nothing():
    pool = single_stage_pool([cut(15.0, -10.0)])
    rng = np.random.default_rng(0)
    probes = rng.uniform(-5.0, 5.0, size=100)
    before = [pool.evaluate(0, 0, np.array([p])) for p in probes]
    pool.add_cut(0, 0, cut(14.0, -10.0))
    after = [pool.evaluate(0, 0, np.array([p])) for p in probes]
    assert before == after


@settings(deadline=None, max_examples=60)
@given(
    alphas=st.lists(
        st.floats(-50, 50), min_size=1, max_size=6
    ),
    betas=st.lists(st.floats(-10, 10), min_size=1, max_size=6),
    new_alpha=st.floats(-50, 50),
    new_beta=st.floats(-10, 10),
    probe=st.floats(-20, 20),
)
def test_add_cut_is_pointwise_monotone(alphas, betas, new_alpha, new_beta, probe):
    cuts = [cut(a, b) for a, b in zip(alphas, betas)]
    pool = single_stage_pool(cuts)
    R = np.array([probe])
    before = pool.evaluate(0, 0, R)
    pool.add_cut(0, 0, cut(new_alpha, new_beta))
    after = pool.evaluate(0, 0, R)
    assert after >= before - 1e-12 * max(1.0, abs(before))


def test_embed_empty_pool_returns_spec_unchanged():
    pool = single_stage_pool()
    spec = newsvendor_stage0_spec()
    out = pool.embed(0, 0, spec, np.array([[1.0, 0.0]]))
    assert out is spec


def test_embed_newsvendor_single_cut():
    pool = single_stage_pool([cut(15.0, -10.0)])
    spec = pool.embed(0, 0, newsvendor_stage0_spec(), np.array([[1.0, 0.0]]))
    sol = BundledSolver().solve(spec)
    assert sol.objective == pytest.approx(-12.0)
    assert sol.y[0] == pytest.approx(3.0)


def test_embed_exact_value_function_recovers_optimum():
    # theta >= max(15 - 10R, 10 - 5R, 0) is the exact newsvendor future cost.
    pool = single_stage_pool(
        [cut(15.0, -10.0), cut(10.0, -5.0), cut(0.0, 0.0)]
    )
    spec = pool.embed(0, 0, newsvendor_stage0_spec(), np.array([[1.0, 0.0]]))
    sol = BundledSolver().solve(spec)
    assert sol.objective == pytest.approx(2.0)
    assert sol.y[0] == pytest.approx(2.0)


def test_embed_dimension_mismatch():
    pool = CutPool(resource_dims=(2,), n_info=(1,))
    pool.add_cut(0, 0, Cut(1.0, np.array([1.0, 2.0]), np.zeros(2), 0))
    with pytest.raises(DimensionMismatch):
        pool.embed(0, 0, newsvendor_stage0_spec(), np.array([[1.0, 0.0]]))


def bounded_polytope_lp(seed, m=3, n=6):
    # budget row keeps the feasible set (and any composite objective) bounded
    A, b, c = random_bounded_lp(seed, m=m, n=n)
    A = np.vstack([np.hstack([A, np.zeros((m, 1))]), np.ones(n + 1)])
    b = np.concatenate([b, [50.0]])
    c = np.concatenate([c, [0.0]])
    return A, b, c


def test_embed_solve_equals_vertex_enumeration_on_augmented_problem():
    # Independent oracle: enumerate the basic feasible solutions of the
    # augmented LP instead of trusting the simplex path.
    rng = np.random.default_rng(3)
    for seed in range(12):
        A, b, c = bounded_polytope_lp(seed + 40)
        B = rng.standard_normal((1, 7))
        pool = CutPool(resource_dims=(1,), n_info=(1,))
        for _ in range(2):
            pool.add_cut(
                0,
                0,
                cut(rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
        spec = pool.embed(0, 0, SubproblemSpec(c=c, A=A, rhs=b), B)
        sol = BundledSolver().solve(spec)
        assert sol.status.value == "optimal"
        oracle = vertex_enumeration_optimum(spec.A, spec.rhs, spec.c)
        assert oracle is not None
        assert abs(sol.objective - oracle[0]) <= 1e-8 * (1.0 + abs(oracle[0]))
        # consistency with the functional form: c.x + max-cut value at Bx
        x = sol.y[: c.shape[0]]
        val = pool.evaluate(0, 0, B @ x)
        assert sol.objective == pytest.approx(float(c @ x) + val, abs=1e-7)


def test_embed_never_below_vertex_minimum_of_composite():
    # The augmented optimum is <= min over x-vertices of c.x + cuts(Bx).
    rng = np.random.default_rng(9)
    A, b, c = bounded_polytope_lp(123)
    n = c.shape[0]
    m = b.shape[0]
    B = rng.standard_normal((1, n))
    pool = CutPool(resource_dims=(1,), n_info=(1,))
    pool.add_cut(0, 0, cut(1.0, 0.5))
    pool.add_cut(0, 0, cut(-1.0, -0.5, 1.0))
    spec = pool.embed(0, 0, SubproblemSpec(c=c, A=A, rhs=b), B)
    sol = BundledSolver().solve(spec)
    best = np.inf
    import itertools

    for cols in itertools.combinations(range(n), m):
        Bm = A[:, list(cols)]
        try:
            xb = np.linalg.solve(Bm, b)
        except np.linalg.LinAlgError:
            continue
        if xb.min() < -1e-9 or np.linalg.norm(Bm @ xb - b) > 1e-8:
            continue
        x = np.zeros(n)
        x[list(cols)] = xb
        best = min(best, float(c @ x) + pool.evaluate(0, 0, B @ x))
    assert sol.objective <= best + 1e-8


def test_cut_file_roundtrip_bitwise(tmp_path):
    pool = CutPool(resource_dims=(2, 2, 1), n_info=(1, 2, 1))
    rng = np.random.default_rng(1)
    for t, dim in ((0, 2), (1, 2), (2, 1)):
        for info in range(pool.n_info[t]):
            for k in range(3):
                pool.add_cut(
                    t,
                    info,
                    Cut(
                        alpha=rng.standard_normal(),
                        beta=rng.standard_normal(dim),
                        anchor=rng.standard_normal(dim),
                        born_iteration=k,
                    ),
                )
    first = tmp_path / "cuts.json"
    second = tmp_path / "cuts2.json"
    pool.save(first)
    loaded = load_cuts(first)
    assert loaded.same_as(pool)
    loaded.save(second)
    assert first.read_bytes() == second.read_bytes()


def test_cut_file_truncation_rejected(tmp_path):
    pool = single_stage_pool([cut(1.0, 1.0)])
    path = tmp_path / "cuts.json"
    pool.save(path)
    path.write_text(path.read_text()[:-30])
    with pytest.raises(MalformedFileError):
        load_cuts(path)


def test_cut_file_version_rejected(tmp_path):
    import json

    pool = single_stage_pool([cut(1.0, 1.0)])
    path = tmp_path / "cuts.json"
    pool.save(path)
    obj = json.loads(path.read_text())
    obj["version"] = 7
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatVersionError):
        load_cuts(path)


def test_wrong_dimension_pool_fails_on_embed(tmp_path):
    pool = CutPool(resource_dims=(2,), n_info=(1,))
    pool.add_cut(0, 0, Cut(1.0, np.ones(2), np.zeros(2), 0))
    path = tmp_path / "cuts.json"
    pool.save(path)
    loaded = load_cuts(path)
    with pytest.raises(DimensionMismatch):
        loaded.embed(0, 0, newsvendor_stage0_spec(), np.array([[1.0, 0.0]]))


def test_cut_outside_the_pool_rejected(tmp_path):
    # A cut can only go to a family the pool has; a cut file naming stage -1
    # once landed on the last stage without a word.
    pool = CutPool(resource_dims=(1, 1), n_info=(1, 2))
    pool.add_cut(1, 1, cut(1.0, 1.0))
    path = tmp_path / "cuts.json"
    pool.save(path)
    obj = json.loads(path.read_text())
    for t, info in ((-1, 0), (2, 0), (0, 1), (1, 2), (1, -1)):
        with pytest.raises(DimensionMismatch):
            pool.add_cut(t, info, cut(1.0, 1.0))
        obj["cuts"][0].update(t=t, info=info)
        path.write_text(json.dumps(obj))
        with pytest.raises(DimensionMismatch):
            load_cuts(path)


def test_for_problem_layout_and_info_index():
    chain, _ = random_recourse_instance(3, markov=True, T=3)
    independent, _ = random_recourse_instance(3, T=3)
    n_out = tuple(chain.process.n_outcomes(t) for t in range(1, chain.T))
    markov = CutPool.for_problem(chain)
    assert markov.n_info == (1, *n_out)
    assert CutPool.for_problem(independent).n_info == (1, 1, 1)
    last = n_out[-1] - 1
    assert markov.info_index(0, -1) == 0
    assert markov.info_index(chain.T - 1, last) == last
    assert markov.info_index(chain.T, last) == 0  # stage T keeps no family
    assert CutPool(resource_dims=(1, 1), n_info=(1, 1)).info_index(1, 2) == 0


def test_growing_stack_rounds_as_a_fresh_stack():
    # Cuts are embedded between additions, as in training.  The stacked
    # slopes and offsets, the embedded rows and the evaluated maximum must
    # equal, bit for bit, those computed from freshly stacked arrays.
    rng = np.random.default_rng(12)
    for dim in (1, 5, 10, 20):
        pool = CutPool(resource_dims=[dim], n_info=[1])
        B = rng.standard_normal((dim, 7))
        spec = SubproblemSpec(c=np.ones(7), A=rng.standard_normal((3, 7)), rhs=np.ones(3))
        for k in range(1, 40):
            scale = 10.0 ** rng.uniform(-3.0, 5.0)
            pool.add_cut(
                0,
                0,
                Cut(
                    alpha=1e4 * rng.standard_normal(),
                    beta=scale * rng.standard_normal(dim),
                    anchor=rng.uniform(0.0, 10.0, dim),
                    born_iteration=k,
                ),
            )
            cuts = pool.cuts_at(0, 0)
            betas = np.array([c.beta for c in cuts])
            anchors = np.array([c.anchor for c in cuts])
            offsets = np.array([c.alpha for c in cuts]) - np.einsum(
                "ij,ij->i", betas, anchors
            )
            embedded = pool.embed(0, 0, spec, B)
            assert np.array_equal(embedded.A[3:, :7], -(betas @ B))
            assert np.array_equal(embedded.rhs[3:], offsets)
            R = rng.uniform(0.0, 10.0, dim)
            assert pool.evaluate(0, 0, R) == float((offsets + betas @ R).max())


def test_loaded_families_stack_the_bits_of_added_cuts(tmp_path):
    # A cut file is loaded one family at a time, the offsets from one einsum
    # over the family; they must equal, bit for bit, those of a pool built
    # cut by cut.
    rng = np.random.default_rng(21)
    for dim in (1, 3, 10, 20):
        pool = CutPool(resource_dims=(dim, dim), n_info=(1, 3))
        for k in range(60):
            t, info = (0, 0) if k % 4 == 0 else (1, k % 3)
            pool.add_cut(
                t,
                info,
                Cut(
                    alpha=1e4 * rng.standard_normal(),
                    beta=10.0 ** rng.uniform(-3.0, 5.0) * rng.standard_normal(dim),
                    anchor=rng.uniform(0.0, 10.0, dim),
                    born_iteration=k,
                ),
            )
        path = tmp_path / f"cuts{dim}.json"
        pool.save(path)
        loaded = load_cuts(path)
        assert loaded.same_as(pool)
        for t, info in ((0, 0), (1, 0), (1, 1), (1, 2)):
            mine = loaded._buckets[t][info].stacked()
            theirs = pool._buckets[t][info].stacked()
            assert mine[0].tobytes() == theirs[0].tobytes()
            assert mine[1].tobytes() == theirs[1].tobytes()
        assert loaded._buckets[1][0].stacked()[0].flags.c_contiguous


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (lambda rec: rec.update(beta=rec["beta"] + [1.0]), DimensionMismatch, "equal-length"),
        (
            lambda rec: rec.update(beta=rec["beta"] + [1.0], anchor=rec["anchor"] + [1.0]),
            DimensionMismatch,
            "dimension",
        ),
        (lambda rec: rec.update(alpha=float("inf")), MalformedFileError, "finite"),
        (lambda rec: rec["anchor"].__setitem__(0, float("nan")), MalformedFileError, "finite"),
    ],
    ids=["ragged-slope", "wrong-dimension", "inf-alpha", "nan-anchor"],
)
def test_bad_cut_in_a_family_raises_its_error(tmp_path, edit, error, message):
    pool = CutPool(resource_dims=(2,), n_info=(1,))
    for k in range(4):
        pool.add_cut(0, 0, Cut(1.0 + k, np.ones(2), np.zeros(2), k))
    path = tmp_path / "cuts.json"
    pool.save(path)
    obj = json.loads(path.read_text())
    edit(obj["cuts"][2])
    path.write_text(json.dumps(obj))
    with pytest.raises(error, match=message):
        load_cuts(path)
