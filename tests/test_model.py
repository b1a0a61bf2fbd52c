import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sddpkit import cuts, engine, model, storage, subproblem
from sddpkit.errors import FormatVersionError, MalformedFileError, TooManyPaths
from sddpkit.model import (
    MultistageProblem,
    ProcessKind,
    StageRealization,
    UncertaintyProcess,
    enumerate_paths,
    load_instance,
    sample_path,
    save_instance,
    validate,
)
from sddpkit.storage import StorageNetworkParams, generate_storage_instance
from sddpkit.subproblem import SubproblemSpec, save_subproblem
from support import newsvendor, random_recourse_instance


def two_stage_markov(P, initial=(0.5, 0.5)):
    stage = tuple(
        StageRealization(A=[[1.0, -1.0]], B=np.zeros((0, 2)), b=[d], c=[1.0, 0.0])
        for d in (1.0, 2.0)
    )
    mid = tuple(
        StageRealization(
            A=[[1.0, -1.0]], B=[[1.0, 0.0]], b=[d], c=[1.0, 0.0]
        )
        for d in (1.0, 2.0)
    )
    process = UncertaintyProcess(
        kind=ProcessKind.MARKOV,
        outcomes=(mid, stage),
        initial=np.array(initial, dtype=float),
        transitions=(np.array(P, dtype=float),),
    )
    stage0 = StageRealization(A=[[1.0, 1.0]], B=[[1.0, 0.0]], b=[3.0], c=[1.0, 0.0])
    return MultistageProblem(T=2, stage0=stage0, process=process, resource_dims=(1, 1))


def test_validate_newsvendor_is_clean():
    assert validate(newsvendor()).violations == []


def test_validate_flags_bad_transition_row_sum():
    p = two_stage_markov([[0.5, 0.49], [0.5, 0.5]])
    report = validate(p)
    assert any("row 0 of P_1 sums to 0.99" in v for v in report.violations)


def test_validate_flags_linking_shape_mismatch():
    stage0 = StageRealization(
        A=[[1.0, 1.0, 1.0]], B=[[1.0, 0.0]], b=[3.0], c=[1.0, 0.0, 0.0]
    )
    base = newsvendor()
    p = MultistageProblem(
        T=1, stage0=stage0, process=base.process, resource_dims=(1,)
    )
    report = validate(p)
    assert any("linking matrix" in v and "columns" in v for v in report.violations)


def test_validate_flags_nonfinite_entries():
    stage0 = StageRealization(
        A=[[np.nan, 1.0]], B=[[1.0, 0.0]], b=[3.0], c=[1.0, 0.0]
    )
    p = MultistageProblem(
        T=1, stage0=stage0, process=newsvendor().process, resource_dims=(1,)
    )
    assert any("non-finite" in v for v in validate(p).violations)


def test_sample_path_singleton_support():
    p, _ = random_recourse_instance(7, T=3, max_outcomes=2)
    # collapse to singleton outcome sets
    proc = p.process
    outcomes = tuple((stage[0],) for stage in proc.outcomes)
    singleton = UncertaintyProcess(
        kind=ProcessKind.STAGEWISE_INDEPENDENT,
        outcomes=outcomes,
        probs=tuple(np.array([1.0]) for _ in range(p.T)),
    )
    q = MultistageProblem(
        T=p.T, stage0=p.stage0, process=singleton, resource_dims=p.resource_dims
    )
    path = sample_path(q, np.random.default_rng(0))
    assert path.indices == tuple([0] * p.T)
    assert path.probability == 1.0


def test_sample_path_absorbing_markov_chain():
    p = two_stage_markov([[1.0, 0.0], [0.0, 1.0]])
    rng = np.random.default_rng(4)
    for _ in range(20):
        path = sample_path(p, rng)
        assert path.indices[0] == path.indices[1]


def test_sample_path_self_transition_frequency_matches_p_stay():
    # 10-regime chain, 0.91 on the diagonal, 0.01 off-diagonal.
    n = 10
    P = np.full((n, n), 0.01)
    np.fill_diagonal(P, 0.91)
    real = StageRealization(A=[[1.0]], B=np.zeros((0, 1)), b=[1.0], c=[1.0])
    T = 11
    outcomes = tuple(tuple(real for _ in range(n)) for _ in range(T))
    process = UncertaintyProcess(
        kind=ProcessKind.MARKOV,
        outcomes=outcomes,
        initial=np.full(n, 0.1),
        transitions=tuple(P for _ in range(T - 1)),
    )
    stage0 = StageRealization(A=[[1.0]], B=np.zeros((0, 1)), b=[1.0], c=[0.0])
    p = MultistageProblem(
        T=T, stage0=stage0, process=process, resource_dims=tuple([0] * T)
    )
    rng = np.random.default_rng(123)
    stays = trans = 0
    while trans < 100_000:
        path = sample_path(p, rng)
        for a, b in zip(path.indices, path.indices[1:]):
            trans += 1
            stays += a == b
    assert abs(stays / trans - 0.91) <= 0.01


def test_enumerate_paths_product_measure():
    p, _ = random_recourse_instance(3, T=2, max_outcomes=2)
    proc = UncertaintyProcess(
        kind=ProcessKind.STAGEWISE_INDEPENDENT,
        outcomes=tuple(stage[:2] for stage in p.process.outcomes),
        probs=(np.array([0.5, 0.5]), np.array([0.5, 0.5])),
    )
    q = MultistageProblem(
        T=2, stage0=p.stage0, process=proc, resource_dims=p.resource_dims
    )
    paths = enumerate_paths(q, 100)
    assert len(paths) == 4
    assert all(abs(path.probability - 0.25) < 1e-15 for path in paths)


def test_enumerate_paths_deterministic_markov_chain():
    p = two_stage_markov([[1.0, 0.0], [0.0, 1.0]])
    paths = enumerate_paths(p, 100)
    assert len(paths) == 2
    assert sorted(path.indices for path in paths) == [(0, 0), (1, 1)]
    assert all(abs(path.probability - 0.5) < 1e-15 for path in paths)


def test_enumerate_paths_guard():
    real = StageRealization(A=[[1.0]], B=np.zeros((0, 1)), b=[1.0], c=[1.0])
    T = 20
    outcomes = tuple(tuple(real for _ in range(10)) for _ in range(T))
    process = UncertaintyProcess(
        kind=ProcessKind.STAGEWISE_INDEPENDENT,
        outcomes=outcomes,
        probs=tuple(np.full(10, 0.1) for _ in range(T)),
    )
    stage0 = StageRealization(A=[[1.0]], B=np.zeros((0, 1)), b=[1.0], c=[0.0])
    p = MultistageProblem(
        T=T, stage0=stage0, process=process, resource_dims=tuple([0] * T)
    )
    with pytest.raises(TooManyPaths):
        enumerate_paths(p, 10**6)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), markov=st.booleans())
def test_enumerate_paths_probabilities_sum_to_one(seed, markov):
    p, _ = random_recourse_instance(seed, markov=markov)
    paths = enumerate_paths(p, 10_000)
    assert abs(sum(path.probability for path in paths) - 1.0) <= 1e-12


def test_sample_path_empirical_distribution_converges():
    p, _ = random_recourse_instance(11, markov=True, T=3)
    paths = enumerate_paths(p, 10_000)
    exact = {path.indices: path.probability for path in paths}
    rng = np.random.default_rng(99)
    N = 20_000
    counts: dict = {}
    for _ in range(N):
        s = sample_path(p, rng)
        counts[s.indices] = counts.get(s.indices, 0) + 1
    tv = 0.5 * sum(
        abs(counts.get(key, 0) / N - prob) for key, prob in exact.items()
    )
    tv += 0.5 * sum(v / N for k, v in counts.items() if k not in exact)
    assert tv <= 3.0 * np.sqrt(len(exact) / N)


def test_stagewise_expressed_as_markov_gives_same_distribution():
    p, _ = random_recourse_instance(5, markov=False, T=3)
    proc = p.process
    transitions = []
    for t in range(1, p.T):
        row = proc.probs[t]
        transitions.append(np.tile(row, (proc.n_outcomes(t), 1)))
    as_markov = UncertaintyProcess(
        kind=ProcessKind.MARKOV,
        outcomes=proc.outcomes,
        initial=proc.probs[0],
        transitions=tuple(transitions),
    )
    q = MultistageProblem(
        T=p.T, stage0=p.stage0, process=as_markov, resource_dims=p.resource_dims
    )
    a = {path.indices: path.probability for path in enumerate_paths(p, 10_000)}
    b = {path.indices: path.probability for path in enumerate_paths(q, 10_000)}
    assert a.keys() == b.keys()
    assert all(abs(a[k] - b[k]) <= 1e-12 for k in a)


def test_instance_roundtrip_is_bitwise(tmp_path):
    p, _ = random_recourse_instance(21, markov=True)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_instance(p, first)
    save_instance(load_instance(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_instance_roundtrip_stagewise(tmp_path):
    p = newsvendor()
    path = tmp_path / "news.json"
    save_instance(p, path)
    q = load_instance(path)
    assert q.T == p.T
    assert np.array_equal(q.stage0.A, p.stage0.A)
    assert q.process.kind is ProcessKind.STAGEWISE_INDEPENDENT


def test_load_rejects_truncated_file(tmp_path):
    p = newsvendor()
    path = tmp_path / "news.json"
    save_instance(p, path)
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    with pytest.raises(MalformedFileError):
        load_instance(path)


def test_load_rejects_wrong_version(tmp_path):
    p = newsvendor()
    path = tmp_path / "news.json"
    save_instance(p, path)
    obj = json.loads(path.read_text())
    obj["version"] = 99
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatVersionError):
        load_instance(path)


def _array_as_list(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def canonical(obj) -> bytes:
    """The canonical text that ``write_json`` must reproduce byte for byte;
    an array is written as its ``tolist()``."""
    text = json.dumps(
        obj, indent=2, sort_keys=True, allow_nan=False, default=_array_as_list
    )
    return (text + "\n").encode()


def _write_cut_file(path):
    params = StorageNetworkParams(n_storage=2, T=3, n_regimes=2)
    problem = generate_storage_instance(params, np.random.default_rng(1))
    pool, _ = engine.run(problem, engine.EngineConfig(iterations=3, ub_every=0))
    pool.save(path)


def _write_dump(path):
    spec = SubproblemSpec(
        c=np.array([-1.0, 0.0, 0.25]),
        A=np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]),
        rhs=np.array([2.0, 1.5]),
        quad=(0.5, np.diag([1.0, 0.0, 2.0])),
    )
    save_subproblem(spec, path, np.array([0, 2]), {"key": ["f", 1, 0], "error": "x"})


def _write_instance(path, markov):
    params = StorageNetworkParams(n_storage=2, T=3, n_regimes=2, markov=markov)
    save_instance(generate_storage_instance(params, np.random.default_rng(7)), path)


@pytest.mark.parametrize(
    "module, write",
    [
        (model, lambda path: _write_instance(path, markov=True)),
        (model, lambda path: _write_instance(path, markov=False)),
        (cuts, _write_cut_file),
        (subproblem, _write_dump),
        (storage, lambda path: StorageNetworkParams(n_storage=4, T=6).save(path)),
    ],
    ids=["markov-instance", "stagewise-instance", "cut-file", "subproblem-dump",
         "storage-params"],
)
def test_every_file_is_the_canonical_text(tmp_path, monkeypatch, module, write):
    # Each writer's header and body, encoded by json.dumps, is the file.
    written = []

    def recording_write_json(path, fmt, version, body):
        written.append((path, {"format": fmt, "version": version, **body}))
        real_write_json(path, fmt, version, body)

    real_write_json = model.write_json
    monkeypatch.setattr(module, "write_json", recording_write_json)
    write(tmp_path / "out.json")
    [(path, obj)] = written
    assert Path(path).read_bytes() == canonical(obj)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [{}, [], [[]]]},
        (1, (2.5, ()), [3]),
        [True, False, 0, 1, 0.0, 1.0],
        None,
        [None, 2**53 + 1, -(2**64)],
        [-0.0, 5e-324, 1.7976931348623157e308],
        [np.float64(0.1), np.float64(-2.5), 3.0],
        ["é", 'a "quote" \\ here', "tab\tnewline\ncontrol\x01", ""],
        [1, [2, [3, {"k": [4.5]}]], "x"],
        {"z": 1, "a": {"y": [1.5, None], "b": {"": True}}},
        {2.5: "float key", 1: "int key", -3: []},
        np.array([0.1, -2.5, 5e-324, -0.0]),
        np.arange(4),
        np.arange(6.0).reshape(2, 3) / 7.0,
        np.zeros((0, 3)),
        np.array(2.5),
        [np.ones(2), {"m": np.eye(2), "v": np.array([])}, [np.array([1.5])]],
        {"rows": 1, "cols": 3, "data": np.array([1.0, 2.0, 3.0])},
        np.zeros(7),
        np.zeros(1),
        np.array([0.0, -0.0, 0.0, 0.0, -0.0]),
        np.array([5e-324, 0.0, -2.2250738585072014e-308, 1e-310, 0.0, 0.0]),
        np.linspace(-3.0, 4.0, 41) ** 3 / 7.0,
        np.array([0.0, 0.0, 1.5, 0.0, 1e-05, 1e22, 0.0, -7.0, 0.0]),
        {"m": [np.eye(3).ravel(), np.ones(2), np.array([0.0, 2.5])]},
    ],
)
def test_write_json_matches_json_dumps(tmp_path, value):
    path = tmp_path / "out.json"
    model.write_json(path, "test", 1, {"value": value})
    assert path.read_bytes() == canonical({"format": "test", "version": 1, "value": value})


@pytest.mark.parametrize(
    "value, error",
    [
        (float("nan"), ValueError),
        ([1.0, float("inf")], ValueError),
        ({"deep": [[0.5, -float("inf")]]}, ValueError),
        (np.int64(3), TypeError),
        ([1, np.int64(3)], TypeError),
        ([np.array([1.0, float("nan")])], ValueError),
        (np.array([0.0, 0.0, float("inf"), 0.0]), ValueError),
    ],
    ids=["nan", "inf-in-list", "nested-inf", "int64", "int64-in-list", "nan-in-array",
         "inf-among-zeros"],
)
def test_failed_write_keeps_the_old_file(tmp_path, value, error):
    # As json.dumps does, the writer raises; the target keeps its old bytes
    # and no temporary file is left beside it.
    with pytest.raises(error) as expected:
        json.dumps(value, allow_nan=False, default=_array_as_list)
    path = tmp_path / "out.json"
    model.write_json(path, "test", 1, {"value": [1.0, 2.0]})
    old = path.read_bytes()
    with pytest.raises(error, match=f"^{re.escape(str(expected.value))}$"):
        model.write_json(path, "test", 1, {"a": list(range(1000)), "value": value})
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_instance_write_and_read_hold_no_float_list_of_the_file(tmp_path):
    # The writer formats only the nonzero entries of one array at a time,
    # and the reader converts each matrix in bulk from the file's bytes.
    # What the reader holds at its peak is those bytes and the arrays.
    params = StorageNetworkParams(n_storage=10, T=24, n_regimes=3)
    problem = generate_storage_instance(params, np.random.default_rng(10))
    path = tmp_path / "inst.json"  # 8.4 MB
    tracemalloc.start()
    try:
        save_instance(problem, path)
        save_peak = tracemalloc.get_traced_memory()[1]
        size = path.stat().st_size
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_instance(path)
        load_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert size > 8e6
    assert save_peak <= 0.1 * size
    assert load_peak <= 1.75 * size
    assert np.array_equal(loaded.stage0.A, problem.stage0.A)
    real = loaded.process.outcomes[-1][-1]
    assert real.A.flags.c_contiguous and real.A.dtype == np.float64


@pytest.mark.parametrize(
    "edit",
    [
        lambda A: A["data"].__setitem__(0, "one"),
        lambda A: A.__setitem__("data", [A["data"], []]),
        lambda A: A["data"].append(1.0),
    ],
    ids=["string-entry", "ragged-data", "wrong-entry-count"],
)
def test_malformed_matrix_data_names_the_file(tmp_path, edit):
    path = tmp_path / "inst.json"
    save_instance(newsvendor(), path)
    obj = json.loads(path.read_text())
    edit(obj["process"]["outcomes"][0][0]["A"])
    path.write_text(json.dumps(obj))
    with pytest.raises(MalformedFileError, match="inst.json"):
        load_instance(path)


def _text_value(path):
    """The instance file's JSON value as the text path parses it."""
    return model._parse_text(path, model._matrix_hook)


def assert_same_value(a, b):
    """Equal JSON values whose arrays and floats agree bit for bit (so the
    sign of a zero counts)."""
    assert type(a) is type(b)
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_same_value(a[key], b[key])
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_value(x, y)
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()
    elif isinstance(a, float):
        assert np.float64(a).tobytes() == np.float64(b).tobytes()
    else:
        assert a == b


def instance_arrays(problem):
    reals = [problem.stage0] + [r for stage in problem.process.outcomes for r in stage]
    out = [arr for r in reals for arr in (r.A, r.B, r.b, r.c)]
    proc = problem.process
    return out + list(proc.probs or ()) + [
        arr for arr in (proc.initial,) if arr is not None
    ] + list(proc.transitions or ())


def assert_same_arrays(p, q):
    pairs = list(zip(instance_arrays(p), instance_arrays(q), strict=True))
    for a, b in pairs:
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


_entries = st.one_of(
    st.sampled_from([0.0, 0.0, -0.0, 5e-324, -2.5e-310, 1.0, 1e22, 1e-05]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def small_instances(draw):
    m, n, r = draw(st.integers(0, 3)), draw(st.integers(1, 4)), draw(st.integers(0, 2))

    def vec(k):
        return np.array(draw(st.lists(_entries, min_size=k, max_size=k)), dtype=float)

    def real():
        return StageRealization(
            A=vec(m * n).reshape(m, n), B=vec(r * n).reshape(r, n), b=vec(m), c=vec(n)
        )

    k = draw(st.integers(1, 3))
    outcomes = (tuple(real() for _ in range(k)),)
    if draw(st.booleans()):
        process = UncertaintyProcess(
            kind=ProcessKind.MARKOV, outcomes=outcomes, initial=vec(k), transitions=()
        )
    else:
        process = UncertaintyProcess(
            kind=ProcessKind.STAGEWISE_INDEPENDENT, outcomes=outcomes, probs=(vec(k),)
        )
    return MultistageProblem(T=1, stage0=real(), process=process, resource_dims=(r,))


@settings(max_examples=80, deadline=None)
@given(problem=small_instances())
def test_instance_round_trip_matches_the_text_path_bit_for_bit(tmp_path_factory, problem):
    # Zeros of either sign, subnormals and any finite float: the bulk
    # writer's text is json.dumps's, the bulk reader takes it, and every
    # array comes back with the bits the JSON text path gives.
    path = tmp_path_factory.mktemp("roundtrip") / "inst.json"
    save_instance(problem, path)
    assert path.read_bytes() == canonical(
        {"format": model.INSTANCE_FORMAT, "version": model.INSTANCE_VERSION,
         **model.problem_to_obj(problem)}
    )
    bulk = model._bulk_parse(path.read_bytes())
    assert bulk is not None
    assert_same_value(bulk, _text_value(path))
    assert_same_arrays(load_instance(path), problem)


def _storage_instance():
    params = StorageNetworkParams(n_storage=2, T=3, n_regimes=2)
    return generate_storage_instance(params, np.random.default_rng(3))


def _exponents(text):
    """The canonical text with exponent and signed-zero spellings of
    matrix entries, which the bulk reader parses as ``json`` does."""
    return (
        text.replace("      -1.0,\n", "      -1E0,\n")
        .replace("      1.0,\n", "      1.0e+0,\n")
        .replace("      0.0,\n", "      0e+00,\n", 3)
        .replace("      0.0,\n", "      -0.0,\n", 1)
    )


def _integers(text):
    """The canonical text with integer matrix entries: to ``json`` an
    integer ``-0`` is a positive zero."""
    return text.replace("      1.0,\n", "      1,\n").replace("      0.0,\n", "      -0,\n", 2)


def _dedent_an_entry(text):
    """The canonical text with one matrix entry indented a space less, which
    a JSON parser ignores: a reader that placed tokens by the indent alone
    would drop the entry's first character."""
    entry = re.compile(r"\n +(-?[1-9][0-9]*\.[0-9]+|-0\.0),?\n")
    at = entry.search(text, text.index('"data": [')).start() + 1
    return text[:at] + text[at + 1 :]


@pytest.mark.parametrize(
    "write",
    [
        lambda obj: json.dumps(obj),
        lambda obj: json.dumps(obj, indent=4, sort_keys=True),
        lambda obj: json.dumps(obj, indent=1),
        lambda obj: json.dumps(obj, indent="\t", sort_keys=True),
        lambda obj: _exponents(json.dumps(obj, indent=2, sort_keys=True)),
        lambda obj: _integers(json.dumps(obj, indent=2, sort_keys=True)),
        lambda obj: json.dumps(
            {**obj, "notes": {"data": [1.5, 0.0, -0.0, 2e-308]}}, indent=2, sort_keys=True
        ),
        lambda obj: json.dumps(
            {**obj, "notes": [{"data": [1, 2]}, {"rows": 0}]}, indent=2, sort_keys=True
        ),
        lambda obj: json.dumps(
            {**obj, "notes": {"data": [1.5], "data ": [2.0]}}, indent=2, sort_keys=True
        ).replace('"data ": [', '"data": ['),
        lambda obj: json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\r\n"),
        lambda obj: json.dumps({**obj, "kind": "été"}, indent=2, sort_keys=True),
        lambda obj: json.dumps(
            {**obj, "kind": "été"}, indent=2, sort_keys=True, ensure_ascii=False
        ),
        lambda obj: json.dumps(
            {**obj, "notes": [{"data": 0}, {"data": 999}]}, indent=2, sort_keys=True
        ).replace('"data"', '"d\\u0061ta"'),
        lambda obj: _dedent_an_entry(json.dumps(obj, indent=2, sort_keys=True)),
        lambda obj: re.sub(
            r'"data": \[\n +', '"data": [', json.dumps(obj, indent=2, sort_keys=True), count=1
        ),
    ],
    ids=["compact", "indent-4", "indent-1-unsorted", "tabs", "exponent-tokens",
         "integer-tokens", "data-list-outside-a-matrix", "integer-data-outside-a-matrix",
         "repeated-data-key", "crlf", "escaped-string", "utf-8-string", "escaped-data-key",
         "dedented-entry", "entry-on-the-bracket-line"],
)
def test_any_json_layout_loads_as_the_text_path(tmp_path, write):
    problem = _storage_instance()
    path = tmp_path / "inst.json"
    save_instance(problem, path)
    path.write_text(write(json.loads(path.read_text())))
    assert_same_value(model._parse_instance(path), _text_value(path))
    loaded = load_instance(path)
    assert loaded.T == problem.T
    expected = model.read_json(
        path, model.INSTANCE_FORMAT, model.INSTANCE_VERSION, "instance",
        model.problem_from_obj, _text_value,
    )
    assert_same_arrays(loaded, expected)


def test_canonical_instance_is_read_in_bulk(tmp_path, monkeypatch):
    # A file save_instance wrote never reaches the text parser's matrices.
    path = tmp_path / "inst.json"
    save_instance(_storage_instance(), path)

    def no_text_path(*args, **kwargs):
        raise AssertionError("text path taken")

    monkeypatch.setattr(model, "_parse_text", no_text_path)
    assert_same_arrays(load_instance(path), _storage_instance())


def _drop_a_comma(text):
    """The canonical text without the comma after a matrix entry that
    still reads as a number with its last digit cut off."""
    entry = re.compile(r"[0-9]\.[0-9]{2,}(,)\n")
    at = entry.search(text, text.index('"data": [')).start(1)
    return text[:at] + text[at + 1 :]


def _entry_on_the_closing_line(text):
    """The canonical text with one more entry, without a comma before it,
    on the closing line of a matrix's data list."""
    at = text.index("]", text.index('"data": [\n'))
    return text[:at] + "0.0" + text[at:]


def _canonical_edit(edit):
    def write(obj):
        edit(obj["process"]["outcomes"][0][0]["A"])
        return json.dumps(obj, indent=2, sort_keys=True)

    return write


@pytest.mark.parametrize(
    "write",
    [
        _canonical_edit(lambda A: A["data"].__setitem__(0, "one")),
        _canonical_edit(lambda A: A.__setitem__("data", [A["data"], []])),
        _canonical_edit(lambda A: A["data"].append(1.0)),
        _canonical_edit(lambda A: A.__setitem__("data", {"x": 1.0})),
        _canonical_edit(lambda A: A.__setitem__("data", None)),
        lambda obj: json.dumps(obj, indent=2, sort_keys=True).replace("0.0\n", "0.0,\n", 1),
        lambda obj: json.dumps(obj, indent=2, sort_keys=True)[:5000],
        lambda obj: json.dumps(obj, indent=2, sort_keys=True).replace("1.0,\n", "1.,\n", 1),
        lambda obj: _drop_a_comma(json.dumps(obj, indent=2, sort_keys=True)),
        lambda obj: _entry_on_the_closing_line(json.dumps(obj, indent=2, sort_keys=True)),
    ],
    ids=["string-entry", "ragged-data", "wrong-entry-count", "object-data", "null-data",
         "trailing-comma", "truncated", "bad-number", "missing-comma",
         "entry-on-the-closing-line"],
)
def test_malformed_canonical_data_keeps_its_error_text(tmp_path, write):
    path = tmp_path / "inst.json"
    save_instance(_storage_instance(), path)
    path.write_text(write(json.loads(path.read_text())))
    with pytest.raises(MalformedFileError) as bulk:
        load_instance(path)
    with pytest.raises(MalformedFileError) as text:
        model.read_json(
            path, model.INSTANCE_FORMAT, model.INSTANCE_VERSION, "instance",
            model.problem_from_obj, _text_value,
        )
    assert str(bulk.value) == str(text.value)
    assert "inst.json" in str(bulk.value)
