"""Randomized invariants over the numeric core.

Anything asserted here must hold for every input in the stated domain,
not just the seeded examples the other test files pin down.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from protouq import (
    EvidenceConfig,
    ProtoUQError,
    cosine,
    dirichlet_from_evidence,
    generate_evidence,
    jsd,
    msvd_collision_logprob,
    normalize_rows,
    pearson,
    read_pairs,
    softmax,
)
from protouq.cli import run

settings.register_profile("suite", deadline=None, max_examples=200)
settings.load_profile("suite")

evidence_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=16
)
similarity_lists = st.lists(
    st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=16
)


@given(evidence_lists)
def test_dirichlet_invariants(values):
    e = np.array(values)
    state = dirichlet_from_evidence(e)
    assert np.array_equal(state.alpha, e + 1.0)
    assert state.strength == pytest.approx(e.size + e.sum(), rel=1e-12)
    assert abs(state.psi + state.beliefs.sum() - 1.0) < 1e-9
    assert abs(state.u - (1.0 - e.size / state.strength)) < 1e-9
    assert 0.0 <= state.u < 1.0


@given(similarity_lists, st.integers(min_value=0, max_value=15),
       st.floats(min_value=0.01, max_value=5.0))
def test_raising_any_similarity_raises_u(sims, position, bump):
    s = np.array(sims)
    cfg = EvidenceConfig()
    base = dirichlet_from_evidence(generate_evidence(s, cfg)).u
    bumped = s.copy()
    bumped[position % s.size] += bump
    assert dirichlet_from_evidence(generate_evidence(bumped, cfg)).u > base


@given(similarity_lists, st.sampled_from(["relu", "softplus", "exponential"]))
def test_evidence_is_nonnegative(sims, kind):
    e = generate_evidence(np.array(sims), EvidenceConfig(kind=kind))
    assert np.all(e >= 0.0)


@given(similarity_lists, st.randoms(use_true_random=False))
def test_exponential_evidence_ignores_order(sims, rnd):
    s = np.array(sims)
    perm = list(range(s.size))
    rnd.shuffle(perm)
    cfg = EvidenceConfig()
    u = dirichlet_from_evidence(generate_evidence(s, cfg)).u
    u_perm = dirichlet_from_evidence(generate_evidence(s[perm], cfg)).u
    assert u_perm == pytest.approx(u, rel=1e-12)


@given(st.integers(min_value=2, max_value=32), st.randoms(use_true_random=False))
def test_cosine_bounds_and_self_similarity(d, rnd):
    rng = np.random.default_rng(rnd.getrandbits(64))
    u = rng.standard_normal(d)
    v = rng.standard_normal(d)
    assume(np.linalg.norm(u) > 1e-6 and np.linalg.norm(v) > 1e-6)
    c = cosine(u, v)
    assert -1.0 <= c <= 1.0
    assert cosine(u, u) == pytest.approx(1.0, abs=1e-12)


@given(
    st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=3, max_size=32),
    st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=3, max_size=32),
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
def test_pearson_positive_affine_invariance(xs, ys, scale, shift):
    n = min(len(xs), len(ys))
    x, y = np.array(xs[:n]), np.array(ys[:n])
    assume(np.var(x) > 1e-6 and np.var(y) > 1e-6)
    r = pearson(x, y)
    assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12
    assert pearson(x, scale * y + shift) == pytest.approx(r, abs=1e-6)


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=16),
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=16),
)
def test_jsd_symmetric_and_bounded(ps, qs):
    n = min(len(ps), len(qs))
    p = np.array(ps[:n])
    q = np.array(qs[:n])
    p /= p.sum()
    q /= q.sum()
    d = jsd(p, q)
    assert d == jsd(q, p)
    assert 0.0 <= d <= 1.0


@given(
    st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=32),
    st.floats(min_value=-10.0, max_value=10.0),
)
def test_softmax_normalizes_and_shift_invariant(logits, shift):
    x = np.array(logits)
    p = softmax(x)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(p > 0.0)
    assert np.allclose(softmax(x + shift), p, atol=1e-12)


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=8),
       st.randoms(use_true_random=False))
def test_normalize_rows_yields_unit_rows(d, n, rnd):
    rng = np.random.default_rng(rnd.getrandbits(64))
    matrix = rng.standard_normal((n, d)) * 10.0
    es = normalize_rows(matrix, "vision")
    assert np.allclose(np.linalg.norm(es.vectors, axis=1), 1.0, atol=1e-12)
    assert es.modality == "vision"


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=500))
def test_msvd_logprob_nonpositive_and_monotone_in_group(batch, group, extra):
    n = batch * (2 * group) + extra
    tight = msvd_collision_logprob(n, batch, 2 * group)
    loose = msvd_collision_logprob(n, batch, group)
    assert tight <= 0.0 and loose <= 0.0
    assert tight <= loose + 1e-12


pair_field = st.one_of(
    st.integers(min_value=-1, max_value=3).map(lambda i: str(i).encode()),
    st.integers(min_value=2**62, max_value=2**70).map(lambda i: str(i).encode()),
    st.sampled_from([b"", b"x", b"1.5", b"\xff", b" 2", b"+1_0"]),
)
pairs_file_bytes = st.one_of(
    st.binary(max_size=64),
    st.lists(
        st.tuples(pair_field, st.sampled_from([b"\t", b"\t", b"\t\t", b" "]), pair_field)
        .map(b"".join),
        max_size=4,
    ).flatmap(lambda lines: st.sampled_from([b"\n", b"\r\n", b"\r"]).map(lambda nl: nl.join(lines))),
)


@given(pairs_file_bytes, st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4))
@example(b"0\t0\n2\t99999999999999999999\n", 3, 3)
def test_any_pairs_file_raises_only_typed_errors(tmp_path_factory, blob, n_vision, n_text):
    path = tmp_path_factory.mktemp("pairs") / "p.tsv"
    path.write_bytes(blob)
    try:
        read_pairs(path).check_against(n_vision, n_text)
    except ProtoUQError:
        pass


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    """A tiny generated corpus and checkpoint for the CLI fuzz test."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    corpus = ["--vis", str(root / "v.paue"), "--txt", str(root / "t.paue"),
              "--pairs", str(root / "p.tsv")]
    assert run(["gen-synth", *corpus, "--n-items", "12", "--d", "8", "--k-true", "4"]) == 0
    ckpt = ["--ckpt", str(root / "m.paup")]
    assert run(["train", *corpus, *ckpt, "--epochs", "1", "--k", "3"]) == 0
    return root, [*corpus, *ckpt]


comma_list_text = st.one_of(
    st.text(max_size=24),
    st.lists(
        st.one_of(st.floats(), st.integers(min_value=-3, max_value=40), st.text(max_size=3)),
        min_size=1, max_size=6,
    ).map(lambda items: ",".join(map(str, items))),
)


@settings(max_examples=60)
@given(st.sampled_from(["--grid", "--weights", "--counts", "--fractions"]), comma_list_text)
@example("--fractions", "1e308")
@example("--fractions", "0.1,,0.2")
@example("--counts", "1" + "0" * 400)
@example("--weights", "1e308,1e308")
def test_any_comma_list_flag_value_exits_0_1_or_2(cli_corpus, flag, text):
    root, corpus = cli_corpus
    argv = {
        "--grid": ["rerank", *corpus, "--fit-betas", "--grid", text],
        "--weights": ["gen-synth", "--vis", str(root / "gv"), "--txt", str(root / "gt"),
                      "--pairs", str(root / "gp"), "--n-items", "6", "--d", "4",
                      "--k-true", "4", "--weights", text],
        "--counts": ["analyze", "removal-curve", *corpus, "--counts", text],
        "--fractions": ["analyze", "removal-curve", *corpus, "--fractions", text],
    }[flag]
    try:
        assert run(argv) in (0, 1)
    except SystemExit as exc:
        assert exc.code == 2
