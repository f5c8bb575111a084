"""Randomized invariants over the numeric core.

Anything asserted here must hold for every input in the stated domain,
not just the seeded examples the other test files pin down.
"""

import contextlib
import io
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from protouq import (
    Checkpoint,
    EvidenceConfig,
    PairSet,
    ProtoUQError,
    RerankParams,
    apply_rerank,
    cosine,
    dirichlet_from_evidence,
    evaluate_reranked,
    generate_evidence,
    init_prototypes,
    jsd,
    msvd_collision_logprob,
    normalize_rows,
    pearson,
    read_checkpoint,
    read_embeddings,
    read_pairs,
    removal_curve,
    retrieval_ranks,
    softmax,
    write_checkpoint,
    write_embeddings,
)
from protouq.cli import run
from protouq.embed import _RANK_BLOCK
from protouq.metrics import DIRECTIONS, _report
from test_metrics import assert_matches_naive_oracle, naive_ranks, random_many_to_many

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


@st.composite
def tied_rankings(draw):
    """A similarity matrix of a few levels (-0.0 and 0.0 among them), with
    many-to-many pairs and tied uncertainties; about half the vision row
    counts cross one rank block."""
    n_vision = draw(st.one_of(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=_RANK_BLOCK - 2, max_value=_RANK_BLOCK + 20),
    ))
    n_text = draw(st.integers(min_value=1, max_value=7))
    levels = draw(st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 1.0]),
                           min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = np.array(levels)[rng.integers(0, len(levels), (n_vision, n_text))]
    pairs = random_many_to_many(rng, n_vision, n_text)
    u_v = np.round(rng.uniform(0.0, 1.0, n_vision), 1)
    u_t = np.round(rng.uniform(0.0, 1.0, n_text), 1)
    return values, pairs, u_v, u_t


def _distinct_case(n_vision, n_text, pairs):
    """No two similarities equal, with distinct uncertainties."""
    rng = np.random.default_rng(n_vision * n_text)
    values = rng.permutation(np.linspace(-1.0, 1.0, n_vision * n_text)).reshape(n_vision, n_text)
    u_v = np.linspace(0.0, 0.9, n_vision)
    u_t = np.linspace(0.05, 0.95, n_text)
    return values, PairSet(pairs=pairs), u_v, u_t


# Every block skips the index tie-break.
NO_TIE = _distinct_case(2 * _RANK_BLOCK + 9, 5, [(i, i % 5) for i in range(2 * _RANK_BLOCK + 9)])

# v2t query _RANK_BLOCK + 3 (positive text 4) ties text 0, below its index,
# in the second block only.
V2T_TIE = _distinct_case(2 * _RANK_BLOCK + 9, 5, [(i, i % 5) for i in range(2 * _RANK_BLOCK + 9)])
V2T_TIE[0][_RANK_BLOCK + 3, 0] = V2T_TIE[0][_RANK_BLOCK + 3, (_RANK_BLOCK + 3) % 5]

# Text 0's only positive is vision _RANK_BLOCK + 1; the first and third
# blocks tie it, at vision 5 (counted) and 2 * _RANK_BLOCK + 1 (not).
T2V_TIE = _distinct_case(
    2 * _RANK_BLOCK + 9, 4,
    [(_RANK_BLOCK + 1, 0)] + [(i, 1 + i % 3) for i in range(2 * _RANK_BLOCK + 9)],
)
T2V_TIE[0][[5, 2 * _RANK_BLOCK + 1], 0] = T2V_TIE[0][_RANK_BLOCK + 1, 0]

# Each vision row has one pair and the highest-u text goes first, so every
# removal count leaves v2t queries with no kept pair; all entries are -0.0
# or 0.0, so every block takes the tie-break.
NO_KEPT_PAIR = (
    np.where(np.arange(_RANK_BLOCK + 4)[:, None] % 2 == np.arange(3) % 2, -0.0, 0.0),
    PairSet(pairs=[(i, i % 3) for i in range(_RANK_BLOCK + 4)]),
    np.zeros(_RANK_BLOCK + 4),
    np.array([0.1, 0.9, 0.5]),
)


@given(tied_rankings(), st.sampled_from(["uncertainty", "random"]),
       st.sampled_from(["gallery", "query"]), st.integers(min_value=0, max_value=3))
@example(NO_TIE, "uncertainty", "gallery", 0)
@example(V2T_TIE, "random", "query", 1)
@example(T2V_TIE, "uncertainty", "query", 0)
@example(NO_KEPT_PAIR, "uncertainty", "gallery", 0)
def test_blocked_rankings_match_full_sort_oracle(case, mode, side, seed):
    """retrieval_ranks, evaluate_reranked and removal_curve rank exactly as
    a full sort of each query's gallery by (-score, index)."""
    values, pairs, u_v, u_t = case
    for direction in DIRECTIONS:
        want = naive_ranks(values, pairs, direction)
        assert retrieval_ranks(values, pairs, direction).tolist() == want.tolist()
    params = RerankParams(beta1=1.0, beta2=2.0)
    reranked = apply_rerank(values, u_v, u_t, params).values
    assert evaluate_reranked(values, u_v, u_t, pairs, params) == tuple(
        [_report(naive_ranks(m, pairs, d), d) for d in DIRECTIONS] for m in (values, reranked)
    )
    counts = sorted({0, len(pairs) // 2, len(pairs) - 1})
    curve = removal_curve(values, u_v, u_t, pairs, counts, mode=mode, seed=seed, side=side)
    assert_matches_naive_oracle(curve, values, u_v, u_t, pairs, seed)


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
def binary_files(tmp_path_factory):
    """The bytes of a small valid PAUE file and PAUP file."""
    root = tmp_path_factory.mktemp("binary")
    rng = np.random.default_rng(5)
    write_embeddings(normalize_rows(rng.standard_normal((3, 4)), "vision"), root / "e.paue")
    bank_v = init_prototypes(2, 4, seed=6, modality="vision")
    bank_t = init_prototypes(2, 4, seed=7, modality="text")
    write_checkpoint(Checkpoint(bank_v, bank_t, train_meta={"seed": 1}), root / "m.paup")
    return {"paue": (root / "e.paue").read_bytes(), "paup": (root / "m.paup").read_bytes()}


SIGNALING_NAN = struct.pack("<I", 0x7F800001)
# Offsets of each file's first float32 value (after magic, version and header).
FIRST_VALUE = {"paue": 19, "paup": 14}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(
    st.sampled_from(["paue", "paup"]),
    st.lists(st.tuples(st.integers(min_value=0, max_value=10**4), st.binary(min_size=1, max_size=8)),
             max_size=4),
    st.integers(min_value=0, max_value=10**4),
)
@example("paue", [(FIRST_VALUE["paue"], SIGNALING_NAN)], 10**4)
@example("paup", [(FIRST_VALUE["paup"], SIGNALING_NAN)], 10**4)
def test_any_binary_file_raises_only_typed_errors(tmp_path_factory, binary_files, kind, edits, keep):
    """Overwrite a valid file at any offsets and cut it to any length; both
    readers may only raise ProtoUQError, and never warn."""
    blob = bytearray(binary_files[kind])
    for offset, raw in edits:
        start = offset % len(blob)
        blob[start:start + len(raw)] = raw
    path = tmp_path_factory.mktemp("binary_fuzz") / f"f.{kind}"
    path.write_bytes(bytes(blob[:keep]))
    for reader in (read_embeddings, read_checkpoint):
        try:
            reader(path)
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


# Flag values as the command line would spell them.  Flags that size an
# allocation or a loop stay small; seeds, counts, rates, temperatures, noise
# and betas range over every int or float, negative, huge and subnormal.
small_int_text = st.integers(min_value=-2, max_value=12).map(str)
int_text = st.one_of(st.integers(), st.integers(min_value=-10**400, max_value=10**400)).map(str)
float_text = st.floats().map(repr)

NUMERIC_FLAGS = {
    "gen-synth": {
        "--n-items": small_int_text, "--d": small_int_text, "--k-true": small_int_text,
        "--captions-per-item": small_int_text, "--noise-sigma": float_text, "--seed": int_text,
    },
    "train": {
        "--k": small_int_text, "--epochs": small_int_text, "--batch-size": int_text,
        "--lr": float_text, "--lambda-div": float_text, "--tau": float_text,
        "--gamma": float_text, "--theta": float_text, "--beta1": float_text,
        "--beta2": float_text, "--seed": int_text,
        "--evidence": st.sampled_from(["relu", "softplus", "exponential"]),
    },
    "rerank": {"--beta1": float_text, "--beta2": float_text},
    "removal-curve": {"--seed": int_text},
    "msvd-prob": {"--n": int_text, "--batch": small_int_text, "--group": small_int_text},
}
numeric_flag_runs = st.sampled_from(sorted(NUMERIC_FLAGS)).flatmap(
    lambda command: st.tuples(
        st.just(command), st.fixed_dictionaries({}, optional=NUMERIC_FLAGS[command])
    )
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150)
@given(numeric_flag_runs)
@example(("train", {"--seed": "-1"}))
@example(("removal-curve", {"--seed": "-1"}))
@example(("msvd-prob", {"--n": "1" + "0" * 400, "--batch": "2", "--group": "1"}))
@example(("gen-synth", {"--noise-sigma": "1e308"}))
@example(("train", {"--tau": "1e-300"}))
@example(("train", {"--epochs": "2", "--lr": "1e300"}))
@example(("train", {"--lambda-div": "1e300"}))
@example(("train", {"--evidence": "softplus", "--gamma": "1e300"}))
@example(("train", {"--evidence": "softplus", "--gamma": "1e-300"}))
@example(("train", {"--evidence": "softplus", "--gamma": "5e-324"}))
def test_any_numeric_flag_value_exits_0_1_or_2(cli_corpus, run_and_flags):
    """Exit 0 with a clean stderr, exit 1 with one error line, or a usage
    error; never a traceback or a NumPy warning."""
    root, corpus = cli_corpus
    command, flags = run_and_flags
    base = {
        "gen-synth": ["gen-synth", "--vis", str(root / "gv"), "--txt", str(root / "gt"),
                      "--pairs", str(root / "gp"), "--n-items", "6", "--d", "4", "--k-true", "4"],
        "train": ["train", *corpus[:6], "--ckpt", str(root / "fuzz.paup"),
                  "--epochs", "1", "--k", "3"],
        "rerank": ["rerank", *corpus],
        "removal-curve": ["analyze", "removal-curve", *corpus, "--mode", "random"],
        "msvd-prob": ["analyze", "msvd-prob", "--n", "100", "--batch", "2", "--group", "1"],
    }[command]
    argv = base + [item for flag_value in flags.items() for item in flag_value]
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error:")
