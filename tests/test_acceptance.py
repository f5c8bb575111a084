"""Release gate: eleven numbered end-to-end checks.

Each test prints exactly one "criterion N PASS/FAIL" line with its headline
measurement and wall time, then asserts.  Budgets are part of the check.
All corpora and seeds are fixed, so the measurements are reproducible.
"""

import time

import numpy as np
import pytest

from protouq import (
    DEFAULT_CORPUS_SPEC,
    Checkpoint,
    EvidenceConfig,
    PairSet,
    PrototypeBank,
    SimilarityMatrix,
    SyntheticSpec,
    TrainConfig,
    apply_rerank,
    batch_means,
    dirichlet_from_evidence,
    entropy,
    evaluate_retrieval,
    fit_betas,
    generate_corpus,
    generate_evidence,
    gradients,
    jsd,
    loss_div,
    map_targets,
    msvd_collision_logprob,
    normalize_rows,
    pearson,
    read_checkpoint,
    read_embeddings,
    read_pairs,
    removal_curve,
    retrieval_ranks,
    similarity_matrix,
    softmax,
    train,
    uncertainty_scores,
    write_checkpoint,
    write_embeddings,
    write_pairs,
)


def report(capsys, number, ok, detail, elapsed):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {number} {verdict}: {detail} ({elapsed:.2f}s)")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_dirichlet_invariants_hold_for_random_evidence(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for kind in ("relu", "softplus", "exponential"):
        cfg = EvidenceConfig(kind=kind)
        for _ in range(1000):
            k = int(rng.integers(1, 17))
            sims = rng.uniform(-1.0, 1.0, size=k)
            state = dirichlet_from_evidence(generate_evidence(sims, cfg))
            worst = max(worst, abs(state.psi + state.beliefs.sum() - 1.0))
            worst = max(worst, abs(state.u - (1.0 - k / state.strength)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    report(capsys, 1, ok, f"worst residual {worst:.2e} over 3000 draws", elapsed)


def test_criterion_02_analytic_gradients_match_finite_differences(capsys):
    start = time.perf_counter()
    kinds = ("relu", "softplus", "exponential")
    eps = 1e-5
    worst = 0.0
    for case in range(20):
        rng = np.random.default_rng(7000 + case)
        n = int(rng.integers(2, 17))
        k = int(rng.integers(1, 9))
        d = int(rng.integers(2, 33))
        cfg = TrainConfig(
            epochs=1, seed=0, k=k, batch_size=max(2, n),
            evidence=EvidenceConfig(kind=kinds[case % 3]),
        )
        vis = normalize_rows(rng.standard_normal((n, d)), "vision")
        txt = normalize_rows(rng.standard_normal((n, d)), "text")
        # the 0.3 offset keeps relu similarities clear of the kink
        zv = 0.5 * rng.standard_normal((k, d)) + 0.3
        zt = 0.5 * rng.standard_normal((k, d)) + 0.3
        analytic_v, analytic_t, _ = gradients(
            vis, txt,
            PrototypeBank(modality="vision", vectors=zv),
            PrototypeBank(modality="text", vectors=zt),
            cfg,
        )

        def total(zv_, zt_):
            return gradients(
                vis, txt,
                PrototypeBank(modality="vision", vectors=zv_),
                PrototypeBank(modality="text", vectors=zt_),
                cfg,
            )[2].total

        for target, analytic in ((0, analytic_v), (1, analytic_t)):
            numeric = np.zeros_like(analytic)
            for i in range(k):
                for j in range(d):
                    zp = [zv.copy(), zt.copy()]
                    zm = [zv.copy(), zt.copy()]
                    zp[target][i, j] += eps
                    zm[target][i, j] -= eps
                    numeric[i, j] = (total(*zp) - total(*zm)) / (2 * eps)
            scale = max(np.abs(numeric).max(), 1e-12)
            worst = max(worst, np.abs(analytic - numeric).max() / scale)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 5.0
    report(capsys, 2, ok, f"worst relative error {worst:.2e} over 20 instances", elapsed)


def test_criterion_03_entropy_and_divergence_along_mixing_paths(capsys):
    start = time.perf_counter()
    worst = max(
        abs(entropy(np.full(k, 1.0 / k)) - np.log(k)) for k in range(2, 65)
    )
    rng = np.random.default_rng(303)
    violations = 0
    for _ in range(200):
        k = int(rng.integers(2, 17))
        p = rng.dirichlet(np.ones(k))
        uniform = np.full(k, 1.0 / k)
        path = [(1.0 - t) * p + t * uniform for t in np.linspace(0.0, 1.0, 11)]
        ents = [entropy(q) for q in path]
        divs = [jsd(q, uniform) for q in path]
        violations += sum(not (b >= a) for a, b in zip(ents, ents[1:]))
        violations += sum(not (b <= a) for a, b in zip(divs, divs[1:]))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and violations == 0 and elapsed < 1.0
    report(
        capsys, 3, ok,
        f"uniform-entropy residual {worst:.2e}, {violations} path violations",
        elapsed,
    )


def test_criterion_04_collision_logprob_reference_point(capsys):
    msvd_collision_logprob(48000, 256, 40)  # warm numpy before timing
    start = time.perf_counter()
    logp = msvd_collision_logprob(48000, 256, 40)
    elapsed = time.perf_counter() - start
    ok = abs(logp - (-28.685)) < 0.5 and elapsed < 1e-3
    report(capsys, 4, ok, f"log probability {logp:.6f}", elapsed)


def test_criterion_05_uncertainty_correlates_with_ambiguity(capsys):
    start = time.perf_counter()
    vis, txt, pairs, labels = generate_corpus(DEFAULT_CORPUS_SPEC)
    cfg = TrainConfig(epochs=30, seed=11, k=8, learning_rate=0.5, lambda_div=0.0)
    bank_v, bank_t, _ = train(vis, txt, pairs, cfg)
    u_v = uncertainty_scores(vis, bank_t, cfg.evidence)
    u_t = uncertainty_scores(txt, bank_v, cfg.evidence)
    h_v, h_t = (map_targets(h) for h in batch_means(vis, txt))
    m_items = np.array(labels.counts, dtype=float)
    m_caps = np.repeat(m_items, DEFAULT_CORPUS_SPEC.captions_per_item)
    r_uh = (pearson(u_v, h_v), pearson(u_t, h_t))
    r_um = (pearson(u_v, m_items), pearson(u_t, m_caps))
    elapsed = time.perf_counter() - start
    ok = all(r >= 0.7 for r in r_uh) and all(r >= 0.6 for r in r_um) and elapsed < 120.0
    report(
        capsys, 5, ok,
        f"u-h r=({r_uh[0]:.3f}, {r_uh[1]:.3f}), u-m r=({r_um[0]:.3f}, {r_um[1]:.3f})",
        elapsed,
    )


def test_criterion_06_uncertainty_removal_beats_random(capsys):
    start = time.perf_counter()
    counts = [40, 80, 160, 240]  # 5/10/20/30 percent of 800 pairs
    gaps = np.zeros((5, len(counts)))
    for row, cs in enumerate((101, 202, 303, 404, 505)):
        spec = SyntheticSpec(
            n_items=400, d=1024, k_true=1024,
            ambiguity_weights={1: 0.35, 1024: 0.65},
            noise_sigma=0.02, captions_per_item=2, seed=cs,
        )
        vis, txt, pairs, _ = generate_corpus(spec)
        cfg = TrainConfig(
            epochs=30, seed=cs * 7 + 1, k=8,
            learning_rate=0.5, lambda_div=0.0, batch_size=256,
        )
        bank_v, bank_t, _ = train(vis, txt, pairs, cfg)
        u_v = uncertainty_scores(vis, bank_t, cfg.evidence)
        u_t = uncertainty_scores(txt, bank_v, cfg.evidence)
        m = similarity_matrix(vis, txt)
        unc = removal_curve(m, u_v, u_t, pairs, counts, mode="uncertainty")
        rnd = removal_curve(m, u_v, u_t, pairs, counts, mode="random", seed=cs + 1000)
        for col, (pu, pr) in enumerate(zip(unc.points, rnd.points)):
            gaps[row, col] = (
                0.5 * (pu.r1_t2v + pu.r1_v2t) - 0.5 * (pr.r1_t2v + pr.r1_v2t)
            )
    mean_gaps = gaps.mean(axis=0)
    elapsed = time.perf_counter() - start
    ok = (
        bool(np.all(mean_gaps >= 0.0))
        and int(np.sum(mean_gaps > 0.0)) >= 2
        and elapsed < 300.0
    )
    report(
        capsys, 6, ok,
        "mean R@1 gaps at 5/10/20/30% removal = "
        + "/".join(f"{g:+.2f}" for g in mean_gaps),
        elapsed,
    )


def _sub_block(values, u_v, u_t, pairs, item_ids, cpi):
    """Restrict a corpus to the given vision items and their captions."""
    item_ids = sorted(item_ids)
    cap_ids = [i * cpi + c for i in item_ids for c in range(cpi)]
    vmap = {v: i for i, v in enumerate(item_ids)}
    tmap = {t: j for j, t in enumerate(cap_ids)}
    sub_pairs = PairSet(pairs=tuple(
        (vmap[v], tmap[t]) for v, t in pairs.pairs if v in vmap and t in tmap
    ))
    return (
        SimilarityMatrix(values=values[np.ix_(item_ids, cap_ids)]),
        u_v[item_ids],
        u_t[cap_ids],
        sub_pairs,
    )


def _mean_r1(m, pairs):
    return 0.5 * (
        evaluate_retrieval(m, pairs, "t2v").r1 + evaluate_retrieval(m, pairs, "v2t").r1
    )


def test_criterion_07_fitted_penalties_help_held_out_retrieval(capsys):
    start = time.perf_counter()
    deltas = []
    for cs in (401, 402, 403, 404, 405):
        spec = SyntheticSpec(
            n_items=500, d=64, k_true=8,
            noise_sigma=0.12, captions_per_item=2, seed=cs,
        )
        vis, txt, pairs, _ = generate_corpus(spec)
        cfg = TrainConfig(
            epochs=30, seed=cs * 3 + 5, k=8,
            learning_rate=0.02, h_mapping="affine",
        )
        bank_v, bank_t, _ = train(vis, txt, pairs, cfg)
        u_v = uncertainty_scores(vis, bank_t, cfg.evidence)
        u_t = uncertainty_scores(txt, bank_v, cfg.evidence)
        values = similarity_matrix(vis, txt).values
        val = _sub_block(values, u_v, u_t, pairs, range(0, 500, 2), 2)
        held = _sub_block(values, u_v, u_t, pairs, range(1, 500, 2), 2)
        params = fit_betas(*val)
        before = _mean_r1(held[0], held[3])
        after = _mean_r1(apply_rerank(held[0], held[1], held[2], params), held[3])
        deltas.append(after - before)
    mean_delta = float(np.mean(deltas))
    elapsed = time.perf_counter() - start
    ok = mean_delta >= 0.0 and elapsed < 120.0
    report(
        capsys, 7, ok,
        f"held-out mean R@1 change {mean_delta:+.3f} "
        f"({'/'.join(f'{d:+.1f}' for d in deltas)})",
        elapsed,
    )


def _max_offdiag(bank):
    z = bank.vectors / np.linalg.norm(bank.vectors, axis=1, keepdims=True)
    g = np.abs(z @ z.T)
    np.fill_diagonal(g, 0.0)
    return float(g.max())


def test_criterion_08_diversity_penalty_spreads_prototypes(capsys):
    start = time.perf_counter()
    vis, txt, pairs, _ = generate_corpus(DEFAULT_CORPUS_SPEC)
    ok = True
    details = []
    for seed in (11, 22):
        banks = {}
        for lam in (1.0, 0.0):
            cfg = TrainConfig(
                epochs=50, seed=seed, k=8, learning_rate=0.1, lambda_div=lam
            )
            bank_v, bank_t, _ = train(vis, txt, pairs, cfg)
            banks[lam] = (bank_v, bank_t)
        on_max = max(_max_offdiag(b) for b in banks[1.0])
        off_min = min(_max_offdiag(b) for b in banks[0.0])
        div_err = max(abs(loss_div(b) - 1.0 / 8.0) for b in banks[1.0])
        ok = ok and on_max < 0.2 and div_err < 0.05 and off_min > on_max
        details.append(f"seed {seed}: {on_max:.3f} vs {off_min:.3f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 180.0
    report(capsys, 8, ok, "max offdiagonal with/without penalty " + "; ".join(details), elapsed)


def test_criterion_09_flat_confidence_entropy_blind_spot(capsys):
    cfg = EvidenceConfig()
    entropy(softmax(np.full(4, 0.8)))  # warm numpy before timing
    dirichlet_from_evidence(generate_evidence(np.full(4, 0.8), cfg))
    start = time.perf_counter()
    ent_strong = entropy(softmax(np.full(4, 0.8)))
    ent_weak = entropy(softmax(np.full(4, 0.2)))
    u_strong = dirichlet_from_evidence(generate_evidence(np.full(4, 0.8), cfg)).u
    u_weak = dirichlet_from_evidence(generate_evidence(np.full(4, 0.2), cfg)).u
    elapsed = time.perf_counter() - start
    ok = abs(ent_strong - ent_weak) < 1e-12 and u_strong > u_weak and elapsed < 1e-3
    report(
        capsys, 9, ok,
        f"entropy gap {abs(ent_strong - ent_weak):.1e}, "
        f"u {u_strong:.6f} > {u_weak:.6f}",
        elapsed,
    )


def _naive_ranks(values, pairs, direction):
    """Full-sort reference: stable descending sort, best positive position."""
    if direction == "t2v":
        queries, positives = values.T, pairs.visions_of()
    else:
        queries, positives = values, pairs.texts_of()
    ranks = np.zeros(queries.shape[0], dtype=np.int64)
    for q in range(queries.shape[0]):
        order = np.lexsort((np.arange(queries.shape[1]), -queries[q]))
        pos = {int(g) for g in positives[q]}
        ranks[q] = min(i for i, g in enumerate(order) if int(g) in pos) + 1
    return ranks


def test_criterion_10_retrieval_matches_naive_oracle(capsys):
    start = time.perf_counter()
    mismatches = 0
    for rep in range(50):
        rng = np.random.default_rng(1010 + rep)
        values = rng.uniform(-1.0, 1.0, size=(20, 20))
        if rep % 3 == 0:
            values = np.round(values, 1)  # force score ties
        entries = set()
        for t in range(20):
            entries.add((int(rng.integers(0, 20)), t))
        for v in range(20):
            entries.add((v, int(rng.integers(0, 20))))
        for _ in range(int(rng.integers(0, 100))):
            entries.add((int(rng.integers(0, 20)), int(rng.integers(0, 20))))
        pairs = PairSet(pairs=tuple(sorted(entries)))
        m = SimilarityMatrix(values=values)
        for direction in ("t2v", "v2t"):
            ref = _naive_ranks(values, pairs, direction)
            if not np.array_equal(retrieval_ranks(m, pairs, direction), ref):
                mismatches += 1
            rep_out = evaluate_retrieval(m, pairs, direction)
            n = ref.size
            if (
                rep_out.r1 != 100.0 * float(np.count_nonzero(ref <= 1)) / n
                or rep_out.r5 != 100.0 * float(np.count_nonzero(ref <= 5)) / n
                or rep_out.r10 != 100.0 * float(np.count_nonzero(ref <= 10)) / n
                or rep_out.mdr != float(np.sort(ref)[(n - 1) // 2])
                or rep_out.mnr != float(np.mean(ref))
            ):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 1.0
    report(capsys, 10, ok, f"{mismatches} mismatches over 50 corpora x 2 directions", elapsed)


def test_criterion_11_determinism_and_bit_exact_formats(capsys, tmp_path):
    start = time.perf_counter()
    spec = SyntheticSpec(n_items=30, d=16, k_true=4, seed=9)
    vis, txt, pairs, _ = generate_corpus(spec)
    cfg = TrainConfig(epochs=2, seed=3, k=4, batch_size=16, learning_rate=0.1)

    ckpts = []
    for rep in range(2):
        bank_v, bank_t, _ = train(vis, txt, pairs, cfg)
        ckpts.append(Checkpoint(
            bank_v=bank_v, bank_t=bank_t, evidence=cfg.evidence,
            train_meta={"seed": str(cfg.seed)},
        ))
    a, b = tmp_path / "a.paup", tmp_path / "b.paup"
    write_checkpoint(ckpts[0], a)
    write_checkpoint(ckpts[1], b)
    same_seed = a.read_bytes() == b.read_bytes()

    write_checkpoint(read_checkpoint(a), b)
    ckpt_cycle = a.read_bytes() == b.read_bytes()

    cycles = [same_seed, ckpt_cycle]
    for name, es in (("v.paue", vis), ("t.paue", txt)):
        first, second = tmp_path / name, tmp_path / ("2" + name)
        write_embeddings(es, first)
        write_embeddings(read_embeddings(first), second)
        cycles.append(first.read_bytes() == second.read_bytes())
    p1, p2 = tmp_path / "p.tsv", tmp_path / "p2.tsv"
    write_pairs(pairs, p1)
    write_pairs(read_pairs(p1), p2)
    cycles.append(p1.read_bytes() == p2.read_bytes())

    elapsed = time.perf_counter() - start
    ok = all(cycles) and elapsed < 10.0
    report(
        capsys, 11, ok,
        f"same-seed checkpoints identical: {same_seed}; "
        f"round-trips bit-exact: {all(cycles[1:])}",
        elapsed,
    )
