"""Command-line pipeline: corpus generation, training, scoring, re-ranking,
evaluation, and analysis, all emitting CSV artifacts plus a one-line
machine-readable summary on stdout.

Exit codes: 0 success, 1 runtime failure (single-line diagnostic on
stderr), 2 usage errors (argparse).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import fields, replace

import numpy as np

from .embed import TEXT, VISION, _SimilarityBlocks, batch_means
from .errors import InvalidConfig, ParseError, ProtoUQError
from .evidence import (
    EVIDENCE_KINDS,
    EvidenceConfig,
    RerankParams,
    dirichlet_uncertainty,
    generate_evidence,
    uncertainty_scores,
)
from .fileio import (
    Checkpoint,
    _atomic_write,
    _text_lines,
    read_checkpoint,
    read_embeddings,
    read_embeddings_csv,
    read_pairs,
    write_checkpoint,
    write_embeddings,
    write_pairs,
)
from .metrics import (
    GALLERY_SIDE,
    QUERY_SIDE,
    RANDOM_MODE,
    UNCERTAINTY_MODE,
    entropy,
    msvd_collision_logprob,
    pearson,
    removal_curve,
    retrieval_reports,
    softmax,
)
from .rerank import DEFAULT_BETA_GRID, _reranked_rows, evaluate_reranked, fit_betas
from .synth import DEFAULT_CORPUS_SPEC, SyntheticSpec, generate_corpus
from .train import H_MAPPINGS, TrainConfig, map_targets, train


def _load_embeddings(path, modality):
    if str(path).endswith(".csv"):
        return read_embeddings_csv(path, modality)
    return read_embeddings(path)


def _write_csv(path, header, rows):
    """Write a header and any iterable of rows, streamed, as one atomic CSV."""
    with _atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _summary(command: str, **values) -> None:
    parts = [command] + [f"{k}={v}" for k, v in values.items()]
    print(" ".join(parts))


def _from_flags(cls, args, **given):
    """cls from the flag whose dest names each field; given fields pass as is."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if f.name not in given}, **given)


# ---- subcommand handlers ----


def _cmd_gen_synth(args) -> int:
    spec = _from_flags(SyntheticSpec, args)
    vis, txt, pairs, labels = generate_corpus(spec)
    write_embeddings(vis, args.vis)
    write_embeddings(txt, args.txt)
    write_pairs(pairs, args.pairs)
    if args.labels:
        _write_csv(
            args.labels,
            ("item", "m", "semantics"),
            (
                (i, m, ";".join(map(str, chosen)))
                for i, (m, chosen) in enumerate(zip(labels.counts, labels.semantic_sets))
            ),
        )
    _summary(
        "gen-synth",
        n_items=spec.n_items,
        n_captions=txt.n,
        d=spec.d,
        k_true=spec.k_true,
        seed=spec.seed,
        vis=args.vis,
        txt=args.txt,
        pairs=args.pairs,
    )
    return 0


def _train_config(args) -> TrainConfig:
    return _from_flags(TrainConfig, args, evidence=_from_flags(EvidenceConfig, args))


def _corpus(args):
    return _load_embeddings(args.vis, VISION), _load_embeddings(args.txt, TEXT), read_pairs(args.pairs)


def _cmd_train(args) -> int:
    vis, txt, pairs = _corpus(args)
    cfg = _train_config(args)
    bank_v, bank_t, history = train(vis, txt, pairs, cfg)
    ckpt = Checkpoint(
        bank_v=bank_v,
        bank_t=bank_t,
        evidence=cfg.evidence,
        rerank=_from_flags(RerankParams, args),
        train_meta={
            **{f.name: str(getattr(cfg, f.name)) for f in fields(cfg) if f.name != "evidence"},
            "n_vision": str(vis.n),
            "n_text": str(txt.n),
        },
    )
    write_checkpoint(ckpt, args.ckpt)
    if args.out:
        _write_csv(
            args.out,
            ("epoch", "uct_v", "uct_t", "div_v", "div_t", "total"),
            (
                (r.epoch, repr(r.uct_v), repr(r.uct_t), repr(r.div_v), repr(r.div_t), repr(r.total))
                for r in history.records
            ),
        )
    final = history.final
    _summary(
        "train",
        epochs=cfg.epochs,
        seed=cfg.seed,
        final_total=f"{final.total:.6f}",
        final_uct_v=f"{final.uct_v:.6f}",
        final_uct_t=f"{final.uct_t:.6f}",
        ckpt=args.ckpt,
    )
    return 0


def _cmd_score(args) -> int:
    if not args.vis and not args.txt:
        args.usage_error("score needs --vis and/or --txt")
    ckpt = read_checkpoint(args.ckpt)
    scored = []
    summary = {}
    for path, modality, bank in ((args.vis, VISION, ckpt.bank_t), (args.txt, TEXT, ckpt.bank_v)):
        if path:
            u = uncertainty_scores(_load_embeddings(path, modality), bank, ckpt.evidence)
            scored.append((modality, u))
            summary[f"mean_u_{modality}"] = f"{u.mean():.6f}"
    if args.out:
        rows = ((modality, i, repr(x)) for modality, u in scored for i, x in enumerate(u.tolist()))
        _write_csv(args.out, ("modality", "index", "uncertainty"), rows)
        summary["out"] = args.out
    _summary("score", n_scored=sum(u.size for _, u in scored), **summary)
    return 0


def _scored_corpus(args, measure):
    """Shared loader: embeddings, pairs, measure(vis, txt), and, when --ckpt
    is given, the checkpoint and both u vectors (else None for all three)."""
    ckpt = read_checkpoint(args.ckpt) if args.ckpt else None
    vis, txt, pairs = _corpus(args)
    pairs.check_against(vis.n, txt.n)
    m = measure(vis, txt)
    if ckpt is None:
        return None, vis, txt, pairs, m, None, None
    u_v = uncertainty_scores(vis, ckpt.bank_t, ckpt.evidence)
    u_t = uncertainty_scores(txt, ckpt.bank_v, ckpt.evidence)
    return ckpt, vis, txt, pairs, m, u_v, u_t


_REPORT_FORMATS = (("r1", ".4f"), ("r5", ".4f"), ("r10", ".4f"), ("mdr", ".1f"), ("mnr", ".4f"))


def _report_rows(reports, prefix=""):
    return [
        (prefix + name, rep.direction, format(getattr(rep, name), spec))
        for rep in reports
        for name, spec in _REPORT_FORMATS
    ]


def _mean_r1(reports) -> float:
    return 0.5 * sum(rep.r1 for rep in reports)


def _rerank_reports(m, pairs, u_v, u_t, params):
    """Rank m, and m re-ranked with params, without building either matrix:
    both report lists and their CSV rows (re-ranked ones prefixed)."""
    before, after = evaluate_reranked(m, u_v, u_t, pairs, params)
    return before, after, _report_rows(before) + _report_rows(after, prefix="reranked_")


def _cmd_rerank(args) -> int:
    fit_only, fixed = (args.grid, args.ckpt_out), (args.beta1, args.beta2)
    if (fixed if args.fit_betas else fit_only) != (None, None):
        args.usage_error("--grid and --ckpt-out need --fit-betas; --beta1 and --beta2 conflict with it")
    ckpt, vis, txt, pairs, m, u_v, u_t = _scored_corpus(args, _SimilarityBlocks)
    if args.fit_betas:
        params = fit_betas(m, u_v, u_t, pairs, grid=args.grid or DEFAULT_BETA_GRID)
        if args.ckpt_out:
            write_checkpoint(replace(ckpt, rerank=params), args.ckpt_out)
    else:
        beta1 = args.beta1 if args.beta1 is not None else ckpt.rerank.beta1
        beta2 = args.beta2 if args.beta2 is not None else ckpt.rerank.beta2
        params = RerankParams(beta1=beta1, beta2=beta2)
    before, after, rows = _rerank_reports(m, pairs, u_v, u_t, params)
    if args.out:
        _write_csv(args.out, ("metric", "direction", "value"), rows)
    if args.out_matrix:
        _write_csv(
            args.out_matrix,
            [f"t{j}" for j in range(txt.n)],
            (
                map(repr, row.tolist())
                for _, block in _reranked_rows(m, u_v, u_t, params)
                for row in block
            ),
        )
    _summary(
        "rerank",
        beta1=params.beta1,
        beta2=params.beta2,
        fitted=str(bool(args.fit_betas)).lower(),
        mean_r1_before=f"{_mean_r1(before):.4f}",
        mean_r1_after=f"{_mean_r1(after):.4f}",
    )
    return 0


def _cmd_evaluate(args) -> int:
    ckpt, vis, txt, pairs, m, u_v, u_t = _scored_corpus(args, _SimilarityBlocks)
    if ckpt is None:
        rows = _report_rows(retrieval_reports(m, pairs))
    else:
        _, after, rows = _rerank_reports(m, pairs, u_v, u_t, ckpt.rerank)
    summary = {f"{name}_{direction}": v for name, direction, v in rows if name in ("r1", "mdr")}
    if ckpt is not None:
        summary["reranked_mean_r1"] = f"{_mean_r1(after):.4f}"
    if args.out:
        _write_csv(args.out, ("metric", "direction", "value"), rows)
    _summary("evaluate", n_queries_t2v=txt.n, n_queries_v2t=vis.n, **summary)
    return 0


def _cmd_analyze_pcc(args) -> int:
    _, vis, txt, pairs, means, u_v, u_t = _scored_corpus(args, batch_means)
    h_v, h_t = (map_targets(h) for h in means)
    rows = [
        ("pcc_u_h", VISION, f"{pearson(u_v, h_v):.6f}"),
        ("pcc_u_h", TEXT, f"{pearson(u_t, h_t):.6f}"),
    ]
    if args.labels:
        m_items = _read_labels_column(args.labels, vis.n)
        # A caption paired with several items gets the mean of their m.
        vs, ts = pairs.pairs.T
        m_caps = np.bincount(ts, weights=m_items[vs]) / np.bincount(ts)
        rows.append(("pcc_u_m", VISION, f"{pearson(u_v, m_items):.6f}"))
        rows.append(("pcc_u_m", TEXT, f"{pearson(u_t, m_caps):.6f}"))
    if args.out:
        _write_csv(args.out, ("metric", "modality", "value"), rows)
    _summary("analyze-pcc", **{f"{r[0]}_{r[1]}": r[2] for r in rows})
    return 0


def _read_labels_column(path, n_items) -> np.ndarray:
    m_items = np.full(n_items, np.nan)
    seen = set()
    reader = csv.DictReader(_text_lines(path))
    for row in reader:
        try:
            item, m = int(row["item"]), float(row["m"])
        except (KeyError, TypeError, ValueError):
            raise ParseError(
                f"{path}:{reader.line_num}: needs an integer 'item' and a numeric 'm'"
            ) from None
        if not (m.is_integer() and m >= 1):
            raise ParseError(f"{path}:{reader.line_num}: 'm' must be a whole number >= 1")
        if not 0 <= item < n_items:
            raise ParseError(f"{path}:{reader.line_num}: item {item} is not in [0, {n_items})")
        if item in seen:
            raise ParseError(f"{path}:{reader.line_num}: item {item} appears more than once")
        seen.add(item)
        m_items[item] = m
    missing = np.flatnonzero(np.isnan(m_items))
    if missing.size:
        raise ParseError(f"{path}: item {int(missing[0])} has no row")
    return m_items


def _cmd_analyze_removal(args) -> int:
    _, vis, txt, pairs, m, u_v, u_t = _scored_corpus(args, _SimilarityBlocks)
    if args.counts is not None:
        counts = args.counts
    elif all(0.0 <= f <= 1.0 for f in args.fractions):
        counts = [int(round(f * len(pairs))) for f in args.fractions]
    else:
        raise InvalidConfig("removal fractions must lie in [0, 1]")
    curve = removal_curve(
        m, u_v, u_t, pairs, counts, mode=args.mode, seed=args.seed, side=args.side
    )
    rows = [
        (curve.mode, p.removed, f"{p.r1_t2v:.4f}", f"{p.r1_v2t:.4f}")
        for p in curve.points
    ]
    if args.out:
        _write_csv(args.out, ("mode", "removed", "r1_t2v", "r1_v2t"), rows)
    last = curve.points[-1]
    _summary(
        "analyze-removal-curve",
        mode=curve.mode,
        side=curve.side,
        n_points=len(curve.points),
        last_removed=last.removed,
        last_r1_t2v=f"{last.r1_t2v:.4f}",
        last_r1_v2t=f"{last.r1_v2t:.4f}",
    )
    return 0


def _cmd_analyze_entropy_demo(args) -> int:
    cfg = EvidenceConfig(kind="exponential")
    strong = np.full(4, 0.8)
    weak = np.full(4, 0.2)
    ent_strong = entropy(softmax(strong))
    ent_weak = entropy(softmax(weak))

    def u_of(level):
        u, _ = dirichlet_uncertainty(generate_evidence(np.full(4, level), cfg))
        return float(u)

    u_strong, u_weak = u_of(0.8), u_of(0.2)
    rows = [
        ("entropy_softmax_0.8x4", repr(ent_strong)),
        ("entropy_softmax_0.2x4", repr(ent_weak)),
        ("u_0.8x4", repr(u_strong)),
        ("u_0.2x4", repr(u_weak)),
    ]
    if args.out:
        _write_csv(args.out, ("quantity", "value"), rows)
    _summary(
        "analyze-entropy-demo",
        entropy_gap=f"{abs(ent_strong - ent_weak):.3e}",
        u_strong=f"{u_strong:.6f}",
        u_weak=f"{u_weak:.6f}",
    )
    return 0


def _cmd_analyze_msvd(args) -> int:
    logp = msvd_collision_logprob(args.n, args.batch, args.group)
    _summary(
        "analyze-msvd-prob",
        n=args.n,
        batch=args.batch,
        group=args.group,
        log_prob=f"{logp:.6f}",
    )
    return 0


# ---- parser ----


def _comma_list(kind):
    """argparse type= for a comma list of finite floats or ints."""

    def parse(text):
        try:
            values = tuple(kind(item) for item in text.split(","))
            if all(math.isfinite(v) for v in values):
                return values
        except (ValueError, OverflowError):
            pass
        raise argparse.ArgumentTypeError(f"expected a comma list of finite {kind.__name__}s")

    return parse


def _add_corpus_flags(p: argparse.ArgumentParser, ckpt_help=None, ckpt_required=True) -> None:
    for flag in ("--vis", "--txt", "--pairs"):
        p.add_argument(flag, required=True)
    p.add_argument("--ckpt", required=ckpt_required, help=ckpt_help)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=TrainConfig.k, help="prototypes per bank")
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float,
                   default=TrainConfig.learning_rate)
    p.add_argument("--lambda-div", type=float, default=TrainConfig.lambda_div)
    p.add_argument("--h-mapping", choices=sorted(H_MAPPINGS), default=TrainConfig.h_mapping)
    p.add_argument("--beta1", type=float, default=RerankParams.beta1, help="stored rerank weight")
    p.add_argument("--beta2", type=float, default=RerankParams.beta2, help="stored rerank weight")


def _add_evidence_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--evidence", dest="kind", choices=list(EVIDENCE_KINDS),
                   default=EvidenceConfig.kind)
    p.add_argument("--tau", type=float, default=EvidenceConfig.tau)
    p.add_argument("--gamma", type=float, default=EvidenceConfig.gamma)
    p.add_argument("--theta", type=float, default=EvidenceConfig.theta)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protouq",
        description="Prototype-based aleatoric uncertainty over frozen embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic corpus")
    p.add_argument("--vis", required=True, help="output vision embeddings")
    p.add_argument("--txt", required=True, help="output text embeddings")
    p.add_argument("--pairs", required=True, help="output pairs file")
    p.add_argument("--labels", help="optional ambiguity labels CSV")
    spec = DEFAULT_CORPUS_SPEC
    p.add_argument("--n-items", type=int, default=spec.n_items)
    p.add_argument("--d", type=int, default=spec.d)
    p.add_argument("--k-true", type=int, default=spec.k_true)
    p.add_argument("--weights", dest="ambiguity_weights", metavar="WEIGHTS",
                   type=_comma_list(float), default=spec.ambiguity_weights,
                   help="comma weights for m=1,2,...")
    p.add_argument("--noise-sigma", type=float, default=spec.noise_sigma)
    p.add_argument("--captions-per-item", type=int, default=spec.captions_per_item)
    p.add_argument("--seed", type=int, default=spec.seed)
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("train", help="train prototype banks")
    _add_corpus_flags(p, ckpt_help="output checkpoint")
    p.add_argument("--out", help="optional loss history CSV")
    p.add_argument("--seed", type=int, default=0)
    _add_train_flags(p)
    _add_evidence_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("score", help="per-instance uncertainty from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vis")
    p.add_argument("--txt")
    p.add_argument("--out", help="output CSV (modality,index,uncertainty)")
    p.set_defaults(func=_cmd_score, usage_error=p.error)

    p = sub.add_parser("rerank", help="uncertainty-weighted re-ranking")
    _add_corpus_flags(p)
    p.add_argument("--fit-betas", action="store_true",
                   help="grid-fit betas on the given (validation) data")
    p.add_argument("--grid", type=_comma_list(float), help="comma list of beta candidates")
    p.add_argument("--beta1", type=float)
    p.add_argument("--beta2", type=float)
    p.add_argument("--ckpt-out", help="write checkpoint with fitted betas")
    p.add_argument("--out", help="before/after report CSV")
    p.add_argument("--out-matrix", help="re-ranked similarity matrix CSV")
    p.set_defaults(func=_cmd_rerank, usage_error=p.error)

    p = sub.add_parser("evaluate", help="retrieval metrics for a corpus")
    _add_corpus_flags(p, ckpt_help="also evaluate re-ranked with stored betas", ckpt_required=False)
    p.add_argument("--out", help="report CSV (metric,direction,value)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("analyze", help="uncertainty analyses")
    asub = p.add_subparsers(dest="submode", required=True)

    a = asub.add_parser("pcc", help="correlation between u and mean similarity")
    _add_corpus_flags(a)
    a.add_argument("--labels", help="gen-synth labels CSV for pcc against m")
    a.add_argument("--out")
    a.set_defaults(func=_cmd_analyze_pcc)

    a = asub.add_parser("removal-curve", help="R@1 after removing risky pairs")
    _add_corpus_flags(a)
    a.add_argument("--mode", choices=(UNCERTAINTY_MODE, RANDOM_MODE),
                   default=UNCERTAINTY_MODE)
    a.add_argument("--side", choices=(GALLERY_SIDE, QUERY_SIDE), default=GALLERY_SIDE)
    a.add_argument("--counts", type=_comma_list(int),
                   help="comma list of pair counts to remove")
    a.add_argument("--fractions", type=_comma_list(float), default="0.05,0.1,0.2,0.3",
                   help="comma list of pair fractions (used when --counts absent)")
    a.add_argument("--seed", type=int, default=0, help="random-mode draw seed")
    a.add_argument("--out")
    a.set_defaults(func=_cmd_analyze_removal)

    a = asub.add_parser("entropy-demo",
                        help="confidence contrast softmax entropy misses")
    a.add_argument("--out")
    a.set_defaults(func=_cmd_analyze_entropy_demo)

    a = asub.add_parser("msvd-prob", help="batch group-collision log probability")
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--batch", type=int, required=True)
    a.add_argument("--group", type=int, required=True)
    a.set_defaults(func=_cmd_analyze_msvd)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (ProtoUQError, OSError, MemoryError, FloatingPointError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
