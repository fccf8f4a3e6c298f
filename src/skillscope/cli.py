"""Command-line pipeline: ingest, synth, skills, occupations, backtest,
indicators, and the end-to-end report.

Stages communicate through plain CSV/JSON files so every intermediate is
inspectable and the pipeline is resumable. Every run writes a
provenance.json (config, input hashes, tool version); analysis outputs are
byte-identical across runs with equal provenance.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import json
import sys
import warnings
from pathlib import Path

from . import __version__
from . import corpus as corpus_mod
from . import indicators as indicators_mod
from . import occupations as occupations_mod
from . import similarity, skillmetrics, synthgen, timeseries
from .errors import DataError, InvariantError, UsageError

# Defaults follow the reference workflow: top-300 neighbour lists cut to a
# 150-skill set, a 15% intensity threshold, and a 1186/365/365 backtest.
DEFAULTS = {
    "per_seed_k": 300,
    "cutoff": 150,
    "threshold": 0.15,
    "train_days": 1186,
    "test_days": 365,
    "iterations": 365,
    "changepoints": 25,
    "ridge_lambda": 1.0,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise UsageError(message)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_provenance(out_dir: Path, config: dict, inputs: list[Path]) -> None:
    payload = {
        "config": {k: (str(v) if isinstance(v, Path) else v)
                   for k, v in sorted(config.items())},
        "inputs": {str(p): _sha256(p) for p in inputs},
        "version": __version__,
        "created_at": dt.datetime.now(dt.timezone.utc).isoformat(),
    }
    (out_dir / "provenance.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


def _load_corpus(args):
    path = _require_file(args.input, "input corpus")
    fmt = getattr(args, "format", "jsonl")
    ads, vocab, report = corpus_mod.ingest(path, fmt)
    return path, ads, vocab, report


def _read_seeds(args) -> list[str]:
    if getattr(args, "seed_skill", None):
        return list(args.seed_skill)
    if getattr(args, "seeds", None):
        path = _require_file(args.seeds, "seeds file")
        seeds = [line.strip() for line in path.read_text().splitlines() if line.strip()]
        if not seeds:
            raise UsageError(f"seeds file is empty: {path}")
        return seeds
    raise UsageError("no seed skills given (use --seeds FILE or --seed-skill NAME)")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_ingest(args) -> int:
    path, ads, vocab, report = _load_corpus(args)
    out = _out_dir(args)
    corpus_mod.write_jsonl(ads, out / "corpus.jsonl")
    (out / "ingest_report.json").write_text(report.to_json() + "\n")
    _write_provenance(out, {"command": "ingest", "format": args.format}, [path])
    print(f"accepted {report.accepted}, rejected {report.rejected} "
          f"({len(vocab)} distinct skills)")
    return 0


def cmd_synth(args) -> int:
    cfg_path = _require_file(args.config, "synth config")
    raw = json.loads(cfg_path.read_text())
    config = synthgen.config_from_dict(raw)
    out = _out_dir(args)
    corpus_path, truth_path = synthgen.write_scenario(config, out)
    _write_provenance(out, {"command": "synth", "seed": config.seed}, [cfg_path])
    print(f"wrote {corpus_path} and {truth_path}")
    return 0


def _expand(ads, vocab, seeds, args):
    index = corpus_mod.build_index(ads, vocab)
    eff = skillmetrics.compute_effective_use(skillmetrics.compute_rca(index))
    theta = similarity.compute_theta(eff)
    return similarity.expand_seeds(
        theta,
        seeds,
        per_seed_k=args.per_seed_k,
        cutoff=args.cutoff,
        avg_over_all_seeds=args.avg_over_all_seeds,
    )


def cmd_skills(args) -> int:
    path, ads, vocab, _ = _load_corpus(args)
    seeds = _read_seeds(args)
    result = _expand(ads, vocab, seeds, args)
    result.provenance = {"input": str(path), "input_sha256": _sha256(path)}
    out = _out_dir(args)
    result.to_csv(out / "skills.csv")
    result.to_json(out / "skills.json")
    _write_provenance(out, {
        "command": "skills", "seeds": seeds,
        "per_seed_k": args.per_seed_k, "cutoff": args.cutoff,
        "avg_over_all_seeds": args.avg_over_all_seeds,
    }, [path])
    print(f"expanded {len(seeds)} seeds into {len(result.entries)} skills")
    return 0


def _load_category_map(args):
    if getattr(args, "category_map", None):
        return occupations_mod.load_category_map(
            _require_file(args.category_map, "category map"))
    if getattr(args, "default_categories", False):
        return occupations_mod.load_category_map(
            occupations_mod.default_category_map_path())
    return None


def cmd_occupations(args) -> int:
    path, ads, _, _ = _load_corpus(args)
    skills_path = _require_file(args.skills, "skill set CSV")
    skill_set = similarity.SkillSetResult.from_csv(skills_path)
    profiles = occupations_mod.compute_intensity(ads, skill_set)
    selection = occupations_mod.select_occupations(
        profiles, threshold=args.threshold, category_map=_load_category_map(args))
    out = _out_dir(args)
    occupations_mod.write_selection_csv(selection, out / "occupations.csv")
    _write_provenance(out, {"command": "occupations", "threshold": args.threshold},
                      [path, skills_path])
    print(f"selected {selection.total_occupations} occupations "
          f"({selection.total_ads} ads) above eta > {args.threshold}")
    return 0


def _read_holidays(path) -> tuple[dt.date, ...]:
    hp = _require_file(path, "holiday calendar")
    holidays = []
    for lineno, line in enumerate(hp.read_text().splitlines(), start=1):
        text = line.strip()
        if not text:
            continue
        try:
            holidays.append(dt.date.fromisoformat(text))
        except ValueError:
            raise DataError(f"holiday calendar {hp} line {lineno}: "
                            f"not an ISO date: {text!r}") from None
    return tuple(holidays)


def _fit_config(args) -> timeseries.FitConfig:
    holidays = _read_holidays(args.holidays) if getattr(args, "holidays", None) else ()
    return timeseries.FitConfig(
        n_changepoints=args.changepoints,
        ridge_lambda=args.ridge_lambda,
        holidays=holidays,
    )


def _corpus_span(ads):
    if not ads:
        raise DataError("corpus has no accepted ads; nothing to backtest")
    dates = [ad.posted_date for ad in ads]
    return min(dates), max(dates)


def cmd_backtest(args) -> int:
    cfg = _fit_config(args)
    path, ads, _, _ = _load_corpus(args)
    start, end = _corpus_span(ads)
    label = args.occupation or "all"
    selector = (lambda ad: ad.occupation == args.occupation) if args.occupation else None
    series = timeseries.aggregate_daily(ads, start, end, label=label, selector=selector)
    report = timeseries.sliding_window_backtest(
        series,
        train_days=args.train_days,
        test_days=args.test_days,
        iterations=args.iterations,
        config=cfg,
    )
    out = _out_dir(args)
    report.to_json(out / "backtest.json")
    with (out / "boxplot.csv").open("w", encoding="utf-8") as fh:
        fh.write("label,smape\n")
        for lbl, score in report.boxplot_rows():
            fh.write(f"{lbl},{score!r}\n")
    _write_provenance(out, {
        "command": "backtest", "label": label,
        "train_days": args.train_days, "test_days": args.test_days,
        "iterations": args.iterations,
    }, [path])
    print(f"backtest {label}: median SMAPE {report.median:.3f} "
          f"over {args.iterations} windows")
    return 0


def _grouped_report(ads, groups: dict[str, list], args, cfg, out: Path) -> None:
    """Backtest every group plus the market baseline and write the report."""
    start, end = _corpus_span(ads)
    backtests = {}
    models = {}

    def run(label, group_ads):
        selector_ads = group_ads
        series = timeseries.aggregate_daily(
            selector_ads, start, end, label=label,
        )
        bt = timeseries.sliding_window_backtest(
            series,
            train_days=args.train_days,
            test_days=args.test_days,
            iterations=args.iterations,
            config=cfg,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = timeseries.fit(series, cfg)
        return bt, model

    market_bt, market_model = run("market", ads)
    models["market"] = market_model
    for label in sorted(groups):
        backtests[label], models[label] = run(label, groups[label])

    report = indicators_mod.assemble_report(
        groups=groups,
        market_ads=ads,
        backtests=backtests,
        market_backtest=market_bt,
        trend_models=models,
        corpus_start=start,
        corpus_end=end,
    )
    indicators_mod.write_report(report, out)


def _group_ads(ads, selection, category_map) -> dict[str, list]:
    """Group the selected occupations' ads by category when a map is given,
    else by occupation."""
    selected = {p.occupation: p for p in selection.profiles}
    groups: dict[str, list] = {}
    for ad in ads:
        profile = selected.get(ad.occupation)
        if profile is None:
            continue
        label = profile.category if category_map else ad.occupation
        groups.setdefault(label, []).append(ad)
    return groups


def cmd_indicators(args) -> int:
    cfg = _fit_config(args)
    path, ads, _, _ = _load_corpus(args)
    category_map = _load_category_map(args)
    if category_map:
        groups: dict[str, list] = {}
        for ad in ads:
            if ad.occupation in category_map:
                groups.setdefault(category_map[ad.occupation], []).append(ad)
    else:
        groups = {}
        for ad in ads:
            groups.setdefault(ad.occupation, []).append(ad)
    out = _out_dir(args)
    _grouped_report(ads, groups, args, cfg, out)
    _write_provenance(out, {"command": "indicators"}, [path])
    print(f"wrote indicator report for {len(groups)} groups to {out}")
    return 0


def cmd_report(args) -> int:
    cfg = _fit_config(args)
    path, ads, vocab, ingest_report = _load_corpus(args)
    seeds = _read_seeds(args)
    out = _out_dir(args)
    (out / "ingest_report.json").write_text(ingest_report.to_json() + "\n")

    skill_set = _expand(ads, vocab, seeds, args)
    skill_set.to_csv(out / "skills.csv")
    skill_set.to_json(out / "skills.json")

    profiles = occupations_mod.compute_intensity(ads, skill_set)
    category_map = _load_category_map(args)
    selection = occupations_mod.select_occupations(
        profiles, threshold=args.threshold, category_map=category_map)
    occupations_mod.write_selection_csv(selection, out / "occupations.csv")
    if not selection.profiles:
        raise DataError(f"no occupation exceeds eta > {args.threshold}; "
                        "nothing to report on")

    groups = _group_ads(ads, selection, category_map)
    _grouped_report(ads, groups, args, cfg, out)
    _write_provenance(out, {
        "command": "report", "seeds": seeds,
        "per_seed_k": args.per_seed_k, "cutoff": args.cutoff,
        "avg_over_all_seeds": args.avg_over_all_seeds,
        "threshold": args.threshold,
        "train_days": args.train_days, "test_days": args.test_days,
        "iterations": args.iterations, "changepoints": args.changepoints,
        "ridge_lambda": args.ridge_lambda,
    }, [path])
    print(f"report written to {out} ({len(groups)} groups, "
          f"{selection.total_occupations} occupations)")
    return 0


def _add_corpus_args(p):
    p.add_argument("--input", required=True, help="corpus file")
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")


def _add_skills_args(p):
    p.add_argument("--seeds", help="newline-delimited seed skills file")
    p.add_argument("--seed-skill", action="append", help="seed skill (repeatable)")
    p.add_argument("--per-seed-k", type=int, default=DEFAULTS["per_seed_k"])
    p.add_argument("--cutoff", type=int, default=DEFAULTS["cutoff"])
    p.add_argument("--avg-over-all-seeds", action="store_true",
                   help="average merged scores over all seeds, not appearances")


def _non_negative(kind):
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not value >= 0:  # also rejects NaN
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
        return value
    return parse


def _add_backtest_args(p):
    p.add_argument("--train-days", type=int, default=DEFAULTS["train_days"])
    p.add_argument("--test-days", type=int, default=DEFAULTS["test_days"])
    p.add_argument("--iterations", type=int, default=DEFAULTS["iterations"])
    p.add_argument("--changepoints", type=_non_negative(int),
                   default=DEFAULTS["changepoints"])
    p.add_argument("--ridge-lambda", type=_non_negative(float),
                   default=DEFAULTS["ridge_lambda"])
    p.add_argument("--holidays", help="file of ISO holiday dates, one per line")


def _add_category_args(p):
    p.add_argument("--category-map", help="occupation,category CSV")
    p.add_argument("--default-categories", action="store_true",
                   help="use the shipped four-category occupation map")


def build_parser() -> _Parser:
    parser = _Parser(prog="skillscope",
                     description="Skill-shortage analytics for job-ad corpora")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and normalize a corpus")
    _add_corpus_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--config", required=True, help="JSON scenario config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("skills", help="expand seed skills into a skill set")
    _add_corpus_args(p)
    _add_skills_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_skills)

    p = sub.add_parser("occupations", help="intensity ranking and selection")
    _add_corpus_args(p)
    p.add_argument("--skills", required=True, help="skills.csv from the skills stage")
    p.add_argument("--threshold", type=float, default=DEFAULTS["threshold"])
    _add_category_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_occupations)

    p = sub.add_parser("backtest", help="sliding-window forecast backtest")
    _add_corpus_args(p)
    p.add_argument("--occupation", help="restrict to one occupation")
    _add_backtest_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("indicators", help="shortage indicators per group")
    _add_corpus_args(p)
    _add_category_args(p)
    _add_backtest_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_indicators)

    p = sub.add_parser("report", help="full pipeline end-to-end")
    _add_corpus_args(p)
    _add_skills_args(p)
    p.add_argument("--threshold", type=float, default=DEFAULTS["threshold"])
    _add_category_args(p)
    _add_backtest_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def apply_config_file(argv: list[str]) -> list[str]:
    """Expand ``--config-file file.json`` into flags; explicit CLI flags win."""
    if "--config-file" not in argv:
        return argv
    i = argv.index("--config-file")
    cfg_path = _require_file(argv[i + 1], "config file")
    raw = json.loads(cfg_path.read_text())
    injected: list[str] = []
    for key, value in raw.items():
        flag = "--" + key.replace("_", "-")
        if flag in argv:
            continue
        if isinstance(value, bool):
            if value:
                injected.append(flag)
        elif isinstance(value, list):
            for v in value:
                injected.extend([flag, str(v)])
        else:
            injected.extend([flag, str(value)])
    return argv[:i] + argv[i + 2:] + injected


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = apply_config_file(argv)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error (invariant violated): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
