"""Command-line pipeline over the one report chain.

The chain runs ingest, then the skills stage (incidence index, RCA,
effective use, theta, seed expansion), then the occupations stage
(intensity, selection), then ad grouping, then the indicators stage (one
backtest and one trend fit of the market and every group together, and the
assembled report). Each subcommand runs a slice of it through the same
stage functions:

    ingest       ingest
    skills       ingest, skills
    occupations  ingest, occupations (skill set read from --skills)
    backtest     ingest, one backtest
    indicators   ingest, grouping, indicators
    report       ingest, skills, occupations, grouping, indicators

``synth`` writes a synthetic corpus for the chain to read.

Stages communicate through plain CSV/JSON files so every intermediate is
inspectable and the pipeline is resumable. ``main`` makes the ``--out``
directory and rejects a flag value that no corpus can make valid, by the
stage's own check, before any input file is read; every side input file
(seeds, skill set, category map, holidays) is read before ingest; stage
functions only compute, and each command writes its files after its last
stage, so a failed command writes none. After every command ``main`` writes a
provenance.json: every parsed flag except ``--out``, the SHA-256 of every
input file named by a flag, the tool version and a timestamp. ``hashlib``
is imported only there, after the last stage, so no stage runs with
OpenSSL's libcrypto mapped, and the heap the stages freed is handed back
first, so that the mapping adds to what the program still holds.
Analysis outputs are byte-identical across runs with equal provenance.

Every text input is read as UTF-8; a leading byte-order mark, as
spreadsheet programs write, is skipped.

Exit codes: 0 success, 1 usage error or a file that cannot be read or
written, 2 data error, 3 internal invariant violation. A failed write can
leave the files the command wrote before it.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from . import corpus as corpus_mod
from . import indicators as indicators_mod
from . import occupations as occupations_mod
from . import similarity, skillmetrics, timeseries
from .errors import DataError, InvariantError, UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise UsageError(message)


def _sha256(path: Path) -> str:
    import hashlib  # imported here: it maps OpenSSL, which no stage needs

    h = hashlib.sha256()
    buf = bytearray(1 << 16)
    view = memoryview(buf)
    with path.open("rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def _release_freed_heap() -> None:
    """Hand the heap the stages freed back to the system where glibc's
    ``malloc_trim`` exists: glibc keeps a freed heap top smaller than its
    trim threshold (twice the largest mapped block freed), by layout alone."""
    try:
        import ctypes
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError, TypeError):  # not glibc: nothing to hand back
        pass


def _write_provenance(out_dir: Path, args) -> None:
    _release_freed_heap()
    config = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    payload = {
        "config": config,
        "inputs": {getattr(args, k): _sha256(Path(getattr(args, k)))
                   for k in ("input", "config", "seeds", "skills", "category_map",
                             "holidays") if getattr(args, k, None)},
        "version": __version__,
        "created_at": dt.datetime.now(dt.timezone.utc).isoformat(),
    }
    corpus_mod.write_json(out_dir / "provenance.json", payload)


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


def _read_text(path, what: str) -> str:
    p = _require_file(path, what)
    try:
        return p.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {p} is not UTF-8 text: {exc.reason}") from None


def _read_json(path, what: str):
    try:
        return json.loads(_read_text(path, what))
    # ValueError: not JSON, or an integer over the interpreter's digit limit
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{what} {path} is not valid JSON: {exc}") from None


def _load_corpus(args):
    return corpus_mod.ingest(_require_file(args.input, "input corpus"), args.format)


def _read_seeds(args) -> list[str]:
    if args.seed_skill:
        return list(args.seed_skill)
    if args.seeds:
        text = _read_text(args.seeds, "seeds file")
        seeds = [line.strip() for line in text.splitlines() if line.strip()]
        if not seeds:
            raise UsageError(f"seeds file is empty: {args.seeds}")
        return seeds
    raise UsageError("no seed skills given (use --seeds FILE or --seed-skill NAME)")


def _load_category_map(args):
    if args.category_map:
        return occupations_mod.load_category_map(
            _require_file(args.category_map, "category map"))
    if args.default_categories:
        return occupations_mod.load_category_map(
            occupations_mod.default_category_map_path())
    return None


def _read_holidays(path) -> tuple[dt.date, ...]:
    holidays = []
    for lineno, line in enumerate(_read_text(path, "holiday calendar").splitlines(),
                                  start=1):
        text = line.strip()
        if not text:
            continue
        try:
            holidays.append(corpus_mod.parse_date(text))
        except ValueError:
            raise DataError(f"holiday calendar {path} line {lineno}: "
                            f"not a YYYY-MM-DD date: {text!r}") from None
    return tuple(holidays)


def _check_values(args) -> None:
    """The stages' own checks of the flag values that no corpus can make
    valid, in stage order, made before any input file is read so that such
    a value costs no work."""
    given = vars(args)
    if "per_seed_k" in given:
        similarity.check_expansion(args.per_seed_k, args.cutoff)
    if "threshold" in given:
        occupations_mod.check_threshold(args.threshold)
    if "train_days" in given:
        timeseries.check_windows(args.train_days, args.test_days, args.iterations)


def _fit_config(args) -> timeseries.FitConfig:
    if args.changepoints > args.train_days:  # each fit has one column per changepoint
        raise UsageError(f"--changepoints {args.changepoints} is above "
                         f"--train-days {args.train_days}")
    return timeseries.FitConfig(
        n_changepoints=args.changepoints,
        ridge_lambda=args.ridge_lambda,
        holidays=_read_holidays(args.holidays) if args.holidays else (),
    )


def _skills_stage(corpus, seeds, args) -> similarity.SkillSetResult:
    """Index, RCA, effective use, theta and seed expansion."""
    index = corpus_mod.build_index(corpus)
    eff = skillmetrics.compute_effective_use(index)
    return similarity.expand_seeds(
        eff,
        seeds,
        per_seed_k=args.per_seed_k,
        cutoff=args.cutoff,
        avg_over_all_seeds=args.avg_over_all_seeds,
    )


def _occupations_stage(corpus, skill_set, category_map, args):
    """Intensity and selection."""
    profiles = occupations_mod.compute_intensity(corpus, skill_set.skills)
    return occupations_mod.select_occupations(
        profiles, threshold=args.threshold, category_map=category_map)


def _group_ads(corpus, category_map, occupations=None) -> tuple[list[str], np.ndarray]:
    """The group labels, sorted, and each ad's index into them as int32, -1
    for an ad in no group. An ad's label is its occupation's category when
    a map is given, else its occupation; with ``occupations``, only theirs
    are grouped. Occupations the map does not name fall into the
    ``uncategorized`` group. Every ad is labelled through one code -> label
    table."""
    label_of = {code: category_map.get(occ, occupations_mod.UNCATEGORIZED)
                if category_map is not None else occ
                for code, occ in enumerate(corpus.occupations)
                if occupations is None or occ in occupations}
    labels = sorted(set(label_of.values()))
    index = {label: k for k, label in enumerate(labels)}
    table = np.full(len(corpus.occupations), -1, dtype=np.int32)
    for code, label in label_of.items():
        table[code] = index[label]
    return labels, table[corpus.occupation_codes]


def _backtest(series, args, cfg):
    """One backtest report per label of the daily series, in order."""
    return timeseries.sliding_window_backtest(
        series, train_days=args.train_days, test_days=args.test_days,
        iterations=args.iterations, config=cfg)


def _indicators_stage(corpus, labels: list[str], codes: np.ndarray, args, cfg):
    """Backtest the market baseline and every group, fit their trend lines,
    and assemble the shortage report."""
    market = indicators_mod.MARKET
    if market in labels:
        raise DataError(f"group label {market!r} is reserved for the whole-market "
                        "baseline; rename that occupation or category")
    span = corpus.span()
    series = timeseries.DailySeries(span[0], np.hstack([
        timeseries.aggregate_daily(corpus.ordinals, 0, [market], *span).counts,
        timeseries.aggregate_daily(corpus.ordinals, codes, labels, *span).counts,
    ]), (market, *labels))
    market_bt, *group_bts = _backtest(series, args, cfg)
    return indicators_mod.assemble_report(
        corpus, labels, codes,
        backtests={bt.label: bt for bt in group_bts},
        market_backtest=market_bt,
        trend=timeseries.fit(series, cfg),
    )


def cmd_ingest(args) -> None:
    out = Path(args.out)
    written = out / "corpus.jsonl"
    if written.exists() and written.samefile(_require_file(args.input, "input corpus")):
        raise UsageError(f"--input {args.input} is the corpus.jsonl that ingest would "
                         f"write to --out {args.out}")
    corpus, report = _load_corpus(args)
    corpus_mod.write_jsonl(corpus.rows(), written)
    corpus_mod.write_json(out / "ingest_report.json", vars(report))
    print(f"accepted {report.accepted}, rejected {report.rejected} "
          f"({len(corpus.skill_names)} distinct skills)")


def cmd_synth(args) -> None:
    from . import synthgen  # imported here, so that no other command loads it

    config = synthgen.config_from_dict(_read_json(args.config, "synth config"))
    corpus_path, truth_path = synthgen.write_scenario(config, Path(args.out))
    print(f"wrote {corpus_path} and {truth_path}")


def cmd_skills(args) -> None:
    seeds = _read_seeds(args)
    corpus, _ = _load_corpus(args)
    skill_set = _skills_stage(corpus, seeds, args)
    skill_set.to_csv(Path(args.out) / "skills.csv")
    skill_set.to_json(Path(args.out) / "skills.json")
    print(f"expanded {len(seeds)} seeds into {len(skill_set.entries)} skills")


def cmd_occupations(args) -> None:
    skill_set = similarity.SkillSetResult.from_csv(
        _require_file(args.skills, "skill set CSV"))
    category_map = _load_category_map(args)
    corpus, _ = _load_corpus(args)
    selection = _occupations_stage(corpus, skill_set, category_map, args)
    occupations_mod.write_selection_csv(selection, Path(args.out) / "occupations.csv")
    print(f"selected {len(selection.profiles)} occupations "
          f"({selection.total_ads} ads) above eta > {args.threshold}")


def cmd_backtest(args) -> None:
    cfg = _fit_config(args)
    corpus, _ = _load_corpus(args)
    labels, codes = ["all"], 0
    if args.occupation:
        labels, codes = _group_ads(corpus, None, {args.occupation})
        if not labels:
            raise DataError(f"no accepted ad has occupation {args.occupation!r}")
    [report] = _backtest(timeseries.aggregate_daily(corpus.ordinals, codes, labels,
                                                    *corpus.span()), args, cfg)
    out = Path(args.out)
    report.to_json(out / "backtest.json")
    indicators_mod.write_boxplot({report.label: report}, out / "boxplot.csv")
    print(f"backtest {report.label}: median SMAPE {report.median:.3f} "
          f"over {args.iterations} windows")


def cmd_indicators(args) -> None:
    cfg = _fit_config(args)
    category_map = _load_category_map(args)
    corpus, _ = _load_corpus(args)
    labels, codes = _group_ads(corpus, category_map)
    report = _indicators_stage(corpus, labels, codes, args, cfg)
    out = Path(args.out)
    indicators_mod.write_report(report, out)
    print(f"wrote indicator report for {len(labels)} groups to {out}")


def cmd_report(args) -> None:
    cfg = _fit_config(args)
    seeds = _read_seeds(args)
    category_map = _load_category_map(args)
    corpus, ingest_report = _load_corpus(args)
    skill_set = _skills_stage(corpus, seeds, args)
    selection = _occupations_stage(corpus, skill_set, category_map, args)
    if not selection.profiles:
        raise DataError(f"no occupation exceeds eta > {args.threshold}; "
                        "nothing to report on")
    labels, codes = _group_ads(corpus, category_map,
                               {p.occupation for p in selection.profiles})
    report = _indicators_stage(corpus, labels, codes, args, cfg)
    out = Path(args.out)
    corpus_mod.write_json(out / "ingest_report.json", vars(ingest_report))
    skill_set.to_csv(out / "skills.csv")
    skill_set.to_json(out / "skills.json")
    occupations_mod.write_selection_csv(selection, out / "occupations.csv")
    indicators_mod.write_report(report, out)
    print(f"report written to {out} ({len(labels)} groups, "
          f"{len(selection.profiles)} occupations)")


def _add_corpus_args(p):
    p.add_argument("--input", required=True, help="corpus file")
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")


def _add_skills_args(p):
    seeds = p.add_mutually_exclusive_group()
    seeds.add_argument("--seeds", help="newline-delimited seed skills file")
    seeds.add_argument("--seed-skill", action="append", help="seed skill (repeatable)")
    p.add_argument("--per-seed-k", type=int, default=similarity.PER_SEED_K)
    p.add_argument("--cutoff", type=int, default=similarity.CUTOFF)
    p.add_argument("--avg-over-all-seeds", action="store_true",
                   help="average merged scores over all seeds, not appearances")


def _non_negative(kind):
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not 0 <= value < float("inf"):  # also rejects NaN
            raise argparse.ArgumentTypeError(f"must be >= 0 and finite, got {text!r}")
        return value
    return parse


def _add_backtest_args(p):
    p.add_argument("--train-days", type=int, default=timeseries.TRAIN_DAYS)
    p.add_argument("--test-days", type=int, default=timeseries.TEST_DAYS)
    p.add_argument("--iterations", type=int, default=timeseries.ITERATIONS)
    p.add_argument("--changepoints", type=_non_negative(int),
                   default=timeseries.N_CHANGEPOINTS)
    p.add_argument("--ridge-lambda", type=_non_negative(float),
                   default=timeseries.RIDGE_LAMBDA)
    p.add_argument("--holidays", help="file of ISO holiday dates, one per line")


def _add_category_args(p):
    categories = p.add_mutually_exclusive_group()
    categories.add_argument("--category-map", help="occupation,category CSV")
    categories.add_argument("--default-categories", action="store_true",
                            help="use the shipped four-category occupation map")


def _add_threshold_arg(p):
    p.add_argument("--threshold", type=float, default=occupations_mod.THRESHOLD)


def build_parser() -> _Parser:
    # No abbreviated flags: --config-file tells explicit flags by whole name.
    parser = _Parser(prog="skillscope", allow_abbrev=False,
                     description="Skill-shortage analytics for job-ad corpora")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func, *add_args):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for add in add_args:
            add(p)
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)

    command("ingest", "validate and normalize a corpus", cmd_ingest, _add_corpus_args)
    command("synth", "generate a synthetic corpus", cmd_synth,
            lambda p: p.add_argument("--config", required=True,
                                     help="JSON scenario config"))
    command("skills", "expand seed skills into a skill set", cmd_skills,
            _add_corpus_args, _add_skills_args)
    command("occupations", "intensity ranking and selection", cmd_occupations,
            _add_corpus_args,
            lambda p: p.add_argument("--skills", required=True,
                                     help="skills.csv from the skills stage"),
            _add_threshold_arg, _add_category_args)
    command("backtest", "sliding-window forecast backtest", cmd_backtest,
            _add_corpus_args,
            lambda p: p.add_argument("--occupation", help="restrict to one occupation"),
            _add_backtest_args)
    command("indicators", "shortage indicators per group", cmd_indicators,
            _add_corpus_args, _add_category_args, _add_backtest_args)
    command("report", "full pipeline end-to-end", cmd_report, _add_corpus_args,
            _add_skills_args, _add_threshold_arg, _add_category_args,
            _add_backtest_args)
    return parser


# Flags of which at most one may be given; an explicit one of a pair also
# keeps the config file from setting the other.
_EITHER_OR = {"--seeds": "--seed-skill", "--seed-skill": "--seeds",
              "--category-map": "--default-categories",
              "--default-categories": "--category-map"}


def apply_config_file(argv: list[str]) -> list[str]:
    """Expand ``--config-file FILE`` (or ``--config-file=FILE``) into flags;
    explicit CLI flags win, as ``--flag value`` or ``--flag=value``, and an
    explicit flag of an either/or pair also wins over the other one. A
    ``null`` value, like ``false``, leaves its flag unset. An object, or a
    ``null``, object or list inside a list, is a usage error, even under an
    explicit flag."""
    flags = [arg.split("=", 1)[0] for arg in argv]
    if "--config-file" not in flags:
        return argv
    i = flags.index("--config-file")
    argv = argv[:i] + argv[i].split("=", 1) + argv[i + 1:]
    if i + 1 == len(argv):
        raise UsageError("--config-file needs a file name")
    raw = _read_json(argv[i + 1], "config file")
    if not isinstance(raw, dict):
        raise UsageError(f"config file {argv[i + 1]} must hold a JSON object")
    injected: list[str] = []
    for key, value in raw.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, dict) or isinstance(value, list) and any(
                v is None or isinstance(v, (dict, list)) for v in value):
            raise UsageError(f"config file key {key!r} must be text, a number, "
                             "true, false, null or a list of text and numbers")
        if value is None or value is False or flag in flags or _EITHER_OR.get(flag) in flags:
            continue
        if value is True:
            injected.append(flag)
        else:
            for v in value if isinstance(value, list) else [value]:
                injected.extend([flag, str(v)])
    return argv[:i] + argv[i + 2:] + injected


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """Show a warning as one stderr line, like every other message."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = apply_config_file(argv)
        args = build_parser().parse_args(argv)
        try:  # before any stage runs, so a bad --out costs no work
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot make --out directory {args.out}: "
                             f"{exc.strerror}") from None
        _check_values(args)
        with warnings.catch_warnings():
            warnings.simplefilter("default")  # not the caller's, which may make them errors
            warnings.showwarning = _show_warning
            args.func(args)
        _write_provenance(Path(args.out), args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error (invariant violated): {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a file the command cannot read or write
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"file error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
