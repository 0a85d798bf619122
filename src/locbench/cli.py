"""Batch command-line front end.

Every subcommand echoes its resolved configuration (defaults made
explicit), derives all randomness from --seed, and writes reports
atomically, so identical invocations produce byte-identical files.

Exit codes: 0 success, 1 input or validation problem, 2 training
divergence.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import render
from .activity import load_activity_models, bundled_models_path, validate_activity_model
from .data import (
    ParseError,
    SchemaError,
    ValidationError,
    parse_beacon_csv,
    parse_imu_csv,
    parse_rssi_csv,
    read_text,
    synthetic_imu_dataset,
    synthetic_rssi_dataset,
    synthetic_walk_dataset,
    write_csv,
)
from .evaluation import horizontal_error, rmse
from .learners import CLASSIFIER_FAMILIES, FAMILIES, PARAMS, LearnerSpec, TrainingDivergedError
from .pipelines import (
    PipelineConfig,
    compare_models,
    default_comparison_specs,
    default_coords_config,
    default_zone_imu_config,
    default_zone_rssi_config,
    run_coords,
    run_zone_imu,
    run_zone_rssi,
)

OUT_DIR_ENV = "LOCBENCH_OUT_DIR"

#: Most seeds one ``compare --seeds`` may name; every seed refits each family.
MAX_SEEDS = 1000
#: Most rows one ``synth`` run may write; it holds every row in memory, about
#: 0.4 KiB each.
MAX_SYNTH_ROWS = 1_000_000
# The learner flags are bounded in ``learners.PARAMS``, the one rule table that
# every spec and fit is checked against.


class CliUsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("formatter_class", argparse.ArgumentDefaultsHelpFormatter)
        # No prefix matching: it would read --out as --out-dir, --seed as --seeds.
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):  # reject unknown flags with exit code 1, not 2
        raise CliUsageError(message)


def _add_common(
    parser, seed: bool = True, output: bool = True, default_ratio: float | None = None
) -> None:
    """Add the shared flags a subcommand reads: --seed, --out-dir and --format, --train-ratio."""
    if seed:
        parser.add_argument("--seed", type=int, default=42, help="master random seed")
    if output:
        parser.add_argument(
            "--out-dir",
            default=None,
            help=f"report directory (default: ${OUT_DIR_ENV} or ./out)",
        )
        parser.add_argument(
            "--format",
            choices=("json", "csv", "md"),
            default="md",
            help="console summary style; report files are always written in full",
        )
    if default_ratio is not None:
        parser.add_argument(
            "--train-ratio", type=float, default=default_ratio, help="training fraction"
        )


#: The hyperparameters with flag help are flags; the rest are set through LearnerSpec.
_LEARNER_FLAGS = tuple(name for name, param in PARAMS.items() if param.help)


def _add_pipeline_flags(parser, defaults: PipelineConfig, choices=FAMILIES) -> None:
    """--model and the learner flags, then the common flags, defaulting to ``defaults``."""
    parser.add_argument(
        "--model", choices=choices, default=defaults.learner.family, help="learner family"
    )
    for name in _LEARNER_FLAGS:
        param = PARAMS[name]
        parser.add_argument(f"--{name}", type=param.parse, default=None, help=param.help)
    _add_common(parser, default_ratio=defaults.split.train_ratio)


def build_parser() -> _Parser:
    parser = _Parser(prog="locbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("zone-rssi", help="classify zones from scanner readings")
    p.add_argument("--data", required=True, help="rssi-schema CSV file")
    _add_pipeline_flags(p, default_zone_rssi_config(), choices=CLASSIFIER_FAMILIES)

    p = sub.add_parser("zone-imu", help="classify zones from motion channels")
    p.add_argument("--data", required=True, help="imu-schema CSV file")
    p.add_argument(
        "--window",
        type=int,
        default=None,
        help="aggregate this many consecutive samples into mean+std features",
    )
    _add_pipeline_flags(p, default_zone_imu_config(), choices=CLASSIFIER_FAMILIES)

    p = sub.add_parser("coords", help="regress coordinates from beacon distances")
    p.add_argument("--data", required=True, help="beacon-schema CSV file")
    _add_pipeline_flags(p, default_coords_config())

    p = sub.add_parser("compare", help="run all learner families over shared splits")
    p.add_argument("--data", required=True, help="beacon-schema CSV file")
    p.add_argument(
        "--seeds", default="42", help="seed list: '1..10', '3,7,11', or a single value"
    )
    p.add_argument(
        "--families",
        default=None,
        help=f"comma-separated subset of: {','.join(FAMILIES)}",
    )
    _add_common(p, seed=False, default_ratio=default_coords_config().split.train_ratio)

    p = sub.add_parser("validate-activities", help="check activity model files")
    p.add_argument(
        "--file", default=None, help="model file (default: the bundled fixtures)"
    )

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--kind", choices=("beacon", "rssi", "imu"), default="beacon")
    p.add_argument("--rows", type=int, default=250)
    p.add_argument("--noise-sigma", type=float, default=0.05, help="distance noise in meters")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_common(p, output=False)

    p = sub.add_parser("metrics", help="per-axis RMSE and horizontal error from error files")
    p.add_argument("--errors-x", required=True, help="CSV of per-row x errors in cm")
    p.add_argument("--errors-y", required=True, help="CSV of per-row y errors in cm")
    _add_common(p, seed=False)

    return parser


def _resolve_out_dir(args) -> str:
    return args.out_dir or os.environ.get(OUT_DIR_ENV) or "out"


def _check_out_dir(path: str) -> None:
    """Refuse a report directory that cannot be made, before any work is done."""
    existing = path
    while existing:
        try:
            os.stat(existing)  # raises what os.path.exists hides, such as a name too long
            break
        except (FileNotFoundError, NotADirectoryError):
            existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise CliUsageError(f"report directory {path}: {existing} is not a directory")


def _learner_spec(args) -> LearnerSpec:
    params = {
        name: getattr(args, name) for name in _LEARNER_FLAGS if getattr(args, name) is not None
    }
    return LearnerSpec(family=args.model, seed=args.seed, params=params)


def _echo_config(args, extra: dict | None = None) -> None:
    resolved = dict(vars(args))
    resolved.pop("command", None)
    if "out_dir" in resolved:
        resolved["out_dir"] = _resolve_out_dir(args)
    if extra:
        resolved.update(extra)
    print(f"locbench {args.command}")
    for key, value in sorted(resolved.items()):
        print(f"  {key} = {'none' if value is None else value}")


def _parse_seeds(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        if ".." in text:
            start, _, stop = text.partition("..")
            seeds = range(int(start), int(stop) + 1)
            count = max(0, seeds.stop - seeds.start)  # len() overflows past sys.maxsize
        else:
            seeds = [int(v) for v in text.split(",") if v]
            count = len(seeds)
    except ValueError:
        raise CliUsageError(
            f"--seeds expects 'A..B', 'A,B,...' or one integer, got {text!r}"
        ) from None
    if count > MAX_SEEDS:
        raise CliUsageError(f"--seeds names {count} seeds; at most {MAX_SEEDS} are allowed")
    return tuple(seeds)


def _read_error_column(path) -> list[float]:
    values = []
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        cell = line.strip().split(",")[0]
        if not cell:
            continue
        try:
            values.append(float(cell))
        except ValueError:
            if line_no == 1:  # tolerate a header line
                continue
            raise ParseError(f"row {line_no}: non-numeric error value {cell!r}") from None
    if not values:
        raise ValidationError(f"{path}: no numeric error values found")
    return values


def _pipeline_config(args, learner: LearnerSpec, defaults: PipelineConfig) -> PipelineConfig:
    """``defaults`` with the flags' learner, training fraction, seed and window."""
    return replace(
        defaults,
        learner=learner,
        split=replace(defaults.split, train_ratio=args.train_ratio, seed=args.seed),
        window=getattr(args, "window", defaults.window),
    )


def _cmd_zone(args, kind: str) -> int:
    learner = _learner_spec(args)  # refuses bad learner flags before any work
    parse = parse_rssi_csv if kind == "rssi" else parse_imu_csv
    dataset = parse(args.data)
    defaults = default_zone_rssi_config() if kind == "rssi" else default_zone_imu_config()
    config = _pipeline_config(args, learner, defaults)
    _echo_config(args, {"learner": config.learner.to_text()})
    result = run_zone_rssi(dataset, config) if kind == "rssi" else run_zone_imu(dataset, config)

    out_dir = _resolve_out_dir(args)
    payload = render.zone_report_payload(result)
    confusion = render.confusion_markdown(result.report)
    reports = {
        "report.json": render.to_json(payload),
        "predictions.csv": render.zone_predictions_csv(result),
        "confusion.md": confusion,
    }
    render.write_reports(out_dir, reports)

    print(f"accuracy: {render.pct(result.report.accuracy)}  (n={result.report.matrix.total})")
    if args.format == "json":
        print(reports["report.json"], end="")
    elif args.format == "md":
        print(confusion, end="")
    else:
        for key, value in sorted(payload.items()):
            if isinstance(value, (int, float, str)):
                print(f"{key}: {value}")
    print(f"reports written to {out_dir}")
    return 0


def _echo_notes(dataset) -> None:
    for note in dataset.ingest_notes:
        print(f"note: {note}")


def _cmd_coords(args) -> int:
    learner = _learner_spec(args)  # refuses bad learner flags before any work
    dataset = parse_beacon_csv(args.data)
    _echo_notes(dataset)
    config = _pipeline_config(args, learner, default_coords_config())
    _echo_config(args, {"learner": config.learner.to_text()})
    result = run_coords(dataset, config)

    out_dir = _resolve_out_dir(args)
    payload = render.coords_report_payload(result)
    reports = {"report.json": render.to_json(payload)}
    for axis, table in render.coord_predictions_csv(result).items():
        reports[f"predictions_{axis}.csv"] = table
    render.write_reports(out_dir, reports)

    report = result.report
    print(
        f"rmse_x: {report.rmse_x:.2f} cm  rmse_y: {report.rmse_y:.2f} cm  "
        f"horizontal_error: {report.horizontal_error:.2f} cm  (n={report.n})"
    )
    if result.importance_x is not None:
        weights = ", ".join(f"{k}={v:.3f}" for k, v in result.importance_x.weights.items())
        print(f"feature importance (x): {weights}")
        weights = ", ".join(f"{k}={v:.3f}" for k, v in result.importance_y.weights.items())
        print(f"feature importance (y): {weights}")
    if args.format == "json":
        summary = {k: v for k, v in payload.items() if not k.startswith("errors_")}
        print(render.to_json(summary), end="")
    print(f"reports written to {out_dir}")
    return 0


def _cmd_compare(args) -> int:
    dataset = parse_beacon_csv(args.data)
    _echo_notes(dataset)
    seeds = _parse_seeds(args.seeds)
    if args.families:
        families = tuple(f.strip() for f in args.families.split(",") if f.strip())
        specs = tuple(LearnerSpec(family=f) for f in families)
    else:
        specs = default_comparison_specs()
    _echo_config(args, {"resolved_seeds": list(seeds)})
    result = compare_models(dataset, specs=specs, seeds=seeds, train_ratio=args.train_ratio)

    out_dir = _resolve_out_dir(args)
    payload = render.comparison_report_payload(result)
    reports = {
        "report.json": render.to_json(payload),
        "comparison.csv": render.comparison_csv(result),
        "comparison.md": render.comparison_markdown(result),
    }
    render.write_reports(out_dir, reports)

    if args.format == "json":
        print(render.to_json(payload["aggregate"]), end="")
    else:
        print(reports["comparison.csv" if args.format == "csv" else "comparison.md"], end="")
    print(f"reports written to {out_dir}")
    return 0


def _cmd_validate_activities(args) -> int:
    path = args.file if args.file else bundled_models_path()
    _echo_config(args, {"file": str(path)})
    models = load_activity_models(path)
    if not models:
        print("no models found", file=sys.stderr)
        return 1
    all_ok = True
    for model in models:
        outcome = validate_activity_model(model)
        status = "pass" if outcome.ok else "FAIL"
        print(f"{status}  {model.name}  (threshold {model.threshold}, {model.size} elements)")
        for failure in outcome.failures:
            all_ok = False
            print(f"      - {failure}")
    return 0 if all_ok else 1


def _cmd_synth(args) -> int:
    if args.rows < 0:
        raise CliUsageError(f"--rows must be >= 0, got {args.rows}")
    if args.rows > MAX_SYNTH_ROWS:
        raise CliUsageError(f"--rows must be <= {MAX_SYNTH_ROWS}, got {args.rows}")
    if args.seed < 0:
        raise CliUsageError(f"--seed must be >= 0, got {args.seed}")
    _echo_config(args)
    if args.kind == "beacon":
        dataset = synthetic_walk_dataset(
            rows=args.rows, noise_sigma=args.noise_sigma, seed=args.seed
        )
    elif args.kind == "rssi":
        dataset = synthetic_rssi_dataset(rows=args.rows, seed=args.seed)
    else:
        dataset = synthetic_imu_dataset(rows=args.rows, seed=args.seed)
    write_csv(dataset, args.out)
    print(f"wrote {len(dataset)} {args.kind} rows to {args.out}")
    return 0


def _cmd_metrics(args) -> int:
    _echo_config(args)
    errors_x = _read_error_column(args.errors_x)
    errors_y = _read_error_column(args.errors_y)
    ex = rmse(errors_x)
    ey = rmse(errors_y)
    eh = horizontal_error(ex, ey)
    payload = {
        "pipeline": "metrics",
        "rmse_x_cm": ex,
        "rmse_y_cm": ey,
        "horizontal_error_cm": eh,
        "n_x": len(errors_x),
        "n_y": len(errors_y),
    }
    out_dir = _resolve_out_dir(args)
    report = render.to_json(payload)
    render.write_reports(out_dir, {"report.json": report})
    print(f"rmse_x: {ex:.4f} cm  rmse_y: {ey:.4f} cm  horizontal_error: {eh:.4f} cm")
    if args.format == "json":
        print(report, end="")
    return 0


#: Each subcommand's handler.  The handlers look up ``parse_*_csv`` and
#: ``run_*`` as module globals when they run, so those names can be wrapped.
_COMMANDS = {
    "zone-rssi": lambda args: _cmd_zone(args, "rssi"),
    "zone-imu": lambda args: _cmd_zone(args, "imu"),
    "coords": _cmd_coords,
    "compare": _cmd_compare,
    "validate-activities": _cmd_validate_activities,
    "synth": _cmd_synth,
    "metrics": _cmd_metrics,
}


def run_cli(argv=None) -> int:
    """Parse argv and run one subcommand, mapping failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "out_dir" in vars(args):
            _check_out_dir(_resolve_out_dir(args))
        return _COMMANDS[args.command](args)
    except (CliUsageError, SchemaError, ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        if exc.filename is None:
            raise
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 1
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
