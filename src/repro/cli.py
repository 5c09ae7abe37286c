"""``repro`` command line: list/run experiments, serve declarative scenarios.

Five subcommands make every artifact in the experiment registry and every
serving scenario reproducible from one command line::

    python -m repro list
    python -m repro run fig15
    python -m repro run frontier_autoscale --json frontier.json
    python -m repro serve --scenario examples/scenarios/hetero_pool.json \
        --override arrivals.seed=7 --override replica_groups.0.count=4
    python -m repro schema
    python -m repro lint --format json src

``serve`` loads a :class:`~repro.serving.spec.ScenarioSpec` from JSON,
applies any ``--override key=value`` pairs (dotted paths into the serialized
spec; values are parsed as JSON, falling back to strings) and prints the
result summary.  ``--dump-spec`` echoes the effective spec after overrides,
so a tweaked scenario can be piped back into a file.  ``run --json FILE``
additionally dumps the experiment result as JSON, converted field by field
by :func:`repro.analysis.reporting.jsonable` (only ``frontier_autoscale``
adds to that dump, through its ``to_jsonable``, with its Pareto labels) —
CI uploads these as workflow artifacts.  ``run <id>`` is the entry point
of every registered experiment (see ``docs/experiments.md`` for the few
drivers that also keep a ``main()``).  ``run --profile FILE`` wraps the run
in cProfile, dumps the pstats data to ``FILE`` and prints the top 10
functions by cumulative time.  ``schema`` prints the scenario JSON
reference — every field's default, closed enum and numeric domain —
straight from the dataclasses (:func:`repro.serving.spec.scenario_schema`),
so it can never drift from the code; the prose companion is ``docs/scenario-schema.md``.
``lint`` runs the AST-based invariant linter (codes RPR001, RPR002 and
RPR005; see ``docs/invariants.md``) over ``src/`` by default and exits
nonzero on any violation — CI runs it in the ``static-analysis`` job.
``sweep`` expands a declarative grid spec (base scenario × override axes;
see :mod:`repro.sweep`) and runs every cell — ``--workers N`` fans cells out
over forked processes — merging the results into JSON/CSV artifacts that
are byte-identical regardless of the worker count.  ``trace fit`` estimates
a piecewise-Poisson + burst model from a recorded request log
(CSV/JSONL; see :mod:`repro.serving.trace_io`) and emits a shareable
synthetic ``ArrivalSpec`` recipe.

Observability (see ``docs/observability.md``): ``serve --trace FILE``
attaches the flight recorder and writes a Chrome trace-event JSON
(Perfetto-loadable); ``--metrics FILE`` writes a metrics timeseries (CSV
or JSON by extension).  ``run --trace/--metrics`` does the same for
experiments that expose a ``trace_scenario()`` hook.  ``trace summarize
FILE`` prints a text summary of an exported trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro._version import __version__


def _parse_override(text: str) -> tuple[str, object]:
    """Split ``key.path=value``; parse the value as JSON when possible."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"override {text!r} must look like key.path=value"
        )
    try:
        value: object = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings (e.g. pattern=bursty) need no quotes
    return key, value


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENTS

    width = max(len(eid) for eid in EXPERIMENTS)
    print(f"{len(EXPERIMENTS)} experiments:")
    for eid in sorted(EXPERIMENTS):
        print(f"  {eid.ljust(width)}  {EXPERIMENTS[eid].description}")
    return 0


def _observed_spec(spec, *, want_trace: bool, want_metrics: bool):  # type: ignore[no-untyped-def]
    """The spec with observability forced on for the requested exports."""
    import dataclasses

    from repro.serving.spec import ObservabilitySpec

    if not (want_trace or want_metrics):
        return spec
    current = spec.observability
    # Metrics export needs the recorder too: without an autoscaler there is
    # no snapshot history, so the timeseries is derived from the trace.
    observability = ObservabilitySpec(
        trace=True,
        keep_metrics=want_metrics
        or (current.keep_metrics if current is not None else False),
        metrics_interval_ms=(
            current.metrics_interval_ms if current is not None else None
        ),
    )
    return dataclasses.replace(spec, observability=observability)


def _write_observability(result, spec, *, trace_path, metrics_path) -> int:  # type: ignore[no-untyped-def]
    """Export the run's recorded trace / metrics timeseries to files."""
    from repro.serving.obs import (
        metrics_rows,
        snapshot_rows,
        write_chrome_trace,
        write_metrics,
    )

    interval = None
    if spec.observability is not None:
        interval = spec.observability.metrics_interval_ms
    try:
        if trace_path:
            write_chrome_trace(trace_path, result.trace)
            print(f"wrote {trace_path}")
        if metrics_path:
            # Prefer the autoscaler's own snapshot history (the policy's
            # actual inputs); static pools fall back to trace-derived rows.
            rows = (
                snapshot_rows(result.metrics)
                if result.metrics
                else metrics_rows(result.trace, interval_ms=interval)
            )
            write_metrics(metrics_path, rows)
            print(f"wrote {metrics_path}")
    except OSError as exc:
        path = trace_path or metrics_path
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import jsonable
    from repro.experiments.registry import get_experiment

    try:
        experiment = get_experiment(args.experiment_id)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = experiment.run()
        finally:
            profiler.disable()
        try:
            profiler.dump_stats(args.profile)
        except OSError as exc:
            print(f"cannot write {args.profile}: {exc}", file=sys.stderr)
            return 2
        print(experiment.report(result))
        print(f"\nprofile written to {args.profile}; top 10 by cumulative time:")
        pstats.Stats(profiler, stream=sys.stdout).sort_stats(
            "cumulative"
        ).print_stats(10)
    else:
        result = experiment.run()
        print(experiment.report(result))
    if args.json:
        # The field-by-field jsonable dump is the one artifact path; only
        # frontier_autoscale's to_jsonable adds to it (its Pareto labels).
        to_jsonable = getattr(experiment.module, "to_jsonable", jsonable)
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(to_jsonable(result), fh, indent=2)
        except OSError as exc:
            print(f"cannot write {args.json}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.json}")
    if args.trace or args.metrics:
        # Experiments opt into tracing by exposing a trace_scenario() hook
        # returning the representative ScenarioSpec to record.
        trace_scenario = getattr(experiment.module, "trace_scenario", None)
        if trace_scenario is None:
            print(
                f"experiment {args.experiment_id!r} has no trace_scenario() "
                "hook; --trace/--metrics are unavailable for it",
                file=sys.stderr,
            )
            return 2
        from repro.serving.api import run_scenario

        spec = _observed_spec(
            trace_scenario(),
            want_trace=bool(args.trace),
            want_metrics=bool(args.metrics),
        )
        traced = run_scenario(spec)
        return _write_observability(
            traced, spec, trace_path=args.trace, metrics_path=args.metrics
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving.api import format_result_summary, run_scenario
    from repro.serving.spec import ScenarioSpec

    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            spec = ScenarioSpec.from_dict(json.load(fh))
        # All overrides apply atomically (one re-validation at the end), so
        # interdependent fields — e.g. autoscaler.policy=scheduled plus its
        # autoscaler.schedule — can be overridden together.
        spec = spec.override_many(args.override or ())
    except (OSError, ValueError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 2
    if args.dump_spec:
        print(spec.to_json())
        return 0
    spec = _observed_spec(
        spec, want_trace=bool(args.trace), want_metrics=bool(args.metrics)
    )
    result = run_scenario(spec)
    print(format_result_summary(spec, result))
    if args.trace or args.metrics:
        return _write_observability(
            result, spec, trace_path=args.trace, metrics_path=args.metrics
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import SweepSpec, format_sweep_summary, run_sweep

    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = SweepSpec.from_dict(json.load(fh))
        if args.override:
            # Overrides tweak the *base* scenario; every grid cell starts
            # from the tweaked base.
            spec = SweepSpec(
                base=spec.base.override_many(args.override),
                axes=spec.axes,
                name=spec.name,
            )
    except (OSError, ValueError) as exc:
        print(f"invalid sweep spec: {exc}", file=sys.stderr)
        return 2
    result = run_sweep(spec, workers=args.workers)
    print(format_sweep_summary(result))
    try:
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(result.to_json() + "\n")
            print(f"wrote {args.json}")
        if args.csv:
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                fh.write(result.to_csv())
            print(f"wrote {args.csv}")
    except OSError as exc:
        print(f"cannot write sweep artifact: {exc}", file=sys.stderr)
        return 2
    # Failed cells are reported per cell above; the exit code makes them
    # visible to CI without hiding the healthy cells' results.
    return 1 if result.num_failed else 0


def _cmd_trace_fit(args: argparse.Namespace) -> int:
    from repro.serving.trace_io import fit_piecewise_poisson, load_trace_log

    try:
        log = load_trace_log(args.log, limit=args.limit)
        fit = fit_piecewise_poisson(
            log.timestamps_ms, max_segments=args.max_segments
        )
    except (OSError, ValueError) as exc:
        print(f"cannot fit {args.log}: {exc}", file=sys.stderr)
        return 2
    spec = fit.arrival_spec(seed=args.seed)
    print(f"fitted {fit.num_events} arrivals over {fit.span_ms:.3f} ms:")
    print(f"  nominal rate    {fit.nominal_rate_per_ms:.6f} /ms")
    print(f"  interarrival CV {fit.cv_interarrival:.3f} (1.0 = Poisson)")
    print(f"  peak/mean rate  {fit.peak_to_mean:.3f}")
    print(f"  burst windows   {fit.num_burst_windows}")
    print(f"  segments        {len(fit.segments)}")
    recipe = {"arrivals": spec.to_dict(), "fit": fit.to_dict()}
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(recipe, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.out}")
    else:
        print(json.dumps(recipe, indent=2))
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.serving.obs import summarize_chrome_trace

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return 2
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        print(f"invalid trace: {args.file} has no traceEvents", file=sys.stderr)
        return 2
    print(summarize_chrome_trace(payload))
    return 0


def _cmd_schema(args: argparse.Namespace) -> int:
    from repro.serving.spec import scenario_schema

    print(json.dumps(scenario_schema(), indent=2))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import format_json, format_text, run_lint

    select = None
    if args.select:
        select = [code.strip() for code in args.select.split(",") if code.strip()]
    try:
        result = run_lint(args.paths, select=select)
    except (OSError, ValueError) as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    print(format_json(result) if args.format == "json" else format_text(result))
    return 0 if result.ok else 1


def _add_observability_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help=(
            "record per-query lifecycle spans and write a Chrome "
            "trace-event JSON (loadable in Perfetto) to FILE"
        ),
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help=(
            "write a metrics timeseries (queue depth, utilization, drop "
            "rate, batch occupancy) to FILE — CSV if it ends in .csv, "
            "JSON otherwise"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of SUSHI (MLSys 2023): experiment registry and "
            "declarative serving scenarios."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="list registered experiment ids")
    list_p.set_defaults(func=_cmd_list)

    run_p = sub.add_parser("run", help="run one experiment and print its report")
    run_p.add_argument("experiment_id", help="registry id, e.g. fig15 or load_sweep")
    run_p.add_argument(
        "--json",
        metavar="FILE",
        help="additionally dump the experiment result as JSON to FILE",
    )
    run_p.add_argument(
        "--profile",
        metavar="FILE",
        help=(
            "profile the run with cProfile: dump pstats data to FILE and "
            "print the top 10 functions by cumulative time"
        ),
    )
    _add_observability_args(run_p)
    run_p.set_defaults(func=_cmd_run)

    serve_p = sub.add_parser(
        "serve", help="run a declarative serving scenario from a JSON spec"
    )
    serve_p.add_argument(
        "--scenario", required=True, help="path to a ScenarioSpec JSON file"
    )
    serve_p.add_argument(
        "--override",
        action="append",
        type=_parse_override,
        metavar="KEY.PATH=VALUE",
        help=(
            "override one spec field (repeatable); dotted paths address the "
            "serialized form, e.g. arrivals.rate_per_ms=0.5 or "
            "replica_groups.0.count=4"
        ),
    )
    serve_p.add_argument(
        "--dump-spec",
        action="store_true",
        help="print the effective spec JSON (after overrides) and exit",
    )
    _add_observability_args(serve_p)
    serve_p.set_defaults(func=_cmd_serve)

    sweep_p = sub.add_parser(
        "sweep",
        help=(
            "expand a declarative grid (base scenario x override axes), "
            "run every cell, and merge the results into one artifact"
        ),
    )
    sweep_p.add_argument(
        "--spec", required=True, help="path to a SweepSpec JSON file"
    )
    sweep_p.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes to fan grid cells out over (default 1: "
            "sequential; the merged artifact is byte-identical either way)"
        ),
    )
    sweep_p.add_argument(
        "--json",
        metavar="FILE",
        help="write the merged sweep result as JSON to FILE",
    )
    sweep_p.add_argument(
        "--csv",
        metavar="FILE",
        help="write the merged sweep result as CSV to FILE",
    )
    sweep_p.add_argument(
        "--override",
        action="append",
        type=_parse_override,
        metavar="KEY.PATH=VALUE",
        help=(
            "override one field of the base scenario before the grid "
            "expands (repeatable; same dotted paths as serve --override)"
        ),
    )
    sweep_p.set_defaults(func=_cmd_sweep)

    trace_p = sub.add_parser(
        "trace",
        help=(
            "inspect exported Chrome trace JSON files and fit synthetic "
            "arrival recipes from request logs"
        ),
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    summarize_p = trace_sub.add_parser(
        "summarize", help="print a text summary of an exported trace"
    )
    summarize_p.add_argument(
        "file", help="Chrome trace-event JSON written by --trace"
    )
    summarize_p.set_defaults(func=_cmd_trace_summarize)
    fit_p = trace_sub.add_parser(
        "fit",
        help=(
            "estimate piecewise-Poisson + burst parameters from a request "
            "log and emit a shareable synthetic ArrivalSpec recipe"
        ),
    )
    fit_p.add_argument(
        "log", help="request log to fit (.csv or .jsonl; see docs)"
    )
    fit_p.add_argument(
        "--max-segments",
        type=int,
        default=8,
        metavar="N",
        help="segment budget of the piecewise fit (default 8)",
    )
    fit_p.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="fit only the first N arrivals of the log",
    )
    fit_p.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="seed to stamp into the emitted ArrivalSpec recipe",
    )
    fit_p.add_argument(
        "--out",
        metavar="FILE",
        help=(
            "write the recipe JSON ({arrivals, fit}) to FILE instead of "
            "stdout"
        ),
    )
    fit_p.set_defaults(func=_cmd_trace_fit)

    schema_p = sub.add_parser(
        "schema",
        help="print the scenario JSON schema (field defaults, enums and domains)",
    )
    schema_p.set_defaults(func=_cmd_schema)

    lint_p = sub.add_parser(
        "lint",
        help=(
            "run the AST-based invariant linter (RPR001, RPR002, RPR005; "
            "see docs/invariants.md)"
        ),
    )
    lint_p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint_p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    lint_p.add_argument(
        "--select",
        metavar="CODE,...",
        help="comma-separated lint codes to run, e.g. RPR001,RPR005",
    )
    lint_p.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
