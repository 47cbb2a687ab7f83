"""Command-line interface: regenerate paper experiments from a shell.

Usage::

    python -m repro table1   [--jobs N] [--servers 30,40] [--seed S]
    python -m repro fig8     [--jobs N] [--seed S] [--out FILE]
    python -m repro fig9     [--jobs N] [--seed S] [--out FILE]
    python -m repro fig10    [--jobs N] [--seed S] [--out FILE]
    python -m repro workload [--jobs N] [--seed S] [--out FILE]
    python -m repro systems
    python -m repro scenario list
    python -m repro scenario run   --name NAME [--system SYS] [--jobs N]
                                   [--shards S] [--workers W] [--warm]
                                   [--trace CSV...] [--sites N]
                                   [--federation POLICY] [--profile]
    python -m repro scenario sweep [--scenarios a,b] [--systems x,y]
                                   [--seeds 0,1] [--jobs N] [--workers W]
                                   [--resume] [--no-warm-start]
                                   [--series-out FILE] [--profile]
                                   [--cell-retries N] [--cell-timeout S]
                                   [--strict]
    python -m repro obs report FILE [--top N]
    python -m repro lint [PATHS...] [--json] [--select RULE,...]
                         [--list-rules]

Global flags (before the subcommand): ``--log-level LEVEL`` or ``-v`` /
``-vv`` route the package's stdlib logging to stderr at the chosen
level (WARNING by default).

``table1`` prints the paper-style summary table plus the recomputed
headline claims; the figure commands print (or write) the CSV series the
paper plots; ``workload`` generates and characterizes a synthetic trace
(optionally writing it as a canonical trace CSV); ``systems`` lists the
named systems; ``scenario`` drives the scenario suite — ``sweep`` fans
the (scenario × system × seed) grid out over a worker pool, journals
each completed cell under ``.repro-cache/`` as it finishes (so a killed
sweep resumes with ``--resume``), trains each scenario's DRL policy once
and warm-starts its cells from the checkpoint blob, and can emit the
Fig-8-style per-system series (including cost/CO₂ when the scenario has
a tariff) with ``--series-out``. Failing cells are retried
(``--cell-retries``), optionally time-boxed (``--cell-timeout``), and
then quarantined — journaled to ``quarantine.jsonl`` while the sweep
carries on (``--strict`` restores fail-fast). ``scenario run --trace``
replays
recorded Google task-events files through any scenario; unsharded runs
journal their result exactly like a sweep cell would. ``--profile``
captures run telemetry (per-phase self-time breakdown, counters, gauges),
writes it as ``telemetry.json`` under the cache dir, and ``obs report``
renders any such artifact. ``lint`` runs the AST-based determinism &
invariant auditor (:mod:`repro.lint`) over the given paths (default
``src/``): exit 0 clean, 1 on findings, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _add_common(parser: argparse.ArgumentParser, default_jobs: int) -> None:
    parser.add_argument("--jobs", type=int, default=default_jobs,
                        help=f"evaluation trace length (default {default_jobs})")
    parser.add_argument("--seed", type=int, default=0, help="workload/agent seed")
    parser.add_argument("--out", type=Path, default=None,
                        help="write output to this file instead of stdout")


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        print(text)
    else:
        out.write_text(text + "\n")
        print(f"wrote {out}")


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.harness.claims import evaluate_claims
    from repro.harness.table1 import render_table1, run_table1

    sizes = tuple(int(s) for s in args.servers.split(","))
    rows = run_table1(n_jobs=args.jobs, cluster_sizes=sizes, seed=args.seed)
    text = render_table1(rows)
    for m in sizes:
        text += "\n" + evaluate_claims(rows, num_servers=m).summary()
    _emit(text, args.out)
    return 0


def _cmd_figure(args: argparse.Namespace, which: str) -> int:
    from repro.harness.figures import render_series_csv, run_figure8, run_figure9

    runner = run_figure8 if which == "fig8" else run_figure9
    figure = runner(n_jobs=args.jobs, seed=args.seed)
    text = (
        "# panel (a): accumulated latency\n"
        + render_series_csv(figure, "latency")
        + "\n# panel (b): energy\n"
        + render_series_csv(figure, "energy")
    )
    _emit(text, args.out)
    return 0


def _cmd_fig10(args: argparse.Namespace) -> int:
    from repro.harness.tradeoff import (
        frontier_savings,
        render_tradeoff_csv,
        run_tradeoff,
    )

    points = run_tradeoff(n_jobs=args.jobs, seed=args.seed)
    savings = frontier_savings(points, "hierarchical", "fixed")
    text = render_tradeoff_csv(points) + (
        f"\n# vs combined fixed-timeout frontier: latency saving "
        f"{savings['latency_saving']:+.1%}, energy saving "
        f"{savings['energy_saving']:+.1%}"
    )
    _emit(text, args.out)
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.workload.stats import characterize
    from repro.workload.synthetic import SyntheticTraceConfig, generate_trace
    from repro.workload.trace import write_trace_csv

    base = SyntheticTraceConfig()
    config = SyntheticTraceConfig(n_jobs=args.jobs, horizon=args.jobs / base.base_rate)
    jobs = generate_trace(config, seed=args.seed)
    print(characterize(jobs).summary())
    if args.out is not None:
        count = write_trace_csv(jobs, args.out)
        print(f"wrote {count} jobs to {args.out}")
    return 0


def _cmd_systems(args: argparse.Namespace) -> int:
    from repro.harness.report import format_table
    from repro.harness.runner import SYSTEM_DESCRIPTIONS

    text = format_table(
        ["System", "Description"],
        [[name, desc] for name, desc in SYSTEM_DESCRIPTIONS.items()],
    )
    _emit(text, args.out)
    return 0


def _split_csv(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _progress_printer(line: str) -> None:
    """Live sweep progress: stderr, so ``--out``/stdout CSVs stay clean."""
    print(line, file=sys.stderr, flush=True)


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import registry

    if args.action == "list":
        _emit(registry.scenario_catalog(), args.out)
        return 0

    if args.action == "run":
        import inspect
        from dataclasses import replace as dc_replace

        from repro.scenarios.orchestrator import check_execution, run_cell
        from repro.scenarios.sharding import check_shardable, run_cell_sharded

        def _default(fn, param: str):
            return inspect.signature(fn).parameters[param].default

        name = args.name if args.name is not None else args.scenario
        if name is None or (
            args.name is not None
            and args.scenario is not None
            and args.name != args.scenario
        ):
            print("error: scenario run needs exactly one scenario name "
                  "(positional or --name)", file=sys.stderr)
            return 2
        spec = registry.get(name)
        if args.sites is not None:
            from repro.scenarios.specs import SiteSpec

            if args.sites < 1:
                print("error: --sites needs a positive site count",
                      file=sys.stderr)
                return 2
            if spec.sites:
                print(f"error: scenario {spec.name!r} is already federated; "
                      "--sites only replicates single-cluster scenarios",
                      file=sys.stderr)
                return 2
            # Replicate the scenario into N identical sites (each with
            # the scenario's fleet and tariff) under the requested
            # federation policy. Spec validation rejects combinations a
            # federation cannot carry (multi-class workloads, unknown
            # policies, churn windows, ...).
            try:
                spec = dc_replace(
                    spec,
                    sites=tuple(
                        SiteSpec(f"site{i}", fleet=spec.fleet, tariff=spec.tariff)
                        for i in range(args.sites)
                    ),
                    federation=(
                        args.federation if args.federation is not None
                        else "least-loaded" if args.sites > 1 else "home"
                    ),
                )
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        elif args.federation is not None and not spec.sites:
            print("error: --federation needs a federated scenario or --sites",
                  file=sys.stderr)
            return 2
        elif args.federation is not None:
            try:
                spec = dc_replace(spec, federation=args.federation)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        if args.profile and args.shards > 1:
            print("error: --profile needs the unsharded path (one telemetry "
                  "capture per run); drop --shards", file=sys.stderr)
            return 2
        if args.shards > 1:
            try:
                check_shardable(spec)
                check_execution(workers=args.workers)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        if spec.sites and len(spec.sites) > 1 and args.trace:
            print("error: --trace replays support a single site",
                  file=sys.stderr)
            return 2
        if args.trace:
            from repro.scenarios.specs import TraceReplaySpec, WorkloadSpec

            # Point any scenario at recorded trace files: reuse the
            # scenario's replay policy (window/compression/split) when it
            # has one, else replay with the defaults. The rest of the
            # workload recipe is dropped — the recording is the workload
            # — keeping only the train/eval sizing knobs.
            base = spec.workload.replay
            replay = (
                dc_replace(base, paths=tuple(args.trace))
                if base is not None
                else TraceReplaySpec(paths=tuple(args.trace))
            )
            spec = dc_replace(
                spec,
                workload=WorkloadSpec(
                    replay=replay,
                    train_fraction=spec.workload.train_fraction,
                    n_train_segments=spec.workload.n_train_segments,
                ),
            )
        checkpoint = None
        # The warm path must train exactly what the cold path would, so
        # read the protocol off the callee each branch actually uses:
        # both follow run_cell's defaults (run and sweep cells share
        # cache slots, so they must share the protocol too).
        cold = run_cell_sharded if args.shards > 1 else run_cell
        online_epochs = _default(cold, "online_epochs")
        local_epochs = _default(cold, "local_epochs")
        if args.warm:
            from repro.scenarios.checkpoints import (
                CheckpointStore,
                ensure_checkpoint,
                needs_policy,
            )

            if not needs_policy(spec, args.system):
                print(f"# {args.system} trains no policy; --warm ignored",
                      file=sys.stderr)
            else:
                store = CheckpointStore(args.cache_dir / "checkpoints")
                checkpoint = ensure_checkpoint(
                    store, spec, n_jobs=args.jobs, seed=args.seed,
                    online_epochs=online_epochs,
                    with_predictor=args.system == "hierarchical",
                )
        if args.shards > 1:
            cell = run_cell_sharded(
                spec, args.system, n_jobs=args.jobs, seed=args.seed,
                shards=args.shards, workers=args.workers,
                checkpoint=checkpoint,
            )
            extra = (
                f"shards: {cell['shards']} on {cell['workers_used']} workers  "
            )
        else:
            cell = run_cell(
                spec, args.system, n_jobs=args.jobs, seed=args.seed,
                checkpoint=checkpoint, profile=args.profile,
            )
            extra = ""
            # Journal the cell exactly as a sweep would, so later sweeps
            # (and --resume) reuse it as a cache hit. Sharded results
            # stay out of the store: they are a documented approximation
            # of the unsharded cell, not the same experiment.
            from repro.scenarios.orchestrator import SweepCell, journal_cell_result
            from repro.scenarios.store import ResultStore

            path = journal_cell_result(
                ResultStore(args.cache_dir),
                SweepCell(spec, args.system, args.seed),
                cell,
                n_jobs=args.jobs,
                online_epochs=online_epochs,
                local_epochs=local_epochs,
                warm_start=checkpoint is not None,
                profile=args.profile,
            )
            print(f"# journaled {path}", file=sys.stderr)
        lines = [
            f"scenario: {spec.name} ({spec.description})",
            f"system: {args.system}  servers: {cell['num_servers']}  "
            f"jobs: {cell['n_jobs_completed']}  {extra}"
            f"churn events: {cell['capacity_events']}",
            f"energy: {cell['energy_kwh']:.2f} kWh  "
            f"latency: {cell['acc_latency_s'] / 1e6:.3f}e6 s  "
            f"mean latency: {cell['mean_latency_s']:.1f} s  "
            f"power: {cell['average_power_w']:.2f} W",
        ]
        if spec.tariff is not None or any(s.tariff for s in spec.sites):
            lines.append(
                f"electricity: ${cell.get('cost_usd', 0.0):.2f}  "
                f"CO2: {cell.get('co2_kg', 0.0):.2f} kg"
            )
        if spec.faults is not None or any(s.faults for s in spec.sites):
            lines.append(
                f"resilience: failed {cell.get('failed_jobs', 0)}  "
                f"retries {cell.get('retries', 0)}  "
                f"goodput {cell.get('goodput', 1.0):.3f}  "
                f"availability {cell.get('availability', 1.0):.3f}"
            )
        if cell.get("sites"):
            lines.append(f"federation: {cell.get('federation', spec.federation)}")
            for site in cell["sites"]:
                line = (
                    f"  site {site['site']}: servers {site['num_servers']}  "
                    f"home {site['n_jobs_home']}  served "
                    f"{site['n_jobs_completed']}  "
                    f"energy {site['energy_kwh']:.2f} kWh  "
                    f"cost ${site['cost_usd']:.2f}  "
                    f"CO2 {site['co2_kg']:.2f} kg"
                )
                if site.get("availability", 1.0) < 1.0 or site.get(
                    "failed_jobs", 0
                ):
                    line += (
                        f"  failed {site['failed_jobs']}  "
                        f"avail {site['availability']:.3f}"
                    )
                lines.append(line)
        _emit("\n".join(lines), args.out)
        if args.profile and cell.get("telemetry"):
            from repro.obs import render_report, write_snapshot

            tel_path = write_snapshot(
                cell["telemetry"], args.cache_dir / "telemetry.json"
            )
            print(f"# telemetry -> {tel_path}", file=sys.stderr)
            print(render_report(cell["telemetry"], top=args.top))
        return 0

    # action == "sweep"
    from repro.scenarios.orchestrator import check_execution, detected_cpus, sweep
    from repro.scenarios.store import ResultStore

    try:
        check_execution(args.workers, args.cell_retries, args.cell_timeout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.resume:
        if args.no_cache or args.force:
            print("error: --resume needs the journal; it conflicts with "
                  "--no-cache and --force", file=sys.stderr)
            return 2
        if len(ResultStore(args.cache_dir)) == 0:
            print(f"error: --resume found no journaled cells under "
                  f"{args.cache_dir}; nothing to resume", file=sys.stderr)
            return 2
    report = sweep(
        scenarios=_split_csv(args.scenarios) if args.scenarios else None,
        systems=tuple(_split_csv(args.systems)),
        seeds=tuple(int(s) for s in _split_csv(args.seeds)),
        n_jobs=args.jobs,
        workers=args.workers,
        store=ResultStore(args.cache_dir),
        use_cache=not args.no_cache,
        force=args.force,
        warm_start=not args.no_warm_start,
        progress=_progress_printer,
        profile=args.profile,
        cell_retries=args.cell_retries,
        cell_timeout=args.cell_timeout,
        on_error="raise" if args.strict else "quarantine",
    )
    if args.resume and report.n_cached == 0:
        print("warning: --resume matched no journaled cells — the grid or "
              "protocol differs from the crashed run", file=sys.stderr)
    text = report.render_csv() if args.csv else report.render_table()
    text += (
        f"\n# {len(report.results)} cells: {report.n_cached} cached, "
        f"{report.n_computed} computed"
    )
    if report.n_quarantined:
        text += f", {report.n_quarantined} quarantined"
    _emit(text, args.out)
    if args.series_out is not None:
        args.series_out.write_text(report.render_series_csv() + "\n")
        print(f"wrote {args.series_out}")
    # Stdout-only (kept out of --out artifacts so sweep outputs stay
    # byte-identical across worker counts): the parallelism actually used
    # — the pool is capped at the trainings and cells that needed computing.
    cpus = detected_cpus()
    if report.workers_used:
        pool = report.workers_used
        print(f"# {cpus} CPUs detected for this process; pool size {pool}")
    else:
        print(f"# {cpus} CPUs detected for this process; all cells cached, no pool")
    if args.profile:
        # Stdout-only like the pool line: timings vary run to run, so
        # they stay out of --out artifacts.
        rendered = report.render_telemetry()
        if rendered is not None:
            print(rendered)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import LintUsageError, iter_rules, run_lint
    from repro.lint.suppress import SUPPRESSION_RULE, SYNTAX

    if args.list_rules:
        from repro.harness.report import format_table

        rows = [[SUPPRESSION_RULE, f"suppression hygiene ({SYNTAX})"]]
        rows += [[rule.id, rule.summary] for rule in iter_rules()]
        _emit(format_table(["Rule", "Invariant"], rows), args.out)
        return 0
    paths = args.paths if args.paths else [Path("src")]
    select = _split_csv(args.select) if args.select else None
    try:
        report = run_lint(paths, select=select)
    except LintUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report.render_json() if args.json else report.render_text(), args.out)
    return report.exit_code


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import load_snapshot, render_report

    if args.action == "report":
        try:
            snapshot = load_snapshot(args.file)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _emit(render_report(snapshot, top=args.top), args.out)
        return 0
    raise AssertionError(f"unhandled obs action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate experiments from Liu et al., ICDCS 2017.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="stdlib logging level for the repro package "
             "(DEBUG, INFO, WARNING, ERROR, CRITICAL)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase log verbosity (-v INFO, -vv DEBUG); "
             "--log-level wins when both are given",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table1 = sub.add_parser("table1", help="Table I + headline claims")
    _add_common(p_table1, default_jobs=3000)
    p_table1.add_argument("--servers", default="30,40",
                          help="comma-separated cluster sizes (default 30,40)")

    for name, jobs in (("fig8", 3000), ("fig9", 3000), ("fig10", 1500)):
        _add_common(sub.add_parser(name, help=f"{name} series"), default_jobs=jobs)

    p_wl = sub.add_parser("workload", help="generate/characterize a trace")
    _add_common(p_wl, default_jobs=5000)

    p_sys = sub.add_parser("systems", help="list named systems")
    p_sys.add_argument("--out", type=Path, default=None)

    p_sc = sub.add_parser("scenario", help="scenario suite + parallel sweeps")
    sc_sub = p_sc.add_subparsers(dest="action", required=True)

    sc_list = sc_sub.add_parser("list", help="catalog of registered scenarios")
    sc_list.add_argument("--out", type=Path, default=None)

    sc_run = sc_sub.add_parser("run", help="run one scenario × system cell")
    sc_run.add_argument("scenario", nargs="?", default=None, metavar="NAME",
                        help="scenario name (positional form of --name)")
    sc_run.add_argument("--name", default=None, help="scenario name")
    sc_run.add_argument("--system", default="round-robin",
                        help="named system (default round-robin)")
    sc_run.add_argument("--trace", nargs="+", default=None, metavar="CSV",
                        help="replay these trace files/globs instead of the "
                             "scenario's workload (Google task-events format "
                             "unless the scenario's replay spec says "
                             "otherwise); e.g. real cluster-usage part files")
    sc_run.add_argument("--sites", type=int, default=None, metavar="N",
                        help="replicate a single-cluster scenario into a "
                             "federation of N identical sites (each with the "
                             "scenario's fleet and tariff)")
    sc_run.add_argument("--federation", default=None, metavar="POLICY",
                        help="federation-tier dispatch policy (home, "
                             "least-loaded, price-greedy, carbon-greedy, "
                             "drl); default for --sites N>1: least-loaded")
    sc_run.add_argument("--shards", type=int, default=1,
                        help="split the evaluation trace into this many "
                             "warm-handoff segments run in parallel "
                             "(default 1 = unsharded)")
    sc_run.add_argument("--workers", type=int, default=None,
                        help="pool size for sharded runs (default: detected "
                             "CPU count; 1 runs the shards in this process)")
    sc_run.add_argument("--warm", action="store_true",
                        help="warm-start DRL systems from the policy "
                             "checkpoint store (training on first use)")
    sc_run.add_argument("--cache-dir", type=Path, default=Path(".repro-cache"),
                        help="cache root holding checkpoint blobs "
                             "(default .repro-cache)")
    sc_run.add_argument("--profile", action="store_true",
                        help="capture run telemetry: print the per-phase "
                             "self-time breakdown and write telemetry.json "
                             "under the cache dir")
    sc_run.add_argument("--top", type=int, default=None, metavar="N",
                        help="limit the --profile span table to the top N "
                             "phases by self time")
    _add_common(sc_run, default_jobs=600)

    sc_sweep = sc_sub.add_parser(
        "sweep", help="parallel (scenario x system x seed) grid with caching"
    )
    sc_sweep.add_argument("--scenarios", default=None,
                          help="comma-separated names (default: all registered)")
    sc_sweep.add_argument("--systems", default="round-robin,drl-only,hierarchical",
                          help="comma-separated system names")
    sc_sweep.add_argument("--seeds", default="0", help="comma-separated seeds")
    sc_sweep.add_argument("--jobs", type=int, default=600,
                          help="evaluation trace length per cell (default 600)")
    sc_sweep.add_argument("--workers", type=int, default=None,
                          help="pool size (default: CPU count; 1 runs each "
                               "task in this process, one at a time)")
    sc_sweep.add_argument("--cache-dir", type=Path, default=Path(".repro-cache"),
                          help="result-store directory (default .repro-cache)")
    sc_sweep.add_argument("--no-cache", action="store_true",
                          help="neither read nor write the result store")
    sc_sweep.add_argument("--force", action="store_true",
                          help="recompute every cell, overwriting the cache")
    sc_sweep.add_argument("--resume", action="store_true",
                          help="continue a crashed/killed sweep: requires a "
                               "non-empty journal, replays it, and computes "
                               "only the missing cells (conflicts with "
                               "--no-cache/--force)")
    sc_sweep.add_argument("--no-warm-start", action="store_true",
                          help="train each DRL cell's policy in-cell instead "
                               "of once per training group via checkpoints")
    sc_sweep.add_argument("--csv", action="store_true",
                          help="emit CSV instead of the aligned table")
    sc_sweep.add_argument("--series-out", type=Path, default=None,
                          help="also write Fig-8-style accumulated "
                               "latency/energy series (long-form CSV)")
    sc_sweep.add_argument("--profile", action="store_true",
                          help="capture telemetry per computed cell, roll it "
                               "up, and write telemetry.json to the cache dir")
    sc_sweep.add_argument("--cell-retries", type=int, default=1, metavar="N",
                          help="extra attempts per failing cell/training "
                               "before quarantining it (default 1; 0 = none)")
    sc_sweep.add_argument("--cell-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="per-cell wall-clock budget enforced in the "
                               "worker (SIGALRM); overruns fail like any "
                               "other cell error (default: none)")
    sc_sweep.add_argument("--strict", action="store_true",
                          help="fail the sweep on the first exhausted cell "
                               "instead of quarantining it and sweeping on")
    sc_sweep.add_argument("--out", type=Path, default=None)

    p_obs = sub.add_parser("obs", help="telemetry artifacts (profiled runs)")
    obs_sub = p_obs.add_subparsers(dest="action", required=True)
    obs_report = obs_sub.add_parser(
        "report", help="render a telemetry.json as a self-time breakdown"
    )
    obs_report.add_argument("file", type=Path, metavar="FILE",
                            help="telemetry snapshot (telemetry.json)")
    obs_report.add_argument("--top", type=int, default=None, metavar="N",
                            help="show only the top N spans by self time")
    obs_report.add_argument("--out", type=Path, default=None)

    p_lint = sub.add_parser(
        "lint", help="AST-based determinism & invariant auditor"
    )
    p_lint.add_argument("paths", nargs="*", type=Path, metavar="PATH",
                        help="files or directories to audit (default: src/)")
    p_lint.add_argument("--json", action="store_true",
                        help="emit the machine-readable JSON report")
    p_lint.add_argument("--select", default=None, metavar="RULE,...",
                        help="comma-separated rule ids to run "
                             "(default: all; REP000 is always implied)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="list the rule ids and the invariant each guards")
    p_lint.add_argument("--out", type=Path, default=None,
                        help="write the report to this file instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.obs import configure_logging

    try:
        configure_logging(args.log_level, args.verbose)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "table1":
        return _cmd_table1(args)
    if args.command in ("fig8", "fig9"):
        return _cmd_figure(args, args.command)
    if args.command == "fig10":
        return _cmd_fig10(args)
    if args.command == "workload":
        return _cmd_workload(args)
    if args.command == "systems":
        return _cmd_systems(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "lint":
        return _cmd_lint(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
