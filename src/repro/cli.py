"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``check FILE.mj``
    Run the full pipeline on an MJ program and print race reports.
    ``--no-static`` / ``--no-weaker`` / ``--no-peeling`` /
    ``--no-cache`` / ``--no-ownership`` / ``--fields-merged`` toggle
    the paper's configuration axes; ``--seed N`` picks a random
    interleaving; ``--stats`` prints the event funnel and cache
    statistics; ``--phase-times`` prints the wall time of each stage
    the path ran (load / run / detect / axes), on every check path.

``run FILE.mj``
    Execute a program uninstrumented and print its output.
    ``--record-binary PATH`` additionally logs the full event stream
    to disk as an ``MJBL`` binary log (``--compress`` deflates it) for
    later ``check --from-log`` analysis.

``log-stats PATH``
    Summarize a recorded ``MJBL`` log (``--verify`` also CRC-checks
    it): format version, index block fill, compression, event counts
    by kind, distinct locations/threads/locks, and bytes/event.

``explain FILE.mj``
    Print what the static phases decided: the static datarace set,
    eliminated trace sites, peeled loops.

``tables``
    Regenerate the paper's Tables 1/2/3 (``--scale`` and ``--repeats``
    control cost).

``serve``
    The race-detection HTTP daemon: POST MJ programs or recorded MJBL
    event logs (classified by magic bytes) and get the
    same machine-readable race report ``check --report-json`` prints.
    ``--workers`` bounds the detection process pool, ``--queue-depth``
    the pending queue (full → 429 + Retry-After), ``--timeout`` the
    per-job wall-clock budget; SIGTERM drains in-flight jobs before
    exit.  See ``docs/service.md``.

``difflab``
    The differential race-oracle lab: verify the committed reproducer
    corpus (``tests/corpus/``), then fuzz a campaign of
    (program, schedule) cases through the whole detector battery,
    classify every discrepancy against the expectation matrix, and
    shrink any violation into a minimal counterexample.  ``--budget
    120s`` keeps fuzzing until time is up; ``--inject NAME`` swaps in a
    deliberately broken detector to prove the lab catches it; ``--out``
    chooses where shrunk violations land.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .detector import DetectorConfig, RaceDetector
from .instrument import PlannerConfig, plan_instrumentation
from .lang import MJError, compile_source
from .runtime import (
    DEFAULT_ENGINE,
    ENGINES,
    RandomPolicy,
    RoundRobinPolicy,
    engine_runner,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Datarace detection for MJ programs "
        "(PLDI 2002 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="detect dataraces in a program")
    check.add_argument("file", type=Path, nargs="?", default=None,
                       help="MJ program (optional with --from-log: when "
                       "given, reports carry source descriptors and "
                       "static-partner context)")
    check.add_argument("--engine", choices=sorted(ENGINES),
                       default=DEFAULT_ENGINE,
                       help="execution engine: the AST interpreter or the "
                       "compiled backend, which runs generated Python code "
                       "(default: %(default)s)")
    check.add_argument("--seed", type=int, default=None,
                       help="random-scheduler seed (default: round-robin)")
    check.add_argument("--no-static", action="store_true",
                       help="skip static datarace analysis")
    check.add_argument("--no-weaker", action="store_true",
                       help="skip static weaker-than elimination")
    check.add_argument("--no-peeling", action="store_true",
                       help="skip loop peeling")
    check.add_argument("--no-cache", action="store_true",
                       help="disable the runtime access caches")
    check.add_argument("--no-ownership", action="store_true",
                       help="disable the ownership model")
    check.add_argument("--fields-merged", action="store_true",
                       help="object-granularity locations (Table 3 variant)")
    check.add_argument("--stats", action="store_true",
                       help="print the event funnel and cache stats")
    check.add_argument("--phase-times", action="store_true",
                       help="print the wall time of each stage this "
                       "check ran: load (compile and plan, or open the "
                       "log), run (the engine; live detection happens "
                       "inside it), detect (post-mortem detection) and "
                       "axes (further replays of the log); each stage "
                       "is timed as a whole, never per event")
    check.add_argument("--post-mortem", action="store_true",
                       help="record the event stream, then detect offline")
    check.add_argument("--from-log", type=Path, default=None, metavar="PATH",
                       help="skip execution and detect over a recorded "
                       "MJBL log (implies --post-mortem)")
    check.add_argument("--shards", type=int, default=None, metavar="N",
                       help="sharded post-mortem detection over N "
                       "partitions (implies --post-mortem)")
    check.add_argument("--predict", choices=("shb", "hybrid"), default=None,
                       help="also run the predictive pass over the "
                       "recorded trace: races realizable in schedulable "
                       "reorderings, not just the observed interleaving "
                       "(implies --post-mortem; see docs/prediction.md)")
    check.add_argument("--executor", choices=("serial", "process"),
                       default="serial",
                       help="how sharded detection runs: the shards one "
                       "after another in-process, or in a process pool, "
                       "one worker per shard (default: serial)")
    check.add_argument("--report-json", action="store_true",
                       help="print one canonical machine-readable JSON "
                       "report instead of the human-readable lines "
                       "(byte-identical to the report object a "
                       "`repro serve` job returns for the same input)")

    run = sub.add_parser("run", help="execute a program (no detection)",
                         allow_abbrev=False)
    run.add_argument("file", type=Path)
    run.add_argument("--engine", choices=sorted(ENGINES),
                     default=DEFAULT_ENGINE,
                     help="execution engine (default: %(default)s)")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--record-binary", type=Path, default=None,
                     metavar="PATH",
                     help="record the event stream to an MJBL binary log "
                     "(streaming, bounded memory)")
    run.add_argument("--compress", type=int, nargs="?", const=6,
                     default=None, metavar="LEVEL",
                     help="deflate the binary log's record blocks (MJBL "
                     "v2; zlib level 0-9, default 6 when the flag is "
                     "given bare; requires --record-binary)")

    log_stats = sub.add_parser(
        "log-stats", help="summarize a recorded MJBL event log"
    )
    log_stats.add_argument("file", type=Path, help="MJBL binary log")
    log_stats.add_argument("--verify", action="store_true",
                           help="also CRC-check the log's record region "
                           "(O(n))")

    synthlog = sub.add_parser(
        "synthlog",
        help="write a deterministic synthetic MJBL log (benchmarks, "
        "format experiments)",
    )
    synthlog.add_argument("out", type=Path, help="output .mjbl path")
    synthlog.add_argument("--events", type=int, default=100_000)
    synthlog.add_argument("--seed", type=int, default=2002)
    synthlog.add_argument("--threads", type=int, default=8)
    synthlog.add_argument("--objects", type=int, default=4096)
    synthlog.add_argument("--records-per-block", type=int, default=None,
                          metavar="N",
                          help="index block granularity (default: "
                          "writer default)")
    synthlog.add_argument("--compress", type=int, nargs="?", const=6,
                          default=None, metavar="LEVEL",
                          help="deflate record blocks (MJBL v2; zlib "
                          "level 0-9, default 6 when given bare)")

    explain = sub.add_parser(
        "explain", help="show the static phases' decisions"
    )
    explain.add_argument("file", type=Path)

    tables = sub.add_parser("tables", help="regenerate the paper's tables")
    tables.add_argument("--scale", type=int, default=4)
    tables.add_argument("--repeats", type=int, default=1)
    tables.add_argument("--output", type=Path, default=None,
                        help="write a markdown report instead of printing")

    serve = sub.add_parser(
        "serve",
        help="run the race-detection HTTP daemon (see docs/service.md)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: %(default)s)")
    serve.add_argument("--port", type=int, default=8787,
                       help="bind port; 0 picks a free port and prints it "
                       "(default: %(default)s)")
    serve.add_argument("--workers", type=int, default=2,
                       help="detection worker processes (default: "
                       "%(default)s)")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="pending-job queue bound; a full queue "
                       "answers 429 + Retry-After (default: %(default)s)")
    serve.add_argument("--timeout", type=float, default=30.0,
                       help="per-job wall-clock budget in seconds; an "
                       "overrunning job is killed and reported as "
                       "`timeout` (default: %(default)s)")
    serve.add_argument("--engine", choices=sorted(ENGINES),
                       default=DEFAULT_ENGINE,
                       help="execution engine the detection workers run "
                       "programs under (default: %(default)s)")

    difflab = sub.add_parser(
        "difflab",
        help="differential race-oracle lab (corpus check + fuzz campaign)",
    )
    difflab.add_argument("--engine", choices=sorted(ENGINES),
                         default=DEFAULT_ENGINE,
                         help="execution engine for corpus + campaign runs; "
                         "a non-ast engine is differentially checked "
                         "against the ast reference on every case "
                         "(default: %(default)s)")
    difflab.add_argument("--budget", default=None, metavar="TIME",
                         help='campaign time budget, e.g. "120s" or "2m" '
                         "(keeps drawing fuzz seeds until time is up)")
    difflab.add_argument("--programs", type=int, default=12,
                         help="fuzz program seeds without a budget "
                         "(0 skips the campaign; default: 12)")
    difflab.add_argument("--schedules", type=int, default=3,
                         help="schedules per program: round-robin plus "
                         "seeded random (default: 3)")
    difflab.add_argument("--seed0", type=int, default=0,
                         help="first fuzz program seed (default: 0)")
    difflab.add_argument("--corpus", type=Path, default=None, metavar="DIR",
                         help="reproducer corpus directory "
                         "(default: tests/corpus)")
    difflab.add_argument("--skip-corpus", action="store_true",
                         help="skip the committed-corpus verification phase")
    difflab.add_argument("--inject", default=None, metavar="NAME",
                         help="swap in a deliberately broken detector "
                         "(lab self-test); see --list-injections")
    difflab.add_argument("--list-injections", action="store_true",
                         help="list the available injected bugs and exit")
    difflab.add_argument("--no-shrink", action="store_true",
                         help="report violations without minimizing them")
    difflab.add_argument("--predict", choices=("shb", "hybrid"), default=None,
                         help="hunt the predictive discrepancy classes: "
                         "shrink the first case exhibiting "
                         "predicted-not-observed (and, with hybrid, "
                         "lockset-fp-refuted) into a reproducer with a "
                         "synthesized witness schedule, written to --out")
    difflab.add_argument("--sync-vocab", action="store_true",
                         help="fuzz with the wait/notify/barrier "
                         "vocabulary enabled")
    difflab.add_argument("--handoff-bias", action="store_true",
                         help="fuzz with condition-handoff-biased "
                         "programs (implies --sync-vocab)")
    difflab.add_argument("--out", type=Path, default=Path("difflab-out"),
                         metavar="DIR",
                         help="where shrunk violation reproducers are "
                         "written (default: ./difflab-out)")
    return parser


def _policy(seed):
    return RandomPolicy(seed) if seed is not None else RoundRobinPolicy()


def _compile(path: Path):
    try:
        source = path.read_text()
    except OSError as error:
        raise MJError(f"cannot read {path}: {error}") from error
    return compile_source(source, filename=str(path))


def cmd_check(args) -> int:
    if args.file is None and args.from_log is None:
        print("error: check needs an MJ program, a --from-log PATH, "
              "or both", file=sys.stderr)
        return 2
    stages = {}  # --phase-times: seconds per stage this path ran
    last = time.perf_counter()

    def lap(stage):
        nonlocal last
        now = time.perf_counter()
        stages[stage] = stages.get(stage, 0.0) + now - last
        last = now

    resolved = _compile(args.file) if args.file is not None else None
    planner = PlannerConfig(
        static_analysis=not args.no_static,
        static_weaker=not args.no_weaker,
        loop_peeling=not args.no_peeling,
    )
    plan = (
        plan_instrumentation(resolved, planner) if resolved is not None else None
    )
    detector_config = DetectorConfig(
        cache=not args.no_cache,
        ownership=not args.no_ownership,
        fields_merged=args.fields_merged,
    )
    post_mortem = (
        args.post_mortem
        or args.shards is not None
        or args.from_log is not None
        or args.predict is not None
    )
    shards = args.shards if args.shards is not None else 1
    if shards < 1:
        print("error: --shards must be positive", file=sys.stderr)
        return 2
    if args.report_json and (args.predict or args.phase_times):
        print("error: --report-json covers the race report only "
              "(drop --predict/--phase-times)",
              file=sys.stderr)
        return 2

    sharded = None
    result = None
    predictor = None
    predicted = set()
    observed = set()
    detector = None
    lap("load")
    if post_mortem:
        from .detector import detect_sharded
        from .runtime import RecordingSink, open_log

        if args.from_log is not None:
            # Detect over a pre-recorded MJBL log; open_log is the
            # single validation point (structural, O(1)).  Every pass
            # below replays the log through its replay_into.
            log = open_log(args.from_log)
            lap("load")
        else:
            log = RecordingSink()
            result = engine_runner(args.engine)(
                resolved,
                sink=log,
                trace_sites=plan.trace_sites,
                policy=_policy(args.seed),
            )
            lap("run")
        sharded = detect_sharded(
            log,
            shards,
            config=detector_config,
            resolved=resolved,
            static_races=plan.static_races if plan is not None else None,
            executor=args.executor,
            validate=False,  # recorded in-process or validated by open_log
        )
        lap("detect")
        reports = sharded.reports.reports
        funnel = sharded.stats
        cache_stats = sharded.cache_stats
        if args.predict is not None:
            from .baselines import HappensBeforeDetector
            from .detector.predict import predict_races

            predictor = predict_races(log, args.predict, validate=False)
            observed_hb = HappensBeforeDetector()
            log.replay_into(observed_hb)
            predicted = {
                str(location) for location in predictor.racy_locations
            }
            observed = {
                str(location) for location in observed_hb.racy_locations
            }
            lap("axes")
    else:
        detector = RaceDetector(
            config=detector_config,
            resolved=resolved,
            static_races=plan.static_races,
        )
        result = engine_runner(args.engine)(
            resolved,
            sink=detector,
            trace_sites=plan.trace_sites,
            policy=_policy(args.seed),
        )
        lap("run")
        reports = detector.reports.reports
        funnel = detector.stats
        cache_stats = detector.cache.stats if detector.cache else None
    if args.report_json:
        from .service.protocol import canonical_json, detection_report

        # The same builder + canonical encoding the daemon uses — the
        # CLI-vs-service byte-identity contract lives right here.
        print(canonical_json(detection_report(
            reports,
            funnel,
            cache_stats,
            output=result.output if result is not None else (),
        )))
        return 1 if reports else 0
    if result is not None:
        for line in result.output:
            print(f"[program] {line}")
    if reports:
        for report in reports:
            print(report.describe())
    else:
        print("no dataraces detected")
    if predictor is not None:
        if predicted:
            for location in sorted(predicted):
                marker = (
                    "also observed"
                    if location in observed
                    else "predicted only — not observed in this interleaving"
                )
                print(f"[{args.predict}] predicted race on {location} "
                      f"({marker})")
        else:
            print(f"[{args.predict}] no races predicted in reorderings "
                  f"of this trace")
    if args.stats:
        if plan is not None:
            print(f"instrumented sites: {plan.stats.sites_instrumented} of "
                  f"{plan.stats.sites_total} "
                  f"(+{plan.stats.sites_cloned_by_peeling} peeled clones, "
                  f"-{plan.stats.sites_eliminated_weaker} statically weaker)")
        print(f"funnel: {funnel.funnel()}")
        if cache_stats is not None:
            print(f"cache hit rate: {cache_stats.hit_rate:.1%}")
        if detector is not None and args.engine == "compiled":
            print(f"inline fast path: owned={detector.inline_owned} "
                  f"cache-hits={detector.inline_cache_hits}")
        if sharded is not None:
            print(f"post-mortem: {sharded.shard_summary()}")
            print(f"  accesses partitioned: {sharded.partitioned_accesses}; "
                  f"monitored locations (merged): "
                  f"{sharded.monitored_locations}; "
                  f"trie nodes (merged): {sharded.trie_nodes}")
    if args.phase_times:
        from .service.protocol import STAGES

        wall_seconds = sum(stages.values())
        print(f"phase times (wall {wall_seconds:.3f}s):")
        for stage in STAGES:
            if stage in stages:
                seconds = stages[stage]
                print(f"  {stage:<7} {seconds:.3f}s "
                      f"({100.0 * seconds / (wall_seconds or 1e-12):.0f}%)")
    return 1 if reports or predicted else 0


def cmd_run(args) -> int:
    if args.compress is not None and args.record_binary is None:
        print("error: --compress requires --record-binary", file=sys.stderr)
        return 2
    if args.compress is not None and not 0 <= args.compress <= 9:
        print("error: --compress level must be 0-9", file=sys.stderr)
        return 2
    resolved = _compile(args.file)
    sink = None
    if args.record_binary is not None:
        from .runtime import BinaryLogSink

        sink = BinaryLogSink(args.record_binary, compress=args.compress)
    try:
        result = engine_runner(args.engine)(
            resolved, sink=sink, policy=_policy(args.seed)
        )
    finally:
        # A run that raises (a deadlock, an MJ runtime error) never
        # reaches run-end; closing here still finalizes the events
        # recorded so far into a valid log.  Idempotent otherwise.
        if sink is not None:
            sink.close()
    for line in result.output:
        print(line)
    if sink is not None:
        flavor = (
            "binary"
            if args.compress is None
            else f"binary v2, deflate level {args.compress}"
        )
        print(f"[recorded] {sink.record_count} events -> "
              f"{args.record_binary} ({args.record_binary.stat().st_size} "
              f"bytes, {flavor})", file=sys.stderr)
    return 0


def cmd_log_stats(args) -> int:
    from .runtime import open_log
    from .runtime.binlog import LogStatsSink

    with open_log(args.file) as log:
        if args.verify:
            log.verify()
            print("crc: ok")
        stats = LogStatsSink()
        log.replay_into(stats)
        block_stats = log.block_stats()
        print(f"format: binary (MJBL v{log.version}, "
              f"{block_stats['blocks']} index blocks, "
              f"{len(log.strings)} interned strings)")
        print(f"block fill: mean {block_stats['mean_fill']:.2%} "
              f"(min {block_stats['min_fill']:.2%}, "
              f"max {block_stats['max_fill']:.2%}) of "
              f"{block_stats['records_per_block']} records/block")
        if block_stats["compressed_blocks"]:
            print(f"compression: {block_stats['compressed_blocks']}/"
                  f"{block_stats['blocks']} blocks deflated, "
                  f"{block_stats['compression_ratio']:.2f}x "
                  f"record-region ratio "
                  f"({block_stats['raw_record_bytes']} raw -> "
                  f"{block_stats['stored_record_bytes']} stored)")
    events = stats.events
    print(f"events: {events}")
    for tag, count in stats.counts.items():
        if count:
            print(f"  {tag:<8} {count}")
    print(f"  reads/writes: {stats.reads}/{stats.writes}")
    print(f"distinct locations: {len(stats.locations)}")
    print(f"distinct threads:   {len(stats.threads)}")
    print(f"distinct locks:     {len(stats.locks)}")
    print(f"distinct conditions:{len(stats.conditions):>5}")
    if events:
        print(f"bytes/event: {args.file.stat().st_size / events:.1f} on disk")
    return 0


def cmd_synthlog(args) -> int:
    if args.compress is not None and not 0 <= args.compress <= 9:
        print("error: --compress level must be 0-9", file=sys.stderr)
        return 2
    if args.events <= 0:
        print("error: --events must be positive", file=sys.stderr)
        return 2
    from .runtime.synthlog import synthesize_file

    try:
        count = synthesize_file(
            args.out,
            args.events,
            compress=args.compress,
            records_per_block=args.records_per_block,
            threads=args.threads,
            objects=args.objects,
            seed=args.seed,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    size = args.out.stat().st_size
    flavor = (
        "MJBL v1"
        if args.compress is None
        else f"MJBL v2, deflate level {args.compress}"
    )
    print(f"[synthlog] {count} events -> {args.out} ({size} bytes, "
          f"{size / count:.1f} bytes/event, {flavor})", file=sys.stderr)
    return 0


def cmd_explain(args) -> int:
    resolved = _compile(args.file)
    plan = plan_instrumentation(resolved, PlannerConfig())
    races = plan.static_races
    print(f"access sites:            {plan.stats.sites_total}")
    print(f"static datarace set:     {races.stats.sites_racy} sites")
    print(f"  pairs checked:         {races.stats.pairs_checked}")
    print(f"  pruned (escape):       {races.stats.pairs_pruned_escape}")
    print(f"  pruned (same thread):  {races.stats.pairs_pruned_same_thread}")
    print(f"  pruned (common sync):  {races.stats.pairs_pruned_common_sync}")
    print(f"loops peeled:            {plan.stats.loops_peeled}")
    print(f"statically weaker sites: {plan.stats.sites_eliminated_weaker}")
    print(f"instrumented:            {plan.stats.sites_instrumented}")
    print("\ninstrumented sites:")
    for site_id in sorted(plan.trace_sites):
        print(f"  {resolved.sites[site_id].descriptor}")
    if plan.eliminations:
        print("\neliminated (justified by a weaker site):")
        for gone, justifier in sorted(plan.eliminations.items()):
            print(f"  {resolved.sites[gone].descriptor}")
            print(f"    <= {resolved.sites[justifier].descriptor}")
    return 0


def cmd_tables(args) -> int:
    from .harness import table1, table2, table2_events, table3

    if args.output is not None:
        from .harness import write_report

        target = write_report(
            args.output, scale=args.scale, repeats=args.repeats
        )
        print(f"wrote {target}")
        return 0
    from .workloads import BENCHMARKS, TABLE2_BENCHMARKS

    print("TABLE 1")
    print(table1(list(BENCHMARKS.values()), scale=args.scale))
    print("\nTABLE 2")
    rendered, raw = table2(
        list(TABLE2_BENCHMARKS.values()),
        scale=args.scale,
        repeats=args.repeats,
    )
    print(rendered)
    print("\nTABLE 2 (events)")
    print(table2_events(raw))
    print("\nTABLE 3")
    rendered3, _ = table3(list(BENCHMARKS.values()), scale=args.scale)
    print(rendered3)
    return 0


def _parse_budget(text):
    """``"120s"`` / ``"2m"`` / ``"90"`` → seconds (float)."""
    text = text.strip().lower()
    factor = 1.0
    if text.endswith("ms"):
        factor, text = 0.001, text[:-2]
    elif text.endswith("s"):
        text = text[:-1]
    elif text.endswith("m"):
        factor, text = 60.0, text[:-1]
    elif text.endswith("h"):
        factor, text = 3600.0, text[:-1]
    try:
        value = float(text) * factor
    except ValueError:
        raise MJError(f"cannot parse budget {text!r} (try '120s' or '2m')")
    if value <= 0:
        raise MJError("budget must be positive")
    return value


def cmd_difflab(args) -> int:
    import json

    from .difflab import (
        DEFAULT_CORPUS,
        INJECTIONS,
        run_campaign,
        verify_corpus,
    )

    if args.list_injections:
        for name, injection in sorted(INJECTIONS.items()):
            print(f"{name}: {injection.description}")
        return 0
    injection = None
    if args.inject is not None:
        injection = INJECTIONS.get(args.inject)
        if injection is None:
            print(f"error: unknown injection {args.inject!r} "
                  f"(have: {', '.join(sorted(INJECTIONS))})", file=sys.stderr)
            return 2

    failed = False

    if not args.skip_corpus:
        directory = args.corpus if args.corpus is not None else DEFAULT_CORPUS
        entries, problems = verify_corpus(directory, engine=args.engine)
        covered = sorted({klass for e in entries for klass in e.classes})
        print(f"corpus: {len(entries)} entries from {directory}")
        for entry in entries:
            classes = ", ".join(entry.classes) if entry.classes else "-"
            print(f"  {entry.name} [{entry.fingerprint}] "
                  f"schedule={entry.schedule.describe()} classes={classes}")
        if problems:
            failed = True
            for problem in problems:
                print(f"  CORPUS PROBLEM {problem}")
        else:
            print(f"corpus: zero violations; expected classes reproduced: "
                  f"{', '.join(covered)}")

    fuzzer_kwargs = {}
    if args.handoff_bias:
        fuzzer_kwargs["handoff_bias"] = True
    elif args.sync_vocab:
        fuzzer_kwargs["sync_vocab"] = True

    hunt_classes = None
    if args.predict == "shb":
        hunt_classes = frozenset({"predicted-not-observed"})
    elif args.predict == "hybrid":
        hunt_classes = frozenset(
            {"predicted-not-observed", "lockset-fp-refuted"}
        )

    budget = _parse_budget(args.budget) if args.budget is not None else None
    if budget is not None or args.programs > 0:
        result = run_campaign(
            programs=args.programs,
            schedules=args.schedules,
            budget=budget,
            seed0=args.seed0,
            fuzzer_kwargs=fuzzer_kwargs or None,
            detector_factory=injection.factory if injection else None,
            config=injection.config if injection else None,
            shrink=not args.no_shrink,
            progress=lambda message: print(f"  .. {message}"),
            engine=args.engine,
            hunt_classes=hunt_classes,
        )
        print(result.summary())
        if result.finds:
            args.out.mkdir(parents=True, exist_ok=True)
            for find in result.finds:
                stem = args.out / f"find-{find.klass}-{find.fingerprint}"
                stem.with_suffix(".mj").write_text(find.source)
                stem.with_suffix(".json").write_text(json.dumps({
                    "fingerprint": find.fingerprint,
                    "class": find.klass,
                    "schedule": find.schedule.to_json(),
                    "original_label": find.original_label,
                    "shrink": find.stats.describe(),
                    "items": list(find.items),
                    "witness": find.witness,
                }, indent=2) + "\n")
                print(f"wrote {stem.with_suffix('.mj')}")
        if result.violations:
            failed = True
            args.out.mkdir(parents=True, exist_ok=True)
            for violation in result.violations:
                stem = args.out / violation.fingerprint
                stem.with_suffix(".mj").write_text(violation.source)
                stem.with_suffix(".json").write_text(json.dumps({
                    "fingerprint": violation.fingerprint,
                    "classes": list(violation.classes),
                    "schedule": violation.schedule.to_json(),
                    "original_label": violation.original_label,
                    "shrink": violation.stats.describe(),
                    "discrepancies": [
                        d.describe() for d in violation.discrepancies
                    ],
                }, indent=2) + "\n")
                print(f"wrote {stem.with_suffix('.mj')}")
        if result.errors:
            failed = True
    return 1 if failed else 0


def cmd_serve(args) -> int:
    from .service import ServeConfig, serve_forever

    if args.workers < 1:
        print("error: --workers must be positive", file=sys.stderr)
        return 2
    if args.queue_depth < 1:
        print("error: --queue-depth must be positive", file=sys.stderr)
        return 2
    if args.timeout <= 0:
        print("error: --timeout must be positive", file=sys.stderr)
        return 2
    return serve_forever(ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        timeout=args.timeout,
        engine=args.engine,
    ))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "check": cmd_check,
        "run": cmd_run,
        "log-stats": cmd_log_stats,
        "synthlog": cmd_synthlog,
        "explain": cmd_explain,
        "tables": cmd_tables,
        "serve": cmd_serve,
        "difflab": cmd_difflab,
    }
    from .runtime import (
        LogCorruptError,
        LogNotFoundError,
        LogSchemaError,
        LogSchemaMismatchError,
    )

    # The log-error taxonomy maps to distinct exit codes so scripts can
    # branch without parsing messages: 2 = not found (or any usage /
    # compile error), 3 = corrupt or truncated (the message carries the
    # byte offset of the first damage), 4 = schema mismatch (intact
    # bytes, wrong recording schema).  ``repro serve`` maps the same
    # classes to 404 / 422 / 400.
    try:
        return handlers[args.command](args)
    except LogNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except LogCorruptError as error:
        print(f"error: corrupt event log: {error}", file=sys.stderr)
        return 3
    except LogSchemaMismatchError as error:
        print(f"error: event-log schema mismatch: {error}", file=sys.stderr)
        return 4
    except (MJError, LogSchemaError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
