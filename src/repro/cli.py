"""Command-line interface: ``python -m repro <command>``.

Three commands cover the zero-to-working workflow:

``detect``
    Print the detected dialect of a CSV file.
``classify``
    Train a Strudel pipeline on a generated corpus personality and
    print every line of the input file with its predicted class
    (``--cells`` adds the per-cell view).  Pointed at a *directory*
    or a container (zip/tar archive, NDJSON stream, XML document), it
    enumerates every table source through the adapters in
    :mod:`repro.io.adapters` — recursively, case-insensitively, with
    per-source provenance like ``lake/arch.zip!a.csv`` — and sweeps
    them through the persistent-worker corpus engine instead
    (``--jobs`` for parallel workers, ``--sweep-cache`` for the
    content-addressed result cache).
``generate``
    Materialize a corpus personality on disk as CSV files plus JSON
    ground-truth annotations, for experimentation outside Python.
``lint``
    Run the repro static-analysis rules (R001–R006) over source
    trees; exits 1 when there are findings, for use as a CI gate.
``fuzz``
    Run the seeded byte-level ingestion fuzz harness and fail if any
    input escapes the ``Table``-or-``ReproError`` contract;
    ``--adapters`` fuzzes mutated zip/tar/NDJSON/XML containers
    through the source-adapter layer instead.  See
    ``docs/robustness.md``.
``serve``
    Train a pipeline, then run the long-lived classification service
    (``repro-serve/1`` newline-delimited JSON over TCP) until
    SIGINT/SIGTERM, draining gracefully; failures land in the
    ``--dlq`` dead-letter queue.  See ``docs/serving.md``.
``dlq``
    Operate on a dead-letter queue: ``list`` its records, ``replay``
    them back through a fresh engine (recovered records are removed),
    or ``purge`` it.

The ``detect``, ``classify``, ``serve`` and ``dlq`` commands accept
``--trace FILE`` (and ``--trace-format json|text``) to write a span
trace plus a metrics snapshot of the run; the ``REPRO_TRACE`` /
``REPRO_TRACE_FORMAT`` environment variables do the same without
touching the command line.  See ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import repro
from repro.analysis import lint_paths, render_json, render_text
from repro.errors import (
    AnalysisError,
    ConfigurationError,
    IngestError,
    ServeError,
)
from repro.core.strudel import StrudelPipeline
from repro.datagen.corpora import CORPUS_BUILDERS, make_corpus
from repro.fuzz import FuzzConfig, format_fuzz_report, run_fuzz
from repro.io.adapters import (
    SOURCE_SUFFIXES,
    adapter_for,
    is_container_name,
)
from repro.io.annotations import save_annotated_file
from repro.io.ingest import IngestPolicy, IngestResult, ingest_path
from repro.io.writer import write_csv_text
from repro.perf.engine import CorpusEngine
from repro.serve import (
    ClassificationService,
    DeadLetterQueue,
    replay_dead_letters,
    run_service,
)
from repro.obs import (
    TRACE_FORMATS,
    Tracer,
    activate,
    get_metrics,
    write_trace,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Strudel — structure detection in verbose CSV files",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    detect = commands.add_parser(
        "detect", help="detect the dialect of a CSV file"
    )
    detect.add_argument("file", type=Path)
    _add_ingest_flags(detect)
    _add_trace_flags(detect)

    classify = commands.add_parser(
        "classify",
        help="classify the lines (and cells) of a CSV file, or sweep "
             "a whole directory of them through the corpus engine",
    )
    classify.add_argument("file", type=Path)
    _add_training_flags(classify)
    classify.add_argument(
        "--cells", action="store_true",
        help="also print cell classes for mixed lines",
    )
    classify.add_argument(
        "--sweep-cache", type=Path, default=None, metavar="DIR",
        help="directory-sweep result cache (content-addressed; "
             "re-sweeping unchanged files is near-free)",
    )
    classify.add_argument(
        "--fail-on-skip", action="store_true",
        help="exit 1 if any file in a directory sweep was skipped "
             "(default: report skips but exit 0)",
    )
    _add_ingest_flags(classify)
    _add_trace_flags(classify)

    serve = commands.add_parser(
        "serve",
        help="run the long-lived classification service "
             "(repro-serve/1 over TCP) until SIGINT/SIGTERM",
    )
    _add_training_flags(serve)
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="listen address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=7333,
        help="listen port; 0 picks an ephemeral port, printed on "
             "startup (default: 7333)",
    )
    serve.add_argument(
        "--sweep-cache", type=Path, default=None, metavar="DIR",
        help="content-addressed result cache shared with classify "
             "sweeps",
    )
    serve.add_argument(
        "--dlq", type=Path, default=None, metavar="DIR",
        help="dead-letter queue directory; every failed request is "
             "recorded there for `repro dlq replay`",
    )
    serve.add_argument(
        "--queue-size", type=int, default=256,
        help="submission queue bound — the backpressure knob "
             "(default: 256)",
    )
    _add_ingest_flags(serve)
    _add_trace_flags(serve)

    dlq = commands.add_parser(
        "dlq", help="list, replay or purge a dead-letter queue"
    )
    dlq.add_argument(
        "action", choices=("list", "replay", "purge"),
        help="list records, replay them through a fresh engine, or "
             "delete them all",
    )
    dlq.add_argument(
        "--dlq", type=Path, required=True, metavar="DIR",
        help="dead-letter queue directory",
    )
    _add_training_flags(dlq)
    _add_ingest_flags(dlq)
    _add_trace_flags(dlq)

    generate = commands.add_parser(
        "generate", help="write a generated corpus to a directory"
    )
    generate.add_argument("corpus", choices=sorted(CORPUS_BUILDERS))
    generate.add_argument("output", type=Path)
    generate.add_argument("--scale", type=float, default=0.1)
    generate.add_argument("--seed", type=int, default=0)

    lint = commands.add_parser(
        "lint", help="run the repro static-analysis rules"
    )
    lint.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories (default: the installed repro "
             "package)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--select", action="append",
        help="rule ids to run; comma-separated and/or repeated "
             "(--select R002,R101 --select R005; default: all)",
    )
    lint.add_argument(
        "--no-graph", action="store_true",
        help="skip the whole-program rules (R101-R105); per-module "
             "rules only",
    )

    fuzz = commands.add_parser(
        "fuzz",
        help="run the seeded byte-level ingestion fuzz harness",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--iterations", type=int, default=500,
        help="number of mutated inputs to ingest (default: 500)",
    )
    fuzz.add_argument(
        "--corpus", default="saus", choices=sorted(CORPUS_BUILDERS),
        help="corpus personality seeding the base inputs "
             "(default: saus)",
    )
    fuzz.add_argument(
        "--scale", type=float, default=0.02,
        help="base corpus scale (default: 0.02)",
    )
    fuzz.add_argument(
        "--max-printed-failures", type=int, default=10,
        help="cap on failure details printed (default: 10)",
    )
    fuzz.add_argument(
        "--adapters", action="store_true",
        help="fuzz the source-adapter layer instead: build seeded "
             "zip/tar/NDJSON/XML containers, byte-mutate them, and "
             "require typed errors from enumeration + ingest",
    )
    return parser


def _add_training_flags(subparser: argparse.ArgumentParser) -> None:
    """The pipeline-training knobs shared by classify, serve and dlq
    replay."""
    subparser.add_argument(
        "--corpus", default="saus", choices=sorted(CORPUS_BUILDERS),
        help="training corpus personality (default: saus)",
    )
    subparser.add_argument("--scale", type=float, default=0.15,
                           help="training corpus scale (default: 0.15)")
    subparser.add_argument("--trees", type=int, default=40,
                           help="random forest size (default: 40)")
    subparser.add_argument("--seed", type=int, default=0)
    subparser.add_argument(
        "--jobs", type=int, default=1,
        help="worker count for training and classification; never "
             "changes predictions (default: 1)",
    )


def _add_trace_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--trace", type=Path, default=None, metavar="FILE",
        help="write a span trace + metrics snapshot of this run to "
             "FILE (also enabled by the REPRO_TRACE environment "
             "variable)",
    )
    subparser.add_argument(
        "--trace-format", choices=TRACE_FORMATS, default=None,
        help="trace file format (default: json; env: "
             "REPRO_TRACE_FORMAT)",
    )


def _resolve_trace(
    args: argparse.Namespace,
) -> tuple[Path | None, str]:
    """The trace destination and format for this invocation.

    Command-line flags win; the ``REPRO_TRACE`` and
    ``REPRO_TRACE_FORMAT`` environment variables fill in whatever the
    flags left unset (and cover commands without trace flags).
    """
    path = getattr(args, "trace", None)
    if path is None:
        env_path = os.environ.get("REPRO_TRACE")
        path = Path(env_path) if env_path else None
    fmt = getattr(args, "trace_format", None)
    if fmt is None:
        fmt = os.environ.get("REPRO_TRACE_FORMAT") or "json"
    return path, fmt


def _add_ingest_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--strict", action="store_true",
        help="reject damaged input (bad encoding, NULs, unterminated "
             "quotes, oversize) instead of repairing it",
    )
    subparser.add_argument(
        "--encoding", default=None,
        help="preferred encoding, tried before UTF-8 (a BOM still "
             "wins); default: auto-detect",
    )


def _build_policy(args: argparse.Namespace) -> IngestPolicy:
    """The ingest policy from the CLI flags.  Construction validates
    encoding names, so a typo'd ``--encoding uft-8`` raises a typed
    :class:`~repro.errors.EncodingError` here (exit 2 at every call
    site) instead of being silently skipped during decoding."""
    return IngestPolicy(
        strict=args.strict, encoding=args.encoding or None
    )


def _ingest_input(args: argparse.Namespace) -> IngestResult:
    """Route a CLI file argument through the hardened ingestion stage,
    surfacing every repair as a warning line on stderr."""
    policy = _build_policy(args)
    result = ingest_path(args.file, policy=policy)
    for note in result.report.warnings():
        print(f"repro: {args.file}: {note}", file=sys.stderr)
    return result


def _cmd_detect(args: argparse.Namespace, out) -> int:
    try:
        ingested = _ingest_input(args)
    except IngestError as error:
        print(f"repro: {args.file}: {error}", file=sys.stderr)
        return 2
    print(ingested.dialect.describe(), file=out)
    return 0


def _train_pipeline(args: argparse.Namespace, out) -> StrudelPipeline:
    """Fit the classify command's pipeline on a generated corpus."""
    print(
        f"training on corpus={args.corpus} scale={args.scale:g} "
        f"trees={args.trees} ...",
        file=out,
    )
    corpus = make_corpus(args.corpus, seed=args.seed, scale=args.scale)
    pipeline = StrudelPipeline(
        n_estimators=args.trees, random_state=args.seed,
        n_jobs=args.jobs,
    )
    return pipeline.fit(corpus.files)


def _cmd_sweep(args: argparse.Namespace, out) -> int:
    """Lake mode of ``classify``: the source adapters list every
    ingestable source under the path — a recursive, case-insensitive
    crawl — and one engine sweep enumerates them, opening zip/tar
    archives, NDJSON logs and XML dumps, and classifies the payloads.
    The summary reports enumerated vs classified, so nothing
    disappears silently."""
    try:
        policy = _build_policy(args)
        candidates = adapter_for(args.file, policy).candidates()
    except IngestError as error:
        print(f"repro: {args.file}: {error}", file=sys.stderr)
        return 2
    if not candidates:
        print(
            f"repro: {args.file}: no ingestable sources "
            f"(recognised suffixes: {', '.join(SOURCE_SUFFIXES)})",
            file=sys.stderr,
        )
        return 2
    pipeline = _train_pipeline(args, out)
    prefix = f"{args.file}{os.sep}"
    with CorpusEngine(
        pipeline,
        n_jobs=args.jobs,
        policy=policy,
        cache_dir=args.sweep_cache,
    ) as engine:
        run = engine.sweep(candidates)
        for _path, result in run:
            counts: dict[str, int] = {}
            for klass in result.line_classes():
                counts[klass.value] = counts.get(klass.value, 0) + 1
            summary = " ".join(
                f"{name}={counts[name]}" for name in sorted(counts)
            )
            display = result.provenance
            if display.startswith(prefix):
                display = display[len(prefix):]
            print(
                f"{display}: {result.n_rows}x{result.n_cols} "
                f"[{result.dialect.describe()}] {summary}",
                file=out,
            )
    report = run.report
    print(
        f"swept {report.completed}/{report.files} sources "
        f"({report.cache_hits} cached, {len(report.skipped)} skipped, "
        f"{report.batches} batches)",
        file=out,
    )
    for entry in report.skipped:
        print(
            f"repro: skipped {entry.path} [{entry.stage}]: "
            f"{entry.reason}",
            file=sys.stderr,
        )
    if args.fail_on_skip and report.skipped:
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace, out) -> int:
    try:
        policy = _build_policy(args)
    except IngestError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2
    pipeline = _train_pipeline(args, out)
    dlq = DeadLetterQueue(args.dlq) if args.dlq is not None else None
    try:
        service = ClassificationService(
            pipeline,
            n_jobs=args.jobs,
            policy=policy,
            sweep_cache=args.sweep_cache,
            dlq=dlq,
            queue_size=args.queue_size,
        )
    except ServeError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2
    summary = run_service(
        service, host=args.host, port=args.port, out=out
    )
    print(
        f"served {summary['results']}/{summary['requests']} requests "
        f"({summary['dead_letters']} dead-lettered)",
        file=out,
    )
    return 0


def _cmd_dlq(args: argparse.Namespace, out) -> int:
    queue = DeadLetterQueue(args.dlq)
    if args.action == "list":
        records = queue.records()
        for record in records:
            sha = record.payload_sha256 or "-"
            print(
                f"{record.request_id}\t{record.stage}\t"
                f"{record.source}\t{sha[:12]}\treplays="
                f"{record.replays}\t{record.reason}",
                file=out,
            )
        print(f"{len(records)} dead letter(s) in {args.dlq}", file=out)
        return 0
    if args.action == "purge":
        count = queue.purge()
        print(f"purged {count} dead letter(s) from {args.dlq}", file=out)
        return 0
    if not len(queue):
        print(f"nothing to replay in {args.dlq}", file=out)
        return 0
    try:
        policy = _build_policy(args)
    except IngestError as error:
        print(f"repro dlq: {error}", file=sys.stderr)
        return 2
    pipeline = _train_pipeline(args, out)
    with CorpusEngine(
        pipeline, n_jobs=args.jobs, policy=policy
    ) as engine:
        report = replay_dead_letters(queue, engine)
    print(report.summary(), file=out)
    return 0 if not report.still_dead else 1


def _cmd_classify(args: argparse.Namespace, out) -> int:
    if args.file.is_dir() or is_container_name(args.file.name):
        # Directories and container files (zip/tar/ndjson/xml) sweep
        # through the adapter layer; loose files classify inline.
        return _cmd_sweep(args, out)
    try:
        ingested = _ingest_input(args)
    except IngestError as error:
        print(f"repro: {args.file}: {error}", file=sys.stderr)
        return 2
    pipeline = _train_pipeline(args, out)
    result = pipeline.analyze(ingested.text, dialect=ingested.dialect)

    print(f"dialect: {result.dialect.describe()}", file=out)
    for i in range(result.table.n_rows):
        label = result.line_classes[i].value
        preview = ",".join(result.table.row(i))
        if len(preview) > 60:
            preview = preview[:57] + "..."
        print(f"{label:<9} {preview}", file=out)

    if args.cells:
        print("\nmixed lines (cell-level view):", file=out)
        for i in range(result.table.n_rows):
            line_cells = {
                j: klass
                for (row, j), klass in result.cell_classes.items()
                if row == i
            }
            classes = set(line_cells.values())
            if len(classes) <= 1:
                continue
            rendered = ", ".join(
                f"col{j}={klass.value}"
                for j, klass in sorted(line_cells.items())
            )
            print(f"  line {i}: {rendered}", file=out)
    return 0


def _cmd_generate(args: argparse.Namespace, out) -> int:
    corpus = make_corpus(args.corpus, seed=args.seed, scale=args.scale)
    csv_dir = args.output / "csv"
    truth_dir = args.output / "annotations"
    csv_dir.mkdir(parents=True, exist_ok=True)
    truth_dir.mkdir(parents=True, exist_ok=True)
    for annotated in corpus.files:
        (csv_dir / f"{annotated.name}.csv").write_text(
            write_csv_text(annotated.table.rows()), encoding="utf-8"
        )
        save_annotated_file(
            annotated, truth_dir / f"{annotated.name}.json"
        )
    print(
        f"wrote {len(corpus)} files ({corpus.total_lines()} lines, "
        f"{corpus.total_cells()} cells) to {args.output}",
        file=out,
    )
    return 0


def _cmd_lint(args: argparse.Namespace, out) -> int:
    paths = args.paths or [Path(repro.__file__).parent]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for path in missing:
            print(f"repro lint: no such path: {path}", file=sys.stderr)
        return 2
    select = (
        [s for chunk in args.select for s in chunk.split(",") if s.strip()]
        if args.select
        else None
    )
    try:
        findings = lint_paths(paths, select=select, graph=not args.no_graph)
    except (AnalysisError, ConfigurationError) as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(findings), file=out)
    else:
        print(render_text(findings), file=out)
    return 1 if findings else 0


def _cmd_fuzz(args: argparse.Namespace, out) -> int:
    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        corpus=args.corpus,
        scale=args.scale,
        adapters=args.adapters,
    )
    target = "source adapters" if config.adapters else "ingestion"
    print(
        f"fuzzing {target} (seed={config.seed}, "
        f"iterations={config.iterations}, corpus={config.corpus}) ...",
        file=out,
    )
    report = run_fuzz(config)
    print(
        format_fuzz_report(
            report, max_failures=args.max_printed_failures
        ),
        file=out,
    )
    return 0 if report.ok else 1


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    handlers = {
        "detect": _cmd_detect,
        "classify": _cmd_classify,
        "generate": _cmd_generate,
        "lint": _cmd_lint,
        "fuzz": _cmd_fuzz,
        "serve": _cmd_serve,
        "dlq": _cmd_dlq,
    }
    trace_path, trace_format = _resolve_trace(args)
    if trace_path is None:
        return handlers[args.command](args, out)
    if trace_format not in TRACE_FORMATS:
        print(
            f"repro: unknown trace format {trace_format!r} "
            f"(expected one of {', '.join(TRACE_FORMATS)})",
            file=sys.stderr,
        )
        return 2
    tracer = Tracer()
    with activate(tracer):
        with tracer.span(args.command):
            exit_code = handlers[args.command](args, out)
    write_trace(
        trace_path, tracer, metrics=get_metrics(), fmt=trace_format
    )
    print(f"trace written to {trace_path}", file=sys.stderr)
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
