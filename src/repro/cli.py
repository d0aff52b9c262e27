"""Command-line interface for the DTDBD reproduction.

Usage (after ``pip install -e .``)::

    python -m repro.cli stats   --dataset chinese --scale 1.0
    python -m repro.cli audit   --scale 0.3 --epochs 8
    python -m repro.cli compare --dataset chinese --baselines textcnn m3fend --output out.json
    python -m repro.cli ablation --students textcnn_s --output ablation.json
    python -m repro.cli case-study --scale 0.25
    python -m repro.cli export  --out detector --dtdbd --scale 0.1 --epochs 4
    python -m repro.cli predict --pipeline detector --text "breaking dom3_topic17 ..."
    python -m repro.cli backends
    python -m repro.cli verify  --pipeline detector
    python -m repro.cli serve   --pipeline detector --workers 2 --port 8080
    python -m repro.cli sweep   --tables table4 table5 --jobs 2 --journal runs/j1
    python -m repro.cli sweep   --journal runs/j1 --resume

Every table subcommand prints the corresponding paper-layout table and
optionally writes the raw results as JSON (``--output``).  ``export`` trains a
detector (a baseline, or the full DTDBD student with ``--dtdbd``) and bundles
it into a ``repro.serve`` pipeline artifact; ``predict`` loads such an
artifact in a fresh process — no training-time state — and scores raw text.

Environment variables: ``REPRO_SCALE`` / ``REPRO_SCALE_EN`` (corpus scale),
``REPRO_EPOCHS`` (training epochs), ``REPRO_DTYPE`` (``float64`` default;
``float32`` runs the whole pipeline — loaders, models, training — on the
engine's fast path, see ``PERFORMANCE.md``) and ``REPRO_ENCODER_BACKEND``
(``local`` default; ``backends`` lists the registered kinds).

Every command runs BLAS and OpenMP on one thread, in its own process and in
the sweep and serve workers it spawns, so the committed tables regenerate
byte for byte on any host; it exits with status 2 if the loaded OpenBLAS
still reports another thread count.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import TABLE3_MODELS, case_study_summary
from repro.data import dataset_statistics_table, imbalance_summary
from repro.experiments import (
    TABLE6_BASELINES,
    TABLE7_BASELINES,
    experiment_config,
    format_bias_audit,
    format_case_study,
    format_compact_table,
    format_comparison_table,
    format_dataset_statistics,
    prepare_data,
    run_comparison,
    run_figure3_case_study,
    run_table3,
    run_table8_ablation,
    run_table9_dat_comparison,
)
from repro.experiments.io import save_results
from repro.utils import pin_blas_threads


def _config_overrides(args) -> dict:
    """The config overrides the common options name (unset ones are left out)."""
    overrides = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if getattr(args, "encoder_backend", None) is not None:
        overrides["encoder_backend"] = args.encoder_backend
    return overrides


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=("chinese", "english"), default="chinese")
    parser.add_argument("--scale", type=float, default=None,
                        help="fraction of the paper-sized corpus (default per dataset)")
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--encoder-backend", type=str, default=None,
                        help="encoder backend kind for the plm channel "
                             "(see 'backends'; default: local, or "
                             "REPRO_ENCODER_BACKEND)")
    parser.add_argument("--output", type=str, default=None,
                        help="write raw results to this JSON file")


def _maybe_save(results, args) -> None:
    if args.output:
        save_results(results, args.output)
        print(f"\n[saved results to {args.output}]")


def cmd_stats(args) -> int:
    config = experiment_config(args.dataset, _config_overrides(args))
    bundle = prepare_data(config)
    table = dataset_statistics_table(bundle.dataset)
    print(format_dataset_statistics(table, title=f"{args.dataset} dataset statistics"))
    summary = imbalance_summary(bundle.dataset)
    print(f"\n%News spread: {summary['news_share_spread']:.1f} points, "
          f"%Fake spread: {summary['fake_ratio_spread']:.1f} points")
    _maybe_save({"statistics": table, "imbalance": summary}, args)
    return 0


def cmd_audit(args) -> int:
    config = experiment_config(args.dataset, _config_overrides(args))
    bundle = prepare_data(config)
    audit = run_table3(config, models=tuple(args.models), bundle=bundle)
    print(format_bias_audit(audit))
    _maybe_save({"table": audit.as_table(), "skew": audit.skew_summary()}, args)
    return 0


def cmd_compare(args) -> int:
    config = experiment_config(args.dataset, _config_overrides(args))
    bundle = prepare_data(config)
    if args.baselines:
        baselines = tuple(args.baselines)
    else:
        baselines = TABLE6_BASELINES if args.dataset == "chinese" else TABLE7_BASELINES
    reports = run_comparison(config, baselines=baselines,
                             include_dtdbd=not args.no_dtdbd, bundle=bundle)
    print(format_comparison_table(reports, bundle.dataset.domain_names,
                                  title=f"{args.dataset} comparison"))
    _maybe_save(reports, args)
    return 0


def cmd_ablation(args) -> int:
    config = experiment_config(args.dataset, _config_overrides(args))
    bundle = prepare_data(config)
    # Each table starts from a reseeded bundle, as its sweep cell does, so
    # Table IX does not continue the shuffle streams Table VIII used.
    bundle.reseed()
    results = run_table8_ablation(config, student_names=tuple(args.students), bundle=bundle)
    for student, rows in results.items():
        print(format_compact_table(rows, title=f"Ablation ({student})"))
        print()
    bundle.reseed()
    dat = run_table9_dat_comparison(config, student_names=tuple(args.students), bundle=bundle)
    for student, rows in dat.items():
        print(format_compact_table(rows, title=f"DAT vs DAT-IE ({student})"))
        print()
    _maybe_save({"components": results, "dat": dat}, args)
    return 0


def cmd_case_study(args) -> int:
    config = experiment_config(args.dataset, _config_overrides(args))
    bundle = prepare_data(config)
    rows = run_figure3_case_study(config, bundle=bundle)
    print(format_case_study(rows))
    print("\nSummary:")
    for model, stats in case_study_summary(rows).items():
        print(f"  {model:10s} accuracy={stats['accuracy']:.2f} "
              f"confidence={stats['mean_confidence_true_label']:.3f}")
    _maybe_save([row.as_dict() for row in rows], args)
    return 0


def cmd_export(args) -> int:
    from repro.experiments import export_pipeline, train_baseline, train_dtdbd_student, train_unbiased

    config = experiment_config(args.dataset, _config_overrides(args))
    bundle = prepare_data(config)
    model_name = args.model or config.student_name
    if args.dtdbd:
        unbiased, _ = train_unbiased(bundle, student_name=model_name)
        clean, _ = train_baseline(args.teacher, bundle, seed_offset=300)
        model, report, _ = train_dtdbd_student(bundle, unbiased, clean,
                                               student_name=model_name)
        method = f"dtdbd({model_name}, teacher={args.teacher})"
    else:
        model, report = train_baseline(model_name, bundle)
        method = f"baseline({model_name})"
    path = export_pipeline(model, bundle, args.out,
                           metadata={"method": method, "test_f1": report.overall_f1})
    print(f"[exported {method} -> {path}]  test F1={report.overall_f1:.3f}")
    print(f"score raw text with: python -m repro.cli predict --pipeline {path} "
          f"--text \"...\"")
    _maybe_save({"path": path, "method": method, "report": report}, args)
    return 0


def cmd_predict(args) -> int:
    from repro.serve import PipelineError, load_pipeline

    texts = list(args.text or [])
    if args.input == "-":
        texts.extend(line.strip() for line in sys.stdin if line.strip())
    elif args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                texts.extend(line.strip() for line in handle if line.strip())
        except (OSError, UnicodeDecodeError) as error:
            print(f"predict: cannot read --input file: {error}", file=sys.stderr)
            return 2
    if not texts:
        print("predict: no texts given (use --text and/or --input)", file=sys.stderr)
        return 2
    try:
        pipeline = load_pipeline(args.pipeline)
    except PipelineError as error:
        # One readable line, not a traceback: missing artifacts, corrupt or
        # checksum-failing files and format mismatches all land here.
        print(f"predict: {' '.join(str(error).split())}", file=sys.stderr)
        return 2
    domain = int(args.domain) if args.domain and args.domain.isdigit() else args.domain
    try:
        predictor = pipeline.predictor(default_domain=domain)
    except KeyError as error:
        print(f"predict: {error.args[0]}", file=sys.stderr)
        return 2
    print(f"[pipeline: {pipeline.model_name} ({pipeline.dtype}), "
          f"{len(pipeline.domain_names)} domains, vocab {len(pipeline.vocab)}]")
    predictions = list(predictor.predict_iter(texts, batch_size=args.max_batch))
    for text, prediction in zip(texts, predictions):
        preview = text if len(text) <= 48 else text[:45] + "..."
        print(f"  {prediction.label_name:4s}  p(fake)={prediction.probability_fake:.3f}  "
              f"domain={prediction.domain:12s}  {prediction.latency_ms:7.2f} ms  {preview}")
    _maybe_save([prediction.as_dict() for prediction in predictions], args)
    return 0


def cmd_backends(args) -> int:
    """List registered encoder backends and feature channels; one line each."""
    from repro.encoders import (
        available_encoder_backends,
        available_feature_channels,
    )
    from repro.encoders.backends import ENCODER_BACKENDS
    from repro.encoders.channels import FEATURE_CHANNELS

    for kind in available_encoder_backends():
        backend_cls = ENCODER_BACKENDS[kind]
        doc = (backend_cls.__doc__ or "").strip().splitlines()
        print(f"backend  {kind:10s} {backend_cls.__name__:16s} "
              f"{doc[0] if doc else ''}")
    for name in available_feature_channels():
        build_fn = FEATURE_CHANNELS[name]
        owner = getattr(build_fn, "__self__", None)
        label = (owner.__name__ if isinstance(owner, type)
                 else getattr(build_fn, "__qualname__", repr(build_fn)))
        print(f"channel  {name:10s} {label}")
    return 0


def cmd_verify(args) -> int:
    """Check every recorded artifact checksum; one line per file, exit 0/2."""
    import os

    from repro.encoders.backends import spec_fingerprint
    from repro.serve import PipelineError, check_artifact, read_manifest

    path = args.pipeline
    if not os.path.isdir(path):
        print(f"verify: no pipeline artifact at '{path}'", file=sys.stderr)
        return 2
    try:
        checks = check_artifact(path)
    except PipelineError as error:
        print(f"verify: {error}", file=sys.stderr)
        return 2
    for check in checks:
        if check.status == "ok":
            print(f"  ok       {check.name}  sha256={check.expected[:12]}")
        elif check.status == "MISSING":
            print(f"  MISSING  {check.name}  expected sha256={check.expected[:12]}")
        else:
            print(f"  CORRUPT  {check.name}  expected sha256={check.expected[:12]} "
                  f"actual={check.actual[:12]}")
    failures = sum(check.status != "ok" for check in checks)
    if failures:
        print(f"verify: {failures} of {len(checks)} files damaged in '{path}'",
              file=sys.stderr)
        return 2
    print(f"verify: all {len(checks)} files intact in '{path}'")
    try:
        manifest = read_manifest(path)
    except PipelineError as error:
        print(f"verify: {error}", file=sys.stderr)
        return 2
    spec = manifest["encoder_backend"]
    channels = [channel["kind"] for channel in manifest["feature_channels"]]
    print(f"verify: encoder backend kind={spec['kind']} "
          f"fingerprint={spec_fingerprint(spec)} channels={','.join(channels)}")
    return 0


def cmd_sweep(args) -> int:
    """Regenerate paper tables through the fault-tolerant parallel orchestrator."""
    import os

    from repro.experiments.journal import JournalError
    from repro.experiments.orchestrator import (
        TABLE_CELLS,
        OrchestratorConfig,
        SweepFailed,
        run_sweep,
        table_cell_specs,
    )
    from repro.reliability.durable import atomic_write_text
    from repro.reliability.retry import RetryPolicy

    if args.list:
        for name, entry in TABLE_CELLS.items():
            print(f"  {name:8s} -> benchmarks/results/{entry.output}.txt")
        return 0

    overrides = _config_overrides(args)
    # Pin the effective dtype into every cell spec: the journal fingerprint
    # must distinguish a float32 sweep from a float64 one even when the
    # choice came from the environment.
    overrides["dtype"] = os.environ.get("REPRO_DTYPE", "float64")

    try:
        specs = table_cell_specs(args.tables, config=overrides)
    except ValueError as error:
        print(f"sweep: {error}", file=sys.stderr)
        return 2

    retry = None
    if args.retries is not None:
        retry = RetryPolicy(attempts=max(1, args.retries + 1),
                            base_delay_s=0.05, max_delay_s=1.0,
                            retry_on=(Exception,))
    try:
        config = OrchestratorConfig(
            jobs=args.jobs, retry=retry, cell_timeout_s=args.cell_timeout,
            on_progress=lambda line: print(f"sweep: {line}"))
    except ValueError as error:
        print(f"sweep: {error}", file=sys.stderr)
        return 2
    try:
        sweep = run_sweep(specs, config=config, journal_dir=args.journal,
                          resume=args.resume)
    except (JournalError, SweepFailed) as error:
        print(f"sweep: {' '.join(str(error).split())}", file=sys.stderr)
        return 2

    if args.results_dir:
        os.makedirs(args.results_dir, exist_ok=True)
        for payload in sweep.results.values():
            if isinstance(payload, dict) and payload.get("text") and payload.get("output"):
                target = os.path.join(args.results_dir, f"{payload['output']}.txt")
                atomic_write_text(target, payload["text"] + "\n")
                print(f"sweep: wrote {target}")
    _maybe_save(sweep.results, args)
    for outcome in sweep.failures:
        print(f"sweep: {outcome.describe()}", file=sys.stderr)
    return 0 if sweep.ok else 2


def cmd_serve(args) -> int:
    """Serve an artifact over HTTP with the supervised worker pool."""
    import asyncio

    from repro.serve import HttpFrontend, PipelineError, Server, ServerConfig

    try:
        config = ServerConfig(workers=args.workers, max_batch=args.max_batch,
                              max_latency_ms=args.max_latency_ms,
                              queue_high_water=args.queue_high_water,
                              default_deadline_ms=args.deadline_ms)
    except ValueError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    server = Server(args.pipeline, config)
    try:
        server.start()
    except PipelineError as error:
        print(f"serve: {' '.join(str(error).split())}", file=sys.stderr)
        return 2
    try:
        if not server.wait_ready(60.0):
            print("serve: workers did not become ready within 60s", file=sys.stderr)
            server.stop()
            return 2
    except RuntimeError as error:  # a worker reported a fatal startup error
        print(f"serve: {' '.join(str(error).split())}", file=sys.stderr)
        server.stop()
        return 2

    async def run() -> None:
        import signal as signal_module

        frontend = HttpFrontend(server, host=args.host, port=args.port)
        port = await frontend.start()
        print(f"[serving {server.model_name} ({server.dtype}) at "
              f"http://{args.host}:{port} — POST /predict, GET /health, "
              f"GET /stats; {args.workers} workers; Ctrl-C to stop]")
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        try:
            # SIGTERM (the deployment kill signal) drains like Ctrl-C does.
            loop.add_signal_handler(signal_module.SIGTERM, stopping.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
        serve_task = asyncio.ensure_future(frontend.serve_forever())
        stop_task = asyncio.ensure_future(stopping.wait())
        try:
            await asyncio.wait({serve_task, stop_task},
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            for task in (serve_task, stop_task):
                task.cancel()
            await asyncio.gather(serve_task, stop_task, return_exceptions=True)
            await frontend.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\n[draining and shutting down]")
    finally:
        server.stop()
    return 0


def _stream_ring_loader(pipeline, events, buffer_size: int, seed: int):
    """A ring-buffer training loader prefilled from the schedule itself.

    Rows come from the schedule's labeled events for domains the pipeline
    already knows (in-distribution and in-vocab by construction), cycled to
    fill ``buffer_size`` rows; :class:`repro.data.StreamWindowBuffer` then
    overwrites them with live feedback during the run.
    """
    from repro.data.dataset import MultiDomainNewsDataset, NewsItem
    from repro.data.loader import DataLoader

    known = list(pipeline.domain_names)
    labeled = [event for event in events
               if event.label is not None and event.domain in known]
    if not labeled:
        raise ValueError("--adapt needs labeled events for known domains "
                         "in the schedule to seed the feedback buffer")
    items = [NewsItem(text=event.text, label=int(event.label),
                      domain=known.index(event.domain),
                      domain_name=event.domain, item_id=event.ordinal)
             for index, event in enumerate(labeled * buffer_size)
             if index < buffer_size]
    dataset = MultiDomainNewsDataset(items, domain_names=known,
                                     name="stream-buffer")
    return DataLoader(dataset, pipeline.vocab, max_length=pipeline.max_length,
                      batch_size=min(32, buffer_size), shuffle=True, seed=seed,
                      tokenizer=pipeline.tokenizer,
                      channels=pipeline.channels)


def cmd_stream(args) -> int:
    """Generate a domain-shift schedule, or replay one against a pipeline."""
    from repro.experiments.stream_schedule import (
        StreamScheduleConfig,
        generate_stream_schedule,
    )
    from repro.streaming import (
        AdapterConfig,
        DriftConfig,
        DriftMonitor,
        OnlineAdapter,
        StreamConfig,
        StreamRunner,
        load_schedule,
        save_schedule,
    )

    if args.make_schedule:
        config = StreamScheduleConfig(
            dataset=args.dataset, seed=args.seed,
            **({"scale": args.scale} if args.scale is not None else {}),
            drift_domain=args.drift_domain, novel_domain=args.novel_domain)
        events, metadata = generate_stream_schedule(config)
        save_schedule(events, args.make_schedule, metadata=metadata)
        labeled = sum(1 for event in events if event.label is not None)
        print(f"[wrote {len(events)} events ({labeled} labeled) to "
              f"{args.make_schedule}; drift={config.drift_domain} "
              f"novel={config.novel_domain}]")
        return 0

    if not args.pipeline or not args.schedule:
        print("stream: replay needs --pipeline and --schedule "
              "(or use --make-schedule)", file=sys.stderr)
        return 2
    from repro.serve import PipelineError, load_pipeline

    try:
        events, _ = load_schedule(args.schedule)
    except ValueError as error:
        print(f"stream: {' '.join(str(error).split())}", file=sys.stderr)
        return 2
    try:
        pipeline = load_pipeline(args.pipeline)
    except PipelineError as error:
        print(f"stream: {' '.join(str(error).split())}", file=sys.stderr)
        return 2

    monitor = DriftMonitor(pipeline.domain_names, DriftConfig(
        psi_threshold=args.psi_threshold, bias_threshold=args.bias_threshold))
    adapter = None
    if args.adapt:
        export_path = args.export_path or args.pipeline.rstrip("/") + "-stream"
        try:
            loader = _stream_ring_loader(pipeline, events, args.buffer,
                                         seed=args.seed)
        except ValueError as error:
            print(f"stream: {error}", file=sys.stderr)
            return 2
        adapter = OnlineAdapter(pipeline, loader, AdapterConfig(
            export_path=export_path, min_feedback=args.min_feedback))
    runner = StreamRunner(pipeline.predictor(), monitor, adapter,
                          StreamConfig(max_batch=args.max_batch))
    try:
        report = runner.run(events)
    except ValueError as error:
        print(f"stream: {' '.join(str(error).split())}", file=sys.stderr)
        return 2

    print(f"[streamed {report.events} events: {report.served} served, "
          f"{report.failed} failed, {report.skipped_unknown_domain} skipped "
          "(unknown domain)]")
    for entry in report.drift_events:
        print(f"  drift  @{entry['ordinal']:6d}  {entry['kind']:12s} "
              f"{entry['domain']:14s} value={entry['value']:.3f} "
              f"threshold={entry['threshold']:.2f}")
    for entry in report.adaptations:
        print(f"  adapt  @{entry['ordinal']:6d}  items={entry['items']:3d} "
              f"loss={entry['losses'][-1]:.4f} -> {entry['fingerprint']}  "
              f"({entry['reason']})")
    for entry in report.onboardings:
        print(f"  onboard@{entry['ordinal']:6d}  {entry['domain']} "
              f"(domain {entry['domain_index']}, donor {entry['donor']}) "
              f"-> {entry['fingerprint']}")
    if adapter is not None:
        print(f"[final artifact: {adapter.config.export_path} "
              f"fingerprint={report.final_fingerprint}]")
    _maybe_save(report.as_dict(), args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)

    stats = subparsers.add_parser(
        "stats", help="statistics of the experiment corpus at the config scale "
                      "(default 0.3 Chinese, 0.08 English); the committed Tables "
                      "I/IV/V are built at 1.0 Chinese and 0.1 English, seed 2024")
    _add_common(stats)
    stats.set_defaults(handler=cmd_stats)

    audit = subparsers.add_parser("audit", help="domain-bias audit (Table III)")
    _add_common(audit)
    audit.add_argument("--models", nargs="*", default=list(TABLE3_MODELS))
    audit.set_defaults(handler=cmd_audit)

    compare = subparsers.add_parser("compare", help="full comparison (Tables VI/VII)")
    _add_common(compare)
    compare.add_argument("--baselines", nargs="*", default=None)
    compare.add_argument("--no-dtdbd", action="store_true")
    compare.set_defaults(handler=cmd_compare)

    ablation = subparsers.add_parser("ablation", help="component ablation (Tables VIII/IX)")
    _add_common(ablation)
    ablation.add_argument("--students", nargs="*", default=["textcnn_s"])
    ablation.set_defaults(handler=cmd_ablation)

    case = subparsers.add_parser("case-study", help="case study (Figure 3)")
    _add_common(case)
    case.set_defaults(handler=cmd_case_study)

    export = subparsers.add_parser(
        "export", help="train a detector and bundle it as a servable pipeline")
    _add_common(export)
    export.add_argument("--out", type=str, default="pipeline",
                        help="artifact directory to write (default: ./pipeline)")
    export.add_argument("--model", type=str, default=None,
                        help="registry name to train (default: the config's student)")
    export.add_argument("--dtdbd", action="store_true",
                        help="run the full DTDBD distillation instead of plain training")
    export.add_argument("--teacher", type=str, default="mdfend",
                        help="clean-teacher architecture for --dtdbd (default: mdfend)")
    export.set_defaults(handler=cmd_export)

    predict = subparsers.add_parser(
        "predict", help="score raw news text with an exported pipeline")
    predict.add_argument("--pipeline", type=str, required=True,
                         help="artifact directory written by 'export'")
    predict.add_argument("--text", action="append", default=None,
                         help="news text to score (repeatable)")
    predict.add_argument("--input", type=str, default=None,
                         help="file with one text per line ('-' for stdin)")
    predict.add_argument("--domain", type=str, default=None,
                         help="domain name or index assumed for all texts")
    predict.add_argument("--max-batch", type=int, default=64,
                         help="micro-batch width for scoring (default: 64)")
    predict.add_argument("--output", type=str, default=None,
                         help="write raw predictions to this JSON file")
    predict.set_defaults(handler=cmd_predict)

    backends = subparsers.add_parser(
        "backends", help="list registered encoder backends and feature channels")
    backends.set_defaults(handler=cmd_backends)

    verify = subparsers.add_parser(
        "verify", help="check an exported pipeline's checksums (exit 0/2)")
    verify.add_argument("--pipeline", type=str, required=True,
                        help="artifact directory written by 'export'")
    verify.set_defaults(handler=cmd_verify)

    serve = subparsers.add_parser(
        "serve", help="serve an exported pipeline over HTTP (worker pool)")
    serve.add_argument("--pipeline", type=str, required=True,
                       help="artifact directory written by 'export'")
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 picks a free one; default: 8080)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes (default: 2)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="micro-batch width (default: 32)")
    serve.add_argument("--max-latency-ms", type=float, default=5.0,
                       help="flush a partial batch after this wait (default: 5)")
    serve.add_argument("--queue-high-water", type=int, default=256,
                       help="shed submissions past this queue depth (default: 256)")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="default per-request deadline (default: none)")
    serve.set_defaults(handler=cmd_serve)

    stream = subparsers.add_parser(
        "stream", help="replay a domain-shift event schedule against a "
                       "pipeline (drift monitoring, optional adaptation)")
    stream.add_argument("--pipeline", type=str, default=None,
                        help="artifact directory written by 'export'")
    stream.add_argument("--schedule", type=str, default=None,
                        help="schedule file written by --make-schedule")
    stream.add_argument("--make-schedule", type=str, default=None,
                        help="generate a synthetic schedule to this file and exit")
    stream.add_argument("--dataset", choices=("chinese", "english"),
                        default="chinese")
    stream.add_argument("--scale", type=float, default=None,
                        help="corpus scale for --make-schedule (match the "
                             "pipeline's training scale)")
    stream.add_argument("--seed", type=int, default=2024)
    stream.add_argument("--drift-domain", type=str, default="disaster",
                        help="domain drifting in phase B (default: disaster)")
    stream.add_argument("--novel-domain", type=str, default="crypto",
                        help="unseen domain arriving in phase C (default: crypto)")
    stream.add_argument("--adapt", action="store_true",
                        help="react to drift/onboarding with incremental "
                             "fine-tuning and hot reloads")
    stream.add_argument("--export-path", type=str, default=None,
                        help="artifact directory re-exports land in "
                             "(default: <pipeline>-stream)")
    stream.add_argument("--buffer", type=int, default=64,
                        help="feedback ring-buffer rows for --adapt (default: 64)")
    stream.add_argument("--min-feedback", type=int, default=8,
                        help="labeled items required per adaptation (default: 8)")
    stream.add_argument("--max-batch", type=int, default=16,
                        help="scoring micro-batch width (default: 16)")
    stream.add_argument("--psi-threshold", type=float, default=0.25)
    stream.add_argument("--bias-threshold", type=float, default=0.25)
    stream.add_argument("--output", type=str, default=None,
                        help="write the stream report to this JSON file")
    stream.set_defaults(handler=cmd_stream)

    sweep = subparsers.add_parser(
        "sweep", help="regenerate paper tables via the parallel orchestrator "
                      "(journaled, crash-resumable)")
    sweep.add_argument("--tables", nargs="*", default=None,
                       help="table cells to run (default: all; see --list)")
    sweep.add_argument("--jobs", type=int, default=2,
                       help="worker processes (0 = serial in-process; default: 2)")
    sweep.add_argument("--journal", type=str, default=None,
                       help="journal directory for crash-resume (default: none)")
    sweep.add_argument("--resume", action="store_true",
                       help="resume an existing journal, skipping completed cells")
    sweep.add_argument("--retries", type=int, default=None,
                       help="extra attempts per failing cell (default: 1)")
    sweep.add_argument("--cell-timeout", type=float, default=None,
                       help="per-cell wall-clock budget in seconds (default: none)")
    sweep.add_argument("--results-dir", type=str, default=None,
                       help="write each table's text to <dir>/<table>.txt")
    sweep.add_argument("--list", action="store_true",
                       help="list available table cells and exit")
    sweep.add_argument("--scale", type=float, default=None,
                       help="fraction of the paper-sized corpus (default per dataset)")
    sweep.add_argument("--epochs", type=int, default=None)
    sweep.add_argument("--encoder-backend", type=str, default=None)
    sweep.add_argument("--output", type=str, default=None,
                       help="write all raw cell results to this JSON file")
    sweep.set_defaults(handler=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    # One BLAS thread here and in every sweep or serve worker spawned from
    # here: committed tables and served probabilities are bit-reproducible
    # only under one fixed thread count.
    threads = pin_blas_threads()
    if threads not in (None, 1):
        print(f"repro: OpenBLAS runs {threads} threads, not the pinned 1",
              file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
