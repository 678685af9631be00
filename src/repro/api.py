"""Stable programmatic facade over the repro package.

``repro.api`` is the supported entry surface for scripts, notebooks,
benchmarks, and the CLI (``python -m repro`` is a thin shell over this
module).  Since API 2.0 the surface is organised into namespaced
sub-facades:

* :data:`api.study <study>` -- running studies and experiments, report
  rendering, golden digests (``run_study``, ``new_study``, ``run_one``,
  ``run_experiments``, ...);
* :data:`api.corpus <corpus>` -- corpus stores (``build``, ``info``,
  ``verify``, ``list``);
* :data:`api.trace <trace>` -- trace loading, rollup, and span-diff
  (``load``, ``render``, ``diff``, ``render_diff``);
* :data:`api.analysis <analysis>` -- the static-analysis gate (``run``);
* :data:`api.serve <serve>` -- the revocation-status serving layer
  (``build_service``, ``run_fleet``, ``serving_digests``).

API 3.0 removed the pre-2.0 flat names (``api.run_study``,
``api.build_corpus``, ...): each function lives only on its facet.  A
former flat name raises ``AttributeError``, whose close-match
suggestions list facet members as ``facet.member``
(``did you mean: study.run_study``).  API 4.0 removed the study
facet's crawl-path timing legs (the reference crawl now lives with the
tests) and two methods of re-exported classes, ``TraceDiff.span_names``
and ``FleetConfig.with_sessions``.  API 5.0 made the supervisor the one
execution path: every sweep and corpus build runs on it, so the
parameters that chose another path (the supervision and error-isolation
switches of ``run_study``/``run_experiments``/``corpus.build``, and
``new_study``'s generation shard and worker counts) are gone.  API 6.0
removed ``CrlSetBuilder``'s ``index`` argument, which the columnar sweep
never read.

Component re-exports: the classes and helpers the micro-benchmarks (and
similar out-of-tree consumers) exercise directly -- browser models, PKI
builders, CRLSet structures -- are re-exported lazily by name (PEP 562),
so ``api.CrlSetBuilder`` is stable even if the implementing module
moves.

Typical use::

    from repro import api

    run = api.study.run_study(experiment="fig2", scale=0.0005, trace=True)
    run.write_trace("a.jsonl", experiment="fig2")
    diff = api.trace.diff("a.jsonl", "b.jsonl")
    print(api.trace.render_diff(diff))
"""

from __future__ import annotations

import difflib
import hashlib
from dataclasses import dataclass
from pathlib import Path

from repro.core.pipeline import MeasurementStudy
from repro.experiments.common import ExperimentResult
from repro.experiments.runner import ALL_EXPERIMENTS, run_all, run_experiment
from repro.obs import Observability
from repro.obs import report as _trace_report
from repro.obs.diff import TraceDiff as _TraceDiff
from repro.obs.diff import diff_traces as _obs_diff_traces
from repro.obs.diff import render_diff_json, render_diff_text
from repro.serve import FleetConfig as _FleetConfig
from repro.serve import build_service as _build_service
from repro.serve import render_serving_report as _render_serving_report
from repro.serve import run_fleet as _run_fleet

#: facade contract version: bump the minor on compatible additions, the
#: major on any breaking change to a signature or re-export listed in
#: ``__all__``/``_COMPONENT_EXPORTS`` (tests/test_api_contract.py pins
#: the surface against this).  2.0: the flat surface became namespaced
#: sub-facades; every 1.x flat name survived as a deprecated alias.
#: 3.0: the deprecated flat aliases are gone.  4.0: the study facet's
#: crawl-path timing legs, ``TraceDiff.span_names`` and
#: ``FleetConfig.with_sessions`` are gone.  5.0: one execution path --
#: the supervision and error-isolation switches and ``new_study``'s
#: generation shard/worker counts are gone.  6.0: ``CrlSetBuilder`` takes
#: no ``index`` argument.
API_VERSION = "6.0"

__all__ = [
    "API_VERSION",
    "analysis",
    "corpus",
    "serve",
    "study",
    "trace",
]

#: lazy component re-exports (attribute -> implementing module).  These
#: are part of the facade contract: renaming an implementing module is
#: fine, dropping or renaming an attribute is a breaking change.
_COMPONENT_EXPORTS = {
    "AndroidBrowser": "repro.browsers.mobile",
    "BloomFilter": "repro.crlset.bloom",
    "BrowserTestHarness": "repro.browsers.testsuite",
    "Calibration": "repro.scan.calibration",
    "Certificate": "repro.pki.certificate",
    "CertificateBuilder": "repro.pki.certificate",
    "CertificateRevocationList": "repro.revocation.crl",
    "ChainContext": "repro.browsers.policy",
    "CheckCost": "repro.mechanisms",
    "Chrome": "repro.browsers.desktop",
    "CrlPublisher": "repro.ca.crl_publisher",
    "CrlSetBuilder": "repro.crlset.builder",
    "Delivery": "repro.mechanisms",
    "Ed25519Backend": "repro.pki.keys",
    "Firefox": "repro.browsers.desktop",
    "GolombCompressedSet": "repro.crlset.gcs",
    "InternetExplorer": "repro.browsers.desktop",
    "KeyPair": "repro.pki.keys",
    "LINK_PROFILES": "repro.net.transport",
    "LinkProfile": "repro.net.transport",
    "MobileSafari": "repro.browsers.mobile",
    "MultiStapleServer": "repro.mechanisms.stapling",
    "Name": "repro.pki.name",
    "OcspRequest": "repro.revocation.ocsp",
    "Opera12": "repro.browsers.desktop",
    "Opera31": "repro.browsers.desktop",
    "RevocationMechanism": "repro.mechanisms",
    "RevocationRegime": "repro.mechanisms.shortlived",
    "RevokedEntry": "repro.revocation.crl",
    "Safari": "repro.browsers.desktop",
    "ServeModel": "repro.mechanisms",
    "SessionCostModel": "repro.core.cost",
    "SessionState": "repro.mechanisms",
    "SimBackend": "repro.pki.keys",
    "StrictClient": "repro.browsers.strict",
    "TestPki": "repro.browsers.certgen",
    "UpdateModel": "repro.mechanisms",
    "all_browsers": "repro.browsers.registry",
    "analyze_coverage": "repro.crlset.coverage",
    "attack_window_study": "repro.mechanisms.shortlived",
    "blast_radius": "repro.mechanisms.onecrl",
    "build_onecrl": "repro.mechanisms.onecrl",
    "chain_check_cost": "repro.mechanisms.stapling",
    "format_bytes": "repro.core.report",
    "format_table": "repro.core.report",
    "generate_test_suite": "repro.browsers.testsuite",
    "is_crlset_eligible": "repro.revocation.reason",
    "traffic_report": "repro.browsers.traffic",
}


@dataclass
class StudyRun:
    """A completed study invocation: the study plus its results."""

    study: MeasurementStudy
    results: list[ExperimentResult]

    @property
    def crashes(self) -> int:
        """Experiments that raised (isolated into failure records)."""
        return sum(1 for result in self.results if not result.ok)

    @property
    def shape_failures(self) -> int:
        """Paper-vs-measured comparisons whose shape did not hold."""
        return sum(
            1
            for result in self.results
            for comparison in result.comparisons
            if not comparison.shape_holds
        )

    @property
    def ok(self) -> bool:
        return self.crashes == 0 and self.shape_failures == 0

    def write_trace(
        self,
        path: str | Path,
        *,
        experiment: str = "all",
        parallel: int | None = None,
    ) -> Path:
        """Write the run's trace as JSONL with the standard meta header.

        Only meaningful when the study was built with ``trace=True`` (or
        an enabled :class:`~repro.obs.Observability`); a disabled study
        writes a header-only file.
        """
        study = self.study
        return study.obs.write_jsonl(
            path,
            header={
                "experiment": experiment,
                "scale": study.calibration.scale,
                "seed": study.calibration.seed,
                "fault_profile": study.fault_profile,
                "fault_seed": study.fault_seed,
                "parallel": parallel or 1,
            },
        )


def _list_experiments() -> dict[str, str]:
    """Mapping of experiment id -> title, in run (declaration) order."""
    return {eid: module.TITLE for eid, module in ALL_EXPERIMENTS.items()}


def _list_mechanisms() -> dict[str, str]:
    """Mapping of mechanism name -> title, in registry (sweep) order.

    Every entry implements :class:`repro.mechanisms.RevocationMechanism`
    and passes the shared conformance suite
    (``tests/mechanisms/conformance.py``, docs/MECHANISMS.md).
    """
    from repro.mechanisms import mechanism_titles

    return mechanism_titles()


def _run_study(
    *,
    experiment: str = "all",
    scale: float = 0.002,
    seed: int = 20151028,
    fault_profile: str | None = None,
    fault_seed: int | None = None,
    cache_dir: str | Path | None = None,
    parallel: int | None = None,
    trace: bool = False,
    resume: bool = False,
    checkpoint_dir: str | Path | None = None,
    exec_fault_profile: str | None = None,
    exec_fault_seed: int | None = None,
    mechanism: str | None = None,
) -> StudyRun:
    """Build a study and run one experiment (or ``"all"``).

    ``trace=True`` attaches an enabled tracer/metrics registry; write
    the result with :meth:`StudyRun.write_trace`.  ``"all"`` isolates
    per-experiment crashes into failure records; a single named
    experiment propagates exceptions, and an unknown id raises
    ``KeyError``.  ``mechanism`` restricts every revocation-mechanism
    sweep to one registered name (the CLI's ``run --mechanism``); an
    unknown name raises ``KeyError``.

    ``"all"`` runs on the supervised execution layer
    (docs/ROBUSTNESS.md): worker crash recovery, per-leg checkpoints
    when a ``checkpoint_dir`` is given, and -- with an
    ``exec_fault_profile`` -- deterministic process-fault injection.
    ``resume=True`` replays the checkpointed legs of an interrupted run
    from ``checkpoint_dir``; the combined output is byte-identical to an
    uninterrupted one.  Raises :class:`repro.exec.supervisor.RunInterrupted`
    when an injected ABORT stops the run partway, and ``ValueError`` when
    ``resume`` lacks a ``checkpoint_dir`` or a single experiment is given
    any of the four execution arguments.
    """
    if experiment != "all" and (
        resume
        or checkpoint_dir is not None
        or exec_fault_profile is not None
        or exec_fault_seed is not None
    ):
        raise ValueError(
            "resume, checkpoint_dir and exec faults apply to experiment='all'"
        )
    if mechanism is not None:
        from repro.mechanisms import get as get_mechanism

        get_mechanism(mechanism)  # unknown names fail fast
    obs = Observability(enabled=True) if trace else None
    built = MeasurementStudy(
        scale=scale,
        seed=seed,
        cache_dir=cache_dir,
        fault_profile=fault_profile,
        fault_seed=fault_seed,
        obs=obs,
        exec_fault_profile=exec_fault_profile,
        exec_fault_seed=exec_fault_seed,
        mechanisms=(mechanism,) if mechanism is not None else None,
    )
    if experiment == "all":
        results = run_all(
            built, parallel=parallel, checkpoint_dir=checkpoint_dir, resume=resume
        )
    else:
        results = [run_experiment(experiment, built)]
    return StudyRun(study=built, results=results)


def _new_study(
    *,
    scale: float = 0.002,
    seed: int = 20151028,
    calibration=None,
    cache_dir: str | Path | None = None,
    fault_profile: str | None = None,
    fault_seed: int | None = None,
    trace: bool = False,
) -> MeasurementStudy:
    """Build a :class:`MeasurementStudy` without running anything.

    The supported way for scripts and benchmarks to get a study handle
    (substrate, scans, crawl index, ...) without importing ``repro.core``.
    """
    return MeasurementStudy(
        scale=scale,
        seed=seed,
        calibration=calibration,
        cache_dir=cache_dir,
        fault_profile=fault_profile,
        fault_seed=fault_seed,
        obs=Observability(enabled=True) if trace else None,
    )


def _run_experiments(
    study: MeasurementStudy, parallel: int | None = None
) -> list[ExperimentResult]:
    """Run every experiment against an existing study.

    Unlike :func:`run_study` this reuses the study's substrate (and its
    warm corpus store, when it has a ``cache_dir``), which is what
    perfbench's ``paper-sweep`` workload times.
    """
    return run_all(study, parallel=parallel)


def _golden_digests(
    *,
    scale: float = 0.002,
    seed: int = 20151028,
    fault_profile: str = "none",
) -> dict[str, str]:
    """One sequential run of everything; sha256 of each report render.

    The contract behind ``tests/experiments/golden/`` and
    ``scripts/update_golden.py``: the study is deterministic per
    calibration, so these digests only change when report bytes do.
    Raises ``RuntimeError`` if any experiment crashes.
    """
    built = MeasurementStudy(scale=scale, seed=seed, fault_profile=fault_profile)
    results = run_all(built)
    crashed = [result.experiment_id for result in results if not result.ok]
    if crashed:
        raise RuntimeError(f"experiments crashed: {crashed}")
    return {
        result.experiment_id: hashlib.sha256(
            result.render().encode("utf-8")
        ).hexdigest()
        for result in results
    }


def _mechanism_digests(
    *,
    scale: float = 0.002,
    seed: int = 20151028,
    fault_profile: str = "none",
) -> dict[str, str]:
    """Per-mechanism sha256 digests of the mechanism-sweep report rows.

    The contract behind ``tests/experiments/golden/mechanisms-*.json``:
    one digest per registered mechanism over its rendered sweep block,
    so a refactor of any single mechanism is provably byte-neutral
    (and a behaviour change is localised to its name).
    """
    from repro.experiments import mechanisms as mechanisms_experiment

    built = MeasurementStudy(scale=scale, seed=seed, fault_profile=fault_profile)
    return {
        name: hashlib.sha256(block.encode("utf-8")).hexdigest()
        for name, block in mechanisms_experiment.mechanism_blocks(built).items()
    }


# -- corpus store -----------------------------------------------------------


def _build_corpus(
    directory: str | Path,
    *,
    scale: float = 0.002,
    seed: int = 20151028,
    calibration=None,
    shards: int = 1,
    workers: int | None = None,
    force: bool = False,
    resume: bool = False,
    checkpoint_dir: str | Path | None = None,
    exec_fault_profile: str | None = None,
    exec_fault_seed: int | None = None,
) -> dict:
    """Generate the ecosystem and persist it as a verified corpus store.

    Returns the store's :func:`corpus.info`, the build's shard tallies
    (``resumed_shards``, ``built_shards``, ``failures``) and a
    ``rebuilt`` flag.  An existing store for the same calibration is
    reused unless ``force``, but only when :func:`corpus.verify` finds
    no problem in it; a store that fails is quarantined (moved aside as
    ``<name>.quarantined``) and rebuilt.  Every written store is
    verified, and quarantined and rewritten if it fails.

    ``workers=N`` (N >= 2) generates ``shards`` brand groups (at least
    N) across supervised worker processes (docs/ROBUSTNESS.md);
    shard/worker counts never change the stored bytes.  A
    ``checkpoint_dir`` journals each completed shard, and an interrupted
    build resumed with ``resume=True`` produces a byte-identical store.
    Raises :class:`repro.exec.supervisor.RunInterrupted` on an injected
    ABORT, and ``ValueError`` for ``resume`` without a ``checkpoint_dir``.
    """
    from repro.exec.corpusbuild import build_corpus
    from repro.exec.faults import plan_from_exec_profile
    from repro.scan.calibration import Calibration

    calibration = calibration or Calibration(scale=scale, seed=seed)
    faults = plan_from_exec_profile(
        exec_fault_profile or "none",
        exec_fault_seed if exec_fault_seed is not None else calibration.seed,
    )
    info = build_corpus(
        directory,
        calibration=calibration,
        shards=shards,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        faults=faults,
        force=force,
    )
    reused = info.pop("reused")
    return {**_corpus_info(info.pop("path")), **info, "rebuilt": not reused}


def _corpus_info(path: str | Path) -> dict:
    """A store's meta table (seed, scale, counts, digest) plus file size."""
    from repro.scan import corpus_store

    path = Path(path)
    meta = corpus_store.read_meta(path)
    return {**meta, "path": str(path), "bytes": path.stat().st_size}


def _verify_corpus(path: str | Path) -> list[str]:
    """Integrity-check a corpus store; returns problems (empty == sound).

    Self-contained: validates sqlite readability, the whole-corpus
    content digest, and the per-brand slice digests recorded at write
    time, localising any corruption to the brand it landed in.  Never
    raises on a damaged file.  Quarantine + rebuild is ``python -m repro
    corpus verify --quarantine`` or a forced :func:`corpus.build`.
    """
    from repro.scan import corpus_store

    return corpus_store.verify_store(path)


def _list_corpora(directory: str | Path) -> list[dict]:
    """Info for every corpus store under ``directory``."""
    entries: list[dict] = []
    for path in sorted(Path(directory).glob("corpus-*.sqlite")):
        try:
            entries.append(_corpus_info(path))
        except Exception:
            entries.append({"path": str(path), "error": "unreadable"})
    return entries


def _run_one(
    experiment_id: str,
    study: MeasurementStudy | None = None,
    *,
    mechanism: str | None = None,
    **study_kwargs,
) -> ExperimentResult:
    """Run a single experiment and return its result.

    Pass an existing :class:`MeasurementStudy` to reuse its substrate,
    or keyword arguments (``scale``, ``seed``, ``fault_profile``, ...)
    to build a fresh one.  ``mechanism`` restricts the experiment's
    revocation-mechanism sweep to one registered name (it only applies
    when ``run_one`` builds the study; pass
    ``MeasurementStudy(mechanisms=...)`` yourself otherwise).  Raises
    ``KeyError`` for an unknown experiment id or mechanism name.
    """
    if mechanism is not None:
        from repro.mechanisms import get as get_mechanism

        get_mechanism(mechanism)  # unknown names fail fast
        if study is not None:
            raise ValueError(
                "mechanism= only applies when run_one builds the study; "
                "pass MeasurementStudy(mechanisms=...) instead"
            )
        study_kwargs["mechanisms"] = (mechanism,)
    if study is None:
        study = MeasurementStudy(**study_kwargs)
    return run_experiment(experiment_id, study)


def _render_report(
    scale: float = 0.002,
    *,
    seed: int = 20151028,
    fault_profile: str | None = None,
    fault_seed: int | None = None,
) -> str:
    """The EXPERIMENTS.md body (what ``python -m repro report`` prints)."""
    from repro.experiments.reportgen import generate

    return generate(
        scale, seed=seed, fault_profile=fault_profile, fault_seed=fault_seed
    )


# -- traces -----------------------------------------------------------------


def _load_trace(path: str | Path) -> list[dict]:
    """Parse a ``run --trace-out`` JSONL file into its records."""
    return _trace_report.load_records(path)


def _render_trace(records: list[dict], fmt: str = "text", limit: int = 15) -> str:
    """Roll up trace records (summary, top spans, flame-table)."""
    if fmt == "json":
        return _trace_report.render_json(records, limit=limit)
    return _trace_report.render_text(records, limit=limit)


def _diff_traces(
    a: str | Path | list[dict], b: str | Path | list[dict]
) -> _TraceDiff:
    """Structurally diff two traces (paths or pre-loaded record lists).

    See :mod:`repro.obs.diff` for the alignment and attribution
    semantics; ``diff.is_empty`` is the machine-checkable "same
    behaviour" predicate.
    """
    a_records = _load_trace(a) if isinstance(a, (str, Path)) else a
    b_records = _load_trace(b) if isinstance(b, (str, Path)) else b
    return _obs_diff_traces(a_records, b_records)


def _render_diff(
    diff: _TraceDiff,
    fmt: str = "text",
    a_label: str = "A",
    b_label: str = "B",
) -> str:
    """Render a :class:`~repro.obs.diff.TraceDiff` as text or JSON."""
    if fmt == "json":
        return render_diff_json(diff, a_label=a_label, b_label=b_label)
    return render_diff_text(diff, a_label=a_label, b_label=b_label)


# -- static analysis --------------------------------------------------------


def _run_analysis(argv: list[str] | None = None) -> int:
    """Run the determinism & PKI-invariant linter; returns its exit code.

    The documented entry point behind ``python -m repro analyze``: the
    CLI delegates its argv verbatim so the linter owns its own flags
    (docs/STATIC_ANALYSIS.md).
    """
    from repro.analysis.cli import main as analyze_main

    return analyze_main(argv if argv is not None else [])


# -- serving ----------------------------------------------------------------


def _serving_digests(
    *,
    scale: float = 0.002,
    seed: int = 20151028,
    fault_profile: str = "none",
) -> dict[str, str]:
    """Per-mechanism sha256 digests of the serving-experiment blocks.

    The contract behind ``tests/experiments/golden/serving-*.json``:
    one digest per registered mechanism over its rendered serving
    block, so a serving-stack change is localised to the mechanisms it
    actually affects.
    """
    from repro.experiments import serving as serving_experiment

    built = MeasurementStudy(scale=scale, seed=seed, fault_profile=fault_profile)
    return {
        name: hashlib.sha256(block.encode("utf-8")).hexdigest()
        for name, block in serving_experiment.serving_blocks(built).items()
    }


# -- the namespaced facade --------------------------------------------------


class _Facet:
    """One namespaced sub-facade (``api.study``, ``api.corpus``, ...).

    Members are plain instance attributes holding the facade functions
    and classes themselves, not wrappers.
    """

    def __init__(self, name: str, members: dict[str, object]) -> None:
        self._name = name
        self._members = tuple(sorted(members))
        self.__dict__.update(members)

    @property
    def members(self) -> tuple[str, ...]:
        return self._members

    def __repr__(self) -> str:
        return f"<repro.api.{self._name}: {', '.join(self._members)}>"

    def __dir__(self) -> list[str]:
        return list(self._members)


study = _Facet(
    "study",
    {
        "StudyRun": StudyRun,
        "golden_digests": _golden_digests,
        "list_experiments": _list_experiments,
        "list_mechanisms": _list_mechanisms,
        "mechanism_digests": _mechanism_digests,
        "new_study": _new_study,
        "render_report": _render_report,
        "run_experiments": _run_experiments,
        "run_one": _run_one,
        "run_study": _run_study,
    },
)

corpus = _Facet(
    "corpus",
    {
        "build": _build_corpus,
        "info": _corpus_info,
        "list": _list_corpora,
        "verify": _verify_corpus,
    },
)

trace = _Facet(
    "trace",
    {
        "TraceDiff": _TraceDiff,
        "diff": _diff_traces,
        "load": _load_trace,
        "render": _render_trace,
        "render_diff": _render_diff,
    },
)

analysis = _Facet("analysis", {"run": _run_analysis})

serve = _Facet(
    "serve",
    {
        "FleetConfig": _FleetConfig,
        "build_service": _build_service,
        "render_serving_report": _render_serving_report,
        "run_fleet": _run_fleet,
        "serving_digests": _serving_digests,
    },
)


def _surface() -> list[str]:
    """Every name the facade answers for (suggestions draw from this);
    facet members are listed as ``facet.member``."""
    names = {*__all__, *_COMPONENT_EXPORTS}
    for name in __all__:
        facet = globals()[name]
        if isinstance(facet, _Facet):
            names.update(f"{name}.{member}" for member in facet.members)
    return sorted(names)


def __getattr__(name: str):
    """Resolve component re-exports (PEP 562)."""
    module_path = _COMPONENT_EXPORTS.get(name)
    if module_path is not None:
        import importlib

        return getattr(importlib.import_module(module_path), name)
    suggestions = difflib.get_close_matches(name, _surface(), n=3, cutoff=0.6)
    hint = (
        f" (did you mean: {', '.join(suggestions)}?)" if suggestions else ""
    )
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}{hint}"
    )


def __dir__() -> list[str]:
    return sorted([*globals(), *_COMPONENT_EXPORTS])
