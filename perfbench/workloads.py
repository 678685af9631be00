"""The benchmark's three workloads and their output checks.

Each workload is closed-loop: one caller in one process starts each
operation when the previous one returns.  ``setup`` builds the inputs a
user would already have (untimed by ``pass_s``, timed as ``setup_s``);
``run_pass`` makes the timed facade calls and then checks every output.
The program is driven only through the namespaced ``repro.api`` facets.

An *operation* is one experiment, one fleet, or one store build, load
or verify.  It fails when it raises or when its output check fails;
``failed_share`` is failed operations over attempted ones.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro import api

ROOT = Path(__file__).resolve().parents[1]

#: the calibration the committed report goldens were made at.
PINNED_SCALE = 0.002
PINNED_SEED = 20151028
GOLDEN = ROOT / "tests/experiments/golden/reports-scale0.002-seed20151028.json"

#: the experiments that read only the corpus (no browsers, no serving).
CORPUS_EXPERIMENTS = (
    "section3",
    "section42",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "table1",
)

_MB = float(1 << 20)


@dataclass
class Op:
    """One attempted operation; ``problem`` is None when it passed."""

    name: str
    problem: str | None = None


@dataclass
class Pass:
    """What one timed pass measured and produced."""

    #: the workload's own end-to-end timings, e.g. ``{"sweep_s": 14.8}``.
    timings: dict[str, float]
    ops: list[Op]
    #: sha256 of every output, keyed by operation name.
    digests: dict[str, str]
    #: input sizes (leaves, CRL entries, store size, ...).
    inputs: dict[str, float] = field(default_factory=dict)


def failed_share(ops: list[Op]) -> float:
    """Failed operations over attempted ones."""
    return sum(op.problem is not None for op in ops) / len(ops)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def ecosystem_sizes(ecosystem) -> dict[str, int]:
    return {
        "leaves": len(ecosystem.leaves),
        "crls": len(ecosystem.crls),
        "crl_entries": sum(len(crl.entries) for crl in ecosystem.crls),
    }


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())["digests"]


def check_experiments(results, expected: dict[str, str] | None) -> tuple[
    list[Op], dict[str, str]
]:
    """One op per experiment result: it must not have crashed and, when
    ``expected`` digests are given, its render must hash to them."""
    ops, digests = [], {}
    for result in results:
        eid = result.experiment_id
        if not result.ok:
            error = result.error
            ops.append(
                Op(
                    eid,
                    f"raised: {error['type']}: {error['message']}\n"
                    f"{error['traceback']}",
                )
            )
            continue
        digests[eid] = sha256(result.render())
        if expected is not None and digests[eid] != expected.get(eid):
            ops.append(Op(eid, "render digest differs from the golden"))
        else:
            ops.append(Op(eid))
    return ops, digests


def _run_each(experiment_ids, study) -> list:
    """``api.study.run_one`` per id; a raising experiment becomes a
    crashed result instead of ending the pass."""
    results = []
    for eid in experiment_ids:
        try:
            results.append(api.study.run_one(eid, study))
        except Exception as exc:  # the op fails; the pass goes on
            error = {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            }
            results.append(_Crashed(eid, error))
    return results


@dataclass
class _Crashed:
    """Stands in for the result of an experiment that raised."""

    experiment_id: str
    error: dict
    ok: bool = False


class PaperSweep:
    """All 17 experiments at scale 0.002, as a paper reproducer runs them."""

    name = "paper-sweep"
    scale = PINNED_SCALE
    phases = ("sweep_s",)
    why = (
        "the 17-experiment sweep a paper reproducer runs; browsers/pki/asn1 "
        "(table2) dominate, and it is the only calibration with goldens"
    )

    def setup(self, seed: int, scale: float, workdir: Path):
        study = api.study.new_study(scale=scale, seed=seed, fault_profile="none")
        study.ecosystem
        return study

    def run_pass(self, study, tracer, expected: dict[str, str] | None) -> Pass:
        with tracer.span("bench.sweep"):
            start = time.perf_counter()
            results = api.study.run_experiments(study)
            sweep_s = time.perf_counter() - start
        ops, digests = check_experiments(results, expected)
        return Pass(
            timings={"sweep_s": sweep_s},
            ops=ops,
            digests=digests,
            inputs={
                **ecosystem_sizes(study.ecosystem),
                "experiments": len(results),
                "browser_cases": len(api.generate_test_suite()),
            },
        )

    def expected(self, seed: int, scale: float) -> dict[str, str] | None:
        if (scale, seed) == (PINNED_SCALE, PINNED_SEED):
            return load_golden()
        return None

    def teardown(self, study) -> None:
        pass


class CorpusScale:
    """Write a scale-0.05 corpus store, read it back, run the 12
    corpus-reading experiments on the reloaded study."""

    name = "corpus-scale"
    scale = 0.05
    phases = ("corpus_build_s", "corpus_load_s", "figures_s")
    shards = 4
    why = (
        "store write, store read and the 12 corpus figures over 25x the "
        "sweep's leaves; substrate and CRLSet layers do the work, browsers "
        "and serve none"
    )

    def setup(self, seed: int, scale: float, workdir: Path):
        return {
            "seed": seed,
            "scale": scale,
            "dir": Path(tempfile.mkdtemp(prefix="corpus-", dir=workdir)),
        }

    def run_pass(self, state, tracer, expected=None) -> Pass:
        seed, scale, directory = state["seed"], state["scale"], state["dir"]
        ops: list[Op] = []
        timings: dict[str, float] = {}

        with tracer.span("scan.corpus_build", operation=True):
            start = time.perf_counter()
            info = api.corpus.build(
                directory, scale=scale, seed=seed, shards=self.shards
            )
            timings["corpus_build_s"] = time.perf_counter() - start
        path = Path(info["path"])
        ops.append(Op("corpus.build", None if info["rebuilt"] else "store reused"))
        written = path.stat()

        with tracer.span("scan.corpus_load", operation=True):
            start = time.perf_counter()
            study = api.study.new_study(
                scale=scale, seed=seed, cache_dir=directory, fault_profile="none"
            )
            ecosystem = study.ecosystem
            timings["corpus_load_s"] = time.perf_counter() - start
        sizes = ecosystem_sizes(ecosystem)
        ops.append(Op("corpus.load", self._load_problem(path, written, info, sizes)))

        with tracer.span("scan.corpus_verify", operation=True):
            start = time.perf_counter()
            problems = api.corpus.verify(path)
            timings["corpus_verify_s"] = time.perf_counter() - start
        stored = api.corpus.info(path)["corpus_digest"]
        if problems:
            ops.append(Op("corpus.verify", "; ".join(problems)))
        elif stored != info["corpus_digest"]:
            ops.append(Op("corpus.verify", "stored digest changed after load"))
        else:
            ops.append(Op("corpus.verify"))

        with tracer.span("bench.figures"):
            start = time.perf_counter()
            results = _run_each(CORPUS_EXPERIMENTS, study)
            timings["figures_s"] = time.perf_counter() - start
        figure_ops, digests = check_experiments(results, None)
        digests["corpus"] = info["corpus_digest"]
        return Pass(
            timings=timings,
            ops=ops + figure_ops,
            digests=digests,
            inputs={**sizes, "store_mb": info["bytes"] / _MB},
        )

    @staticmethod
    def _load_problem(path: Path, written, info: dict, sizes: dict) -> str | None:
        """The reload must come from the store, not a regeneration.

        The loader recomputes the digest of the columns it read and
        accepts them only if it equals the stored corpus digest; on any
        mismatch it regenerates and atomically replaces the store file.
        An untouched file therefore means the reloaded corpus digest
        equals the stored one.
        """
        now = path.stat()
        if (now.st_ino, now.st_mtime_ns) != (written.st_ino, written.st_mtime_ns):
            return "store was regenerated: reloaded digest differs"
        if (sizes["leaves"], sizes["crls"], sizes["crl_entries"]) != (
            info["leaf_count"], info["crl_count"], info["entry_count"]
        ):
            return "reloaded corpus sizes differ from the stored ones"
        return None

    def expected(self, seed: int, scale: float):
        return None

    def teardown(self, state) -> None:
        shutil.rmtree(state["dir"], ignore_errors=True)


class ServeFleet:
    """The first fleet pass of every registered mechanism, 1 M sessions
    over a scale-0.02 corpus.

    The workload seed is the fleet seed (which sessions visit which
    certificates, and when); the corpus is the pinned calibration.  A
    corpus seed decides which CRLs the popular certificates point to, and
    so how much first-pass CRL sizing the ``crl`` fleet does: 6.2 s at
    corpus seed 3 against 1.7 s at seed 5 on the reference box.  With the
    corpus seed varying, ``fleet_s`` would measure the seed, not the
    serving stack.
    """

    name = "serve-fleet"
    scale = 0.02
    phases = ("fleet_s",)
    corpus_seed = PINNED_SEED
    sessions = 1_000_000
    why = (
        "serve-bench traffic: 1M sessions over every mechanism; serve and "
        "mechanisms do all of the timed work, read-mostly nextUpdate caches"
    )

    def setup(self, seed: int, scale: float, workdir: Path):
        study = api.study.new_study(
            scale=scale, seed=self.corpus_seed, fault_profile="none"
        )
        study.ecosystem
        study.crawl_index
        study.crlset_history
        study.mechanism_suite
        return {"study": study, "seed": seed}

    def run_pass(self, state, tracer, expected=None) -> Pass:
        study = state["study"]
        config = api.serve.FleetConfig(sessions=self.sessions, seed=state["seed"])
        ops, digests = [], {}
        fleet_s = 0.0
        for name in api.study.list_mechanisms():
            with tracer.span("bench.fleet", operation=True, mechanism=name):
                start = time.perf_counter()
                try:
                    report = api.serve.run_fleet(study, name, config=config)
                except Exception as exc:  # the op fails; the pass goes on
                    report = None
                    error = (
                        f"raised: {type(exc).__name__}: {exc}\n"
                        f"{traceback.format_exc()}"
                    )
                fleet_s += time.perf_counter() - start
            if report is None:
                ops.append(Op(f"fleet.{name}", error))
                continue
            ops.append(Op(f"fleet.{name}", fleet_problem(report)))
            digests[f"fleet.{name}"] = sha256(report.render_block())
        return Pass(
            timings={"fleet_s": fleet_s},
            ops=ops,
            digests=digests,
            inputs={
                **ecosystem_sizes(study.ecosystem),
                "corpus_seed": self.corpus_seed,
                "sessions": self.sessions,
                "mechanisms": len(ops),
            },
        )

    def expected(self, seed: int, scale: float):
        return None

    def teardown(self, state) -> None:
        pass


def fleet_problem(report) -> str | None:
    """The accounting identities a fault-free fleet must satisfy."""
    service, fetch = report.service, report.fetch
    if service["requests"] != fetch.fetches:
        return "service requests != transport fetches"
    if service["presigned_hits"] + service["origin_misses"] != service["requests"]:
        return "presigned hits + origin misses != requests"
    if sum(report.latency.counts) != fetch.fetches:
        return "latency histogram total != transport fetches"
    lookups = sum(stats.lookups for stats in report.cache_stats.values())
    misses = sum(stats.misses for stats in report.cache_stats.values())
    if report.endpoint == "issuance":
        if lookups:
            return "issuance mechanism used the cache tiers"
    elif misses != report.origin_signings:
        return "cache misses != origin signings"
    if fetch.failures or fetch.successes != fetch.fetches:
        return "failures without injected faults"
    return None


WORKLOADS = {
    workload.name: workload
    for workload in (PaperSweep(), CorpusScale(), ServeFleet())
}
