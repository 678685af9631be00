"""Calibration constants and the paper's reported targets.

:class:`Calibration` collects every tunable the ecosystem generator uses,
with defaults chosen so the generated corpus reproduces the paper's
aggregate statistics at any scale.  :class:`PaperTargets` records what the
paper measured, so experiments can print paper-vs-measured tables
(EXPERIMENTS.md) and tests can assert shape bands.
:func:`calibration_digest` names a calibration's corpus store and keys a
run's checkpoint journal.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
from dataclasses import dataclass

__all__ = ["Calibration", "PaperTargets", "calibration_digest"]


@dataclass(frozen=True)
class PaperTargets:
    """Numbers reported in the paper (full scale), for comparison tables."""

    # §3.1 dataset
    unique_certs_seen: int = 38_514_130
    leaf_set_size: int = 5_067_476
    leaf_alive_in_last_scan_fraction: float = 0.452
    intermediate_set_size: int = 1_946
    root_store_size: int = 222
    # §3.2 revocation pointers
    leaf_with_crl: float = 0.999
    leaf_with_ocsp: float = 0.950
    leaf_with_neither: float = 0.0009
    intermediate_with_crl: float = 0.989
    intermediate_with_ocsp: float = 0.485
    unique_crls: int = 2_800
    unique_ocsp_responders: int = 499
    # §4 admin behaviour
    fresh_revoked_at_end: float = 0.08
    fresh_revoked_pre_heartbleed: float = 0.01
    alive_revoked_at_end: float = 0.006
    ev_fresh_revoked_at_end: float = 0.06
    ev_alive_revoked_at_end: float = 0.005
    # §4.3 stapling
    servers_supporting_stapling: float = 0.026
    certs_with_any_stapling_server: float = 0.0519
    certs_with_all_stapling_servers: float = 0.0309
    ev_certs_with_any_stapling_server: float = 0.0315
    ev_certs_with_all_stapling_servers: float = 0.0195
    single_probe_underestimate: float = 0.18
    # §5 CA behaviour
    crl_bytes_per_entry: float = 38.0
    raw_median_crl_kb: float = 0.9
    weighted_median_crl_kb: float = 51.0
    max_crl_mb: float = 76.0
    total_crl_entries: int = 11_461_935
    # §7 CRLSets
    crlset_coverage_fraction: float = 0.0035
    crlset_entries_in_paper: int = 41_105
    crlset_min_entries: int = 15_922
    crlset_max_entries: int = 24_904
    crlset_covered_crls: int = 295
    crlset_parents: int = 62
    covered_crls_fully_covered_fraction: float = 0.756
    days_to_appear_within_one_day: float = 0.60
    days_to_appear_within_two_days: float = 0.90
    median_removal_before_expiry_days: float = 187.0
    alexa_1m_revocations: int = 42_225
    alexa_1m_in_crlset: int = 1_644
    alexa_1k_revocations: int = 392
    alexa_1k_in_crlset: int = 41


@dataclass(frozen=True)
class Calibration:
    """Generator parameters.

    ``scale`` multiplies the paper's full-scale certificate counts and
    must lie in (0, 1]; the default 0.002 yields a ~10 k-leaf corpus, the
    tests' scale, and 0.01 yields ~50 k leaves.  Fractions are
    scale-invariant.
    """

    scale: float = 0.002
    seed: int = 20151028

    def __post_init__(self) -> None:
        if not 0.0 < self.scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        if self.scan_count < 2:
            raise ValueError("need at least two scans")
        if self.crawl_end < self.crawl_start:
            raise ValueError("crawl_end precedes crawl_start")

    # -- study window ------------------------------------------------------
    scan_start: datetime.date = datetime.date(2013, 10, 30)
    scan_count: int = 74
    scan_period_days: int = 7
    crawl_start: datetime.date = datetime.date(2014, 10, 2)
    crawl_end: datetime.date = datetime.date(2015, 3, 31)
    measurement_end: datetime.date = datetime.date(2015, 3, 31)
    issuance_start: datetime.date = datetime.date(2011, 1, 1)

    # -- issuance ----------------------------------------------------------
    monthly_growth: float = 1.03
    validity_mix: tuple[tuple[int, float], ...] = (
        (90, 0.05),
        (365, 0.55),
        (730, 0.25),
        (1095, 0.15),
    )
    birth_lag_max_days: int = 14
    ocsp_inclusion_after_adoption: float = 0.97

    # -- revocation dynamics -----------------------------------------------
    heartbleed_date: datetime.date = datetime.date(2014, 4, 7)
    heartbleed_decay_days: float = 14.0
    heartbleed_window_days: int = 75
    #: per-brand steady-state revocation probability is
    #: min(steady_cap, brand_revoked_fraction * steady_share).
    steady_share: float = 0.40
    steady_cap: float = 0.022
    #: fraction of certificates replaced (stop being advertised) well
    #: before expiry.
    early_death_fraction: float = 0.18
    #: probability a revoked cert keeps being advertised (revoked-but-alive).
    keep_advertising_after_revoke: float = 0.08
    #: probability an expired cert is advertised past notAfter.
    advertise_past_expiry: float = 0.08
    expiry_overrun_max_days: int = 90
    #: reason-code mix for revocations (None means no reason extension).
    reason_mix: tuple[tuple[object, float], ...] = (
        (None, 0.70),
        ("UNSPECIFIED", 0.08),
        ("KEY_COMPROMISE", 0.05),
        ("AFFILIATION_CHANGED", 0.04),
        ("SUPERSEDED", 0.06),
        ("CESSATION_OF_OPERATION", 0.05),
        ("PRIVILEGE_WITHDRAWN", 0.015),
        ("CERTIFICATE_HOLD", 0.005),
    )

    # -- hosting / stapling --------------------------------------------------
    server_count_mix: tuple[tuple[int, int, float], ...] = (
        (1, 2, 0.70),
        (3, 10, 0.25),
        (11, 200, 0.05),
    )
    stapling_all_fraction: float = 0.031
    stapling_partial_fraction: float = 0.021
    ev_stapling_all_fraction: float = 0.0195
    ev_stapling_partial_fraction: float = 0.012
    #: staple-cache cold probability on a random probe, and background
    #: fetch delays (seconds) -- shapes Figure 3.
    staple_cold_probability: float = 0.18
    staple_fetch_delay_range_s: tuple[float, float] = (1.0, 25.0)
    probe_interval_s: float = 3.0

    # -- intermediates / roots ---------------------------------------------
    root_count: int = 14
    intermediate_crl_fraction: float = 0.989
    intermediate_ocsp_fraction: float = 0.485
    intermediate_neither_fraction: float = 0.0092

    # -- CRL publication -----------------------------------------------------
    crl_reissue_hours_mix: tuple[tuple[int, float], ...] = (
        (24, 0.95),
        (168, 0.05),
    )
    #: lognormal sigma for per-shard size variance around the CA target.
    shard_size_sigma: float = 0.45

    # -- CRLSets -------------------------------------------------------------
    crlset_size_cap_bytes_full_scale: int = 250 * 1024
    #: covered-CRL entry-count drop threshold, full scale.
    crlset_max_entries_per_crl_full_scale: int = 12_000
    crlset_build_start: datetime.date = datetime.date(2013, 7, 18)
    crlset_gap_start: datetime.date = datetime.date(2014, 11, 15)
    crlset_gap_end: datetime.date = datetime.date(2014, 12, 1)
    #: the "VeriSign Class 3 EV"-style parent removal event.
    crlset_parent_removal_date: datetime.date = datetime.date(2014, 5, 25)
    #: fraction of covered CRLs whose CRLSet coverage is only partial.
    crlset_partial_coverage_fraction: float = 0.24
    crlset_partial_coverage_range: tuple[float, float] = (0.55, 0.98)
    #: per-covered-CRL internal crawl period (hours): min, max.
    crlset_crawl_period_hours: tuple[int, int] = (4, 56)

    # -- derived -------------------------------------------------------------
    # The date sequences are memoised on the instance (a frozen dataclass
    # still has a __dict__): the generator samples issue dates against
    # ``scan_end`` once per leaf, so rebuilding the list per access used
    # to dominate substrate wall-clock.  ``dataclasses.asdict`` only sees
    # fields, so the caches never enter the calibration digest.

    def _memo(self, key: str, build):
        cached = self.__dict__.get(key)
        if cached is None:
            cached = build()
            object.__setattr__(self, key, cached)
        return cached

    @property
    def scan_dates(self) -> tuple[datetime.date, ...]:
        return self._memo(
            "_scan_dates",
            lambda: tuple(
                self.scan_start + datetime.timedelta(days=self.scan_period_days * i)
                for i in range(self.scan_count)
            ),
        )

    @property
    def scan_end(self) -> datetime.date:
        return self.scan_dates[-1]

    @property
    def crawl_dates(self) -> tuple[datetime.date, ...]:
        def build() -> tuple[datetime.date, ...]:
            days = (self.crawl_end - self.crawl_start).days + 1
            return tuple(
                self.crawl_start + datetime.timedelta(days=i) for i in range(days)
            )

        return self._memo("_crawl_dates", build)

    @property
    def crlset_size_cap_bytes(self) -> int:
        """The cap is a property of Google's pipeline, not of our corpus
        size: per-CRL entry counts are driven by the absolute ``avg_crl_kb``
        targets and do not shrink with ``scale``, so neither does this."""
        return self.crlset_size_cap_bytes_full_scale

    @property
    def crlset_max_entries_per_crl(self) -> int:
        return self.crlset_max_entries_per_crl_full_scale

    @property
    def targets(self) -> PaperTargets:
        return PaperTargets()

    def scaled(self, full_scale_count: int) -> int:
        return max(1, round(full_scale_count * self.scale))


def calibration_digest(calibration: Calibration) -> str:
    """Stable hex digest over every calibration field.

    Any calibration change -- not just scale/seed -- must reach another
    corpus store and another run journal, so the digest covers the full
    field dict (scalars and dates only, so ``repr`` is deterministic
    across processes).
    """
    payload = repr(sorted(dataclasses.asdict(calibration).items()))
    return hashlib.sha256(payload.encode()).hexdigest()[:20]
