"""Reference crawl: the per-day rescans that predate the crawl index.

Each query re-walks every entry record of every CRL for the day it asks
about, O(days x entries), the way Figures 5, 6 and 9 were computed
before :class:`repro.scan.crawl_index.CrawlIndex`.
``test_crawl_index.py`` checks the index against these results and
times the two against each other.  Not a test module: pytest does not
collect it.
"""

from __future__ import annotations

import datetime
import functools

from repro.revocation.sizing import estimated_crl_size, representative_entry_size
from repro.scan.corpus import CrlEntryRecord, EntryColumns
from repro.scan.crl_model import EcosystemCrl
from repro.scan.ecosystem import Ecosystem


@functools.cache
def _records(entries: EntryColumns) -> list[CrlEntryRecord]:
    """A run of entry columns as records, decoded once, so that each
    rescan below costs one walk over a record list."""
    return entries.decode()


def _visible(entry: CrlEntryRecord, date: datetime.date) -> bool:
    """CAs list an entry from revocation until certificate expiry."""
    return entry.revoked_at <= date <= entry.cert_not_after


def entry_count(crl: EcosystemCrl, date: datetime.date) -> int:
    count = sum(1 for entry in _records(crl.entries) if _visible(entry, date))
    if crl.hidden is not None:
        count += crl.hidden.count_at(date)
    return count


def additions_on(crl: EcosystemCrl, date: datetime.date) -> int:
    count = sum(1 for entry in _records(crl.entries) if entry.revoked_at == date)
    if crl.hidden is not None:
        count += crl.hidden.additions_on(date)
    return count


def daily_total_additions(ecosystem: Ecosystem) -> dict[datetime.date, int]:
    """Figure 9's upper series: new CRL entries per crawl day."""
    return {
        date: sum(additions_on(crl, date) for crl in ecosystem.crls)
        for date in ecosystem.calibration.crawl_dates
    }


def entry_counts_at(ecosystem: Ecosystem, date: datetime.date) -> dict[str, int]:
    return {crl.url: entry_count(crl, date) for crl in ecosystem.crls}


def sizes_at(ecosystem: Ecosystem, date: datetime.date) -> dict[str, int]:
    """Byte size of every CRL on ``date``, re-encoding each visible entry
    (Figures 5-6)."""
    sizes = {}
    for crl in ecosystem.crls:
        materialized = sum(
            len(EcosystemCrl._to_revoked_entry(entry).to_der())
            for entry in _records(crl.entries)
            if _visible(entry, date)
        )
        hidden = crl.hidden.count_at(date) if crl.hidden is not None else 0
        sizes[crl.url] = estimated_crl_size(
            issuer=crl.issuer_name,
            signature_size=crl.signature_size,
            signature_algorithm_oid=crl.signature_algorithm_oid,
            materialized_entry_bytes=materialized,
            hidden_entry_count=hidden,
            hidden_entry_size=representative_entry_size(crl.serial_bytes),
        )
    return sizes
