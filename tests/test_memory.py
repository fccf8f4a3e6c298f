"""Memory bounds: the bytes per ad that ingest keeps, and, after ingest,
the traced peak of each skill-network, intensity and indicator stage, per
skill slot or per ad, on a corpus of over a million slots; the traced
peak of hashing an input file for provenance.json; and that of writing a
synthetic scenario, which must not grow with the corpus.

The bounds are what the one-byte-per-slot rule leaves room for: a boolean
mask over the slots, the per-ad arrays (at 14 slots per ad, one int64 per ad
is 0.57 bytes per slot), the result, and temporaries taken one
``corpus.SLOT_SLICE`` at a time. A per-slot int64 temporary would take 8
bytes per slot."""

import datetime as dt
import hashlib  # _sha256 imports it on first use; loaded here, outside any traced call
import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.random import default_rng  # loaded here, outside any traced call

from skillscope.cli import _sha256
from skillscope.corpus import IncidenceIndex, build_index, ingest_records
from skillscope.indicators import assemble_report
from skillscope.occupations import compute_intensity
from skillscope.skillmetrics import compute_effective_use
from skillscope.synthgen import ClusterSpec, SynthConfig, write_scenario

N_ADS, PER_AD, VOCAB = 75_000, 14, 40


def traced_peak(call):
    """``call()``'s result and the traced peak above the memory held when it
    started, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def skill_rows(rng, vocab: int, per_ad: int) -> np.ndarray:
    """``per_ad`` distinct skills of ``vocab`` in each of ``N_ADS`` rows."""
    return np.argsort(rng.random((N_ADS, vocab)), axis=1)[:, :per_ad]


def ad_records():
    """``N_ADS`` new records, one at a time: 1,050,000 slots over six years,
    one occupation of 50 per ad; every skill holds about a third of the
    ads. Salaries are a range, one bound or missing; education is missing on
    every fifth ad."""
    rng = default_rng(5)
    rows = skill_rows(rng, VOCAB, PER_AD).tolist()
    days = rng.integers(0, 6 * 365, N_ADS).tolist()
    start = dt.date(2014, 1, 1)
    for i in range(N_ADS):
        rec = {"id": str(i), "date": (start + dt.timedelta(days[i])).isoformat(),
               "occupation": f"occ{i % 50}", "skills": [f"s{s}" for s in rows[i]]}
        if i % 3:
            rec["salary_min"] = 30_000.0 + i % 997
        if i % 4:
            rec["salary_max"] = 60_000.0 + i % 991
        if i % 5:
            rec["education_years"] = 10.0 + i % 7 / 3
        rec["experience_years"] = i % 11 / 7
        yield rec


@pytest.fixture(scope="module")
def corpus():
    """The corpus of :func:`ad_records`; effective use keeps every slot."""
    corpus, _ = ingest_records(ad_records())
    assert len(corpus.slots) == N_ADS * PER_AD
    return corpus


def test_ingest_keeps_at_most_150_bytes_per_ad():
    """At 14 slots per ad the columns take 128 bytes per ad (56 of skill
    ids, 32 of numbers, five int64 per-ad columns) plus the id text; one
    ``str`` per id would add about 50. The records come from a generator, as
    from a file: a prebuilt list would share its id strings with anything
    ingest kept of them."""
    n_ads = 15_000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        corpus, _ = ingest_records(itertools.islice(ad_records(), n_ads))
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(corpus) == n_ads
    assert kept <= 150 * n_ads


def test_build_index_takes_at_most_one_byte_per_slot(corpus):
    index, peak = traced_peak(lambda: build_index(corpus))
    np.testing.assert_array_equal(index.skill_job_counts, np.bincount(corpus.slots))
    assert peak <= len(corpus.slots)


def test_effective_use_keeping_every_slot_takes_at_most_one_byte_per_slot(corpus):
    index = build_index(corpus)
    eff, peak = traced_peak(lambda: compute_effective_use(index))
    assert eff is index
    assert peak <= len(corpus.slots)


def test_effective_use_dropping_slots_takes_at_most_eight_bytes_per_slot():
    # Skill 0 is in every ad: its limit (N - 1) // N_ADS is 13, below the
    # 14 slots of each ad, so it drops out of every one.
    others = skill_rows(default_rng(6), VOCAB - 1, PER_AD - 1) + 1
    rows = np.column_stack([np.zeros(N_ADS, dtype=np.int64), others])
    index = IncidenceIndex({f"s{i}": i for i in range(VOCAB)},
                           np.arange(N_ADS + 1) * PER_AD, rows.ravel().astype(np.int32))
    eff, peak = traced_peak(lambda: compute_effective_use(index))
    assert eff.skill_job_counts[0] == 0
    assert len(eff.indices) == N_ADS * (PER_AD - 1)
    assert peak <= 8 * len(index.indices)


def test_intensity_takes_at_most_two_bytes_per_slot(corpus):
    profiles, peak = traced_peak(lambda: compute_intensity(corpus, ["s0", "s1", "s2"]))
    assert sum(p.total_slots for p in profiles) == len(corpus.slots)
    assert peak <= 2 * len(corpus.slots)


def test_market_indicators_take_at_most_forty_bytes_per_ad(corpus):
    report, peak = traced_peak(lambda: assemble_report(corpus, [], -1, [1.0]))
    assert sum(report.baseline.counts_by_year.values()) == N_ADS
    assert peak <= 40 * len(corpus)


def test_indicators_of_one_group_per_occupation_take_at_most_36_bytes_per_ad(corpus):
    """50 groups covering every ad, computed with the market: every ad is
    read from the whole columns, with no gather of any group's rows, under
    one int64 key built in place."""
    labels = list(corpus.occupations)
    medians = [1.0] * (1 + len(labels))
    report, peak = traced_peak(lambda: assemble_report(
        corpus, labels, corpus.occupation_codes, medians))
    assert len(report.groups) == 50
    assert sum(sum(g.counts_by_year.values()) for g in report.groups) == N_ADS
    assert peak <= 36 * len(corpus)


def test_hashing_an_input_takes_at_most_128_kib(tmp_path):
    """The hash reads a 4 MiB file through one reused 64 KiB buffer; one
    ``bytes`` per 1 MiB read would take at least 1 MiB."""
    data = default_rng(7).bytes(4 << 20)
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(data)
    digest, peak = traced_peak(lambda: _sha256(path))
    assert digest == hashlib.sha256(data).hexdigest()
    assert peak <= 128 << 10


def synth_config(n_days: int) -> SynthConfig:
    """Two clusters of 10 ads a day with every planted field and noise."""
    return SynthConfig(
        seed=3, n_days=n_days, clusters=tuple(
            ClusterSpec(name=f"c{i}", skills=tuple(f"k{i}_{j}" for j in range(12)),
                        occupations=(f"o{i}a", f"o{i}b"), base_daily_rate=10.0,
                        cohesion=0.5, salary_level=50_000.0, education_mean=12.0,
                        experience_mean=3.0)
            for i in range(2)),
        background_skills=tuple((f"bg{k}", 0.2) for k in range(10)),
        weekly_amplitude=0.3, noise_level=0.05)


def test_synth_peak_does_not_grow_with_the_corpus(tmp_path):
    """Each record is written as it is drawn: 200 days (about 4,000 ads)
    peak within 16 KiB of 20 days (about 400). A list of every record would
    add about 560 bytes per ad, 2 MB here."""
    write_scenario(synth_config(2), tmp_path / "warm")  # caches filled outside the trace
    (short, _), short_peak = traced_peak(lambda: write_scenario(synth_config(20),
                                                                tmp_path / "short"))
    (long, _), long_peak = traced_peak(lambda: write_scenario(synth_config(200),
                                                              tmp_path / "long"))
    assert long.read_bytes().count(b"\n") > 9 * short.read_bytes().count(b"\n")
    assert long_peak - short_peak <= 16 << 10
