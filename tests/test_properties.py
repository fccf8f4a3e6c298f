"""Property tests: arbitrary JSON input is either accepted or rejected with
the program's own errors, never with an unexpected exception.

Only parsing and validation run here. Generating a corpus or running a
report on arbitrary settings could allocate without bound."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from skillscope.cli import apply_config_file
from skillscope.corpus import IngestConfig, _record_to_ad
from skillscope.errors import DataError, UsageError
from skillscope.synthgen import config_from_dict

# Every value json.loads can return, NaN and the infinities included.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12,
)


def objects(required: dict, optional: dict | None = None):
    """Arbitrary JSON objects, or objects with each of ``required`` and maybe
    each of ``optional``, so that most examples get past the first checks."""
    return (st.fixed_dictionaries(required, optional=optional)
            | st.dictionaries(st.text(max_size=8), json_values, max_size=4))


numbers = (st.sampled_from([float("nan"), float("inf"), "-Infinity"]) | st.integers()
           | st.floats() | st.text(max_size=6) | json_values)
names = st.lists(st.text(max_size=6), max_size=4)
name_lists = names | json_values

records = objects({
    "id": st.text(min_size=1, max_size=6),
    "date": st.dates().map(str) | st.sampled_from(["2019-02-30", 20190101]),
    "occupation": st.sampled_from(["Dev", " \t "]) | st.text(max_size=6),
    "skills": names | st.text(max_size=12) | json_values,
}, {
    "salary_min": numbers,
    "salary_max": numbers,
    "education_years": numbers,
    "experience_years": numbers,
})

clusters = objects({
    "name": st.text(max_size=6) | json_values,
    "skills": name_lists,
    "occupations": name_lists,
    "base_daily_rate": numbers,
}, {
    "annual_growth": numbers,
    "growth_changepoints": st.lists(st.lists(numbers, max_size=3), max_size=3),
    "cohesion": numbers,
    "salary_level": numbers,
    "education_mean": numbers,
    "experience_mean": numbers,
})

synth_configs = objects({
    "seed": st.integers() | json_values,
    "n_days": st.integers() | json_values,
    "clusters": st.lists(clusters, max_size=3) | json_values,
}, {
    "background_skills": st.lists(st.lists(numbers | st.text(max_size=6), max_size=3),
                                  max_size=3),
    "start_date": st.dates().map(str) | json_values,
    "weekly_amplitude": numbers,
    "noise_level": numbers,
})


@settings(deadline=None)
@given(records)
def test_record_to_ad_rejects_only_with_value_error(rec):
    try:
        ad = _record_to_ad(rec, IngestConfig())
    except ValueError:
        return
    assert ad.occupation and ad.skills
    json.dumps([ad.salary_min, ad.salary_max, ad.education_years,
                ad.experience_years], allow_nan=False)


@settings(deadline=None)
@given(synth_configs | json_values)
def test_config_from_dict_rejects_only_with_data_error(raw):
    try:
        config_from_dict(raw)
    except DataError:
        pass


@settings(deadline=None)
@given(json_values | objects({}, {"cutoff": st.integers(), "seed_skill": names}))
def test_apply_config_file_rejects_only_with_own_errors(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "config-file.json"
    path.write_text(json.dumps(doc))
    try:
        argv = apply_config_file(["report", "--config-file", str(path)])
    except (DataError, UsageError):
        return
    assert all(isinstance(a, str) for a in argv)
