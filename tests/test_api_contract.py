"""Facade contract: the exported surface of ``repro.api`` is pinned.

API 2.0 restructured the facade into namespaced sub-facades
(``api.study``, ``api.corpus``, ``api.trace``, ``api.analysis``,
``api.serve``) and kept every pre-2.0 flat name as a deprecated alias;
API 3.0 removed those aliases.  A former flat name now raises
``AttributeError``, suggesting its namespaced home where it is close
enough to match.  API 4.0 removed the member ``study.crawl_figures_legs``.
API 5.0 removed the parameters that chose between a supervised and a
plain execution path.  API 7.0 kept only the 4 component re-exports that
code outside the tests reads.

Anything pinned here is a compatibility promise: removing or renaming an
entry is a breaking change (major bump of ``API_VERSION``), adding one
is a compatible change (minor bump).  When one of these tests fails,
either revert the facade change or bump ``API_VERSION`` *and* update the
pinned lists here in the same commit.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.net.transport import LINK_PROFILES, LinkProfile

PINNED_VERSION = "7.0"

PINNED_ALL = [
    "API_VERSION",
    "analysis",
    "corpus",
    "serve",
    "study",
    "trace",
]

PINNED_FACETS = {
    "study": [
        "StudyRun",
        "golden_digests",
        "list_experiments",
        "list_mechanisms",
        "mechanism_digests",
        "new_study",
        "render_report",
        "run_experiments",
        "run_one",
        "run_study",
    ],
    "corpus": ["build", "info", "list", "verify"],
    "trace": ["TraceDiff", "diff", "load", "render", "render_diff"],
    "analysis": ["run"],
    "serve": [
        "FleetConfig",
        "build_service",
        "render_serving_report",
        "run_fleet",
        "serving_digests",
    ],
}

#: parameters of the entry points that run sweeps and builds; API 5.0
#: removed the ones that chose between two execution paths.
PINNED_PARAMETERS = {
    "study.run_study": [
        "experiment",
        "scale",
        "seed",
        "fault_profile",
        "fault_seed",
        "cache_dir",
        "parallel",
        "trace",
        "resume",
        "checkpoint_dir",
        "exec_fault_profile",
        "exec_fault_seed",
        "mechanism",
    ],
    "study.run_experiments": ["study", "parallel"],
    "study.new_study": [
        "scale",
        "seed",
        "calibration",
        "cache_dir",
        "fault_profile",
        "fault_seed",
        "trace",
    ],
    "corpus.build": [
        "directory",
        "scale",
        "seed",
        "calibration",
        "shards",
        "workers",
        "force",
        "resume",
        "checkpoint_dir",
        "exec_fault_profile",
        "exec_fault_seed",
    ],
}

#: API 2.0's deprecated flat aliases -> their namespaced homes, all
#: removed in 3.0.  (``api.StudyRun`` still resolves: it is the class's
#: own module global, the same object as ``api.study.StudyRun``.)
FORMER_FLAT_NAMES = {
    "TraceDiff": "trace.TraceDiff",
    "build_corpus": "corpus.build",
    "corpus_info": "corpus.info",
    "diff_traces": "trace.diff",
    "golden_digests": "study.golden_digests",
    "list_corpora": "corpus.list",
    "list_experiments": "study.list_experiments",
    "list_mechanisms": "study.list_mechanisms",
    "load_trace": "trace.load",
    "mechanism_digests": "study.mechanism_digests",
    "new_study": "study.new_study",
    "render_diff": "trace.render_diff",
    "render_report": "study.render_report",
    "render_trace": "trace.render",
    "run_analysis": "analysis.run",
    "run_experiments": "study.run_experiments",
    "run_one": "study.run_one",
    "run_study": "study.run_study",
    "verify_corpus": "corpus.verify",
}

#: former names too far from their home for a close-match suggestion.
UNSUGGESTED_HOMES = {
    "build_corpus",
    "diff_traces",
    "list_corpora",
    "load_trace",
    "render_trace",
    "verify_corpus",
}

#: read by perfbench (``BrowserTestHarness``, ``generate_test_suite``)
#: and ``scripts/update_golden.py`` (``generate_test_suite``,
#: ``all_browsers``, ``traffic_report``).
PINNED_COMPONENTS = [
    "BrowserTestHarness",
    "all_browsers",
    "generate_test_suite",
    "traffic_report",
]


class TestVersion:
    def test_version_is_pinned(self):
        assert api.API_VERSION == PINNED_VERSION

    def test_version_shape(self):
        major, minor = api.API_VERSION.split(".")
        assert major.isdigit() and minor.isdigit()


class TestNamespacedSurface:
    def test_all_is_exactly_the_pinned_list(self):
        assert list(api.__all__) == PINNED_ALL

    def test_all_is_sorted(self):
        assert list(api.__all__) == sorted(api.__all__)

    @pytest.mark.parametrize("facet", sorted(PINNED_FACETS))
    def test_facet_members_are_pinned(self, facet):
        assert list(getattr(api, facet).members) == PINNED_FACETS[facet]

    @pytest.mark.parametrize("facet", sorted(PINNED_FACETS))
    def test_every_facet_member_resolves(self, facet):
        namespace = getattr(api, facet)
        for member in PINNED_FACETS[facet]:
            assert getattr(namespace, member) is not None, member

    def test_removed_member_raises(self):
        with pytest.raises(AttributeError):
            api.study.crawl_figures_legs  # noqa: B018

    @pytest.mark.parametrize("member", sorted(PINNED_PARAMETERS))
    def test_execution_parameters_are_pinned(self, member):
        import inspect

        facet, name = member.split(".")
        function = getattr(getattr(api, facet), name)
        parameters = list(inspect.signature(function).parameters)
        assert parameters == PINNED_PARAMETERS[member]

    @pytest.mark.parametrize("facet", sorted(PINNED_FACETS))
    def test_facet_repr_and_dir(self, facet):
        namespace = getattr(api, facet)
        assert f"repro.api.{facet}" in repr(namespace)
        assert sorted(dir(namespace)) == sorted(PINNED_FACETS[facet])


class TestFormerFlatNames:
    @pytest.mark.parametrize("name", sorted(FORMER_FLAT_NAMES))
    def test_former_flat_name_raises_naming_its_home(self, name):
        with pytest.raises(AttributeError) as excinfo:
            getattr(api, name)
        message = str(excinfo.value)
        assert repr(name) in message
        if name not in UNSUGGESTED_HOMES:
            assert "did you mean" in message
            assert FORMER_FLAT_NAMES[name] in message

    def test_every_home_is_a_pinned_member(self):
        for home in FORMER_FLAT_NAMES.values():
            facet, member = home.split(".")
            assert member in PINNED_FACETS[facet], home

    def test_study_run_class_keeps_one_object(self):
        assert api.StudyRun is api.study.StudyRun


class TestComponentReExports:
    def test_component_exports_are_exactly_the_pinned_list(self):
        assert sorted(api._COMPONENT_EXPORTS) == PINNED_COMPONENTS

    def test_every_component_resolves_lazily(self):
        for name in PINNED_COMPONENTS:
            attr = getattr(api, name)
            assert attr is not None, name
            # The re-export is the implementing object itself, not a copy.
            module = __import__(
                api._COMPONENT_EXPORTS[name], fromlist=[name]
            )
            assert attr is getattr(module, name), name

    def test_link_profiles_canonical(self):
        """The broadband/mobile profiles have one home,
        ``repro.net.transport``, whose objects the serving fleet reads."""
        profiles = LINK_PROFILES
        assert set(profiles) == {"broadband", "mobile"}
        assert profiles["broadband"] == LinkProfile()
        assert profiles["mobile"] == LinkProfile.mobile()


class TestErrorPath:
    def test_dir_covers_the_whole_surface(self):
        names = dir(api)
        for name in PINNED_ALL + PINNED_COMPONENTS:
            assert name in names

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            api.NoSuchExport  # noqa: B018

    def test_unknown_attribute_suggests_near_misses(self):
        with pytest.raises(AttributeError, match="did you mean"):
            api.run_studdy  # noqa: B018
        with pytest.raises(AttributeError) as excinfo:
            api.lst_mechanisms  # noqa: B018
        assert "list_mechanisms" in str(excinfo.value)

    def test_unknown_attribute_without_a_near_miss_is_plain(self):
        with pytest.raises(AttributeError) as excinfo:
            api.zzqx_not_even_close  # noqa: B018
        assert "did you mean" not in str(excinfo.value)
