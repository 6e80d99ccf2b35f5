"""The unified ScenarioSpec API.

One frozen value object — :class:`repro.config.ScenarioSpec` —
describes every scenario run, and ``run`` / ``run_cached`` consume it.
The contract tested here: specs the pre-spec API could express keep
that API's cache fingerprints (pinned below as literals, so pre-existing
cache entries keep hitting), and only genuinely new configurations
(huge pages on) fingerprint under the new tag.
"""

import argparse

import pytest

from repro.config import (
    HugePageSettings,
    KsmSettings,
    ScenarioSpec,
    TieringSettings,
)
from repro.core.preload import CacheDeployment

KWARGS = dict(scale=0.02, measurement_ticks=2, seed=20130421)


class TestFingerprintCompatibility:
    #: Fingerprints of the retired ``ScenarioRequest`` cache parts, as
    #: computed by the last release that shipped it.  Never update these:
    #: a change means every existing cache entry silently went stale.
    PINNED = [
        (ScenarioSpec("daytrader4", **KWARGS), "826077389b9a9d94"),
        (
            ScenarioSpec(
                "mixed3",
                deployment=CacheDeployment.SHARED_COPY,
                ksm=KsmSettings(scan_policy="hybrid"),
                **KWARGS,
            ),
            "526698649333a119",
        ),
        (
            ScenarioSpec(
                "tuscany3",
                ksm=KsmSettings(scan_engine="batch"),
                tiering=TieringSettings(mode="combined"),
                **KWARGS,
            ),
            "6cb9723e04b8f78e",
        ),
    ]

    @pytest.mark.parametrize(
        "spec, pinned", PINNED, ids=[s.scenario for s, _ in PINNED]
    )
    def test_legacy_requests_fingerprint_unchanged(self, spec, pinned):
        assert spec.cache_parts()[0] == "scenario-run"
        assert spec.to_fingerprint() == pinned

    def test_hugepage_specs_fingerprint_under_new_tag(self):
        spec = ScenarioSpec(
            "daytrader4",
            hugepages=HugePageSettings(policy="always", block_pages=16),
            **KWARGS,
        )
        assert spec.cache_parts()[0] == "scenario-spec"
        baseline = ScenarioSpec("daytrader4", **KWARGS)
        assert baseline.cache_parts()[0] == "scenario-run"
        assert spec.to_fingerprint() != baseline.to_fingerprint()

    def test_explicit_columnar_backend_keeps_the_legacy_pin(self):
        """One run, one cache key: naming the only pipeline changes
        nothing."""
        spec = ScenarioSpec("daytrader4", backend="columnar", **KWARGS)
        assert spec.to_fingerprint() == "826077389b9a9d94"

    @pytest.mark.parametrize("backend", ["colunmar", "dict"])
    def test_other_backends_rejected_at_construction(self, backend):
        """A misspelled or retired backend fails before any simulation."""
        with pytest.raises(ValueError):
            ScenarioSpec("daytrader4", backend=backend, **KWARGS)


class TestFromCliArgs:
    def _namespace(self, **overrides):
        values = dict(
            scale=0.02,
            ticks=2,
            seed=7,
            scan_policy="hybrid",
            scan_engine="batch",
            tiering="compress",
            faults=None,
            thp_policy="khugepaged",
            hugepages=64,
            deployment="shared-copy",
        )
        values.update(overrides)
        return argparse.Namespace(**values)

    def test_round_trip(self):
        spec = ScenarioSpec.from_cli_args(
            self._namespace(), scenario="mixed3"
        )
        assert spec.scenario == "mixed3"
        assert spec.deployment is CacheDeployment.SHARED_COPY
        assert spec.scale == 0.02
        assert spec.measurement_ticks == 2
        assert spec.seed == 7
        assert spec.ksm.scan_policy == "hybrid"
        assert spec.ksm.scan_engine == "batch"
        assert spec.tiering.mode == "compress"
        assert spec.hugepages == HugePageSettings(
            policy="khugepaged", block_pages=64
        )
        assert spec.backend == "columnar"

    def test_faults_parsed_from_spec_string(self):
        spec = ScenarioSpec.from_cli_args(
            self._namespace(faults="1337:0.25"), scenario="daytrader4"
        )
        assert spec.faults is not None
        assert spec.faults.seed == 1337

    def test_partial_namespace_falls_back_to_defaults(self):
        spec = ScenarioSpec.from_cli_args(
            argparse.Namespace(scale=0.5), scenario="daytrader4"
        )
        assert spec.scale == 0.5
        assert spec.ksm == KsmSettings()
        assert spec.tiering == TieringSettings()
        assert not spec.hugepages.enabled


class TestSettingsValidation:
    def test_policy_is_validated(self):
        with pytest.raises(ValueError):
            HugePageSettings(policy="sometimes")

    def test_block_pages_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            HugePageSettings(policy="always", block_pages=48)
        with pytest.raises(ValueError):
            HugePageSettings(policy="always", block_pages=1)

    def test_collapse_fraction_bounds(self):
        with pytest.raises(ValueError):
            HugePageSettings(policy="khugepaged", collapse_hot_fraction=0.0)
        with pytest.raises(ValueError):
            HugePageSettings(policy="khugepaged", collapse_hot_fraction=1.5)
