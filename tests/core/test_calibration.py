"""Tests for the calibration profile."""

import dataclasses
import pickle

import pytest

from repro.core.calibration import (
    DEFAULT_CALIBRATION,
    CalibrationProfile,
    profile_to_json,
)
from repro.errors import CalibrationError
from repro.topology.link import LinkTier
from repro.units import MiB


class TestValidation:
    def test_default_is_valid(self):
        CalibrationProfile.default()

    def test_efficiency_bounds(self):
        with pytest.raises(CalibrationError):
            CalibrationProfile(sdma_xgmi_efficiency=1.5)
        with pytest.raises(CalibrationError):
            CalibrationProfile(hbm_stream_efficiency=0.0)

    def test_positive_rates(self):
        with pytest.raises(CalibrationError):
            CalibrationProfile(sdma_engine_throughput=-1)

    def test_page_size_power_of_two(self):
        with pytest.raises(CalibrationError):
            CalibrationProfile(page_size=3000)

    def test_with_returns_new_profile(self):
        profile = DEFAULT_CALIBRATION.with_(sdma_engine_throughput=60e9)
        assert profile.sdma_engine_throughput == 60e9
        assert DEFAULT_CALIBRATION.sdma_engine_throughput == 50e9


class TestFingerprintMemo:
    def test_memo_equals_a_fresh_computation(self):
        profile = DEFAULT_CALIBRATION.with_(pageable_jitter=0.2)
        compute = CalibrationProfile._fingerprint.func  # bypasses the memo
        digest = profile.fingerprint()
        assert digest == compute(profile)
        assert profile.fingerprint() is digest  # hashed once per instance

    def test_with_builds_an_unmemoized_profile(self):
        base = DEFAULT_CALIBRATION.fingerprint()
        changed = DEFAULT_CALIBRATION.with_(sdma_xgmi_efficiency=0.7)
        assert changed.fingerprint() != base
        assert DEFAULT_CALIBRATION.fingerprint() == base
        assert DEFAULT_CALIBRATION.with_().fingerprint() == base

    def test_memo_is_invisible_to_eq_repr_fields_and_json(self):
        fresh = CalibrationProfile()
        memoized = CalibrationProfile()
        memoized.fingerprint()
        assert fresh == memoized
        assert repr(fresh) == repr(memoized)
        assert dataclasses.asdict(fresh) == dataclasses.asdict(memoized)
        assert "_fingerprint" not in {
            field_.name for field_ in dataclasses.fields(memoized)
        }
        assert "_fingerprint" not in profile_to_json(memoized)["constants"]

    @pytest.mark.parametrize("memoized", [False, True])
    def test_pickle_round_trip(self, memoized):
        profile = DEFAULT_CALIBRATION.with_(llc_bytes=64 * MiB)
        if memoized:
            profile.fingerprint()
        clone = pickle.loads(pickle.dumps(profile))
        assert clone == profile
        assert clone.fingerprint() == CalibrationProfile._fingerprint.func(profile)


class TestDerivedRates:
    def test_sdma_caps_paper_values(self, calibration):
        assert calibration.sdma_cap_for_tier(LinkTier.SINGLE) == pytest.approx(37.75e9)
        assert calibration.sdma_cap_for_tier(LinkTier.DUAL) == pytest.approx(50e9)
        assert calibration.sdma_cap_for_tier(LinkTier.QUAD) == pytest.approx(50e9)
        assert calibration.sdma_cap_for_tier(LinkTier.CPU) == pytest.approx(
            28.296e9, rel=1e-3
        )

    def test_kernel_caps(self, calibration):
        assert calibration.kernel_remote_cap(
            LinkTier.QUAD, bidirectional=True
        ) == pytest.approx(87e9)
        assert calibration.kernel_remote_cap(
            LinkTier.QUAD, bidirectional=False
        ) == pytest.approx(176e9)
        assert calibration.kernel_remote_cap(
            LinkTier.CPU, bidirectional=False
        ) == pytest.approx(25.488e9, rel=1e-3)

    def test_llc_boost_requires_cacheable(self, calibration):
        base = calibration.kernel_remote_cap(
            LinkTier.CPU, bidirectional=False, working_set=1 * MiB
        )
        boosted = calibration.kernel_remote_cap(
            LinkTier.CPU,
            bidirectional=False,
            working_set=1 * MiB,
            cacheable=True,
        )
        assert boosted > base
        # Above the LLC no boost even when cacheable.
        big = calibration.kernel_remote_cap(
            LinkTier.CPU,
            bidirectional=False,
            working_set=64 * MiB,
            cacheable=True,
        )
        assert big == pytest.approx(base)

    def test_hbm_stream(self, calibration):
        assert calibration.hbm_stream_bw(1.6e12) == pytest.approx(1.4e12)

    def test_page_migration_is_2_8(self, calibration):
        assert calibration.page_migration_bw() == pytest.approx(2.8e9, rel=0.01)


class TestLatencyModel:
    def test_one_hop_classes(self, calibration):
        assert calibration.p2p_latency(1, LinkTier.SINGLE) == pytest.approx(8.7e-6)
        assert calibration.p2p_latency(1, LinkTier.QUAD) == pytest.approx(10.5e-6)
        assert calibration.p2p_latency(1, LinkTier.DUAL) == pytest.approx(10.1e-6)

    def test_multi_hop_has_no_tier_setup(self, calibration):
        three_hop = calibration.p2p_latency(3, None)
        assert three_hop == pytest.approx(8.7e-6 + 2 * 4.55e-6)

    def test_direct_tier_consistency_enforced(self, calibration):
        with pytest.raises(CalibrationError):
            calibration.p2p_latency(1, None)
        with pytest.raises(CalibrationError):
            calibration.p2p_latency(2, LinkTier.SINGLE)

    def test_jitter_bounds(self, calibration):
        base = calibration.p2p_latency(1, LinkTier.SINGLE, 0.0)
        jittered = calibration.p2p_latency(1, LinkTier.SINGLE, 0.999)
        assert base < jittered < base + calibration.p2p_latency_jitter
        with pytest.raises(CalibrationError):
            calibration.p2p_latency(1, LinkTier.SINGLE, 1.5)

    def test_zero_hops_rejected(self, calibration):
        with pytest.raises(CalibrationError):
            calibration.p2p_latency(0, None)


class TestDescribe:
    def test_describe_mentions_key_numbers(self, calibration):
        text = calibration.describe()
        assert "50 GB/s" in text
        assert "2.80 GB/s" in text or "2.8" in text


class TestProfileSerialization:
    """The repro-calibration/1 profile file format."""

    def test_round_trip_is_fingerprint_identical(self, tmp_path):
        from repro.core.calibration import dump_profile, load_profile

        path = tmp_path / "profile.json"
        dump_profile(DEFAULT_CALIBRATION, path)
        loaded, provenance = load_profile(path)
        assert loaded.fingerprint() == DEFAULT_CALIBRATION.fingerprint()
        assert provenance == {}

    def test_provenance_round_trips(self, tmp_path):
        from repro.core.calibration import dump_profile, load_profile

        path = tmp_path / "profile.json"
        dump_profile(
            DEFAULT_CALIBRATION.with_(sdma_xgmi_efficiency=0.7),
            path,
            provenance={
                "source": "fitted-from-telemetry",
                "telemetry": "machine",
                "fitted_fields": ["sdma_xgmi_efficiency"],
            },
        )
        profile, provenance = load_profile(path)
        assert profile.sdma_xgmi_efficiency == 0.7
        assert provenance["source"] == "fitted-from-telemetry"
        assert provenance["fitted_fields"] == ["sdma_xgmi_efficiency"]

    def test_dump_load_dump_is_a_fixpoint(self, tmp_path):
        from repro.core.calibration import dump_profile, load_profile

        path = tmp_path / "profile.json"
        dump_profile(DEFAULT_CALIBRATION, path)
        first = path.read_text()
        profile, _ = load_profile(path)
        dump_profile(profile, path)
        assert path.read_text() == first

    def test_rejects_edited_constants_with_stale_fingerprint(self, tmp_path):
        import json

        from repro.core.calibration import load_profile, profile_to_json

        entry = profile_to_json(DEFAULT_CALIBRATION)
        entry["constants"]["sdma_xgmi_efficiency"] = 0.5
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(entry))
        with pytest.raises(CalibrationError, match="fingerprint mismatch"):
            load_profile(path)

    def test_rejects_unknown_top_level_key(self):
        from repro.core.calibration import profile_from_json, profile_to_json

        entry = profile_to_json(DEFAULT_CALIBRATION)
        entry["notes"] = "hand-tuned"
        with pytest.raises(CalibrationError, match="unknown calibration profile"):
            profile_from_json(entry)

    def test_rejects_unknown_constant(self):
        from repro.core.calibration import profile_from_json, profile_to_json

        entry = profile_to_json(DEFAULT_CALIBRATION)
        entry["constants"]["warp_speed"] = 1.0
        del entry["fingerprint"]
        with pytest.raises(CalibrationError, match="unknown calibration constant"):
            profile_from_json(entry)

    def test_rejects_unknown_provenance_field(self):
        from repro.core.calibration import profile_from_json, profile_to_json

        entry = profile_to_json(DEFAULT_CALIBRATION)
        entry["provenance"] = {"author": "me"}
        with pytest.raises(CalibrationError, match="unknown provenance"):
            profile_from_json(entry)

    def test_rejects_wrong_schema(self):
        from repro.core.calibration import profile_from_json, profile_to_json

        entry = profile_to_json(DEFAULT_CALIBRATION)
        entry["schema"] = "repro-calibration/9"
        with pytest.raises(CalibrationError, match="unsupported calibration schema"):
            profile_from_json(entry)

    def test_load_reports_bad_json(self, tmp_path):
        from repro.core.calibration import load_profile

        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(CalibrationError, match="not valid JSON"):
            load_profile(path)

    def test_out_of_bounds_constant_fails_profile_validation(self):
        from repro.core.calibration import profile_from_json, profile_to_json

        entry = profile_to_json(DEFAULT_CALIBRATION)
        entry["constants"]["sdma_xgmi_efficiency"] = 1.5
        del entry["fingerprint"]
        with pytest.raises(CalibrationError, match="outside"):
            profile_from_json(entry)
