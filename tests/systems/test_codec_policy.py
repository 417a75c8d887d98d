"""CodecPolicy: the typed front door from SystemConfig to the codec
and fingerprint plugin registries, including the on_missing resolution
rules and the systems-layer wiring that threads the chosen plugins
through the engine, the NIC hash core, and the FPGA engines."""

from __future__ import annotations

import pytest

from repro.datared import codecs as _codecs
from repro.datared import hashing as _hashing
from repro.datared.compression import ModeledCompressor, ZlibCompressor
from repro.errors import MissingDependencyError
from repro.systems.baseline import BaselineSystem
from repro.systems.config import CodecPolicy, SystemConfig
from repro.systems.fidr import FidrSystem

CHUNK = 4096


class TestCodecPolicy:
    def test_default_policy_is_the_byte_stable_pair(self):
        policy = CodecPolicy()
        assert isinstance(policy.build_compressor(), ZlibCompressor)
        assert policy.build_fingerprinter().name == "sha256"

    def test_level_and_ratio_parameters_flow_through(self):
        assert CodecPolicy(codec="zlib", level=1).build_compressor().level == 1
        modeled = CodecPolicy(
            codec="modeled", modeled_ratio=0.25
        ).build_compressor()
        assert isinstance(modeled, ModeledCompressor)
        assert modeled.compress(b"\x00" * CHUNK).stored_size == CHUNK // 4

    def test_on_missing_error_raises_typed(self, monkeypatch):
        monkeypatch.setattr(_codecs, "zstandard", None)
        policy = CodecPolicy(codec="zstd")
        assert policy.resolved_codec() == "zstd"
        with pytest.raises(MissingDependencyError):
            policy.build_compressor()

    def test_on_missing_fallback_degrades_with_a_warning(self, monkeypatch):
        monkeypatch.setattr(_codecs, "zstandard", None)
        monkeypatch.setattr(_hashing, "blake3", None)
        policy = CodecPolicy(
            codec="zstd", fingerprint="blake3", on_missing="fallback"
        )
        assert policy.resolved_codec() == "zlib"
        assert policy.resolved_fingerprint() == "sha256"
        with pytest.warns(RuntimeWarning, match="zstd"):
            compressor = policy.build_compressor()
        assert isinstance(compressor, ZlibCompressor)
        with pytest.warns(RuntimeWarning, match="blake3"):
            assert policy.build_fingerprinter().name == "sha256"

    def test_fallback_never_masks_a_typo(self):
        # Unknown names are bugs, not missing wheels: they pass through
        # resolution untouched so create_codec raises the ValueError.
        policy = CodecPolicy(codec="snappy", on_missing="fallback")
        assert policy.resolved_codec() == "snappy"
        with pytest.raises(ValueError, match="unknown codec"):
            policy.build_compressor()

    def test_available_codecs_do_not_warn(self):
        import warnings

        policy = CodecPolicy(codec="adaptive", on_missing="fallback")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert policy.build_compressor().name == "adaptive"

    def test_on_missing_is_validated(self):
        with pytest.raises(ValueError, match="on_missing"):
            CodecPolicy(on_missing="ignore")


class TestSystemWiring:
    def test_config_policy_reaches_the_engine(self):
        config = SystemConfig(codec=CodecPolicy(codec="modeled"))
        system = FidrSystem(config=config)
        assert isinstance(system.engine.compressor, ModeledCompressor)
        # The NIC hash core and the engine share one fingerprinter, so
        # offloaded digests match host-side identity (idea a).
        assert system.nic.fingerprinter is system.engine.fingerprinter
        # The FPGA engines model whatever codec the policy selected.
        assert system.compression.compressor is system.engine.compressor

    def test_explicit_compressor_still_overrides(self, rng):
        system = BaselineSystem(compressor=ModeledCompressor(0.5))
        assert isinstance(system.engine.compressor, ModeledCompressor)
        data = rng.randbytes(CHUNK)
        system.write(0, data)
        assert system.read(0, 1) == data

    def test_string_compressor_is_removed(self):
        # The PR-6 deprecation period is over: names now raise.
        with pytest.raises(TypeError, match="CodecPolicy"):
            BaselineSystem(compressor="modeled")

    def test_systems_agree_under_a_shared_policy(self, rng):
        config = SystemConfig(codec=CodecPolicy(codec="adaptive"))
        baseline = BaselineSystem(config=config)
        fidr = FidrSystem(config=config)
        payload = rng.randbytes(CHUNK) + b"\x00" * CHUNK
        baseline.write(0, payload)
        fidr.write(0, payload)
        baseline.flush()
        fidr.flush()
        assert baseline.read(0, 2) == payload
        assert fidr.read(0, 2) == payload
        assert (
            baseline.engine.stats_snapshot() == fidr.engine.stats_snapshot()
        )
