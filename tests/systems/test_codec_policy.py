"""CodecPolicy: the typed front door from SystemConfig to the codec
registry, and the systems-layer wiring that threads the chosen codec and
the one fingerprinter through the engine, the NIC hash core, and the
FPGA engines."""

from __future__ import annotations

import pytest

from repro.datared.compression import ModeledCompressor, ZlibCompressor
from repro.datared.hashing import SHA256
from repro.systems.baseline import BaselineSystem
from repro.systems.config import CodecPolicy, SystemConfig
from repro.systems.fidr import FidrSystem

CHUNK = 4096


class TestCodecPolicy:
    def test_default_policy_is_the_byte_stable_pair(self):
        policy = CodecPolicy()
        assert isinstance(policy.build_compressor(), ZlibCompressor)
        assert FidrSystem().engine.fingerprinter is SHA256

    def test_level_and_ratio_parameters_flow_through(self):
        assert CodecPolicy(codec="zlib", level=1).build_compressor().level == 1
        modeled = CodecPolicy(
            codec="modeled", modeled_ratio=0.25
        ).build_compressor()
        assert isinstance(modeled, ModeledCompressor)
        assert modeled.compress(b"\x00" * CHUNK).stored_size == CHUNK // 4

    def test_an_unknown_codec_name_raises(self):
        with pytest.raises(ValueError, match="unknown codec"):
            CodecPolicy(codec="snappy").build_compressor()


class TestSystemWiring:
    def test_config_policy_reaches_the_engine(self):
        config = SystemConfig(codec=CodecPolicy(codec="modeled"))
        system = FidrSystem(config=config)
        assert isinstance(system.engine.compressor, ModeledCompressor)
        # The NIC hash core and the engine share one fingerprinter, so
        # offloaded digests match host-side identity (idea a).
        assert system.nic.fingerprinter is system.engine.fingerprinter

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
        config = SystemConfig(codec=CodecPolicy(codec="zlib"))
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
