import re

import numpy as np
import pytest

from qumode_probe.config import MATRIX
from qumode_probe.operators import HermitianOperator, Spectrum, SystemState, thermal_state
from qumode_probe.probe import Bin, Ideal, ProbeConfig, Squeezed, distribution_for
from qumode_probe.sampling import MeasurementRecord, sample_measurements
from qumode_probe.serialize import (
    probe_from_dict,
    probe_to_dict,
    record_from_text,
    record_to_text,
)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator((a + a.conj().T) / 2)


def payload(a):
    """The config's matrix literal for ``a``."""
    return {"dim": a.shape[0], "entries": [[z.real, z.imag] for z in a.reshape(-1)]}


class TestOperatorRoundTrip:
    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    def test_exact_round_trip(self, dim):
        op = random_hermitian(dim, dim)
        back = HermitianOperator(MATRIX.check(payload(op.entries), "matrix"))
        assert np.array_equal(back.entries, op.entries)

    def test_entry_count_validated(self):
        literal = payload(random_hermitian(3, 0).entries)
        literal["entries"] = literal["entries"][:-1]
        message = r"^matrix\.entries must hold dim\*\*2 = 9 pairs, got 8$"
        with pytest.raises(ValueError, match=message):
            MATRIX.check(literal, "matrix")


class TestStateRoundTrip:
    def test_thermal_state(self):
        state = thermal_state(random_hermitian(4, 3), 1.5)
        back = SystemState(MATRIX.check(payload(state.rho), "matrix"))
        assert np.array_equal(back.rho, state.rho)


class TestProbeRoundTrip:
    @pytest.mark.parametrize("mode", [Ideal(), Bin(0.5), Squeezed(10.0)])
    def test_round_trip(self, mode):
        probe = ProbeConfig(1.25, 2.0, 40.0, mode)
        back = probe_from_dict(probe_to_dict(probe))
        assert back == probe

    def test_string_mode_shorthand(self):
        probe = probe_from_dict({"p0": 0.0, "g": 1.0, "tau": 1.0, "mode": "ideal"})
        assert isinstance(probe.mode, Ideal)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            probe_from_dict({"mode": {"kind": "coherent"}})


class TestRecordRoundTrip:
    def test_samples_and_metadata_survive(self):
        spec = Spectrum.from_lines([(0.0, 0.5, 1), (1.0, 0.5, 1)])
        probe = ProbeConfig(0.5, 1.0, 3.0, Squeezed(4.0))
        rec = sample_measurements(distribution_for(spec, probe), 200, seed=17,
                                  detector_bin=0.01)
        back, back_probe = record_from_text(record_to_text(rec, probe))
        assert np.array_equal(back.samples, rec.samples)
        assert back.seed == 17
        assert back.detector_bin == 0.01
        assert back_probe == probe

    def test_probe_optional(self):
        rec = MeasurementRecord(samples=np.array([1.0, 2.0]), seed=3)
        back, probe = record_from_text(record_to_text(rec))
        assert probe is None
        assert np.array_equal(back.samples, rec.samples)

    def test_deterministic_bytes(self):
        rec = MeasurementRecord(samples=np.linspace(-1, 1, 57), seed=9)
        assert record_to_text(rec) == record_to_text(rec)

    def test_body_is_big_endian_float64_bits_in_hex(self):
        rec = MeasurementRecord(samples=np.array([1.0, -2.5]), seed=5)
        assert record_to_text(rec) == ("# seed=5\n# detector_bin=0.0\n# columns=p_bits\n"
                                       "3ff0000000000000\nc004000000000000\n")

    def test_bit_exact_round_trip(self):
        special = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, -1.7976931348623157e308]
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2 ** 63, size=1000, dtype=np.uint64)
        bits = bits[(bits >> 52) & 0x7FF != 0x7FF]  # drop inf and NaN patterns
        samples = np.concatenate([special, bits.view(float), rng.normal(size=1000)])
        back, _ = record_from_text(record_to_text(MeasurementRecord(samples=samples, seed=0)))
        assert back.samples.tobytes() == samples.tobytes()

    @pytest.mark.parametrize("bits", ["7ff0000000000000", "fff0000000000000",
                                      "7ff8000000000000", "fff0000000000001"])
    def test_non_finite_bit_patterns_rejected(self, bits):
        text = f"# seed=0\n# columns=p_bits\n3ff0000000000000\n{bits}\n"
        with pytest.raises(ValueError, match="record has non-finite samples"):
            record_from_text(text)

    def test_decoding_spans_blocks(self):
        # more lines than one decode block, with a bad digit only in the last
        samples = np.arange(70_001, dtype=float)
        text = record_to_text(MeasurementRecord(samples=samples, seed=0))
        back, _ = record_from_text(text)
        assert np.array_equal(back.samples, samples)
        with pytest.raises(ValueError, match="record body must be lines of 16 hex digits"):
            record_from_text(text[:-2] + "g\n")

    @pytest.mark.parametrize("columns, found", [
        ("# columns=index p\n", "unknown record columns 'index p'"),
        ("", "no record columns line"),
    ], ids=["index-p", "none"])
    def test_two_column_records_rejected(self, columns, found):
        old = f"# seed=7\n# detector_bin=0.5\n{columns}0 0.1\n1 -3.25\n"
        with pytest.raises(ValueError, match=f"^{found}: only '# columns=p_bits' records "
                                             "are read; .*'qumode-probe sample --config "):
            record_from_text(old)

    def test_unknown_columns_rejected(self):
        with pytest.raises(ValueError, match="unknown record columns 'p_hex'"):
            record_from_text("# columns=p_hex\n3ff0000000000000\n")

    @pytest.mark.parametrize("key, value", [("probe", "[1]"), ("probe", "{"),
                                            ("probe", '{"mode": {"kind": "bin"}}'),
                                            ("probe", '{"p0": true, "mode": "ideal"}'),
                                            ("seed", "x"), ("detector_bin", "wide")])
    def test_bad_header_names_its_key(self, key, value):
        with pytest.raises(ValueError, match=f"bad record {key} header"):
            record_from_text(f"# {key}={value}\n# columns=p_bits\n3ff0000000000000\n")

    @pytest.mark.parametrize("key, value, message", [
        ("seed", "-5", f"seed must be an integer from 0 to {2 ** 128 - 1}, got -5"),
        ("seed", "1.5", f"seed must be an integer from 0 to {2 ** 128 - 1}, got 1.5"),
        ("detector_bin", "Infinity", "detector_bin must be nonnegative and finite, got inf"),
        ("detector_bin", "-0.5", "detector_bin must be nonnegative and finite, got -0.5"),
    ])
    def test_seed_and_detector_bin_headers_follow_the_sampling_rules(self, key, value, message):
        with pytest.raises(ValueError, match=f"^bad record {key} header: {re.escape(message)}$"):
            record_from_text(f"# {key}={value}\n# columns=p_bits\n3ff0000000000000\n")

    @pytest.mark.parametrize("text", ["# seed=1\n# columns=p_bits\n", "# seed=1\n# columns=p_bits"])
    def test_header_only_record_is_empty(self, text):
        back, _ = record_from_text(text)
        assert back.n == 0 and back.seed == 1
