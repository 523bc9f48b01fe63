import json

import numpy as np
import pytest

from qumode_probe.operators import (
    HermitianOperator,
    Spectrum,
    SystemState,
    spectrum_of,
    thermal_state,
)
from qumode_probe.probe import (
    Bin,
    Ideal,
    LineMixture,
    ProbeConfig,
    Squeezed,
    distribution_for,
)
from qumode_probe.sampling import MeasurementRecord, sample_measurements
from qumode_probe.serialize import (
    distribution_from_text,
    distribution_to_text,
    operator_from_text,
    operator_to_text,
    probe_from_dict,
    probe_to_dict,
    record_from_text,
    record_to_text,
    spectrum_from_text,
    spectrum_to_text,
    state_from_text,
    state_to_text,
)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator((a + a.conj().T) / 2)


class TestOperatorRoundTrip:
    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    def test_exact_round_trip(self, dim):
        op = random_hermitian(dim, dim)
        back = operator_from_text(operator_to_text(op))
        assert np.array_equal(back.entries, op.entries)

    def test_deterministic_bytes(self):
        op = random_hermitian(4, 7)
        assert operator_to_text(op) == operator_to_text(op)

    def test_entry_count_validated(self):
        payload = json.loads(operator_to_text(random_hermitian(3, 0)))
        payload["entries"] = payload["entries"][:-1]
        with pytest.raises(ValueError):
            operator_from_text(json.dumps(payload))


class TestStateRoundTrip:
    def test_thermal_state(self):
        state = thermal_state(random_hermitian(4, 3), 1.5)
        back = state_from_text(state_to_text(state))
        assert np.array_equal(back.rho, state.rho)


class TestSpectrumRoundTrip:
    def test_exact_round_trip(self):
        h = random_hermitian(5, 11)
        spec = spectrum_of(thermal_state(h, 0.7), h)
        back = spectrum_from_text(spectrum_to_text(spec))
        assert np.array_equal(back.energies, spec.energies)
        assert np.array_equal(back.populations, spec.populations)
        assert np.array_equal(back.degeneracies, spec.degeneracies)


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


def assert_same_mixture(back, dist):
    assert isinstance(back, LineMixture)
    assert back.points.tobytes() == dist.points.tobytes()
    assert back.weights.tobytes() == dist.weights.tobytes()
    assert back.mode == dist.mode


class TestDistributionRoundTrip:
    def test_point_masses(self):
        dist = LineMixture([-1.0, 2.0], [0.25, 0.75], Ideal())
        assert_same_mixture(distribution_from_text(distribution_to_text(dist)), dist)

    def test_piecewise_uniform(self):
        dist = LineMixture([-1.0, 1.0], [0.4, 0.6], Bin(0.5))
        assert_same_mixture(distribution_from_text(distribution_to_text(dist)), dist)

    def test_gaussian_mixture(self):
        spec = Spectrum.from_lines([(0.0, 0.4, 1), (1.0, 0.6, 1)])
        probe = ProbeConfig(0.0, 1.0, 1.0, Squeezed(2.0))
        dist = distribution_for(spec, probe)
        assert_same_mixture(distribution_from_text(distribution_to_text(dist)), dist)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            distribution_from_text(json.dumps({"kind": "histogram"}))


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

    def test_two_column_records_still_read(self):
        samples = np.array([0.1, -3.25, 1e-300])
        old = ("# seed=7\n# detector_bin=0.5\n# columns=index p\n"
               + "".join(f"{i} {float(p)!r}\n" for i, p in enumerate(samples)))
        back, probe = record_from_text(old)
        assert np.array_equal(back.samples, samples)
        assert (back.seed, back.detector_bin, probe) == (7, 0.5, None)
        # records older still carry no columns line at all
        back, _ = record_from_text(old.replace("# columns=index p\n", ""))
        assert np.array_equal(back.samples, samples)

    def test_unknown_columns_rejected(self):
        with pytest.raises(ValueError, match="unknown record columns 'p_hex'"):
            record_from_text("# columns=p_hex\n3ff0000000000000\n")

    @pytest.mark.parametrize("key, value", [("probe", "[1]"), ("probe", "{"),
                                            ("probe", '{"mode": {"kind": "bin"}}'),
                                            ("seed", "x"), ("detector_bin", "wide")])
    def test_bad_header_names_its_key(self, key, value):
        with pytest.raises(ValueError, match=f"bad record {key} header"):
            record_from_text(f"# {key}={value}\n# columns=p_bits\n3ff0000000000000\n")

    @pytest.mark.parametrize("text", ["# seed=1\n# columns=p_bits\n", "# seed=1\n# columns=p_bits"])
    def test_header_only_record_is_empty(self, text):
        back, _ = record_from_text(text)
        assert back.n == 0 and back.seed == 1
