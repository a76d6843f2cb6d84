import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from neurospeaker import dsp
from neurospeaker.core import SignalRecord, make_rng
from neurospeaker.errors import FilterDesignError, InputError

FS = 1000.0


def filter_block(cascade, block):
    """``dsp.apply_filter`` on a bare (rows x time) array."""
    return dsp.apply_filter(cascade, SignalRecord(FS, block)).samples


def oracle_response(cascade, freqs_hz, fs):
    """Independent transfer-function evaluation straight from the coefficients."""
    w = 2 * np.pi * np.asarray(freqs_hz) / fs
    h = np.ones(len(w), dtype=complex)
    for s in cascade.sections:
        num = s.b0 + s.b1 * np.exp(-1j * w) + s.b2 * np.exp(-2j * w)
        den = 1.0 + s.a1 * np.exp(-1j * w) + s.a2 * np.exp(-2j * w)
        h *= num / den
    return np.abs(h)


def poles(section):
    return np.roots([1.0, section.a1, section.a2])


def find_minus_3db(cascade, lo, hi, fs, n=200001):
    freqs = np.linspace(lo, hi, n)
    gains = oracle_response(cascade, freqs, fs)
    return freqs[np.argmin(np.abs(gains - 1 / np.sqrt(2)))]


class TestBandpassDesign:
    def test_rejects_dc(self):
        bp = dsp.design_bandpass(4, 0.1, 70.0, FS)
        assert 20 * np.log10(oracle_response(bp, [1e-3], FS)[0]) <= -40.0

    def test_midband_unit_gain(self):
        bp = dsp.design_bandpass(4, 0.1, 70.0, FS)
        gain_db = 20 * np.log10(oracle_response(bp, [10.0], FS)[0])
        assert abs(gain_db) <= 0.5

    def test_edges_at_minus_3db(self):
        bp = dsp.design_bandpass(4, 0.1, 70.0, FS)
        low = find_minus_3db(bp, 0.02, 0.5, FS)
        high = find_minus_3db(bp, 40.0, 95.0, FS)
        assert abs(low - 0.1) / 0.1 < 0.05
        assert abs(high - 70.0) / 70.0 < 0.05
        gain_70 = 20 * np.log10(oracle_response(bp, [70.0], FS)[0])
        assert abs(gain_70 - (-3.0)) <= 1.0

    def test_sections_are_stable(self):
        bp = dsp.design_bandpass(4, 0.1, 70.0, FS)
        for section in bp.sections:
            assert np.all(np.abs(poles(section)) < 1.0)

    def test_monotone_rolloff_outside_band(self):
        bp = dsp.design_bandpass(4, 0.1, 70.0, FS)
        below = oracle_response(bp, np.linspace(1e-4, 0.1, 512), FS)
        assert np.all(np.diff(below) > 0)
        above = oracle_response(bp, np.linspace(70.0, FS / 2 - 1e-6, 512), FS)
        assert np.all(np.diff(above) < 0)

    def test_rejects_bad_cutoffs(self):
        with pytest.raises(FilterDesignError):
            dsp.design_bandpass(4, 0.1, 600.0, FS)
        with pytest.raises(FilterDesignError):
            dsp.design_bandpass(4, 70.0, 0.1, FS)
        with pytest.raises(FilterDesignError):
            dsp.design_bandpass(3, 0.1, 70.0, FS)

    def test_higher_order_design(self):
        bp = dsp.design_bandpass(8, 1.0, 40.0, FS)
        assert len(bp.sections) == 4
        assert all(np.all(np.abs(poles(s)) < 1.0) for s in bp.sections)
        low = find_minus_3db(bp, 0.2, 2.0, FS)
        assert abs(low - 1.0) < 0.05


class TestNotchDesign:
    def test_attenuation_at_center(self):
        notch = dsp.design_notch(60.0, 30.0, FS)
        assert 20 * np.log10(max(oracle_response(notch, [60.0], FS)[0], 1e-30)) <= -30.0

    def test_passband_untouched(self):
        notch = dsp.design_notch(60.0, 30.0, FS)
        assert abs(20 * np.log10(oracle_response(notch, [5.0], FS)[0])) <= 0.5
        for f in (50.0, 70.0):
            assert 20 * np.log10(oracle_response(notch, [f], FS)[0]) >= -3.0

    def test_rejects_center_beyond_nyquist(self):
        with pytest.raises(FilterDesignError):
            dsp.design_notch(600.0, 30.0, FS)


class TestApplyFilter:
    def _record(self, samples):
        return SignalRecord(FS, np.atleast_2d(samples))

    def test_zero_in_zero_out(self):
        bp = dsp.design_bandpass(4, 0.1, 70.0, FS)
        out = dsp.apply_filter(bp, self._record(np.zeros((3, 500))))
        assert np.all(out.samples == 0.0)

    def test_homogeneity(self):
        bp = dsp.design_bandpass(4, 0.1, 70.0, FS)
        x = make_rng(0).standard_normal((2, 400))
        y1 = dsp.apply_filter(bp, self._record(3.5 * x)).samples
        y2 = 3.5 * dsp.apply_filter(bp, self._record(x)).samples
        np.testing.assert_allclose(y1, y2, rtol=1e-9, atol=1e-12)

    def test_additivity(self):
        bp = dsp.design_bandpass(4, 0.1, 70.0, FS)
        rng = make_rng(1)
        x = rng.standard_normal((2, 400))
        y = rng.standard_normal((2, 400))
        lhs = dsp.apply_filter(bp, self._record(x + y)).samples
        rhs = (
            dsp.apply_filter(bp, self._record(x)).samples
            + dsp.apply_filter(bp, self._record(y)).samples
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_notch_kills_60hz(self):
        notch = dsp.design_notch(60.0, 30.0, FS)
        t = np.arange(3000) / FS
        tone = np.sin(2 * np.pi * 60.0 * t)
        out = dsp.apply_filter(notch, self._record(tone)).samples[0]
        settled = slice(1000, None)
        in_rms = np.sqrt(np.mean(tone[settled] ** 2))
        out_rms = np.sqrt(np.mean(out[settled] ** 2))
        assert out_rms <= 0.032 * in_rms

    def test_output_length_and_finiteness(self):
        bp = dsp.design_bandpass(4, 0.1, 70.0, FS)
        x = make_rng(2).standard_normal((4, 777))
        out = dsp.apply_filter(bp, self._record(x))
        assert out.samples.shape == (4, 777)
        assert np.all(np.isfinite(out.samples))

    def test_rejects_empty_signal(self):
        bp = dsp.design_bandpass(4, 0.1, 70.0, FS)
        with pytest.raises(InputError):
            filter_block(bp, np.zeros((2, 0)))


def as_sos(cascade):
    """The cascade in scipy's second-order-sections layout."""
    return np.array([[s.b0, s.b1, s.b2, 1.0, s.a1, s.a2] for s in cascade.sections])


SCIPY_CASES = {
    "bandpass_4_0.1_70": lambda: dsp.design_bandpass(4, 0.1, 70.0, FS),
    "notch_60_q30": lambda: dsp.design_notch(60.0, 30.0, FS),
    "bandpass_8_1_40": lambda: dsp.design_bandpass(8, 1.0, 40.0, FS),
}


@pytest.mark.parametrize("design", SCIPY_CASES.values(), ids=SCIPY_CASES.keys())
class TestScipyOracle:
    """scipy.signal applies and evaluates the same sections independently."""

    def test_apply_filter_block_matches_sosfilt(self, design):
        cascade = design()
        block = make_rng(40).standard_normal((5, 2000))
        expected = signal.sosfilt(as_sos(cascade), block, axis=1)
        np.testing.assert_array_equal(filter_block(cascade, block), expected)

    def test_response_matches_sosfreqz(self, design):
        cascade = design()
        freqs, expected = signal.sosfreqz(as_sos(cascade), fs=FS)
        np.testing.assert_allclose(cascade.response(freqs, FS), expected, rtol=0, atol=1e-11)


def textbook_filter(cascade, block):
    """Transposed direct form II, one time step of every row at a time:
    y = b0*x + s1, s1' = (b1*x - a1*y) + s2, s2' = b2*x - a2*y."""
    y = np.array(block, dtype=np.float64)
    for s in cascade.sections:
        s1 = s2 = np.zeros(y.shape[0])
        for t in range(y.shape[1]):
            x = y[:, t].copy()
            y[:, t] = s.b0 * x + s1
            s1, s2 = (s.b1 * x - s.a1 * y[:, t]) + s2, s.b2 * x - s.a2 * y[:, t]
    return y


@pytest.mark.parametrize("design", SCIPY_CASES.values(), ids=SCIPY_CASES.keys())
def test_apply_filter_matches_the_textbook_recursion(design):
    """Bit for bit, apart from scipy: a scipy whose compiled loop changed its
    order of operations would pass the oracle above and fail here."""
    cascade = design()
    block = make_rng(45).standard_normal((5, 2000)) * np.array([[1.0], [1e-3], [40.0], [1e150], [1e-150]])
    np.testing.assert_array_equal(filter_block(cascade, block), textbook_filter(cascade, block))


@pytest.mark.parametrize("design", SCIPY_CASES.values(), ids=SCIPY_CASES.keys())
def test_stacked_block_equals_per_record_filtering(design):
    """Rows do not interact: filtering records stacked in one block gives
    each record's own filtered bits, whatever its neighbours."""
    cascade = design()
    rng = make_rng(41)
    records = [rng.standard_normal((n, 700)) * scale for n, scale in ((31, 1.0), (1, 1e-3), (5, 40.0))]
    stacked = filter_block(cascade, np.concatenate(records))
    expected = np.concatenate([filter_block(cascade, r) for r in records])
    np.testing.assert_array_equal(stacked, expected)
    assert stacked.flags.c_contiguous


def test_one_pass_through_joined_cascades_equals_one_pass_each():
    """The pipeline filters a block once through the band-pass sections
    followed by the notch section; that gives the bits of a band-pass pass
    followed by a notch pass."""
    bandpass, notch = SCIPY_CASES["bandpass_4_0.1_70"](), SCIPY_CASES["notch_60_q30"]()
    block = make_rng(43).standard_normal((4, 1500))
    joined = dsp.BiquadCascade(bandpass.sections + notch.sections)
    np.testing.assert_array_equal(
        filter_block(joined, block),
        filter_block(notch, filter_block(bandpass, block)),
    )


@pytest.mark.parametrize("layout", [
    lambda x: np.asfortranarray(x),
    lambda x: np.repeat(x, 2, axis=1)[:, ::2],
    lambda x: np.repeat(x, 3, axis=0)[::3],
], ids=["fortran", "strided-samples", "strided-rows"])
def test_any_input_layout_gives_the_bits_of_its_c_contiguous_copy(layout):
    """The compiled loop takes only C-contiguous float64: a Fortran-ordered
    or strided input is filtered as its C-contiguous copy, and left alone."""
    cascade = SCIPY_CASES["bandpass_4_0.1_70"]()
    samples = layout(make_rng(44).standard_normal((31, 600)))
    assert not samples.flags.c_contiguous
    before = samples.copy(order="K")
    out = filter_block(cascade, samples)
    np.testing.assert_array_equal(out, filter_block(cascade, np.ascontiguousarray(samples)))
    np.testing.assert_array_equal(samples, before)
    assert out.flags.c_contiguous


def test_apply_filter_block_leaves_its_input_alone():
    block = make_rng(42).standard_normal((1, 300))
    before = block.copy()
    filter_block(dsp.design_bandpass(4, 0.1, 70.0, FS), block)
    np.testing.assert_array_equal(block, before)


class TestFraming:
    def _record(self, n, channels=1):
        return SignalRecord(FS, np.arange(channels * n, dtype=float).reshape(channels, n))

    def test_frame_count_formula(self):
        frames = dsp.frame_signal(self._record(1000), dsp.FrameSpec(100, 10))
        assert frames.shape == (1, 91, 100)

    def test_single_frame_boundary(self):
        frames = dsp.frame_signal(self._record(100), dsp.FrameSpec(100, 10))
        assert frames.shape == (1, 1, 100)

    def test_too_short_raises(self):
        with pytest.raises(InputError):
            dsp.frame_signal(self._record(99), dsp.FrameSpec(100, 10))

    def test_frames_overlap_correctly(self):
        frames = dsp.frame_signal(self._record(120), dsp.FrameSpec(100, 10))
        np.testing.assert_array_equal(frames[0, 0], np.arange(100))
        np.testing.assert_array_equal(frames[0, 1], np.arange(10, 110))

    def test_bad_spec_rejected(self):
        with pytest.raises(InputError):
            dsp.FrameSpec(10, 20)
        with pytest.raises(InputError):
            dsp.FrameSpec(10, 0)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=100, max_value=400),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_linearity_property(n_samples, seed):
    bp = dsp.design_bandpass(4, 0.1, 70.0, FS)
    rng = make_rng(seed)
    x = rng.standard_normal((1, n_samples))
    y = rng.standard_normal((1, n_samples))
    lhs = filter_block(bp, x + y)
    rhs = filter_block(bp, x) + filter_block(bp, y)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)
