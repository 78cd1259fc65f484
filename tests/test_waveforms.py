import itertools
import math
import pathlib
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from amsdetect import (ConfigurationError, InputError, OpampModel, SweepSpec,
                       VrefConfig, Waveform, build_kstage,
                       default_vref_component_model, simulate_opamp,
                       simulate_vref, waveform_from_csv, waveform_to_csv)
from amsdetect.waveforms import (_COLLAPSE_ALPHA, _CSV_ROWS, _chain_clock, _e12_fields,
                                 _lowpass_steps, _opamp_transient, _pll_rows,
                                 _simulate_columns, _slew_steps, _time_rows,
                                 _trig_rows, vref_output_block)
from oracles import (collapse_reference, kstage_reference, lowpass_reference,
                     opamp_transient_reference, output_stage_reference,
                     slew_reference, static_transfer_reference,
                     waveform_from_csv_reference, waveform_to_csv_reference)

_samples = st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=200)


def test_waveform_rejects_bad_inputs():
    with pytest.raises(InputError):
        Waveform(np.array([]), 1e-8)
    with pytest.raises(InputError):
        Waveform(np.array([1.0, np.nan]), 1e-8)
    with pytest.raises(InputError):
        Waveform(np.array([[1.0], [2.0]]), 1e-8)
    with pytest.raises(InputError):
        Waveform(np.array([1.0, 2.0]), 0.0)
    with pytest.raises(InputError):
        Waveform(np.array([1.0, 2.0]), math.inf)
    with pytest.raises(InputError):
        Waveform(np.array([1.0, 2.0]), math.nan)


@pytest.mark.parametrize("period", [math.inf, -math.inf, math.nan, 0.0, -1e-9,
                                    10 ** 400])
def test_sample_period_must_be_finite_and_positive(period):
    """A non-finite period would write a ``nan``/``inf`` time column that
    the reader then refuses, so the constructor refuses it first."""
    with pytest.raises(InputError, match="sample_period must be finite and > 0"):
        Waveform(np.zeros(3), period)


# 7 times this is the largest finite float64: the largest period whose
# 8-sample time axis stays finite
_LARGEST_8_SAMPLE_PERIOD = 2.568133049803308e307


def test_time_axis_must_stay_finite():
    """A time axis that overflows would write an ``inf`` time row that the
    reader then refuses, so the constructor refuses it first."""
    for n, period in [(3, 1e308),
                      (8, np.nextafter(_LARGEST_8_SAMPLE_PERIOD, math.inf))]:
        with pytest.raises(InputError, match="time axis overflows"):
            Waveform(np.zeros(n), period)
    assert 7 * Waveform(np.zeros(8), _LARGEST_8_SAMPLE_PERIOD).sample_period < math.inf
    assert len(Waveform(np.zeros(1), 1e308)) == 1


def test_waveform_len_is_its_sample_count():
    w = Waveform(np.zeros(5), 0.25)
    assert len(w) == 5 and w.sample_period == 0.25


def test_input_block_peak_calibrated():
    sig = simulate_vref(VrefConfig(), 1500, 20e-6)
    peak = np.max(np.abs(sig["input"].samples))
    assert peak == pytest.approx(1.0, abs=1e-12)
    # 1 MHz over 20 us -> 20 full periods; the final crossing sits exactly
    # at t = 20 us, one step past the last sample (1499 * dt)
    crossings = np.sum(np.diff(np.signbit(sig["input"].samples)) != 0)
    assert crossings == 39


def test_clean_pll_frequency_is_lock_curve():
    """Without noise the deviation term vanishes: f = mult * f_in * lock."""
    cfg = VrefConfig()
    sig = simulate_vref(cfg, 1500, 20e-6)
    t = np.arange(1500) * sig["input"].sample_period
    expected = cfg.pll_multiplier * cfg.input_frequency * (
        1.0 - np.exp(-t / cfg.pll_lock_tau))
    assert np.allclose(sig["pll_frequency"].samples, expected, rtol=1e-12)
    # locked by the end of the span (tau = 1 us << 20 us)
    assert sig["pll_frequency"].samples[-1] == pytest.approx(4.0e6, rel=1e-4)


def test_noise_perturbs_pll_frequency():
    clean = simulate_vref(VrefConfig(), 300, 20e-6)
    noisy = simulate_vref(VrefConfig(noise_std=0.05), 300, 20e-6, seed=3)
    dev = noisy["pll_frequency"].samples - clean["pll_frequency"].samples
    # deviation gain couples input noise straight into the frequency trace
    assert np.std(dev) > 1e3


def test_output_settles_to_level():
    cfg = VrefConfig()
    sig = simulate_vref(cfg, 1500, 20e-6)
    tail = sig["output"].samples[-200:]
    assert abs(tail.mean() - cfg.output_level) < 0.05
    assert sig["output"].samples[0] < 0.1   # powers up from 0 V


def test_simulation_deterministic():
    a = simulate_vref(VrefConfig(noise_std=0.02), 400, 20e-6, seed=11)
    b = simulate_vref(VrefConfig(noise_std=0.02), 400, 20e-6, seed=11)
    assert list(a) == ["input", "pll_frequency", "pll_intensity", "trig", "output"]
    for name in a:
        assert np.array_equal(a[name].samples, b[name].samples)
    c = simulate_vref(VrefConfig(noise_std=0.02), 400, 20e-6, seed=12)
    assert not np.array_equal(a["input"].samples, c["input"].samples)


def test_blocks_are_pure_functions():
    """Re-running a block on the same predecessor reproduces its output."""
    cfg = VrefConfig(noise_std=0.01)
    sig = simulate_vref(cfg, 600, 20e-6, seed=5)
    dt = sig["input"].sample_period
    f2, i2 = _pll_rows(sig["input"].samples, dt, cfg, _chain_clock(600, dt, cfg))
    assert np.array_equal(f2, sig["pll_frequency"].samples)
    assert np.array_equal(i2, sig["pll_intensity"].samples)
    t2 = _trig_rows(sig["pll_intensity"].samples, cfg)
    assert np.array_equal(t2, sig["trig"].samples)
    o2 = vref_output_block(sig["trig"], cfg)
    assert np.array_equal(o2.samples, sig["output"].samples)


@settings(max_examples=60, deadline=None)
@given(trig=_samples, level=st.floats(-5.0, 5.0), gain=st.floats(-5.0, 5.0),
       tau=st.floats(1e-9, 1e-5), dt=st.floats(1e-10, 1e-7))
def test_output_block_matches_numpy_scalar_reference(trig, level, gain, tau, dt):
    cfg = VrefConfig(output_level=level, output_gain=gain, output_tau=tau)
    out = vref_output_block(Waveform(np.array(trig), dt), cfg)
    assert out.samples.tobytes() == output_stage_reference(trig, dt, cfg).tobytes()


def test_vref_config_validation():
    with pytest.raises(ConfigurationError):
        VrefConfig(input_frequency=0.0)
    with pytest.raises(ConfigurationError):
        VrefConfig(noise_std=-0.1)
    with pytest.raises(ConfigurationError):
        VrefConfig(output_tau=0.0)


# ----------------------------------------------------------------- opamp

def test_static_transfer_clips_at_rails():
    m = OpampModel(open_loop_gain=20.0, rail_low=-2.5, rail_high=2.5, offset=0.0)
    out = simulate_opamp(m, "dc_input_sweep", SweepSpec(-1.0, 1.0, 21))
    assert out.samples.min() == -2.5
    assert out.samples.max() == 2.5
    mid = out.samples[10]          # vin = 0
    assert mid == pytest.approx(0.0)


def test_transient_slew_limited():
    m = OpampModel(open_loop_gain=100.0, offset=0.0, slew_rate=1e5)
    dt = 1e-6
    stim = Waveform(np.concatenate([np.zeros(5), np.full(30, 1.0)]), dt)
    out = simulate_opamp(m, "transient", stim)
    steps = np.abs(np.diff(out.samples))
    assert steps.max() <= m.slew_rate * dt + 1e-12
    # 0.1 V per step from 0 V -> hits the 2.5 V rail within 25 steps
    assert out.samples[-1] == pytest.approx(2.5)


def test_temp_sweep_slope_matches_coefficient():
    m = OpampModel(open_loop_gain=1.0, offset=0.0, temp_coeff=0.002)
    out = simulate_opamp(m, "dc_temp_sweep", SweepSpec(-40.0, 125.0, 166, bias=0.0))
    unclipped = out.samples[np.abs(out.samples) < 2.49]
    slopes = np.diff(unclipped)
    assert np.allclose(slopes, 0.002, rtol=1e-9)


def test_open_collapse_modes():
    m = OpampModel(open_collapse=True)
    tr = simulate_opamp(m, "transient", Waveform(np.zeros(100), 1e-8))
    assert np.all(np.diff(tr.samples) >= 0)
    assert tr.samples[-1] == pytest.approx(m.rail_high, rel=1e-3)
    sw = simulate_opamp(m, "dc_input_sweep", SweepSpec(0.0, 0.2, 10))
    assert np.all(sw.samples == m.rail_high)


@settings(max_examples=80, deadline=None)
@given(samples=_samples, gain=st.floats(0.1, 1e3), offset=st.floats(-1.0, 1.0),
       rail_low=st.floats(-5.0, -0.1), rail_high=st.floats(0.1, 5.0),
       slew_rate=st.floats(3.0, 12.0).map(lambda e: 10.0 ** e), eval_temp=st.none() | st.floats(-60.0, 200.0),
       open_collapse=st.booleans())
@example(samples=[0.0, 1.0, 1.0, -1.0, -1.0, 0.5], gain=100.0, offset=0.0,
         rail_low=-2.5, rail_high=2.5, slew_rate=1e7, eval_temp=None,
         open_collapse=False)   # every step slew-limited
@example(samples=[0.0, 0.01, 0.02, 0.01], gain=20.0, offset=0.0, rail_low=-2.5,
         rail_high=2.5, slew_rate=1e12, eval_temp=None,
         open_collapse=False)   # no step slew-limited
def test_transient_matches_numpy_scalar_reference(samples, gain, offset, rail_low,
                                                  rail_high, slew_rate, eval_temp,
                                                  open_collapse):
    m = OpampModel(open_loop_gain=gain, offset=offset, rail_low=rail_low,
                   rail_high=rail_high, slew_rate=slew_rate, eval_temp=eval_temp,
                   open_collapse=open_collapse)
    dt = 1e-8
    out = simulate_opamp(m, "transient", Waveform(np.array(samples), dt))
    ref = opamp_transient_reference(m, samples, dt)
    if not open_collapse:
        target = static_transfer_reference(m, np.array(samples), m.temperature)
        limited = np.abs(target[1:] - ref[:-1]) > m.slew_rate * dt
        event(f"slew engaged: {bool(limited.any())}")
    assert out.samples.tobytes() == ref.tobytes()


@settings(max_examples=40, deadline=None)
@given(gain=st.floats(0.1, 1e3), offset=st.floats(-1.0, 1.0),
       temp_coeff=st.floats(-0.01, 0.01), bias=st.floats(-1.0, 1.0),
       start=st.floats(-60.0, 60.0), span=st.floats(1.0, 200.0),
       n_points=st.integers(2, 50))
def test_temp_sweep_matches_reference(gain, offset, temp_coeff, bias, start,
                                      span, n_points):
    m = OpampModel(open_loop_gain=gain, offset=offset, temp_coeff=temp_coeff)
    spec = SweepSpec(start, start + span, n_points, bias)
    out = simulate_opamp(m, "dc_temp_sweep", spec)
    ref = static_transfer_reference(m, np.full(n_points, bias), spec.values)
    assert out.samples.tobytes() == ref.tobytes()


def test_eval_temp_shifts_output():
    base = OpampModel(offset=0.0)
    hot = OpampModel(offset=0.0, eval_temp=150.0)
    sweep = SweepSpec(0.0, 0.05, 10)
    a = simulate_opamp(base, "dc_input_sweep", sweep)
    b = simulate_opamp(hot, "dc_input_sweep", sweep)
    expected = base.temp_coeff * (150.0 - base.nominal_temp)
    assert np.allclose(b.samples - a.samples, expected)


def test_default_component_sits_at_reference_level():
    m = default_vref_component_model()
    out = simulate_opamp(m, "dc_input_sweep", SweepSpec(0.0, 0.0, 2))
    assert np.allclose(out.samples, 1.2)


# ---------------------------------------------------------------- kstage

def test_stage_model_finite_gain_correction():
    base = OpampModel(open_loop_gain=30.0)
    eff, = build_kstage(base, [2.0])
    assert eff.open_loop_gain == pytest.approx(2.0 * 30.0 / 32.0)
    assert eff == OpampModel(open_loop_gain=eff.open_loop_gain)


def _kstage_column(stages, stim):
    """The k-stage transient as the experiments run it: one chain, one column."""
    return _simulate_columns([stages], "transient", stim)[:, 0]


def test_single_stage_equals_direct_simulation():
    base = OpampModel(open_loop_gain=30.0, offset=0.01)
    stages = build_kstage(base, [2.0])
    t = np.arange(200) * 1e-8
    stim = Waveform(0.1 * np.sin(2e6 * np.pi * t), 1e-8)
    direct = simulate_opamp(stages[0], "transient", stim)
    assert _kstage_column(stages, stim).tobytes() == direct.samples.tobytes()
    assert kstage_reference(base, [2.0], stim).tobytes() == direct.samples.tobytes()


def test_kstage_gain_compounds():
    base = OpampModel(open_loop_gain=1e6, offset=0.0)
    stim = Waveform(np.full(50, 0.01), 1e-8)
    for k in (1, 2, 3):
        out = _kstage_column(build_kstage(base, [2.0] * k), stim)
        assert out.tobytes() == kstage_reference(base, [2.0] * k, stim).tobytes()
        assert out[-1] == pytest.approx(0.01 * 2.0 ** k, rel=1e-4)


def test_kstage_fault_applies_to_chosen_stage():
    from amsdetect import apply_component_fault
    base = OpampModel(open_loop_gain=30.0)
    stages = build_kstage(base, [2.0, 2.0, 2.0], anomalous_stages=(1,),
                          faulted=apply_component_fault(base, "Short", None))
    assert stages[1].open_loop_gain == pytest.approx(2.0 * 7.5 / 9.5)
    assert stages[0] == stages[2] != stages[1]
    stim = Waveform(np.linspace(-0.2, 0.2, 80), 1e-8)
    assert _kstage_column(stages, stim).tobytes() == kstage_reference(
        base, [2.0] * 3, stim, (1,), ("Short", None)).tobytes()


def test_build_kstage_validation():
    from amsdetect import apply_component_fault
    base = OpampModel()
    with pytest.raises(ConfigurationError):
        build_kstage(base, [])
    with pytest.raises(ConfigurationError):
        build_kstage(base, [2.0, 0.5])
    with pytest.raises(ConfigurationError):
        build_kstage(base, [2.0, 2.0], anomalous_stages=(2,),
                     faulted=apply_component_fault(base, "Open", None))


# ------------------------------------------------------------------- csv

def test_waveform_csv_round_trip(tmp_path):
    w = Waveform(np.sin(np.arange(64) * 0.3), 2.5e-9)
    path = tmp_path / "w.csv"
    waveform_to_csv(w, path)
    back = waveform_from_csv(path)
    assert np.allclose(back.samples, w.samples, rtol=1e-11, atol=1e-14)
    assert back.sample_period == pytest.approx(w.sample_period, rel=1e-11)
    header = path.read_text().splitlines()[0]
    assert header == "t,value"


@given(st.integers(2, 5000), st.floats(1e-12, 1e3))
@settings(max_examples=40, deadline=None)
def test_written_time_axis_passes_the_uniformity_check(n, period):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "w.csv"
        waveform_to_csv(Waveform(np.zeros(n), period), path)
        back = waveform_from_csv(path)
        lines = path.read_text().splitlines()
    assert len(back) == n
    t0, t1 = (float(line.split(",")[0]) for line in lines[1:3])
    assert back.sample_period == t1 - t0


def test_waveform_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,volts\n0,1\n1,2\n")
    with pytest.raises(InputError):
        waveform_from_csv(path)


_EXTREMES = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308,
                      1e308, -1e308, 1.7976931348623157e308, 1.0 / 3.0])


@given(arrays(np.float64, st.integers(1, 200),
              elements=st.floats(allow_nan=False, allow_infinity=False)),
       st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
@example(_EXTREMES, 2.5e-9)
@example(_EXTREMES, 5e-324)
@example(_EXTREMES, _LARGEST_8_SAMPLE_PERIOD)
@settings(max_examples=200, deadline=None)
def test_writer_bytes_match_the_per_sample_reference(samples, period):
    assume((samples.size - 1) * period < math.inf)   # a Waveform refuses the rest
    with tempfile.TemporaryDirectory() as tmp:
        got, want = pathlib.Path(tmp) / "got.csv", pathlib.Path(tmp) / "want.csv"
        waveform_to_csv(Waveform(samples, period), got)
        waveform_to_csv_reference(Waveform(samples, period), want)
        assert got.read_bytes() == want.read_bytes()


def _ulps_away(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, math.copysign(math.inf, steps)))
    return x


@st.composite
def _near_rounding_edges(draw):
    """A value a few ulps from a place where ``%.12e`` changes its output:
    a decimal half in the 13th digit, the carry into the next power of ten,
    or a power of ten (1e-10 and 1e35 bound the array formatter's range)."""
    e = draw(st.integers(-14, 40) | st.integers(-323, 308))
    kind = draw(st.sampled_from(["half", "dyadic half", "carry", "power"]))
    if kind == "half":        # the double nearest a 14-digit decimal ending in 5
        x = float(f"{draw(st.integers(10**12, 10**13 - 1))}5e{e - 13}")
    elif kind == "dyadic half":   # j / 2**m is exact, and j * 5**m has 14 digits
        m = draw(st.integers(1, 19))
        j = draw(st.integers(-(-10**13 // 5**m), (10**14 - 1) // 5**m))
        x = (j | 1) / 2**m
    elif kind == "carry":
        x = float(draw(st.sampled_from(["9.9999999999995", "9.99999999999951",
                                        "9.9999999999999", "9.999999999999999"]))
                  + f"e{e}")
    else:
        x = float(f"1e{e}")
    x = _ulps_away(x, draw(st.integers(-2, 2)))
    assume(math.isfinite(x))
    event(kind)
    return x if draw(st.booleans()) else -x


_FORMAT_EDGES = st.one_of(
    _near_rounding_edges(),
    st.sampled_from([0.0, -0.0]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals
    st.floats(1e100, 1.7976931348623157e308) | st.floats(5e-324, 1e-99),
    st.floats(-1.7976931348623157e308, -1e100),     # three-digit exponents
)


@given(st.lists(_FORMAT_EDGES, min_size=1, max_size=40),
       _FORMAT_EDGES.map(abs).filter(lambda p: p > 0))
@settings(max_examples=300, deadline=None)
def test_array_formatter_matches_the_reference_at_its_edges(values, period):
    """Uniform floats rarely land where the fast path must hand a value to
    ``%``; these values sit there, in both columns."""
    assume((len(values) - 1) * period < math.inf)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = pathlib.Path(tmp) / "got.csv", pathlib.Path(tmp) / "want.csv"
        waveform_to_csv(Waveform(np.array(values), period), got)
        waveform_to_csv_reference(Waveform(np.array(values), period), want)
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("x, fast", [
    (1.5, True), (-0.1, True), (1e-10, True), (9.9e34, True),
    (9.99999999999996, True),       # carries into 1.000000000000e+01
    (2.0 ** -20, False),            # 9.5367431640625e-07: an exact half
    (1.0000000000005, False),       # its scaled value rounds onto the half
    (0.0, False), (-0.0, False), (5e-324, False),
    (9.9e-11, False), (1e35, False), (-1e100, False)])
def test_array_formatter_takes_only_what_it_can_prove(x, fast):
    fields, slow = _e12_fields(np.array([x]))
    assert bool(slow[0]) is not fast
    if fast:
        assert fields.tobytes().replace(b"\0", b"") == b"%.12e" % x


@pytest.mark.parametrize("n", [_CSV_ROWS - 1, _CSV_ROWS, _CSV_ROWS + 1,
                               2 * _CSV_ROWS + 3])
def test_writer_blocks_join_seamlessly(tmp_path, n):
    w = Waveform(np.random.default_rng(n).normal(0.0, 1.0, n), 1e-7)
    waveform_to_csv(w, tmp_path / "got.csv")
    waveform_to_csv_reference(w, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_writer_memo_keeps_interleaved_axes_apart(tmp_path):
    """Writes that alternate lengths and periods, so that the time-column
    memo both evicts and hits, each match the per-sample reference."""
    lengths = [_CSV_ROWS - 1, _CSV_ROWS + 1, 2 * _CSV_ROWS + 3, 7, _CSV_ROWS]
    periods = [1e-7, 2.5e-9, 1.0 / 3.0]
    combos = list(zip(itertools.islice(itertools.cycle(lengths), 15),
                      itertools.islice(itertools.cycle(periods), 15)))
    rng = np.random.default_rng(12)
    hits = _time_rows.cache_info().hits
    for n, period in combos + combos[::-1] + combos[:3]:
        w = Waveform(rng.normal(0.0, 1.0, n), period)
        waveform_to_csv(w, tmp_path / "got.csv")
        waveform_to_csv_reference(w, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        info = _time_rows.cache_info()
        assert info.currsize <= info.maxsize <= 4
    assert _time_rows.cache_info().hits > hits


def test_taps_of_one_simulation_share_one_time_column(tmp_path):
    sig = simulate_vref(VrefConfig(), 1500, 20e-6)
    _time_rows.cache_clear()
    for name, wave in sig.items():
        waveform_to_csv(wave, tmp_path / f"{name}.csv")
    info = _time_rows.cache_info()
    assert (info.misses, info.hits) == (1, len(sig) - 1)


def test_writer_memory_does_not_grow_with_length(tmp_path):
    """At 200,000 samples the writer holds one block of rows, not the file.

    Formatting the whole file at once held about 140 bytes per sample
    (28 MB here); a block and the time-column memo took 1.5 MB.
    """
    w = Waveform(np.random.default_rng(0).normal(0.0, 1.0, 200_000), 1e-7)
    tracemalloc.start()
    try:
        waveform_to_csv(w, tmp_path / "w.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


_NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map("{:.12e}".format)
# numbers five times in six, so a fair share of files is accepted
_VALUE_CELLS = st.one_of(
    _NUMBERS, _NUMBERS, _NUMBERS, _NUMBERS, _NUMBERS,
    st.sampled_from(["-0.0", "nan", "1_0", "inf", "abc", "", "1e-320", "1,5",
                     "0x10", "\u0661\u0662", "2\x0c", "3\x1c4", "5\u2028"]))
_ROW_FORMS = {
    "plain": "{t},{v}",
    "spaced": "  {t} ,\t{v}  ",
    "blank-before": " \t\n{t},{v}",
    "blank": "",
    "extra-comma": "{t},{v},",
    "no-comma": "{t}",
    "bad-time": "t{t},{v}",
    "late-time": "1{t},{v}",
}


@st.composite
def _mangled_csv(draw):
    """A waveform CSV with blank lines, stray whitespace and separators,
    CRLF or CR line ends, extra or missing commas and odd cells."""
    dt = draw(st.sampled_from([1e-8, 0.5, 3.0]))
    newline = st.sampled_from(["\n", "\r\n", "\r"])
    header = draw(st.sampled_from(["t,value"] * 12 + [" t,value\t", "t,values", "",
                                                     "t;value"]))
    text = header + draw(newline)
    forms = st.sampled_from(["plain"] * 30 + list(_ROW_FORMS))
    rows = draw(st.lists(st.tuples(_VALUE_CELLS, forms, newline), max_size=8))
    for i, (value, form, end) in enumerate(rows):
        text += _ROW_FORMS[form].format(t=f"{i * dt:.12e}", v=value) + end
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _read_outcome(read, path):
    try:
        w = read(path)
    except InputError as exc:
        return "InputError", str(exc)
    return w.samples.tobytes(), w.sample_period.hex()


@given(_mangled_csv())
@example("t,value\r\n0.0,1.0\r\n1.0,2.0")
@example("t,value\n\n0.0,1.0\n   \n1.0,nan\n")
@example("t,value\n")
@example("t,value")
@example("t,value\n0.0,1_0\n1.0,2,0\n")
@example("t,value\n0,1\n1,2\nnan,3\n3,4\n")
@settings(max_examples=300, deadline=None)
def test_reader_matches_the_per_line_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "w.csv"
        path.write_bytes(text.encode())
        got = _read_outcome(waveform_from_csv, path)
        want = _read_outcome(waveform_from_csv_reference, path)
    event("rejected" if got[0] == "InputError" else "accepted")
    assert got == want


@pytest.mark.parametrize("text", [
    "t,value\n0,1\n1,2\nnan,3\n3,4\n",
    "t,value\nnan,1\n1,2\n2,3\n",
    "t,value\n0,1\nnan,2\n2,3\n",
    "t,value\n0,1\n1,2\n2,3\ninf,4\n",
    "t,value\n0,1\ninf,2\n",
])
def test_reader_rejects_non_finite_times(tmp_path, text):
    path = tmp_path / "w.csv"
    path.write_text(text)
    with pytest.raises(InputError, match="time axis has a non-finite value"):
        waveform_from_csv(path)


# ------------------------------------------------- time-major step kernels
# Each kernel steps a (n_samples, width) buffer in place, one instance per
# column; width 1 takes the Python-float loop, wider buffers numpy rows.

_widths = st.sampled_from([1, 2, 7, 8, 9, 80])


def _per_column(data, width, values):
    """A scalar or one drawn value per column."""
    if data.draw(st.booleans(), label="scalar"):
        return data.draw(values, label="param"), False
    return np.array(data.draw(st.lists(values, min_size=width, max_size=width),
                              label="params")), True


def _buffer(seed, n, width, scale):
    return np.random.default_rng(seed).uniform(-scale, scale, (n, width))


@settings(max_examples=60, deadline=None)
@given(width=_widths, n=st.integers(1, 50), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_lowpass_kernel_matches_scalar_loop_per_column(width, n, seed, data):
    drive = _buffer(seed, n, width, 5.0)
    alpha, vec = _per_column(data, width, st.floats(1e-4, 1.9))
    buf = drive.copy()
    _lowpass_steps(buf, alpha)
    for j in range(width):
        ref = lowpass_reference(drive[:, j], alpha[j] if vec else alpha)
        assert buf[:, j].tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None)
@given(width=_widths, n=st.integers(1, 50), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_slew_kernel_matches_scalar_loop_per_column(width, n, seed, data):
    target = _buffer(seed, n, width, 3.0)
    max_step, vec = _per_column(data, width, st.floats(1e-3, 8.0))
    buf = target.copy()
    _slew_steps(buf, max_step)
    for j in range(width):
        ref = slew_reference(target[:, j], max_step[j] if vec else max_step)
        assert buf[:, j].tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None)
@given(width=_widths, n=st.integers(1, 50), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_collapse_kernel_matches_scalar_loop_per_column(width, n, seed, data):
    """An open output: the low-pass toward a constant level from row 0."""
    start = _buffer(seed, n, width, 3.0)
    level, vec = _per_column(data, width, st.floats(-5.0, 5.0))
    buf = np.empty((n, width))
    buf[:] = level
    _lowpass_steps(buf, _COLLAPSE_ALPHA, start[0].copy())
    for j in range(width):
        ref = collapse_reference(start[0, j], level[j] if vec else level, n)
        assert buf[:, j].tobytes() == ref.tobytes()


_models = st.builds(
    OpampModel, open_loop_gain=st.floats(0.1, 1e3), offset=st.floats(-1.0, 1.0),
    rail_low=st.floats(-5.0, -0.1), rail_high=st.floats(0.1, 5.0),
    slew_rate=st.floats(3.0, 12.0).map(lambda e: 10.0 ** e),
    eval_temp=st.none() | st.floats(-60.0, 200.0), open_collapse=st.booleans())


@settings(max_examples=40, deadline=None)
@given(width=_widths, n=st.integers(1, 50), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_transient_columns_match_one_model_at_a_time(width, n, seed, data):
    """Mixed collapse and slew columns, each with its own model parameters."""
    models = data.draw(st.lists(_models, min_size=width, max_size=width))
    event(f"collapse columns: {sum(m.open_collapse for m in models)}/{width}")
    stim = _buffer(seed, n, width, 0.2)
    buf = stim.copy()
    _opamp_transient(buf, models, 1e-8)
    for j, m in enumerate(models):
        ref = opamp_transient_reference(m, stim[:, j], 1e-8)
        assert buf[:, j].tobytes() == ref.tobytes()
