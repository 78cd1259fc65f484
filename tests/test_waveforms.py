import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from amsdetect import (ConfigurationError, InputError, OpampModel, SweepSpec,
                       VrefConfig, Waveform, build_kstage,
                       default_vref_component_model, simulate_kstage,
                       simulate_opamp, simulate_vref, waveform_from_csv,
                       waveform_to_csv)
from amsdetect.waveforms import (AmplifierStage, stage_model, vref_output_block,
                                 vref_pll_block, vref_trig_block)
from oracles import (opamp_transient_reference, output_stage_reference,
                     static_transfer_reference)

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


def test_waveform_times_and_duration():
    w = Waveform(np.zeros(5), 0.25)
    assert np.array_equal(w.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert w.duration == 1.25
    assert len(w) == 5


def test_input_block_peak_calibrated():
    sig = simulate_vref(VrefConfig(), 1500, 20e-6)
    peak = np.max(np.abs(sig.input.samples))
    assert peak == pytest.approx(1.0, abs=1e-12)
    # 1 MHz over 20 us -> 20 full periods; the final crossing sits exactly
    # at t = 20 us, one step past the last sample (1499 * dt)
    crossings = np.sum(np.diff(np.signbit(sig.input.samples)) != 0)
    assert crossings == 39


def test_clean_pll_frequency_is_lock_curve():
    """Without noise the deviation term vanishes: f = mult * f_in * lock."""
    cfg = VrefConfig()
    sig = simulate_vref(cfg, 1500, 20e-6)
    t = sig.input.times
    expected = cfg.pll_multiplier * cfg.input_frequency * (
        1.0 - np.exp(-t / cfg.pll_lock_tau))
    assert np.allclose(sig.pll_frequency.samples, expected, rtol=1e-12)
    # locked by the end of the span (tau = 1 us << 20 us)
    assert sig.pll_frequency.samples[-1] == pytest.approx(4.0e6, rel=1e-4)


def test_noise_perturbs_pll_frequency():
    clean = simulate_vref(VrefConfig(), 300, 20e-6)
    noisy = simulate_vref(VrefConfig(noise_std=0.05), 300, 20e-6, seed=3)
    dev = noisy.pll_frequency.samples - clean.pll_frequency.samples
    # deviation gain couples input noise straight into the frequency trace
    assert np.std(dev) > 1e3


def test_output_settles_to_level():
    cfg = VrefConfig()
    sig = simulate_vref(cfg, 1500, 20e-6)
    tail = sig.output.samples[-200:]
    assert abs(tail.mean() - cfg.output_level) < 0.05
    assert sig.output.samples[0] < 0.1   # powers up from 0 V


def test_simulation_deterministic():
    a = simulate_vref(VrefConfig(noise_std=0.02), 400, 20e-6, seed=11)
    b = simulate_vref(VrefConfig(noise_std=0.02), 400, 20e-6, seed=11)
    for name in a.as_dict():
        assert np.array_equal(a.as_dict()[name].samples, b.as_dict()[name].samples)
    c = simulate_vref(VrefConfig(noise_std=0.02), 400, 20e-6, seed=12)
    assert not np.array_equal(a.input.samples, c.input.samples)


def test_blocks_are_pure_functions():
    """Re-running a block on the same predecessor reproduces its output."""
    cfg = VrefConfig(noise_std=0.01)
    sig = simulate_vref(cfg, 600, 20e-6, seed=5)
    f2, i2 = vref_pll_block(sig.input, cfg)
    assert np.array_equal(f2.samples, sig.pll_frequency.samples)
    assert np.array_equal(i2.samples, sig.pll_intensity.samples)
    t2 = vref_trig_block(sig.pll_intensity, cfg)
    assert np.array_equal(t2.samples, sig.trig.samples)
    o2 = vref_output_block(sig.trig, cfg)
    assert np.array_equal(o2.samples, sig.output.samples)


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
    eff = stage_model(AmplifierStage(base, 2.0))
    assert eff.open_loop_gain == pytest.approx(2.0 * 30.0 / 32.0)


def test_single_stage_equals_direct_simulation():
    base = OpampModel(open_loop_gain=30.0, offset=0.01)
    amp = build_kstage(base, 1, [2.0])
    t = np.arange(200) * 1e-8
    stim = Waveform(0.1 * np.sin(2e6 * np.pi * t), 1e-8)
    via_chain = simulate_kstage(amp, stim)
    direct = simulate_opamp(stage_model(amp.stages[0]), "transient", stim)
    assert np.array_equal(via_chain.samples, direct.samples)


def test_kstage_gain_compounds():
    base = OpampModel(open_loop_gain=1e6, offset=0.0)
    stim = Waveform(np.full(50, 0.01), 1e-8)
    for k in (1, 2, 3):
        amp = build_kstage(base, k, [2.0] * k)
        out = simulate_kstage(amp, stim)
        assert out.samples[-1] == pytest.approx(0.01 * 2.0 ** k, rel=1e-4)


def test_kstage_fault_applies_to_chosen_stage():
    from amsdetect import ComponentFault
    base = OpampModel(open_loop_gain=30.0)
    fault = ComponentFault.from_name("Short")
    amp = build_kstage(base, 3, [2.0, 2.0, 2.0], anomalous_stages=(1,),
                       fault=fault)
    assert amp.stages[0].opamp.applied_fault is None
    assert amp.stages[1].opamp.applied_fault == "Short"
    assert amp.stages[1].opamp.open_loop_gain == pytest.approx(7.5)
    assert amp.stages[2].opamp.applied_fault is None


def test_build_kstage_validation():
    base = OpampModel()
    with pytest.raises(ConfigurationError):
        build_kstage(base, 0, [])
    with pytest.raises(ConfigurationError):
        build_kstage(base, 2, [2.0])
    with pytest.raises(ConfigurationError):
        build_kstage(base, 2, [2.0, 0.5])


# ------------------------------------------------------------------- csv

def test_waveform_csv_round_trip(tmp_path):
    w = Waveform(np.sin(np.arange(64) * 0.3), 2.5e-9, "demo")
    path = tmp_path / "w.csv"
    waveform_to_csv(w, path)
    back = waveform_from_csv(path, "demo")
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
