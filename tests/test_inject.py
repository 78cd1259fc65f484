import numpy as np
import pytest

from amsdetect import (AnomalySpec, ComponentFault, ConfigurationError,
                       FaultKind, InjectionError, InjectionLocation,
                       OpampModel, PointPeriodic, PointRandom, VrefConfig,
                       Waveform, apply_anomaly_spec, apply_component_fault,
                       inject_multipoint, inject_point_periodic,
                       inject_point_random, record_to_csv, simulate_vref)
from amsdetect.inject import _count_half_up


def _sine(n=1500, amp=1.0):
    t = np.arange(n)
    return Waveform(amp * np.sin(2 * np.pi * t / 75.0), 1e-8)


def test_count_rounds_half_up():
    assert _count_half_up(0.5, 1500) == 8       # 7.5 -> 8, not banker's 7
    assert _count_half_up(0.25, 1000) == 3      # 2.5 -> 3
    assert _count_half_up(1.0, 1500) == 15
    assert _count_half_up(0.01, 1500) == 1      # 0.15 -> floor at one
    assert _count_half_up(0.0333, 300) == 1


def test_random_injection_contract():
    w = _sine()
    out, rec = inject_point_random(w, 0.5, 2.0, 5.0, seed=0)
    assert len(rec.positions) == 8
    assert np.all(np.diff(rec.positions) > 0)
    peak = np.max(np.abs(w.samples))
    mags = np.abs(out.samples[rec.positions])
    assert np.all(mags >= 2.0 * peak - 1e-12)
    assert np.all(mags <= 5.0 * peak + 1e-12)
    # sign preserved relative to the clean sample
    clean = w.samples[rec.positions]
    assert np.all(np.sign(out.samples[rec.positions])
                  == np.where(clean < 0, -1.0, 1.0))
    # everything else is bit-identical
    mask = np.ones(len(w), dtype=bool)
    mask[rec.positions] = False
    assert np.array_equal(out.samples[mask], w.samples[mask])
    # the source waveform is untouched
    assert np.max(np.abs(w.samples)) == peak


def test_random_injection_seeded_and_distinct():
    w = _sine()
    a1, r1 = inject_point_random(w, 0.5, 2.0, 5.0, seed=9)
    a2, r2 = inject_point_random(w, 0.5, 2.0, 5.0, seed=9)
    assert np.array_equal(a1.samples, a2.samples)
    assert np.array_equal(r1.positions, r2.positions)
    seen = {tuple(inject_point_random(w, 0.5, 2.0, 5.0, seed=s)[1].positions)
            for s in range(100)}
    assert len(seen) >= 95


def test_random_injection_errors():
    w = _sine(n=50)
    with pytest.raises(ConfigurationError):
        inject_point_random(w, 0.0, 2.0, 5.0)
    with pytest.raises(ConfigurationError):
        inject_point_random(w, 0.5, 5.0, 2.0)
    with pytest.raises(InjectionError):
        inject_point_random(w, 99.9, 2.0, 5.0)      # count == n
    flat = Waveform(np.zeros(100), 1e-8)
    with pytest.raises(InjectionError):
        inject_point_random(flat, 0.5, 2.0, 5.0)


def test_periodic_injection_hits_threshold_samples():
    w = _sine()
    out, rec = inject_point_periodic(w, 0.9, 1.0)
    peak = np.max(w.samples)
    expected = np.flatnonzero(w.samples >= 0.9 * peak)
    assert np.array_equal(rec.positions, expected)
    assert np.allclose(out.samples[rec.positions],
                       w.samples[rec.positions] + peak)
    # no RNG: two calls agree exactly
    out2, _ = inject_point_periodic(w, 0.9, 1.0)
    assert np.array_equal(out.samples, out2.samples)


def test_periodic_injection_errors():
    with pytest.raises(InjectionError):
        inject_point_periodic(Waveform(-np.ones(10), 1.0), 0.9, 1.0)
    with pytest.raises(InjectionError):
        inject_point_periodic(_sine(), 1.5, 1.0)
    with pytest.raises(ConfigurationError):
        PointPeriodic(threshold_frac=0.9, delta_frac=0.0)


def test_multipoint_propagates_downstream():
    cfg = VrefConfig()
    clean = simulate_vref(cfg, 1500, 20e-6)
    spec = AnomalySpec(PointPeriodic(0.9, 1.0), InjectionLocation.PLL_B)
    injected, records = inject_multipoint(clean, [spec])
    assert len(records) == 1
    assert records[0].location is InjectionLocation.PLL_B
    # input and frequency reused, intensity perturbed, trig and output
    # re-simulated
    assert injected.input is clean.input
    assert injected.pll_frequency is clean.pll_frequency
    assert not np.array_equal(injected.pll_intensity.samples,
                              clean.pll_intensity.samples)
    assert not np.array_equal(injected.trig.samples, clean.trig.samples)
    assert not np.array_equal(injected.output.samples, clean.output.samples)


def test_multipoint_applies_in_block_order():
    cfg = VrefConfig()
    clean = simulate_vref(cfg, 1500, 20e-6)
    specs = [
        AnomalySpec(PointPeriodic(0.95, 0.5), InjectionLocation.TRIG_C),
        AnomalySpec(PointRandom(0.5, 2.0, 5.0), InjectionLocation.INPUT_A, seed=4),
    ]
    injected, records = inject_multipoint(clean, specs)
    assert [r.location for r in records] == [InjectionLocation.INPUT_A,
                                             InjectionLocation.TRIG_C]
    # the trig leg operated on the already re-simulated (input-perturbed) trig
    resim, _ = inject_multipoint(clean, [specs[1]])
    trig_before_c = resim.trig
    pos = records[1].positions
    assert np.allclose(records[1].original, trig_before_c.samples[pos])


def test_multipoint_needs_specs():
    clean = simulate_vref(VrefConfig(), 300, 20e-6)
    with pytest.raises(InjectionError):
        inject_multipoint(clean, [])


def test_apply_anomaly_spec_tags_location():
    w = _sine()
    out, rec = apply_anomaly_spec(
        w, AnomalySpec(PointRandom(), InjectionLocation.INPUT_A, seed=1))
    assert rec.location is InjectionLocation.INPUT_A
    assert not np.array_equal(out.samples, w.samples)


def test_record_csv_format(tmp_path):
    w = _sine()
    _, rec = inject_point_random(w, 0.5, 2.0, 5.0, seed=2)
    path = tmp_path / "rec.csv"
    record_to_csv(rec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,original,injected"
    assert len(lines) == 1 + len(rec.positions)


# --------------------------------------------------------------- faults

def test_fault_transforms_match_table():
    m = OpampModel(open_loop_gain=20.0, rail_low=-2.5, rail_high=2.5, offset=0.02)
    span = m.rail_span
    pfet = apply_component_fault(m, ComponentFault(FaultKind.OM_PFET))
    assert pfet.open_loop_gain == pytest.approx(8.0)
    assert pfet.offset == pytest.approx(0.02 + 0.05 * span)
    nfet = apply_component_fault(m, ComponentFault(FaultKind.OM_NFET))
    assert nfet.open_loop_gain == pytest.approx(12.0)
    assert nfet.offset == pytest.approx(0.02 - 0.05 * span)
    both = apply_component_fault(m, ComponentFault(FaultKind.OM_BOTH))
    assert both.open_loop_gain == pytest.approx(20.0 * 0.24)
    assert both.offset == pytest.approx(0.02)      # offsets cancel
    short = apply_component_fault(m, ComponentFault(FaultKind.SHORT))
    assert short.open_loop_gain == pytest.approx(5.0)
    opened = apply_component_fault(m, ComponentFault(FaultKind.OPEN))
    assert opened.open_collapse
    par = apply_component_fault(m, ComponentFault(FaultKind.PARAMETRIC, 150.0))
    assert par.eval_temp == 150.0
    assert par.temperature == 150.0


def test_fault_application_is_idempotent():
    m = OpampModel()
    fault = ComponentFault(FaultKind.OM_BOTH)
    once = apply_component_fault(m, fault)
    twice = apply_component_fault(once, fault)
    assert twice == once
    assert once.applied_fault == "OmBoth"


def test_parametric_fault_requires_out_of_range_temp():
    with pytest.raises(ConfigurationError):
        ComponentFault(FaultKind.PARAMETRIC, 25.0)
    with pytest.raises(ConfigurationError):
        ComponentFault(FaultKind.PARAMETRIC, None)
    ComponentFault(FaultKind.PARAMETRIC, -55.0)     # below range is fine
    with pytest.raises(ConfigurationError):
        ComponentFault(FaultKind.SHORT, 150.0)      # non-parametric: no temp


def test_fault_from_name():
    f = ComponentFault.from_name("Parametric")
    assert f.temperature == 150.0
    assert ComponentFault.from_name("Open").kind is FaultKind.OPEN
    with pytest.raises(ConfigurationError):
        ComponentFault.from_name("Rust")
