import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amsdetect import (AnomalySpec, ComponentFault, ConfigurationError,
                       ExperimentConfig, FaultKind, InjectionError,
                       InjectionLocation, OpampModel, PointPeriodic,
                       PointRandom, VrefConfig, Waveform, apply_component_fault,
                       generate_features, inject_point_periodic,
                       inject_point_random, record_to_csv, simulate_vref)
from amsdetect import inject
from amsdetect.cli import main
from amsdetect.inject import _count_half_up, _walk_chain
from amsdetect.waveforms import vref_output_block
from oracles import (multipoint_reference, point_periodic_reference,
                     point_random_reference)


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
    nan, inf = float("nan"), float("inf")
    for low, high in ((nan, 5.0), (2.0, nan), (2.0, inf), (inf, inf), (-inf, 5.0)):
        with pytest.raises(ConfigurationError, match="finite 0 < amp_low"):
            PointRandom(0.5, low, high)
    with pytest.raises(InjectionError):
        inject_point_random(w, 99.9, 2.0, 5.0)      # count == n
    flat = Waveform(np.zeros(100), 1e-8)
    with pytest.raises(InjectionError):
        inject_point_random(flat, 0.5, 2.0, 5.0)


# a positive peak for both kinds; a rate of at most 30% leaves a clean sample
_signals = st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=200).filter(
    lambda x: max(x) > 0.0)


@settings(max_examples=60, deadline=None)
@given(x=_signals, rate=st.floats(0.01, 30.0), low=st.floats(0.1, 5.0),
       span=st.floats(0.0, 5.0), seed=st.integers(0, 2**32 - 1))
def test_random_injection_matches_reference(x, rate, low, span, seed):
    w = Waveform(np.array(x), 1e-8)
    out, rec = inject_point_random(w, rate, low, low + span, seed)
    want, positions = point_random_reference(x, rate, low, low + span, seed)
    assert out.samples.tobytes() == want.tobytes()
    assert rec.positions.tolist() == positions
    assert rec.original.tobytes() == np.array(x)[positions].tobytes()
    assert rec.injected.tobytes() == want[positions].tobytes()


@settings(max_examples=60, deadline=None)
@given(x=_signals, threshold=st.just(1.0) | st.floats(0.01, 1.0),
       delta=st.floats(0.0, 5.0))
def test_periodic_injection_matches_reference(x, threshold, delta):
    w = Waveform(np.array(x), 1e-8)
    out, rec = inject_point_periodic(w, threshold, delta)
    want, positions = point_periodic_reference(x, threshold, delta)
    assert out.samples.tobytes() == want.tobytes()
    assert rec.positions.tolist() == positions
    assert rec.original.tobytes() == np.array(x)[positions].tobytes()
    assert rec.injected.tobytes() == want[positions].tobytes()


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
    for delta in (np.nan, np.inf):
        with pytest.raises(ConfigurationError, match="finite and > 0"):
            PointPeriodic(threshold_frac=0.9, delta_frac=delta)
        with pytest.raises(InjectionError, match="finite and >= 0"):
            inject_point_periodic(_sine(), 0.9, delta)
    # an identity pass that still records the would-be positions
    out, rec = inject_point_periodic(_sine(), 0.9, 0.0)
    assert np.array_equal(out.samples, _sine().samples) and len(rec.positions)


def _walk(specs, n=1500):
    """(clean signals, signals walked with ``specs``), the walk checked
    byte for byte against the block-by-block reference."""
    cfg = VrefConfig()
    clean = simulate_vref(cfg, n, 20e-6)
    dt = clean["input"].sample_period
    out = _walk_chain(cfg, clean["input"].samples[None].copy(), dt, [specs])
    out["output"] = vref_output_block(Waveform(out["trig"][0], dt), cfg).samples[None]
    ref = multipoint_reference(cfg, clean["input"], specs)
    assert out.keys() == ref.keys()
    for name, x in out.items():
        assert x.shape == (1, n)
        assert x[0].tobytes() == ref[name].samples.tobytes(), name
    return clean, {name: x[0] for name, x in out.items()}


def test_multipoint_propagates_downstream():
    spec = AnomalySpec(PointPeriodic(0.9, 1.0), InjectionLocation.PLL_B)
    clean, injected = _walk([spec])
    # input and frequency untouched; intensity perturbed, trig and output
    # simulated from it
    for name in ("input", "pll_frequency"):
        assert np.array_equal(injected[name], clean[name].samples)
    for name in ("pll_intensity", "trig", "output"):
        assert not np.array_equal(injected[name], clean[name].samples)


def test_multipoint_applies_in_block_order():
    specs = [
        AnomalySpec(PointPeriodic(0.95, 0.5), InjectionLocation.TRIG_C),
        AnomalySpec(PointRandom(0.5, 2.0, 5.0), InjectionLocation.INPUT_A, seed=4),
    ]
    _, injected = _walk(specs)
    # the trig leg operated on the trig simulated from the perturbed input
    _, input_only = _walk([specs[1]])
    trig = Waveform(input_only["trig"], 20e-6 / 1500)
    assert np.array_equal(injected["trig"],
                          inject_point_periodic(trig, 0.95, 0.5)[0].samples)


def test_multipoint_applies_one_block_in_list_order():
    specs = [AnomalySpec(PointPeriodic(0.9, 1.0), InjectionLocation.PLL_B),
             AnomalySpec(PointRandom(1.0, 2.0, 3.0), InjectionLocation.PLL_B, seed=2)]
    _, injected = _walk(specs)
    _, first_only = _walk(specs[:1])
    want = inject_point_random(Waveform(first_only["pll_intensity"], 20e-6 / 1500),
                               1.0, 2.0, 3.0, seed=2)[0]
    assert np.array_equal(injected["pll_intensity"], want.samples)


def test_chain_stamps_rows_without_waveforms_or_records(monkeypatch):
    """The chain stamps its rows in place: no Waveform or InjectionRecord."""
    def refuse(*args, **kwargs):
        raise AssertionError("the chain built a per-row object")

    cfg = ExperimentConfig(experiment="IPTRA", n_samples_per_class=10,
                           n_samples=150, seed=3)
    want = generate_features(cfg)[0]
    monkeypatch.setattr(inject, "Waveform", refuse)
    monkeypatch.setattr(inject, "InjectionRecord", refuse)
    assert generate_features(cfg)[0].tobytes() == want.tobytes()


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


@pytest.mark.parametrize("temp", [np.inf, -np.inf, np.nan])
def test_parametric_fault_refuses_non_finite_temp(tmp_path, temp):
    with pytest.raises(ConfigurationError, match="must be finite") as exc:
        ComponentFault(FaultKind.PARAMETRIC, temp)
    assert exc.value.config_key == "fault_temperature"
    out = tmp_path / "sim"
    assert main(["simulate", "--circuit", "opamp", "--n-samples", "50",
                 "--fault", "Parametric", f"--fault-temp={temp}",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_fault_from_name():
    f = ComponentFault.from_name("Parametric")
    assert f.temperature == 150.0
    assert ComponentFault.from_name("Open").kind is FaultKind.OPEN
    with pytest.raises(ConfigurationError):
        ComponentFault.from_name("Rust")
