import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amsdetect import (ConfigurationError, ExperimentConfig, InjectionError,
                       OpampModel, PointPeriodic, PointRandom, VrefConfig,
                       Waveform, apply_component_fault,
                       generate_features, inject_points, record_to_csv,
                       run_suite, simulate_vref, waveform_from_csv)
from amsdetect import inject, waveforms
from amsdetect.cli import main
from amsdetect.inject import _count_half_up
from amsdetect.waveforms import (_BLOCKS, _chain_clock, _chain_step, _stamp_rows,
                                 vref_output_block)
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
    out, rec = inject_points(w, PointRandom(0.5, 2.0, 5.0), 0)
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
    a1, r1 = inject_points(w, PointRandom(0.5, 2.0, 5.0), 9)
    a2, r2 = inject_points(w, PointRandom(0.5, 2.0, 5.0), 9)
    assert np.array_equal(a1.samples, a2.samples)
    assert np.array_equal(r1.positions, r2.positions)
    seen = {tuple(inject_points(w, PointRandom(0.5, 2.0, 5.0), s)[1].positions)
            for s in range(100)}
    assert len(seen) >= 95


def test_random_injection_errors():
    w = _sine(n=50)
    with pytest.raises(ConfigurationError):
        inject_points(w, PointRandom(0.0, 2.0, 5.0), 0)
    with pytest.raises(ConfigurationError):
        inject_points(w, PointRandom(0.5, 5.0, 2.0), 0)
    nan, inf = float("nan"), float("inf")
    for low, high in ((nan, 5.0), (inf, inf), (-inf, 5.0)):
        with pytest.raises(ConfigurationError, match="^amp_low must be finite and > 0"):
            PointRandom(0.5, low, high)
    for low, high in ((2.0, nan), (2.0, inf)):
        with pytest.raises(ConfigurationError, match="^amp_high must be finite and >= amp_low"):
            PointRandom(0.5, low, high)
    with pytest.raises(InjectionError):
        inject_points(w, PointRandom(99.9, 2.0, 5.0), 0)      # count == n
    flat = Waveform(np.zeros(100), 1e-8)
    with pytest.raises(InjectionError):
        inject_points(flat, PointRandom(0.5, 2.0, 5.0), 0)


# a positive peak for both kinds; a rate of at most 30% leaves a clean sample
_signals = st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=200).filter(
    lambda x: max(x) > 0.0)


@settings(max_examples=60, deadline=None)
@given(x=_signals, rate=st.floats(0.01, 30.0), low=st.floats(0.1, 5.0),
       span=st.floats(0.0, 5.0), seed=st.integers(0, 2**32 - 1))
def test_random_injection_matches_reference(x, rate, low, span, seed):
    w = Waveform(np.array(x), 1e-8)
    out, rec = inject_points(w, PointRandom(rate, low, low + span), seed)
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
    out, rec = inject_points(w, PointPeriodic(threshold, delta), None)
    want, positions = point_periodic_reference(x, threshold, delta)
    assert out.samples.tobytes() == want.tobytes()
    assert rec.positions.tolist() == positions
    assert rec.original.tobytes() == np.array(x)[positions].tobytes()
    assert rec.injected.tobytes() == want[positions].tobytes()


def test_periodic_injection_hits_threshold_samples():
    w = _sine()
    out, rec = inject_points(w, PointPeriodic(0.9, 1.0), None)
    peak = np.max(w.samples)
    expected = np.flatnonzero(w.samples >= 0.9 * peak)
    assert np.array_equal(rec.positions, expected)
    assert np.allclose(out.samples[rec.positions],
                       w.samples[rec.positions] + peak)
    # no RNG: two calls agree exactly
    out2, _ = inject_points(w, PointPeriodic(0.9, 1.0), None)
    assert np.array_equal(out.samples, out2.samples)


def test_periodic_injection_errors():
    with pytest.raises(InjectionError):
        inject_points(Waveform(-np.ones(10), 1.0), PointPeriodic(0.9, 1.0), None)
    with pytest.raises(ConfigurationError, match="threshold_frac"):
        PointPeriodic(1.5, 1.0)
    for delta in (np.nan, np.inf, -0.5):
        with pytest.raises(ConfigurationError, match="finite and >= 0"):
            PointPeriodic(threshold_frac=0.9, delta_frac=delta)
    # delta 0 is an identity pass that still records the would-be positions
    out, rec = inject_points(_sine(), PointPeriodic(0.9, 0.0), None)
    assert np.array_equal(out.samples, _sine().samples) and len(rec.positions)


def test_periodic_delta_zero_runs_in_cli_and_config(tmp_path, capsys):
    """``inject`` and a config take the same periodic values: delta 0 is an
    identity pass in both, and a bad value names its config key."""
    sim, inj = tmp_path / "sim", tmp_path / "inj"
    assert main(["simulate", "--n-samples", "200", "--out", str(sim)]) == 0
    assert main(["inject", "--in", str(sim / "trig.csv"), "--mode", "periodic",
                 "--delta-frac", "0", "--out", str(inj)]) == 0
    assert (waveform_from_csv(inj / "injected.csv").samples.tobytes()
            == waveform_from_csv(sim / "trig.csv").samples.tobytes())
    assert len((inj / "record.csv").read_text().splitlines()) > 1
    for flag, key in (("--delta-frac=-0.5", "delta_frac"),
                      ("--threshold-frac=1.5", "threshold_frac")):
        capsys.readouterr()
        assert main(["inject", "--in", str(sim / "trig.csv"), "--mode", "periodic",
                     flag, "--out", str(inj)]) == 2
        assert capsys.readouterr().err.endswith(f"(config key: {key})\n")
    entry = run_suite([ExperimentConfig(experiment="PPA", delta_frac=0.0,
                                        n_samples_per_class=10, n_samples=300)]).entries[0]
    assert entry.error is None and entry.report.rows


def _walk(legs, seeds, n=1500):
    """(clean signals, signals walked with ``legs`` and their ``seeds``),
    the chain's steps checked byte for byte against the block-by-block
    reference."""
    cfg = VrefConfig()
    clean = simulate_vref(cfg, n, 20e-6)
    dt = clean["input"].sample_period
    x, clock, out = clean["input"].samples[None].copy(), _chain_clock(n, dt, cfg), {}
    streams = [[np.random.default_rng(s).bit_generator.state] for s in seeds]
    for block in _BLOCKS:
        _stamp_rows(x, [(kind, s) for (at, kind), s in zip(legs, streams) if at == block])
        taps, x = _chain_step(cfg, block, x, dt, clock)
        out.update(taps)
    out["output"] = vref_output_block(Waveform(out["trig"][0], dt), cfg).samples[None]
    ref = multipoint_reference(cfg, clean["input"], legs, seeds)
    assert out.keys() == ref.keys()
    for name, x in out.items():
        assert x.shape == (1, n)
        assert x[0].tobytes() == ref[name].samples.tobytes(), name
    return clean, {name: x[0] for name, x in out.items()}


def test_multipoint_propagates_downstream():
    clean, injected = _walk((("PllB", PointPeriodic(0.9, 1.0)),), (0,))
    # input and frequency untouched; intensity perturbed, trig and output
    # simulated from it
    for name in ("input", "pll_frequency"):
        assert np.array_equal(injected[name], clean[name].samples)
    for name in ("pll_intensity", "trig", "output"):
        assert not np.array_equal(injected[name], clean[name].samples)


def test_multipoint_applies_in_block_order():
    legs = (("TrigC", PointPeriodic(0.95, 0.5)), ("InputA", PointRandom(0.5, 2.0, 5.0)))
    _, injected = _walk(legs, (0, 4))
    # the trig leg operated on the trig simulated from the perturbed input
    _, input_only = _walk(legs[1:], (4,))
    trig = Waveform(input_only["trig"], 20e-6 / 1500)
    assert np.array_equal(injected["trig"],
                          inject_points(trig, PointPeriodic(0.95, 0.5), None)[0].samples)


def test_multipoint_applies_one_block_in_list_order():
    legs = (("PllB", PointPeriodic(0.9, 1.0)), ("PllB", PointRandom(1.0, 2.0, 3.0)))
    _, injected = _walk(legs, (0, 2))
    _, first_only = _walk(legs[:1], (0,))
    want = inject_points(Waveform(first_only["pll_intensity"], 20e-6 / 1500),
                         PointRandom(1.0, 2.0, 3.0), 2)[0]
    assert np.array_equal(injected["pll_intensity"], want.samples)


def test_chain_stamps_rows_without_waveforms_or_records(monkeypatch):
    """The chain stamps its rows in place: no Waveform or InjectionRecord."""
    def refuse(*args, **kwargs):
        raise AssertionError("the chain built a per-row object")

    cfg = ExperimentConfig(experiment="IPTRA", n_samples_per_class=10,
                           n_samples=150, seed=3)
    want = generate_features(cfg)[0]
    monkeypatch.setattr(waveforms, "Waveform", refuse)
    monkeypatch.setattr(inject, "InjectionRecord", refuse)
    assert generate_features(cfg)[0].tobytes() == want.tobytes()


def test_record_csv_format(tmp_path):
    w = _sine()
    _, rec = inject_points(w, PointRandom(0.5, 2.0, 5.0), 2)
    path = tmp_path / "rec.csv"
    record_to_csv(rec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,original,injected"
    assert len(lines) == 1 + len(rec.positions)


# --------------------------------------------------------------- faults

def test_fault_transforms_match_table():
    m = OpampModel(open_loop_gain=20.0, rail_low=-2.5, rail_high=2.5, offset=0.02)
    span = m.rail_span
    pfet = apply_component_fault(m, "OmPfet", None)
    assert pfet.open_loop_gain == pytest.approx(8.0)
    assert pfet.offset == pytest.approx(0.02 + 0.05 * span)
    nfet = apply_component_fault(m, "OmNfet", None)
    assert nfet.open_loop_gain == pytest.approx(12.0)
    assert nfet.offset == pytest.approx(0.02 - 0.05 * span)
    both = apply_component_fault(m, "OmBoth", None)
    assert both.open_loop_gain == pytest.approx(20.0 * 0.24)
    assert both.offset == pytest.approx(0.02)      # offsets cancel
    short = apply_component_fault(m, "Short", None)
    assert short.open_loop_gain == pytest.approx(5.0)
    opened = apply_component_fault(m, "Open", None)
    assert opened.open_collapse
    par = apply_component_fault(m, "Parametric", 150.0)
    assert par.eval_temp == 150.0
    assert par.temperature == 150.0


def test_parametric_fault_requires_out_of_range_temp():
    m = OpampModel()
    with pytest.raises(ConfigurationError):
        apply_component_fault(m, "Parametric", 25.0)
    with pytest.raises(ConfigurationError):
        apply_component_fault(m, "Parametric", None)
    apply_component_fault(m, "Parametric", -55.0)     # below range is fine
    # non-parametric: the temperature is ignored
    assert (apply_component_fault(m, "OmBoth", 150.0)
            == apply_component_fault(m, "OmBoth", None))


@pytest.mark.parametrize("temp", [np.inf, -np.inf, np.nan])
def test_parametric_fault_refuses_non_finite_temp(tmp_path, temp):
    with pytest.raises(ConfigurationError, match="must be finite") as exc:
        apply_component_fault(OpampModel(), "Parametric", temp)
    assert exc.value.config_key == "fault_temperature"
    out = tmp_path / "sim"
    assert main(["simulate", "--circuit", "opamp", "--n-samples", "50",
                 "--fault", "Parametric", f"--fault-temp={temp}",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_fault_from_name():
    m = OpampModel()
    assert apply_component_fault(m, "Parametric", 150.0).eval_temp == 150.0
    assert apply_component_fault(m, "Open", None).open_collapse
    assert apply_component_fault(m, "Open", 150.0).eval_temp is None
    with pytest.raises(ConfigurationError) as exc:
        apply_component_fault(m, "Parametric", None)
    assert exc.value.config_key == "fault_temperature"
    with pytest.raises(ConfigurationError, match="unknown fault 'Rust'") as exc:
        apply_component_fault(m, "Rust", None)
    assert exc.value.config_key == "experiment"
