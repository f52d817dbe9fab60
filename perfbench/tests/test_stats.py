"""Percentile support, the serve_ramp step judge, capacity at SLO."""

from perfbench.stats import (
    MIN_BEYOND,
    SLO_P99_US,
    Fingerprint,
    StepOutcome,
    max_rate_at_slo,
    p99,
    percentile,
    step_passes,
    tail,
)


def test_tail_needs_ten_samples_beyond():
    assert tail(list(range(MIN_BEYOND))) is None
    assert tail(list(range(MIN_BEYOND + 1))) == (0, 100.0 / (MIN_BEYOND + 1))
    value, pct = tail([float(v) for v in range(1, 101)])
    assert value == 90.0 and pct == 90.0
    # Exactly MIN_BEYOND samples rank above the reported value.
    samples = [float(v) for v in range(1, 1001)]
    value, pct = tail(samples)
    assert sum(1 for v in samples if v > value) == MIN_BEYOND
    assert pct == 99.0


def test_p99_only_with_support():
    assert p99([1.0] * 999) is None
    samples = [float(v) for v in range(1, 1001)]
    assert p99(samples) == 990.0
    assert percentile(samples, 50) == 500.0
    assert percentile([], 50) is None


def _step(multiplier=8, latency=500.0, shed=0, failed=0, drain_us=1_000.0,
          window_us=100_000.0, n=1_000):
    return StepOutcome(
        multiplier=multiplier, offered=n + shed + failed, completed=n,
        failed=failed, shed=shed, latencies_us=[latency] * n,
        window_us=window_us, drain_us=drain_us,
    )


def test_step_judge_passing_step():
    step = _step()
    assert step_passes(step)
    assert step.rate_per_s == 1_000 / (101_000 / 1e6)


def test_step_judge_failing_steps():
    assert not step_passes(_step(latency=SLO_P99_US + 1))
    assert not step_passes(_step(shed=1))
    assert not step_passes(_step(failed=1))
    # A drain longer than 10% of the arrival window: backlog grew.
    assert not step_passes(_step(drain_us=10_001.0))
    # Too few completions for a supported p99.
    assert not step_passes(_step(n=999))


def test_max_rate_picks_highest_passing_step():
    steps = [_step(1), _step(4, window_us=25_000.0, drain_us=100.0),
             _step(8, shed=3)]
    assert max_rate_at_slo(steps) == steps[1].rate_per_s


def test_max_rate_when_no_step_passes():
    steps = [_step(m, shed=1) for m in (1, 4, 8, 12, 16)]
    assert max_rate_at_slo(steps) == 0.0
    assert max_rate_at_slo([]) == 0.0


def test_fingerprint_is_exact_and_ordered():
    a, b, c = Fingerprint(), Fingerprint(), Fingerprint()
    a.add(1, 23.25)
    a.add("x", None)
    b.add(1, 23.25)
    b.add("x", None)
    c.add("x", None)
    c.add(1, 23.25)
    assert a.hexdigest() == b.hexdigest() != c.hexdigest()
    d = Fingerprint()
    d.add(1, 23.25 + 1e-12)
    d.add("x", None)
    assert d.hexdigest() != a.hexdigest()
