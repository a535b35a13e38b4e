"""Unit tests for the power model (:mod:`repro.gpu.power`)."""

import pytest

from repro.gpu.power import PowerModel, PowerState
from repro.gpu.specs import PowerSpec
from repro.sim.engine import Environment


def idle_state():
    return PowerState(occupancy=0.0, dma_busy=0, any_active=False)


def busy_state(occ=1.0, dma=0):
    return PowerState(occupancy=occ, dma_busy=dma, any_active=True)


class TestFormula:
    spec = PowerSpec()

    def model(self):
        return PowerModel(Environment(), self.spec)

    def test_idle_power(self):
        assert self.model().evaluate(idle_state()) == pytest.approx(self.spec.idle)

    def test_full_occupancy_power(self):
        expected = self.spec.idle + self.spec.context_active + self.spec.smx_dynamic_max
        assert self.model().evaluate(busy_state(1.0)) == pytest.approx(expected)

    def test_tdp_clamp(self):
        spec = PowerSpec(smx_dynamic_max=1000.0, tdp=225.0)
        model = PowerModel(Environment(), spec)
        assert model.evaluate(busy_state(1.0)) == 225.0

    def test_dma_contribution(self):
        with_dma = self.model().evaluate(busy_state(0.0, dma=2))
        without = self.model().evaluate(busy_state(0.0, dma=0))
        assert with_dma - without == pytest.approx(2 * self.spec.dma_active)

    def test_sublinear_concurrency_scaling(self):
        """Doubling occupancy must raise dynamic power by less than 2x —
        the paper's central energy observation."""
        model = self.model()
        base = model.evaluate(busy_state(0.0))
        p1 = model.evaluate(busy_state(0.4)) - base
        p2 = model.evaluate(busy_state(0.8)) - base
        assert p2 < 2 * p1
        assert p2 > p1  # but still monotone

    def test_invalid_states(self):
        with pytest.raises(ValueError):
            PowerState(occupancy=1.5, dma_busy=0, any_active=True)
        with pytest.raises(ValueError):
            PowerState(occupancy=0.5, dma_busy=-1, any_active=True)


class TestIntegration:
    def test_energy_of_constant_power(self):
        env = Environment()
        model = PowerModel(env, PowerSpec())
        env.timeout(10.0)
        env.run()
        assert model.energy() == pytest.approx(PowerSpec().idle * 10.0)

    def test_piecewise_integration(self):
        env = Environment()
        spec = PowerSpec()
        model = PowerModel(env, spec)

        def driver():
            yield env.timeout(5.0)       # 5 s idle
            model.update(busy_state(1.0))
            yield env.timeout(2.0)       # 2 s at full tilt
            model.update(idle_state())
            yield env.timeout(3.0)       # 3 s idle again

        env.process(driver())
        env.run()
        full = spec.idle + spec.context_active + spec.smx_dynamic_max
        expected = spec.idle * 5 + full * 2 + spec.idle * 3
        assert model.energy() == pytest.approx(expected)

    def test_energy_until_midpoint(self):
        env = Environment()
        spec = PowerSpec()
        model = PowerModel(env, spec)

        def driver():
            yield env.timeout(4.0)
            model.update(busy_state(1.0))
            yield env.timeout(4.0)

        env.process(driver())
        env.run()
        # Energy in the first half only.
        assert model.energy(until=4.0) == pytest.approx(spec.idle * 4.0)
        # Energy window inside the busy half.
        full = spec.idle + spec.context_active + spec.smx_dynamic_max
        assert model.energy(until=6.0) - model.energy(until=4.0) == pytest.approx(
            full * 2.0
        )

    def test_average_power(self):
        env = Environment()
        spec = PowerSpec()
        model = PowerModel(env, spec)

        def driver():
            model.update(busy_state(1.0))
            yield env.timeout(2.0)
            model.update(idle_state())
            yield env.timeout(2.0)

        env.process(driver())
        env.run()
        full = spec.idle + spec.context_active + spec.smx_dynamic_max
        assert model.average_power(0.0, 4.0) == pytest.approx((full + spec.idle) / 2)

    def test_peak_power_tracked(self):
        env = Environment()
        model = PowerModel(env, PowerSpec())
        model.update(busy_state(0.5))
        model.update(idle_state())
        assert model.peak_power > PowerSpec().idle

    def test_no_op_update_adds_no_segment(self):
        env = Environment()
        model = PowerModel(env, PowerSpec())
        before = len(model.segments())
        model.update(idle_state())  # same power as initial
        assert len(model.segments()) == before

    def test_update_by_watts_matches_update_by_state(self):
        def run(by_watts):
            env = Environment()
            model = PowerModel(env, PowerSpec())

            def driver():
                for state in (busy_state(0.7, dma=1), idle_state(), busy_state(0.3)):
                    if by_watts:
                        model.update(watts=model.evaluate(state))
                    else:
                        model.update(state)
                    yield env.timeout(1e-3)

            env.process(driver())
            env.run()
            return model.segments(), model.energy(), model.peak_power

        assert run(by_watts=True) == run(by_watts=False)



class TestZeroDurationTransients:
    """The pinned rule (see the PowerModel docstring): a power held for
    zero time adds no energy and no segment of its own, yet counts toward
    ``peak_power``."""

    def test_same_instant_a_b_a(self):
        env = Environment()
        model = PowerModel(env, PowerSpec())
        a, b = busy_state(0.25), busy_state(1.0, dma=2)
        watts_a, watts_b = model.evaluate(a), model.evaluate(b)
        seen = {}

        def transient():
            yield env.timeout(1.0)
            model.update(a)
            yield env.timeout(1.0)
            seen["energy"], seen["segments"] = model.energy(), model.segments()
            model.update(b)
            model.update(a)
            seen["energy after"] = model.energy()
            seen["segments after"] = model.segments()
            yield env.timeout(1.0)

        env.process(transient())
        env.run()
        assert watts_a < watts_b
        assert model.peak_power == watts_b
        assert seen["energy after"] == seen["energy"]
        # B leaves no segment.  The running A segment is closed at the
        # transient and reopened, so the list records one split point
        # inside it, with the same power on both sides: power over time is
        # unchanged.  Merging the two would integrate A*(dt1+dt2) instead
        # of A*dt1 + A*dt2, a different float.
        assert seen["segments"] == [(0.0, PowerSpec().idle), (1.0, watts_a)]
        assert seen["segments after"] == seen["segments"] + [(2.0, watts_a)]
        assert all(watts != watts_b for _, watts in model.segments())
        assert model.energy(until=2.0) == seen["energy"]

    def test_transient_at_the_start_of_a_segment_leaves_no_trace(self):
        env = Environment()
        model = PowerModel(env, PowerSpec())
        a, b = busy_state(0.25), busy_state(1.0, dma=2)
        model.update(a)
        segments, energy = model.segments(), model.energy()
        model.update(b)
        model.update(a)
        assert model.segments() == segments
        assert model.energy() == energy
        assert model.peak_power == model.evaluate(b)
