"""Tests for Stream and StreamManager."""

import pytest

from repro.framework.stream import Stream
from repro.framework.stream_manager import StreamManager
from repro.gpu.device import GPUDevice


@pytest.fixture
def manager(env, device):
    return StreamManager(env, device, num_streams=4)


class TestStreamManager:
    def test_creates_requested_pool(self, env, device):
        manager = StreamManager(env, device, num_streams=8)
        assert manager.num_streams == 8
        assert len({s.sid for s in manager.streams}) == 8

    def test_validation(self, env, device):
        with pytest.raises(ValueError):
            StreamManager(env, device, num_streams=0)

    def test_round_robin_assignment(self, manager):
        """App k gets stream k mod NS — launch order maps onto the pool."""
        assigned = [manager.acquire(f"app#{i}").index for i in range(10)]
        assert assigned == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]

    def test_destroy_all(self, manager):
        device = manager.device
        before = len(device.streams)
        manager.destroy_all()
        assert manager.streams == []
        assert len(device.streams) == before - 4


class TestStreamOccupancy:
    def test_apps_sharing_stream_serialize(self, env, manager):
        """Two apps on the same stream run back-to-back (host lock)."""
        stream = manager.streams[0]
        log = []

        def app(name, work):
            token = yield from stream.occupy(name)
            log.append(("start", name, env.now))
            yield env.timeout(work)
            log.append(("end", name, env.now))
            stream.vacate(name, token)

        env.process(app("first", 5))
        env.process(app("second", 3))
        env.run()
        assert log == [
            ("start", "first", 0),
            ("end", "first", 5),
            ("start", "second", 5),
            ("end", "second", 8),
        ]
        assert stream.completed_apps == ["first", "second"]

    def test_current_app_tracking(self, env, manager):
        stream = manager.streams[1]

        def app():
            token = yield from stream.occupy("x")
            assert stream.current_app == "x"
            yield env.timeout(1)
            stream.vacate("x", token)
            assert stream.current_app is None

        env.process(app())
        env.run()
        assert stream.apps_executed == 1

    def test_distinct_streams_do_not_serialize(self, env, manager):
        starts = []

        def app(stream, name):
            token = yield from stream.occupy(name)
            starts.append((name, env.now))
            yield env.timeout(5)
            stream.vacate(name, token)

        env.process(app(manager.streams[0], "a"))
        env.process(app(manager.streams[1], "b"))
        env.run()
        assert [t for _, t in starts] == [0, 0]
