"""The typed event vocabulary and the bus that carries it."""

import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.events import (
    AgentJoined,
    AgentLost,
    CacheHit,
    Event,
    EventBus,
    JobCompleted,
    JobLeased,
    JobQueued,
    LeaseExpired,
    PoolFallback,
    SearchFinished,
    SearchStarted,
    ShardRequeued,
    event_from_dict,
    event_from_json,
    event_to_json,
)

#: Arbitrary wire-safe text: ids and messages cross JSON and pipes, so
#: throw full unicode (newlines, quotes, surrogate-free) at the codec.
wire_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40)

#: Lease terms as they appear in the wild: positive finite floats.
lease_terms = st.floats(min_value=0.001, max_value=1e6,
                        allow_nan=False, allow_infinity=False)


class TestEventTypes:
    def test_kinds_match_the_string_era(self):
        assert SearchStarted("x").kind == "start"
        assert SearchFinished("x").kind == "finish"
        assert ShardRequeued("x").kind == "requeue"
        assert PoolFallback("").kind == "fallback"

    def test_events_have_no_shard_id(self):
        """``scope`` is the one name for what an event is about."""
        event = SearchStarted("mnist-pynq-z1-nas-s0", "running in-process")
        assert not hasattr(event, "shard_id")
        assert "shard_id" not in event.to_dict()

    def test_events_are_frozen(self):
        with pytest.raises(Exception):
            SearchStarted("a", "b").scope = "c"

    @pytest.mark.parametrize("event", [
        Event("s", "m"),
        SearchStarted("shard-1", "running"),
        ShardRequeued("shard-2", "worker died"),
        JobQueued("j-abc", "queued at priority 0", plan_hash="ff" * 32),
        CacheHit("j-abc", "stored", plan_hash="00" * 32),
        JobCompleted("j-abc", "completed", plan_hash="11" * 32),
    ])
    def test_to_dict_round_trips_losslessly(self, event):
        restored = event_from_dict(event.to_dict())
        assert restored == event
        assert type(restored) is type(event)

    def test_to_dict_carries_kind_and_tag(self):
        data = JobQueued("j-1", "m", plan_hash="aa").to_dict()
        assert data["event"] == "job-queued"
        assert data["kind"] == "queued"
        assert data["plan_hash"] == "aa"

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown event type"):
            event_from_dict({"event": "nope", "scope": "", "message": ""})

    @pytest.mark.parametrize("event", [
        SearchStarted("shard-1", "running"),
        JobQueued("j-abc", "queued at priority 0", plan_hash="ff" * 32),
    ])
    def test_json_line_codec_round_trips(self, event):
        """The pipe/journal wire form: one line, lossless, typed."""
        line = event_to_json(event)
        assert "\n" not in line
        restored = event_from_json(line)
        assert restored == event
        assert type(restored) is type(event)

    def test_json_line_codec_escapes_embedded_newlines(self):
        event = SearchStarted("shard-1", "line one\nline two")
        line = event_to_json(event)
        assert "\n" not in line  # framing survives hostile messages
        assert event_from_json(line).message == "line one\nline two"


class TestFederationEventRoundTrips:
    """Property: every lease/agent event survives both wire codecs.

    These four types are exactly what crosses the agent protocol and
    the journal, so a lossy field here silently corrupts recovery.
    """

    @staticmethod
    def both_codecs(event):
        via_dict = event_from_dict(event.to_dict())
        via_json = event_from_json(event_to_json(event))
        return via_dict, via_json

    @given(scope=wire_text, message=wire_text, name=wire_text)
    def test_agent_joined_round_trips(self, scope, message, name):
        event = AgentJoined(scope, message, name=name)
        for restored in self.both_codecs(event):
            assert restored == event
            assert type(restored) is AgentJoined

    @given(scope=wire_text, message=wire_text, name=wire_text)
    def test_agent_lost_round_trips(self, scope, message, name):
        event = AgentLost(scope, message, name=name)
        for restored in self.both_codecs(event):
            assert restored == event
            assert type(restored) is AgentLost

    @given(scope=wire_text, message=wire_text, agent=wire_text,
           plan_hash=wire_text, lease_seconds=lease_terms)
    def test_job_leased_round_trips(self, scope, message, agent,
                                    plan_hash, lease_seconds):
        event = JobLeased(scope, message, plan_hash=plan_hash,
                          agent=agent, lease_seconds=lease_seconds)
        for restored in self.both_codecs(event):
            assert restored == event
            assert type(restored) is JobLeased
            assert restored.lease_seconds == lease_seconds

    @given(scope=wire_text, message=wire_text, agent=wire_text,
           plan_hash=wire_text)
    def test_lease_expired_round_trips(self, scope, message, agent,
                                       plan_hash):
        event = LeaseExpired(scope, message, plan_hash=plan_hash,
                             agent=agent)
        for restored in self.both_codecs(event):
            assert restored == event
            assert type(restored) is LeaseExpired

    @given(scope=wire_text, message=wire_text, agent=wire_text,
           lease_seconds=lease_terms)
    def test_json_lines_stay_single_line(self, scope, message, agent,
                                         lease_seconds):
        event = JobLeased(scope, message, agent=agent,
                          lease_seconds=lease_seconds)
        assert "\n" not in event_to_json(event)


class TestEventBus:
    def test_subscribe_receives_in_publish_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        events = [SearchStarted(f"s{i}") for i in range(5)]
        for event in events:
            bus.publish(event)
        assert seen == events

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        callback = bus.subscribe(seen.append)
        bus.unsubscribe(callback)
        bus.publish(Event("a", "b"))
        assert seen == []

    def test_concurrent_publishers_deliver_everything(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        barrier = threading.Barrier(4)

        def publish_many(tag):
            barrier.wait()
            for i in range(50):
                bus.publish(Event(f"{tag}-{i}"))

        threads = [threading.Thread(target=publish_many, args=(t,))
                   for t in "abcd"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(seen) == 200
        # Per-publisher order is preserved even though publishers race.
        for tag in "abcd":
            mine = [e.scope for e in seen
                    if e.scope.startswith(f"{tag}-")]
            assert mine == [f"{tag}-{i}" for i in range(50)]
