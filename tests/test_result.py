"""Tests for AllocationResult."""

import numpy as np
import pytest

from repro.result import AllocationResult


def mk(loads, m=None, **kw):
    loads = np.asarray(loads)
    if m is None:
        m = int(loads.sum())
    return AllocationResult(
        algorithm="test",
        m=m,
        n=loads.size,
        loads=loads,
        rounds=1,
        **kw,
    )


class TestValidation:
    def test_conservation_enforced(self):
        with pytest.raises(ValueError, match="loads sum"):
            mk([1, 2], m=5)

    def test_unallocated_accounting(self):
        res = mk([1, 2], m=5, complete=False, unallocated=2)
        assert res.unallocated == 2

    def test_complete_with_unallocated_rejected(self):
        with pytest.raises(ValueError):
            mk([1, 2], m=5, complete=True, unallocated=2)

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            AllocationResult(
                algorithm="x", m=4, n=3, loads=np.array([2, 2]), rounds=0
            )


class TestDerived:
    def test_max_load_and_gap(self):
        res = mk([3, 5, 4])
        assert res.max_load == 5
        assert res.gap == pytest.approx(5 - 12 / 3)

    def test_average_load(self):
        assert mk([2, 2]).average_load == 2.0

    def test_statistics_roundtrip(self):
        res = mk([2, 3, 4])
        stats = res.statistics()
        assert stats.max_load == 4
        assert stats.m == 9

    def test_statistics_requires_complete(self):
        res = mk([1, 1], m=4, complete=False, unallocated=2)
        with pytest.raises(ValueError):
            res.statistics()

    def test_unallocated_history_empty_without_metrics(self):
        assert mk([1, 1]).unallocated_history == []


class TestRendering:
    def test_describe_mentions_key_fields(self):
        text = mk([3, 5, 4]).describe()
        assert "max load" in text
        assert "rounds" in text
        assert "test" in text

    def test_str_compact(self):
        s = str(mk([3, 5, 4]))
        assert "max_load=5" in s

    def test_incomplete_describe(self):
        res = mk([1, 1], m=4, complete=False, unallocated=2)
        assert "2 left" in res.describe()


class TestSerialization:
    def test_to_dict_is_json_safe(self):
        import json

        res = mk([3, 5, 4], seed_entropy=(7,), extra={"x": np.int64(2)})
        text = json.dumps(res.to_dict())
        assert '"x": 2' in text

    def test_round_trip_preserves_fields(self):
        res = mk(
            [1, 1],
            m=4,
            complete=False,
            unallocated=2,
            sequential=True,
            seed_entropy=(5, 1),
        )
        back = AllocationResult.from_dict(res.to_dict())
        assert np.array_equal(back.loads, res.loads)
        assert back.m == res.m and back.n == res.n
        assert back.unallocated == 2 and not back.complete
        assert back.sequential
        assert back.seed_entropy == (5, 1)
        assert back.to_dict() == res.to_dict()

    def test_numpy_extras_normalized(self):
        res = mk([2, 2], extra={"arr": np.array([1, 2]), "tup": (1, 2)})
        data = res.to_dict()
        assert data["extra"]["arr"] == [1, 2]
        assert data["extra"]["tup"] == [1, 2]

    def test_unknown_schema_rejected(self):
        res = mk([2, 2])
        data = res.to_dict()
        data["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            AllocationResult.from_dict(data)

    def test_counter_round_trip_is_exact(self):
        import json

        import repro

        res = repro.allocate("heavy", 2000, 16, mode="perball", seed=4)
        back = AllocationResult.from_dict(json.loads(json.dumps(res.to_dict())))
        for field in ("ball_sent", "ball_received", "bin_sent", "bin_received"):
            np.testing.assert_array_equal(
                getattr(back.messages, field), getattr(res.messages, field)
            )
        assert back.messages.total == res.messages.total
        assert back.messages.summary() == res.messages.summary()

    @pytest.mark.parametrize("field", ["ball_sent", "bin_received"])
    def test_counter_array_of_wrong_length_rejected(self, field):
        import repro

        data = repro.allocate("heavy", 2000, 16, mode="perball", seed=4).to_dict()
        data["messages"][field] = data["messages"][field][:5]
        with pytest.raises(ValueError, match=field):
            AllocationResult.from_dict(data)

    def test_counter_array_must_be_integer(self):
        import repro

        data = repro.allocate("heavy", 2000, 16, mode="perball", seed=4).to_dict()
        data["messages"]["ball_received"] = [
            float(v) + 0.5 for v in data["messages"]["ball_received"]
        ]
        with pytest.raises(ValueError, match="ball_received"):
            AllocationResult.from_dict(data)
