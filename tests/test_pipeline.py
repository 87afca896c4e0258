from fractions import Fraction

import numpy as np
import pytest

from poolsim import engine, pipeline
from poolsim.engine import FORK_TIP, RELEASE_MIN, SimConfig, round_columns
from poolsim.metrics import EstimatorBank
from poolsim.pipeline import close_columns, round_records, simulate_rounds

from conftest import build_outcome, lead_at_least

# Test policy: a dishonest leader waits for a three-block lead, which under
# release-min leaves blocks in reserve.
delayed = lead_at_least(3)


class TestCloseRound:
    def test_returns_consistent_triple(self):
        out = build_outcome(0, 4, [(1, 2), (0, 1)])
        closed = close_columns(round_columns([out]), next_first_owner=0, prev_uncle_count=0)
        [(_, _, classification, ratios, rewards)] = round_records(closed, [out], 1)
        assert classification.uncle_count == 2
        assert ratios.exact().uncle == Fraction(2, 7)
        assert rewards.per_pool[0].regular == 4


class TestSimulateRounds:
    def test_round_indices_in_order(self):
        config = SimConfig.from_alphas([0.6, 0.27, 0.13])
        _, records = simulate_rounds(config, 50, seed=np.random.SeedSequence(1), collect=True)
        assert [rec.index for rec in records] == list(range(1, 51))

    def test_every_round_closed_and_counted(self):
        config = SimConfig.from_alphas([0.55, 0.45])
        bank, records = simulate_rounds(config, 200, seed=np.random.SeedSequence(2), collect=True)
        assert bank.rounds == len(records) == 200
        assert all(rec.classification is not None for rec in records)

    def test_on_record_sees_all_rounds(self):
        config = SimConfig.from_alphas([0.6, 0.4])
        seen = []
        simulate_rounds(config, 64, seed=np.random.SeedSequence(3), on_record=lambda r: seen.append(r.index))
        assert seen == list(range(1, 65))

    def test_on_record_can_stop_the_records(self):
        config = SimConfig.from_alphas([0.6, 0.3, 0.1])
        seen = []

        def first_ten(record):
            seen.append(record.index)
            return len(seen) >= 10

        bank, records = simulate_rounds(
            config, 5000, seed=np.random.SeedSequence(6), on_record=first_ten, collect=True
        )
        assert seen == list(range(1, 11))
        assert [rec.index for rec in records] == list(range(1, 5001))
        assert bank.rounds == 5000

    def test_stopped_records_build_few_outcomes(self, monkeypatch):
        # A lane block's outcomes are built as the records read them, so a
        # consumer that stops at its tenth record does not pay for the block.
        built = []

        class CountedOutcome(engine.RoundOutcome):
            __slots__ = ()

            def __new__(cls, *fields):
                built.append(1)
                return super().__new__(cls, *fields)

        monkeypatch.setattr(engine, "RoundOutcome", CountedOutcome)
        seen = []

        def first_ten(record):
            seen.append(record.index)
            return len(seen) >= 10

        bank, _ = simulate_rounds(SimConfig.from_alphas([0.6, 0.3, 0.1]), 40_000, seed=5, on_record=first_ten)
        assert seen == list(range(1, 11)) and bank.rounds == 40_000
        assert len(built) < 100

    def test_rejects_zero_rounds(self):
        config = SimConfig.from_alphas([0.6, 0.4])
        with pytest.raises(ValueError):
            simulate_rounds(config, 0)


class TestCarryoverChaining:
    def run_with_reserve(self, rounds=400, seed=6):
        config = SimConfig.from_alphas([0.5, 0.37, 0.13], release_policy=RELEASE_MIN)
        return simulate_rounds(
            config, rounds, seed=np.random.SeedSequence(seed),
            termination_policy=delayed, collect=True,
        )

    def test_reserve_rounds_occur_and_close_from_reserve(self):
        _, records = self.run_with_reserve()
        reserved = [rec for rec in records if rec.outcome.reserved >= 1]
        assert reserved, "test policy should produce reserved rounds"
        for rec in reserved:
            assert rec.classification.nephew.from_reserve
            assert rec.classification.nephew.owner == rec.outcome.winner

    def test_carried_blocks_show_up_next_round(self):
        _, records = self.run_with_reserve()
        for prev, cur in zip(records, records[1:]):
            if prev.outcome.reserved >= 1:
                owner = prev.outcome.winner
                assert cur.outcome.first_owner == owner
                assert cur.outcome.fork_pos[owner] == 0
                assert cur.outcome.length[owner] >= prev.outcome.reserved

    def test_nephew_booking_follows_reserve(self):
        _, records = self.run_with_reserve()
        for prev, cur in zip(records, records[1:]):
            expected = Fraction(prev.classification.uncle_count, 32)
            booked = sum(p.nephew for p in cur.rewards.per_pool)
            assert booked == expected

    def test_durations_always_positive(self):
        _, records = self.run_with_reserve()
        assert all(rec.outcome.duration > 0 for rec in records)

    def test_one_seed_object_gives_the_same_run_twice(self):
        # Seeding must not consume the caller's SeedSequence (no spawn on it).
        config = SimConfig.from_alphas([0.5, 0.4, 0.1], release_policy=RELEASE_MIN)
        seed = np.random.SeedSequence(5)
        first, _ = simulate_rounds(config, 2000, seed=seed, termination_policy=delayed)
        second, _ = simulate_rounds(config, 2000, seed=seed, termination_policy=delayed)
        assert first.win_counts == second.win_counts


class TestBufferBoundaries:
    """Closing rounds in buffers must not change any record or total: the
    nephew owner, the pending round and the one-round-late nephew reference
    all carry across buffer boundaries."""

    config = SimConfig.from_alphas([0.5, 0.37, 0.13], release_policy=RELEASE_MIN)

    def run(self, monkeypatch, close_rows, rounds):
        monkeypatch.setattr(pipeline, "CLOSE_ROWS", close_rows)
        return simulate_rounds(
            self.config, rounds, seed=np.random.SeedSequence(41),
            termination_policy=delayed, collect=True,
        )

    def assert_same(self, got, want):
        (bank, records), (want_bank, want_records) = got, want
        assert records == want_records
        for name in EstimatorBank.TOTALS:
            a, b = getattr(bank, name), getattr(want_bank, name)
            if name in ("duration_total", "ratio_total", "ratio_by_winner"):
                assert np.allclose(a, b, rtol=1e-12, atol=0.0), name
            else:
                assert a == b, name
        summary, want_summary = bank.summary(), want_bank.summary()
        assert summary["win_fraction"] == want_summary["win_fraction"]
        for key in ("duration_mean", "pegged_mean", "reward_mean"):
            assert np.allclose(summary[key], want_summary[key], rtol=1e-12, atol=0.0), key
        for name, both in summary["ratios"].items():
            for kind, value in both.items():
                assert value == pytest.approx(want_summary["ratios"][name][kind], rel=1e-12)

    def test_longer_than_three_buffers(self, monkeypatch):
        rounds = 3 * pipeline.CLOSE_ROWS + 517
        chunked = self.run(monkeypatch, pipeline.CLOSE_ROWS, rounds)
        one_by_one = self.run(monkeypatch, 1, rounds)
        self.assert_same(chunked, one_by_one)

    def test_reserves_and_pending_rounds_on_boundaries(self, monkeypatch):
        rounds = 2000
        chunked = self.run(monkeypatch, 7, rounds)
        _, records = chunked
        last_rows = [rec.outcome.reserved for rec in records[6::7]]
        assert any(last_rows) and not all(last_rows)
        self.assert_same(chunked, self.run(monkeypatch, 1, rounds))


class TestPinnedStreams:
    """Fixed-seed totals of three runs, pinned as literals: win counts,
    pegged blocks and reward units read only the miner stream (Philox on the
    seed) and the round rules, never the time stream. Eager runs of 40,000
    rounds cross a lane block; the policy run is the benchmark's four-rival,
    release-min, lead-3 run. A change to the miner stream or a round rule
    must update these values and say so."""

    CASES = {
        "eager": (
            SimConfig((0.6, 0.3, 0.1)), None, 40_000,
            [28269, 10420, 1311], 130906, [3258312, 1118993, 264096],
        ),
        "eager-tip-four-rivals": (
            SimConfig((0.4, 0.2, 0.15, 0.15, 0.1), fork_rule=FORK_TIP), None, 40_000,
            [6387, 15335, 7716, 7794, 2768], 297886, [5427916, 2083806, 1151343, 1167016, 516307],
        ),
        "policy-m4": (
            SimConfig((0.5, 0.2, 0.13, 0.1, 0.07), release_policy=RELEASE_MIN), delayed, 5_000,
            [4524, 336, 94, 34, 12], 25475, [765024, 76192, 40959, 30696, 24724],
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_totals_match_the_pinned_values(self, case):
        config, policy, rounds, win_counts, pegged_total, reward_units = self.CASES[case]
        bank, _ = simulate_rounds(config, rounds, seed=7, termination_policy=policy)
        assert bank.win_counts == win_counts
        assert bank.pegged_total == pegged_total
        assert bank.reward_units == reward_units
