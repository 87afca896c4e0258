import math
from fractions import Fraction

import numpy as np
import pytest

from poolsim import classify, engine, pipeline
from poolsim.engine import FORK_TIP, RELEASE_MIN, SimConfig, miner_rates, round_columns
from poolsim.metrics import EstimatorBank
from poolsim.pipeline import close_columns, round_records, simulate_rounds

from conftest import build_outcome, lead_at_least

# Test policy: a dishonest leader waits for a three-block lead, which under
# release-min leaves blocks in reserve.
delayed = lead_at_least(3)


class TestCloseRound:
    def test_returns_consistent_triple(self):
        out = build_outcome(0, 4, [(1, 2), (0, 1)])
        closed = close_columns(round_columns([out]), np.array([33.0]), next_first_owner=0, prev_uncle_count=0)
        [(_, _, classification, ratios, rewards, duration)] = round_records(closed, [out], 1)
        assert duration == 33.0
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

    def test_stopped_records_read_one_slice(self, monkeypatch):
        # Records read a closed lane block CLOSE_ROWS rows at a time, so a
        # consumer that stops early never has a whole block's uncles sorted.
        config = SimConfig.from_alphas([0.6, 0.3, 0.1])
        rows_seen = []

        def counted(nephew_height, distance):
            rows_seen.append(len(distance))
            return classify.uncle_records(nephew_height, distance)

        monkeypatch.setattr(pipeline, "uncle_records", counted)
        got = []

        def first_ten(record):
            got.append(record)
            return len(got) >= 10

        bank, _ = simulate_rounds(config, 5000, seed=5, on_record=first_ten)
        assert bank.rounds == 5000
        assert rows_seen and max(rows_seen) <= pipeline.CLOSE_ROWS < 5000
        _, records = simulate_rounds(config, 5000, seed=5, collect=True)
        assert got == records[:10]

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
        assert all(rec.duration > 0 for rec in records)

    def test_one_seed_object_gives_the_same_run_twice(self):
        # Seeding must not consume the caller's SeedSequence (no spawn on it).
        config = SimConfig.from_alphas([0.5, 0.4, 0.1], release_policy=RELEASE_MIN)
        seed = np.random.SeedSequence(5)
        first, _ = simulate_rounds(config, 2000, seed=seed, termination_policy=delayed)
        second, _ = simulate_rounds(config, 2000, seed=seed, termination_policy=delayed)
        assert first.win_counts == second.win_counts


class TestBufferBoundaries:
    """Closing rounds in buffers must not change any record or total: a
    buffer's last round takes its nephew owner from the next buffer, and
    the one-round-late nephew reference carries across buffer boundaries."""

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


def recorded(draws_class, made):
    """draws_class with a log of its draws, in call order: ("uniforms", n),
    ("pools", n), ("miners", values) and ("durations", rows). Each instance
    is appended to made."""

    class Recorded(draws_class):
        def __init__(self, *args):
            self.calls = []
            made.append(self)
            super().__init__(*args)

        def uniforms(self, n):
            self.calls.append(("uniforms", n))
            return super().uniforms(n)

        def pools(self, lanes):
            got = super().pools(lanes)
            self.calls[-1] = ("pools", len(lanes))  # in place of the miners call it made
            return got

        def miners(self, n):
            got = super().miners(n)
            self.calls.append(("miners", got.tolist()))
            return got

        def durations(self, events):
            self.calls.append(("durations", len(events)))
            return super().durations(events)

    return Recorded


class TestClosingMiner:
    """The last round's nephew. When that round reserved nothing, the run
    draws exactly one miner, after its last block is played and before that
    block's durations, and it mines the nephew. When that round reserved,
    nothing is drawn for it and the nephew is the winner's reserved block."""

    policy_config = SimConfig((0.5, 0.2, 0.13, 0.1, 0.07), release_policy=RELEASE_MIN)
    CASES = {  # config, policy, rounds, seed, engine.BLOCK_ROUNDS
        "eager-one-round": (SimConfig((0.6, 0.3, 0.1)), None, 1, 3, None),
        "eager-lane-blocks": (SimConfig((0.6, 0.3, 0.1)), None, 20, 3, 8),
        # Seed 7's round 528 reserves and round 529 does not; both runs cross a CLOSE_ROWS buffer.
        "policy-reserves": (policy_config, delayed, 528, 7, None),
        "policy-reserves-nothing": (policy_config, delayed, 529, 7, None),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_closing_miner_mines_the_last_nephew(self, monkeypatch, case):
        config, policy, rounds, seed, block_rounds = self.CASES[case]
        if block_rounds is not None:
            monkeypatch.setattr(engine, "BLOCK_ROUNDS", block_rounds)
        made = []
        for name in ("LaneDraws", "MiningClock"):
            monkeypatch.setattr(pipeline, name, recorded(getattr(pipeline, name), made))
        _, records = simulate_rounds(config, rounds, seed=seed, termination_policy=policy, collect=True)
        [draws] = made
        calls = draws.calls
        block = engine.BLOCK_ROUNDS if policy is None else pipeline.CLOSE_ROWS
        durations = [rows for kind, rows in calls if kind == "durations"]
        assert sum(durations) == rounds and len(durations) == -(-rounds // block)
        assert calls[-1] == ("durations", (rounds - 1) % block + 1)
        closing = [i for i, (kind, drawn) in enumerate(calls) if kind == "miners" and len(drawn) == 1]
        last = records[-1]
        nephew = last.classification.nephew
        assert len(records) == rounds
        if case == "policy-reserves":
            assert last.outcome.reserved >= 1
            assert closing == []
            assert nephew.from_reserve and nephew.owner == last.outcome.winner
        else:
            assert last.outcome.reserved == 0
            [i] = closing
            assert i == len(calls) - 2
            assert nephew.owner == calls[i][1][0] and not nephew.from_reserve


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
            [28222, 10475, 1303], 130930, [3260379, 1116413, 266841],
        ),
        "eager-tip-four-rivals": (
            SimConfig((0.4, 0.2, 0.15, 0.15, 0.1), fork_rule=FORK_TIP), None, 40_000,
            [6164, 15417, 7813, 7852, 2754], 300152, [5472027, 2109122, 1157376, 1164291, 523835],
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


class TestPinnedBankTotals:
    """Every EstimatorBank total of three fixed-seed runs, pinned as
    literals, float totals as float.hex: a change to how a block is closed
    or banked must leave each one exactly as it is. The per-winner pegged
    and reward tables were summed from the runs' records, and the pegged
    total and per-pool reward units are their sums.
    The eager runs are one benchmark sweep task and a five-pool tip run
    that crosses a lane block and holds a zero-power pool; the policy run is
    the benchmark's four-rival, release-min, lead-3 run."""

    FLOATS = ("duration_total", "ratio_total", "ratio_by_winner")
    CASES = {
        "eager": (
            SimConfig((0.55, 0.32, 0.13)), None, 4_000,
            {
                "rounds": 4000,
                "win_counts": [2569, 1217, 214],
                "fork_pos_total": [0, 617, 211],
                "length_total": [8717, 3431, 528],
                "released_total": [0, 3431, 528],
                "pegged_by_winner": [8717, 4048, 739],
                "reward_by_winner": [[280107, 18205, 13172], [26525, 110211, 5821], [7578, 1454, 16951]],
                "nephew_count": [[1698, 574, 297], [445, 638, 134], [72, 56, 86]],
                "uncle_count": [[0, 1087, 800], [389, 0, 337], [44, 91, 0]],
                "duration_total": "0x1.261e18aa0bbaep+18",
                "ratio_total": [
                    "0x1.5b37ad8c4d21fp+11", "0x1.9ddf6ac8ef071p+11", "0x1.588254dc43e3ap+9",
                    "0x1.ae01675977ae6p+8", "0x1.0303425f1018ep+8",
                ],
                "ratio_by_winner": [
                    ["0x1.4120000000000p+11", "0x1.06f9d9ee21a76p+11", "0x1.d131308ef2c19p+8",
                     "0x1.1f4439245f78fp+8", "0x1.63d9eed526952p+7"],
                    ["0x1.45c8cf75b18a0p+7", "0x1.011789935e6c2p+10", "0x1.7943b3650c985p+7",
                     "0x1.e3e6ef3d98db2p+6", "0x1.0ea0778c80575p+6"],
                    ["0x1.6ec8253c8253ep+5", "0x1.659cc111e2927p+7", "0x1.198cfbb875b5cp+5",
                     "0x1.5c37265b1fe03p+4", "0x1.adc5a22b97166p+3"],
                ],
            },
            {"pegged_total": 13504, "reward_units": [314210, 129870, 35944]},
        ),
        "eager-tip-zero-power": (
            SimConfig((0.4, 0.2, 0.2, 0.2, 0.0), fork_rule=FORK_TIP), None, 40_000,
            {
                "rounds": 40000,
                "win_counts": [6325, 11327, 11253, 11095, 0],
                "fork_pos_total": [0, 40960, 40874, 40940, 0],
                "length_total": [12650, 40672, 40304, 39960, 0],
                "released_total": [0, 40672, 40304, 39960, 0],
                "pegged_by_winner": [12650, 81632, 81178, 80900, 0],
                "reward_by_winner": [
                    [410107, 0, 0, 0, 0],
                    [1313519, 1305605, 90371, 90612, 0],
                    [1310595, 90896, 1293838, 91703, 0],
                    [1312747, 90151, 90956, 1282665, 0],
                    [0, 0, 0, 0, 0],
                ],
                "nephew_count": [
                    [6325, 0, 0, 0, 0],
                    [3253, 4858, 1621, 1595, 0],
                    [3174, 1595, 4885, 1599, 0],
                    [3166, 1602, 1583, 4744, 0],
                    [0, 0, 0, 0, 0],
                ],
                "uncle_count": [
                    [0, 0, 0, 0, 0],
                    [0, 0, 5603, 5617, 0],
                    [0, 5630, 0, 5674, 0],
                    [0, 5597, 5641, 0, 0],
                    [0, 0, 0, 0, 0],
                ],
                "duration_total": "0x1.43da29ef7b140p+22",
                "ratio_total": [
                    "0x1.2d96d19ddcebdp+14", "0x1.084988685643cp+15", "0x1.81b3bcbd4de1cp+12",
                    "0x1.b851d85ec136ap+11", "0x1.4b15a11bda8cep+11",
                ],
                "ratio_by_winner": [
                    ["0x1.8b50000000000p+12", "0x1.8b50000000000p+12", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
                    ["0x1.0ed2d8d03e52ep+12", "0x1.210c0d70bb9ecp+13", "0x1.03afca3d118e0p+11",
                     "0x1.263dad624d803p+10", "0x1.c243ce2fab3b2p+9"],
                    ["0x1.0ec3d8d026eeap+12", "0x1.1f6d5e93f9f6ap+13", "0x1.00ea85b018300p+11",
                     "0x1.26bcbfab41291p+10", "0x1.b6309769de719p+9"],
                    ["0x1.0d7494d70e766p+12", "0x1.1b04b59ca382dp+13", "0x1.fd9a531ae3fecp+10",
                     "0x1.23a943aff3bedp+10", "0x1.b3e21ed5e0830p+9"],
                    ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
                ],
            },
            {"pegged_total": 256360, "reward_units": [4346968, 1486652, 1475165, 1464980, 0]},
        ),
        "policy-m4": (
            SimConfig((0.5, 0.2, 0.13, 0.1, 0.07), release_policy=RELEASE_MIN), delayed, 5_000,
            {
                "rounds": 5000,
                "win_counts": [4524, 336, 94, 34, 12],
                "fork_pos_total": [0, 352, 149, 55, 20],
                "length_total": [23106, 1682, 401, 138, 48],
                "released_total": [0, 1346, 307, 104, 36],
                "pegged_by_winner": [23106, 1698, 456, 159, 56],
                "reward_by_winner": [
                    [742580, 31790, 28753, 25303, 21676],
                    [14280, 43248, 2000, 1650, 1408],
                    [5342, 687, 9874, 325, 315],
                    [2079, 275, 216, 3346, 173],
                    [743, 192, 116, 72, 1152],
                ],
                "nephew_count": [
                    [2040, 1101, 634, 458, 291],
                    [105, 120, 64, 23, 24],
                    [28, 24, 28, 11, 3],
                    [10, 8, 6, 8, 2],
                    [2, 8, 1, 1, 0],
                ],
                "uncle_count": [
                    [0, 2085, 1914, 1681, 1413],
                    [184, 0, 134, 112, 93],
                    [32, 44, 0, 21, 20],
                    [18, 18, 15, 0, 12],
                    [6, 12, 8, 5, 0],
                ],
                "duration_total": "0x1.755df51d66d0dp+19",
                "ratio_total": [
                    "0x1.20e5456dfc3bap+12", "0x1.95ef54a0a4a93p+11", "0x1.b62156beb6adap+10",
                    "0x1.9d10ded41787cp+9", "0x1.cf31cea955d38p+9",
                ],
                "ratio_by_winner": [
                    ["0x1.1ac0000000000p+12", "0x1.7022463cb6d5dp+11", "0x1.8abb73869254ap+10",
                     "0x1.72103d8e576cdp+9", "0x1.a366a97ecd3cep+9"],
                    ["0x1.dd9f9c9dec2abp+5", "0x1.a5f3e8963f048p+7", "0x1.f4182ed381f71p+6",
                     "0x1.e88520200d4aap+5", "0x1.ffab3d86f6a3bp+5"],
                    ["0x1.9014d5aa71ecfp+4", "0x1.fe1e92aaaf08ep+5", "0x1.e3c2daaaa1ee6p+4",
                     "0x1.ceafae8756440p+3", "0x1.f8d606cded98cp+3"],
                    ["0x1.33e2be2be2be3p+3", "0x1.570124f2d2995p+4", "0x1.91fdb61a5acd6p+3",
                     "0x1.be6d62baca7a0p+2", "0x1.658e0979eb20cp+2"],
                    ["0x1.0000000000000p+2", "0x1.8ea68bf303a34p+2", "0x1.7159740cfc5ccp+2",
                     "0x1.c0b5c42c58acep+1", "0x1.21fd23eda00cap+1"],
                ],
            },
            {"pegged_total": 25475, "reward_units": [765024, 76192, 40959, 30696, 24724]},
        ),

    }

    @pytest.mark.parametrize("case", CASES)
    def test_every_total_matches_the_pinned_value(self, case):
        config, policy, rounds, totals, sums = self.CASES[case]
        bank, _ = simulate_rounds(config, rounds, seed=7, termination_policy=policy)
        assert list(totals) == list(EstimatorBank.TOTALS)
        for name, want in {**totals, **sums}.items():
            got = getattr(bank, name)
            if name in self.FLOATS:
                got = np.vectorize(float.hex, otypes=[object])(got).tolist()
            assert got == want, name


class TestOneTimeRule:
    """Every round's duration is its event count drawn by the one time rule,
    for lane and policy blocks alike: a run's durations are one Gamma call
    over its rounds' event counts on the jumped stream, whatever the engine
    and the block sizes, and the bank's duration total is their sum. The
    eager run crosses a lane block; the policy run crosses CLOSE_ROWS."""

    @pytest.mark.parametrize("config,policy,rounds", [
        (SimConfig((0.55, 0.32, 0.13)), None, 40_000),
        (SimConfig((0.5, 0.2, 0.13, 0.1, 0.07), release_policy=RELEASE_MIN), delayed, 1_500),
    ], ids=["eager", "policy-m4"])
    def test_durations_are_one_gamma_draw_over_the_event_counts(self, config, policy, rounds):
        assert rounds > (engine.BLOCK_ROUNDS if policy is None else pipeline.CLOSE_ROWS)
        seed = 7
        bank, records = simulate_rounds(config, rounds, seed=seed, termination_policy=policy, collect=True)
        events = np.array([rec.outcome.events for rec in records])
        time = np.random.Generator(np.random.Philox(seed).jumped())
        want = time.gamma(events, 1.0 / miner_rates(config).sum())
        got = [rec.duration for rec in records]
        assert got == want.tolist()
        assert bank.duration_total == pytest.approx(math.fsum(got), rel=1e-12)
