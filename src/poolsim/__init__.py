"""Monte Carlo simulator of PoW mining competition among pools.

One honest pool races m dishonest pools; dishonest pools fork off the
honest chain and may withhold blocks. Rounds end under a two-block leading
criterion; orphaned blocks can earn uncle/nephew referral rewards. The
package simulates rounds, classifies blocks, books rewards, and estimates
long-run growth and reward rates via renewal-reward averaging.
"""

from .tree import (
    HONEST,
    Block,
    RoundTree,
    SortedLengths,
    SubChain,
    TerminationVerdict,
    append_block,
    check_termination,
    fork_subchain,
    select_main_chain,
    sorted_lengths,
)
from .engine import (
    Carryover,
    MiningClock,
    PoolSpec,
    RoundOutcome,
    ScriptClock,
    SimConfig,
    make_carryover,
    run_round,
    sample_interarrival,
)
from .classify import (
    Classification,
    NephewRecord,
    RoundRatios,
    UncleRecord,
    classify_round,
    determine_nephew,
    find_uncles,
    nephew_reward,
    round_ratios,
    uncle_reward,
)
from .rewards import ClosedRounds, PoolReward, RewardVector, allocate
from .metrics import EstimatorBank, GrowthRate, RewardRates, ThresholdEstimate, find_power_threshold
from .pipeline import RoundRecord, close_columns, close_round, simulate_rounds

__version__ = "0.1.0"
