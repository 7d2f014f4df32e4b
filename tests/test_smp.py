"""SMP primitives: message maps, public coins, seeds, verdicts."""

import numpy as np
import pytest

from smpinfer.smp import MessageMap, Verdict, public_coins, trial_seed_seq


class TestMessageMap:
    def test_deterministic_map(self):
        m = MessageMap.deterministic_map(4, 2, [0, 1, 2, 3])
        assert m.deterministic
        assert np.array_equal(m.rows, np.eye(4))

    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            MessageMap(k=2, ell=1, rows=np.array([[0.5, 0.6], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            MessageMap(k=2, ell=1, rows=np.array([[1.0, 0.0]]))

    def test_randomized_row(self):
        rows = np.array([[0.5, 0.5], [1.0, 0.0]])
        m = MessageMap(k=2, ell=1, rows=rows)
        assert not m.deterministic
        assert np.array_equal(m.rows, rows) and not m.rows.flags.writeable

    def test_out_of_range_symbol_map(self):
        with pytest.raises(ValueError):
            MessageMap.deterministic_map(2, 1, [0, 2])


class TestPublicCoins:
    def test_partition_balanced_and_logged(self):
        coins = public_coins(0)
        part = coins.balanced_partition(10, 3)
        assert part.balanced
        assert coins.bits_used == 10 * 2  # ceil(log2 3) = 2 bits per symbol

    def test_subset_bits(self):
        coins = public_coins(0)
        S = coins.subset(16, 3)
        assert S.s == 3 and len(set(S.members.tolist())) == 3
        assert coins.bits_used == 3 * 4

    def test_element_range(self):
        coins = public_coins(0)
        assert 0 <= coins.element(7) < 7
        assert coins.bits_used == 3

    def test_same_seed_replays_identically(self):
        a, b = public_coins(42), public_coins(42)
        pa = a.balanced_partition(12, 4)
        pb = b.balanced_partition(12, 4)
        assert np.array_equal(pa.assign, pb.assign)

    def test_partition_requires_L_le_k(self):
        with pytest.raises(ValueError):
            public_coins(0).balanced_partition(3, 4)


class TestStreams:
    def test_trial_seed_seq_distinct(self):
        a = np.random.default_rng(trial_seed_seq(1, 0, 0)).random(3)
        b = np.random.default_rng(trial_seed_seq(1, 0, 1)).random(3)
        assert not np.array_equal(a, b)


class TestVerdict:
    def test_decisions(self):
        Verdict(decision="accept_uniform")
        Verdict(decision="symbol", symbol=3)
        with pytest.raises(ValueError):
            Verdict(decision="maybe")
        with pytest.raises(ValueError):
            Verdict(decision="symbol")
        with pytest.raises(ValueError):
            Verdict(decision="reject", symbol=1)

