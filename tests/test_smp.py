"""SMP primitives: public coins, the one execution path, seeds, verdicts."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smpinfer.dist import PaninskiParam, Partition, Pmf, flatten, paninski, uniform
from smpinfer.smp import (
    PublicCoins,
    TrialStreams,
    Verdict,
    indicator,
    play,
    play_indicators,
    public_coins,
    trial_seed_seq,
    trial_seed_words,
)


class TestPublicCoins:
    def test_partition_balanced_and_logged(self):
        coins = public_coins(0)
        part = coins.balanced_partition(10, 3)
        assert part.balanced
        assert coins.bits_used == 10 * 2  # ceil(log2 3) = 2 bits per symbol

    def test_subset_bits(self):
        coins = public_coins(0)
        part = coins.subset(16, 3)
        # Members map to their 1-based positions in increasing symbol order.
        members = np.flatnonzero(part.assign)
        assert part.L == 4 and members.size == 3
        assert part.assign[members].tolist() == [1, 2, 3]
        assert coins.bits_used == 3 * 4

    def test_one_value_draws_cost_one_bit(self):
        # ceil(log2 1) = 0, but every draw is charged at least one bit.
        coins = public_coins(0)
        coins.balanced_partition(5, 1)
        assert coins.bits_used == 5
        coins.element(1)
        assert coins.bits_used == 6

    def test_subset_validation(self):
        with pytest.raises(ValueError):
            public_coins(0).subset(4, 0)
        with pytest.raises(ValueError):
            public_coins(0).subset(4, 5)

    def test_element_range(self):
        coins = public_coins(0)
        part = coins.element(7)
        (x,) = np.flatnonzero(part.assign)
        assert part.L == 2 and 0 <= x < 7
        assert np.array_equal(part.assign, indicator(7, x).assign)
        assert coins.bits_used == 3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.lists(st.integers(0, 7), max_size=2), st.integers(1, 20))
    def test_same_seed_replays_identically(self, seed, key, k):
        # The same (seed, key) replays every draw kind, in order, with the same bits.
        def draws(coins):
            maps = [
                coins.balanced_partition(k, max(1, k // 3)),
                coins.subset(k, max(1, k // 2)),
                coins.element(k),
                coins.subset(k, k),
            ]
            return [m.assign.tolist() for m in maps], coins.bits_used

        assert draws(public_coins(seed, *key)) == draws(public_coins(seed, *key))

    def test_partition_requires_L_le_k(self):
        with pytest.raises(ValueError):
            public_coins(0).balanced_partition(3, 4)

    def test_partition_requires_a_part(self):
        with pytest.raises(ValueError, match="1 <= L"):
            public_coins(0).balanced_partition(4, 0)

    def test_element_requires_a_symbol(self):
        with pytest.raises(ValueError, match="k >= 1"):
            public_coins(0).element(0)
        with pytest.raises(ValueError, match="k >= 1"):
            public_coins(0).elements(0, 3)

    @pytest.mark.parametrize("k", [1, 7, 64, 5000])
    def test_elements_are_element_calls_in_one_draw(self, k):
        # One integers(k, size=m) draw gives the values and bits of m element(k) calls.
        for m in (1, 17, 100):
            batch, single = public_coins(3, k, m), public_coins(3, k, m)
            xs = batch.elements(k, m)
            ys = [int(np.flatnonzero(single.element(k).assign)[0]) for _ in range(m)]
            assert xs.tolist() == ys
            assert batch.bits_used == single.bits_used == m * max(1, int(np.ceil(np.log2(k))))

    @pytest.mark.parametrize("x", [8, 9, -1])
    def test_indicator_requires_a_symbol_of_the_alphabet(self, x):
        with pytest.raises(ValueError, match="0 <= x < k"):
            indicator(8, x)

    def test_coin_maps_are_valid_partitions(self):
        # Coin draws skip Partition's validation; every map they return must pass it.
        # (k, L, s) cells cover odd k, L = k, s = 1, s = k and k = 1.
        cells = ((7, 3, 1), (9, 9, 9), (16, 4, 5), (15, 15, 1), (12, 5, 12), (1, 1, 1), (2, 2, 1))
        for seed in range(200):
            coins = public_coins(seed, 7)
            for k, L, s in cells:
                balanced, subset, element = coins.balanced_partition(k, L), coins.subset(k, s), coins.element(k)
                for part, parts in ((balanced, L), (subset, s + 1), (element, 2)):
                    again = Partition(k, parts, part.assign)
                    assert (part.k, part.L) == (k, parts)
                    assert part.assign.dtype == np.int64 and np.array_equal(again.assign, part.assign)
                    assert not part.assign.flags.writeable
                assert balanced.balanced
                assert np.sort(subset.assign[subset.assign > 0]).tolist() == list(range(1, s + 1))
                assert np.count_nonzero(element.assign) == 1


def zero_mass_pmf(rng, k, zeros):
    probs = np.zeros(k)
    support = rng.permutation(k)[zeros:]
    probs[support] = rng.dirichlet(np.ones(k - zeros))
    return Pmf(k=k, probs=probs)


class TestPlay:
    def test_law_of_message_counts(self):
        # Seeded law test of the one execution path under every coin draw kind:
        # 2000 draws of 40 players each.
        k, n, draws = 12, 40, 2000
        rng = np.random.default_rng(2024)
        p = zero_mass_pmf(rng, k, zeros=5)
        coins = public_coins(5)
        maps = {
            "balanced": coins.balanced_partition(k, 4),
            "subset-3": coins.subset(k, 3),
            "subset-k": coins.subset(k, k),
            "element": indicator(k, int(np.flatnonzero(p.probs)[0])),
            "coin-element": coins.element(k),
        }
        for name, part in maps.items():
            law = flatten(p, part).probs
            counts = np.array([play(p, part, n, rng) for _ in range(draws)])
            assert counts.shape == (draws, part.L), name
            assert np.all(counts.sum(axis=1) == n), name
            assert np.all(counts[:, law == 0] == 0), name
            se = np.sqrt(n * law * (1 - law) / draws)
            assert np.all(np.abs(counts.mean(axis=0) - n * law) <= 4 * se), name

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 16), st.integers(0, 200))
    def test_mass_invariants(self, seed, k, n):
        # flatten keeps the mass of every part; play keeps the player count and
        # never sends a message of zero mass.
        rng = np.random.default_rng(seed)
        p = zero_mass_pmf(rng, k, zeros=int(rng.integers(k)))
        coins = public_coins(seed)
        for part in (
            coins.balanced_partition(k, int(rng.integers(1, k + 1))),
            coins.subset(k, int(rng.integers(1, k + 1))),
            coins.element(k),
        ):
            law = flatten(p, part).probs
            per_part = [p.probs[part.assign == r].sum() for r in range(part.L)]
            assert np.allclose(law, per_part, rtol=0, atol=1e-12)
            assert abs(law.sum() - 1.0) <= 1e-12
            counts = play(p, part, n, rng)
            assert counts.sum() == n and np.all(counts >= 0)
            assert np.all(counts[law == 0] == 0)


def one_bit_pmfs(k, rng):
    """(name, pmf, symbol to test first) for the count-level one-bit draw's grid:
    uniform, paninski (even k), zero masses (first tested x has p_x = 0) and a
    point mass (first tested x has p_x = 1, the others p_x = 0)."""
    cases = [("uniform", uniform(k), 0)]
    if k % 2 == 0:
        theta = np.where(rng.random(k // 2) < 0.5, 1, -1)
        cases.append(("paninski", paninski(PaninskiParam(k=k, eps=0.3, theta=theta)), k - 1))
    if k > 1:
        p = zero_mass_pmf(rng, k, zeros=k // 2)
        cases.append(("zero-masses", p, int(np.flatnonzero(p.probs == 0)[0])))
    point = np.zeros(k)
    point[k // 3] = 1.0
    cases.append(("point-mass", Pmf(k=k, probs=point), k // 3))
    return cases


class _FirstPartRng:
    """A Generator that records (n, probability of the first part) of every
    binomial and multinomial draw it passes on."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), []

    def binomial(self, n, q):
        self.draws.append((n, float(q)))
        return self.rng.binomial(n, q)

    def multinomial(self, n, pvals):
        self.draws.append((n, float(pvals[0])))
        return self.rng.multinomial(n, pvals)


class TestPlayIndicators:
    @pytest.mark.parametrize("k", [1, 2, 7, 64, 1000])
    def test_draw_for_draw_as_play(self, k):
        # The oracle is the per-batch loop play(p, indicator(k, x), n, rng)[1]:
        # the same draws at the very same probabilities, the same counts, and
        # the stream left at the same place.
        rng = np.random.default_rng(k)
        for name, p, first in one_bit_pmfs(k, rng):
            for n in (1, 2560, 10**6):
                for m in (1, 17):
                    xs = rng.integers(k, size=m)
                    xs[0] = first
                    seed = int(rng.integers(2**32))
                    fast, slow = _FirstPartRng(seed), _FirstPartRng(seed)
                    hits = play_indicators(p, xs, n, fast)
                    expected = [play(p, indicator(k, int(x)), n, slow)[1] for x in xs]
                    assert fast.draws == slow.draws, (name, n, m)
                    assert hits.tolist() == expected, (name, n, m)
                    assert fast.rng.random() == slow.rng.random(), (name, n, m)


class TestStreams:
    def test_trial_seed_seq_distinct(self):
        a = np.random.default_rng(trial_seed_seq(1, 0, 0)).random(3)
        b = np.random.default_rng(trial_seed_seq(1, 0, 1)).random(3)
        assert not np.array_equal(a, b)

    def test_trial_streams_spawn_order(self):
        # Instance, protocol and coin streams are the trial seed's three children, in that order.
        streams = TrialStreams(1, 2, 3)
        children = trial_seed_seq(1, 2, 3).spawn(3)
        assert streams.instance.random() == np.random.default_rng(children[0]).random()
        assert streams.protocol.random() == np.random.default_rng(children[1]).random()
        coins = streams.coins
        assert coins.bits_used == 0
        assert coins.elements(1000, 8).tolist() == PublicCoins(children[2]).elements(1000, 8).tolist()

    @pytest.mark.parametrize("key", [(1, 2, 3), (0, 0, 0), (2**40, 7, 11), (2**64 + 3, 2**32, 5)])
    def test_order_of_first_use_does_not_matter(self, key):
        # In any order of first use, and whether the trial's seed words come
        # from its cell's batch or are computed alone, each stream draws what an
        # eager generator on the same child of the spawned trial seed draws.
        master_seed, cell_index, trial_index = key
        row = trial_seed_words(master_seed, cell_index, trial_index + 1)[trial_index]
        children = trial_seed_seq(*key).spawn(3)
        for order in itertools.permutations(range(3)):
            for streams in (TrialStreams(*key), TrialStreams(*key, row)):
                for i in order:
                    if i == 2:
                        eager = PublicCoins(children[2])
                        assert streams.coins.subset(16, 5).assign.tolist() == eager.subset(16, 5).assign.tolist()
                        assert streams.coins.bits_used == eager.bits_used
                    else:
                        got = (streams.instance, streams.protocol)[i]
                        want = np.random.default_rng(children[i])
                        assert got.random(4).tolist() == want.random(4).tolist()
                        assert got.integers(2**62, size=3).tolist() == want.integers(2**62, size=3).tolist()


class TestSeedWords:
    # trial_seed_seq is the oracle: trial_seed_words reimplements numpy's
    # SeedSequence hash past the cell's prefix, and must give its very words.
    @pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 7])
    @pytest.mark.parametrize("cell_index", [0, 7, 2**32, 2**70])
    def test_words_are_the_seed_sequence_words(self, master_seed, cell_index):
        for trials in (1, 5, 400):
            words = trial_seed_words(master_seed, cell_index, trials)
            assert words.shape == (trials, 3, 4) and words.dtype == np.uint64
            for t, i in itertools.product(range(trials), range(3)):
                want = trial_seed_seq(master_seed, cell_index, t, i).generate_state(4, np.uint64)
                assert words[t, i].tolist() == want.tolist(), (trials, t, i)

    def test_first_trial_offset(self):
        top = 2**32 - 3
        words = trial_seed_words(2**40, 3, 3, first=top)
        for t, i in itertools.product(range(3), range(3)):
            want = trial_seed_seq(2**40, 3, top + t, i).generate_state(4, np.uint64)
            assert words[t, i].tolist() == want.tolist()
        assert trial_seed_words(9, 1, 3, first=2).tolist() == trial_seed_words(9, 1, 5)[2:].tolist()
        with pytest.raises(ValueError):
            trial_seed_words(0, 0, 2, first=2**32 - 1)  # trial 2**32 takes two uint32 words
        with pytest.raises(ValueError):
            trial_seed_words(0, 0, 1, first=-1)

    def test_words_seed_only_pcg64(self):
        # The words are PCG64's 4 uint64 words; a generator asking for another
        # state is refused rather than seeded from the wrong words.
        coins = TrialStreams(1, 0, 0).coins
        with pytest.raises(ValueError):
            np.random.MT19937(coins.seed_seq)


class TestVerdict:
    def test_decisions(self):
        Verdict(decision="accept_uniform")
        with pytest.raises(ValueError):
            Verdict(decision="maybe")

