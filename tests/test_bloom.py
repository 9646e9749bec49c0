import itertools
import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from bloomretrieval import bloom
from bloomretrieval.binseq import BinarySignature
from bloomretrieval.bloom import (
    MAX_BITS,
    BloomParams,
    LayeredBloomFilter,
    fp_probability,
    optimal_bits,
)
from bloomretrieval.errors import ConfigMismatchError, DataFormatError


def rand_sig(rng) -> BinarySignature:
    return BinarySignature(width=64, data=rng.bytes(8))


def sig_of(data: bytes) -> BinarySignature:
    return BinarySignature(width=8 * len(data), data=data)


def rand_sigs(rng, layers) -> dict:
    return {layer: rand_sig(rng) for layer in layers}


class TestPositionFor:
    def test_deterministic(self):
        f = LayeredBloomFilter(m=1000, layers=("L1", "L2"))
        data = b"\x01\x02\x03\x04\x05\x06\x07\x08"
        assert f.position("L1", data) == f.position("L1", data)
        assert 0 <= f.position("L1", data) < 1000

    def test_layers_give_different_positions(self):
        f = LayeredBloomFilter(m=1 << 32, layers=("L1", "L2", "L3"))
        positions = {f.position(l, b"\xaa" * 8) for l in ("L1", "L2", "L3")}
        assert len(positions) == 3

    def test_unknown_layer(self):
        f = LayeredBloomFilter(m=100, layers=("L1",))
        with pytest.raises(ValueError):
            f.position("L9", b"\x00")

    def test_uniformity_chi_squared(self):
        m = 1024
        f = LayeredBloomFilter(m=m, layers=("L1",))
        rng = np.random.default_rng(2024)
        counts = np.zeros(m)
        for _ in range(10_000):
            counts[f.position("L1", rng.bytes(8))] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.001


class TestInsertQuery:
    def test_fresh_filter_rejects(self):
        f = LayeredBloomFilter(m=100, layers=("L1", "L2"))
        rng = np.random.default_rng(0)
        assert f.query(rand_sigs(rng, f.layers)) is False

    def test_insert_sets_at_most_k_bits(self):
        f = LayeredBloomFilter(m=10_000, layers=("L1", "L2", "L3"))
        rng = np.random.default_rng(1)
        f.insert(rand_sigs(rng, f.layers))
        assert 1 <= f.set_bit_count() <= 3

    def test_insert_idempotent_on_bits(self):
        f = LayeredBloomFilter(m=500, layers=("L1", "L2"))
        rng = np.random.default_rng(2)
        sigs = rand_sigs(rng, f.layers)
        f.insert(sigs)
        snapshot = bytes(f.bits)
        f.insert(sigs)
        assert bytes(f.bits) == snapshot
        assert f.inserted_count == 2

    def test_no_false_negatives(self):
        f = LayeredBloomFilter(m=4000, layers=("L1", "L2", "L3"))
        rng = np.random.default_rng(3)
        inserted = [rand_sigs(rng, f.layers) for _ in range(1000)]
        for sigs in inserted:
            f.insert(sigs)
        assert all(f.query(sigs) for sigs in inserted)

    def test_query_monotone_under_inserts(self):
        f = LayeredBloomFilter(m=256, layers=("L1",))
        rng = np.random.default_rng(4)
        probes = [rand_sigs(rng, f.layers) for _ in range(50)]
        answers = [f.query(p) for p in probes]
        for _ in range(100):
            f.insert(rand_sigs(rng, f.layers))
            new = [f.query(p) for p in probes]
            for old, cur in zip(answers, new):
                assert cur or not old  # maybe-present never reverts
            answers = new

    def test_set_bits_never_decrease(self):
        f = LayeredBloomFilter(m=512, layers=("L1", "L2"))
        rng = np.random.default_rng(5)
        prev = 0
        for _ in range(200):
            f.insert(rand_sigs(rng, f.layers))
            cur = f.set_bit_count()
            assert cur >= prev
            prev = cur

    def test_layer_mismatch_rejected(self):
        f = LayeredBloomFilter(m=100, layers=("L1", "L2"))
        rng = np.random.default_rng(6)
        with pytest.raises(ConfigMismatchError):
            f.insert(rand_sigs(rng, ("L1",)))
        with pytest.raises(ConfigMismatchError):
            f.query(rand_sigs(rng, ("L1", "L2", "L3")))

    def test_fill_fraction_matches_expectation(self):
        n, mult, k = 1000, 5, 3
        m = mult * n
        f = LayeredBloomFilter(m=m, layers=("L1", "L2", "L3"))
        rng = np.random.default_rng(7)
        for _ in range(n):
            f.insert(rand_sigs(rng, f.layers))
        expected = 1 - (1 - 1 / m) ** (n * k)
        observed = f.set_bit_count() / m
        assert observed == pytest.approx(expected, rel=0.05)


class TestInsertMemo:
    """`insert` hashes each distinct (layer, signature bytes) pair once per
    filter object, and sets the same bits as hashing every key would."""

    @settings(max_examples=60, deadline=None)
    @given(
        layers=st.permutations(bloom.LAYERS).flatmap(
            lambda order: st.sampled_from([tuple(order[:2]), tuple(order)])
        ),
        pool=st.lists(st.binary(min_size=1, max_size=3), min_size=1, max_size=4, unique=True),
        picks=st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), max_size=24),
        m=st.integers(1, 300),
        cut=st.integers(0, 25),
    )
    def test_memo_equals_hashing_every_key(self, layers, pool, picks, m, cut):
        # the stream opens with one signature on every layer, so equal bytes
        # sit on two or three layers; later records repeat pool entries
        stream = [
            {layer: sig_of(pool[i % len(pool)]) for layer, i in zip(layers, choice)}
            for choice in [[0, 0, 0], *picks]
        ]
        ref = LayeredBloomFilter(m=m, layers=layers)
        for sigs in stream:
            for layer in layers:
                pos = ref.position(layer, sigs[layer].data)
                ref.bits[pos >> 3] |= 1 << (pos & 7)
            ref.inserted_count += 1

        hashed, hash_ = [], bloom.murmur3_x64_128

        def counted_hash(data, seed):
            hashed.append((seed, data))
            return hash_(data, seed)

        def distinct(sigs_list):
            return sorted({(bloom.LAYER_SEEDS[l], s[l].data) for s in sigs_list for l in layers})

        first, rest = stream[:cut], stream[cut:]
        f = LayeredBloomFilter(m=m, layers=layers)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bloom, "murmur3_x64_128", counted_hash)
            for sigs in first:
                f.insert(sigs)
            assert sorted(hashed) == distinct(first)  # each pair once
            back = LayeredBloomFilter.from_bytes(f.to_bytes())
            assert back._positions == {}
            before = len(hashed)
            for sigs in rest:
                back.insert(sigs)
            assert sorted(hashed[before:]) == distinct(rest)
        # the first record's one byte string was hashed under every layer's seed
        assert {seed for seed, data in hashed if data == pool[0]} == {
            bloom.LAYER_SEEDS[l] for l in layers
        }
        assert back == ref
        assert (bytes(back.bits), back.inserted_count) == (bytes(ref.bits), len(stream))
        assert back.to_bytes() == ref.to_bytes()

    def test_equal_bytes_on_every_layer_set_each_layer_s_bit(self):
        f = LayeredBloomFilter(m=1 << 16, layers=bloom.LAYERS)
        sigs = {layer: sig_of(b"\x2a") for layer in f.layers}
        f.insert(sigs)
        assert f.query(sigs)
        assert f.set_bit_count() == len({f.position(layer, b"\x2a") for layer in f.layers}) == 3

    def test_memo_hit_still_sets_its_bit(self):
        f = LayeredBloomFilter(m=64, layers=("L1", "L2"))
        sigs = {layer: sig_of(b"\x05") for layer in f.layers}
        f.insert(sigs)
        f.bits[:] = bytes(len(f.bits))
        f.insert(sigs)
        assert f.query(sigs) and f.set_bit_count() >= 1


class TestProbeOrder:
    @pytest.mark.parametrize("layers", list(itertools.permutations(("L1", "L2", "L3"))))
    def test_coarse_to_fine_whatever_the_construction_order(self, layers, monkeypatch):
        # the same record stored, then probed whole and with L3, L2 or L1
        # swapped for a signature whose bit is clear: the probe reads seeds
        # 3, 2, 1 and stops at the first clear bit
        f = LayeredBloomFilter(m=1 << 16, layers=layers)
        rng = np.random.default_rng(11)
        stored = rand_sigs(rng, layers)
        f.insert(stored)
        swapped = {}
        for layer in ("L3", "L2", "L1"):
            sig = rand_sig(rng)
            while f.position(layer, sig.data) == f.position(layer, stored[layer].data):
                sig = rand_sig(rng)
            swapped[layer] = {**stored, layer: sig}
        seeds, hash_ = [], bloom.murmur3_x64_128

        def counted_hash(data, seed):
            seeds.append(seed)
            return hash_(data, seed)

        monkeypatch.setattr(bloom, "murmur3_x64_128", counted_hash)
        for sigs, verdict, read in [
            (stored, True, [3, 2, 1]),
            (swapped["L3"], False, [3]),
            (swapped["L2"], False, [3, 2]),
            (swapped["L1"], False, [3, 2, 1]),
        ]:
            seeds.clear()
            assert f.query(sigs) is verdict
            assert seeds == read

    @settings(max_examples=80, deadline=None)
    @given(
        layers=st.sets(st.sampled_from(bloom.LAYERS), min_size=1).flatmap(
            lambda chosen: st.permutations(sorted(chosen)).map(tuple)
        ),
        stored=st.lists(st.tuples(*[st.binary(min_size=1, max_size=2)] * 3), max_size=8),
        probe=st.tuples(*[st.binary(min_size=1, max_size=2)] * 3),
        m=st.integers(1, 64),
        toggled=st.sampled_from(bloom.LAYERS),
    )
    def test_query_is_contains_over_the_probe_order(self, layers, stored, probe, m, toggled):
        # a small m, so verdicts of both kinds and shared bits occur
        f = LayeredBloomFilter(m=m, layers=layers)
        for data in stored:
            f.insert({layer: sig_of(d) for layer, d in zip(bloom.LAYERS, data) if layer in layers})
        sigs = {layer: sig_of(d) for layer, d in zip(bloom.LAYERS, probe) if layer in layers}
        assert f.query(sigs) is all(f.contains(layer, sigs[layer].data) for layer in f.probe_order)
        nbytes = len(f.bits)
        for layer in layers:
            # contains reads exactly the bit at position: it alone set,
            # then it alone clear
            pos = f.position(layer, sigs[layer].data)
            f.bits[:] = bytes(nbytes)
            f.bits[pos >> 3] = 1 << (pos & 7)
            assert f.contains(layer, sigs[layer].data) is True
            f.bits[:] = b"\xff" * nbytes
            f.bits[pos >> 3] ^= 1 << (pos & 7)
            assert f.contains(layer, sigs[layer].data) is False
        # one layer too many or too few
        wrong = {layer: sig_of(b"\x00") for layer in set(layers) ^ {toggled}}
        with pytest.raises(ConfigMismatchError):
            f.query(wrong)


class TestFormulas:
    def test_fp_probability_simple(self):
        p = fp_probability(BloomParams(n=1000, m=2000, k=1))
        assert p == pytest.approx(1 - (1 - 1 / 2000) ** 1000, abs=1e-15)
        with mpmath.workdps(60):
            exact = float(1 - (1 - mpmath.mpf(1) / 2000) ** 1000)
        assert p == pytest.approx(exact, abs=1e-12)
        # close to (but distinct from) the 1 - e^{-1/2} ~ 0.39347 approximation
        assert p == pytest.approx(0.3935452, abs=1e-6)

    def test_fp_probability_nothing_inserted(self):
        assert fp_probability(BloomParams(n=0, m=100, k=2)) == 0.0

    def test_fp_probability_high_precision(self):
        with mpmath.workdps(60):
            want = float(
                (1 - (1 - mpmath.mpf(1) / 5000) ** (1000 * 3)) ** 3
            )
        got = fp_probability(BloomParams(n=1000, m=5000, k=3))
        assert abs(got - want) < 1e-12

    def test_fp_probability_monotonicity(self):
        base = fp_probability(BloomParams(n=1000, m=2000, k=2))
        assert fp_probability(BloomParams(n=1000, m=4000, k=2)) < base
        assert fp_probability(BloomParams(n=2000, m=2000, k=2)) > base

    def test_optimal_bits_values(self):
        assert optimal_bits(1000, 1) == 694
        assert optimal_bits(1000, 3) == 2080
        assert optimal_bits(1, 1) == 1

    def test_optimal_bits_matches_formula(self):
        for n in (100, 1234, 99999):
            for k in (1, 2, 3):
                assert optimal_bits(n, k) == math.ceil(k * n * math.log(2))

    def test_optimal_bits_band(self):
        # k=1..3 collectively spans ~0.69n to ~2.08n; the coarse published
        # band of 1.5n..4.5n bounds the k=3 case from above
        for n in (100, 1000, 10000):
            assert 0.6 * n <= optimal_bits(n, 1) <= 1.5 * n
            assert 1.5 * n <= optimal_bits(n, 3) <= 4.5 * n

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            optimal_bits(0, 1)
        with pytest.raises(ValueError):
            optimal_bits(10, 0)
        with pytest.raises(ValueError):
            BloomParams(n=10, m=0, k=1)
        # filter.bin counts m in a u64; the check comes before any allocation
        for m in (0, 2**64, 10**300):
            with pytest.raises(ValueError, match="filter size"):
                LayeredBloomFilter(m=m, layers=("L1",))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: BloomParams(n=-1, k=1, m=8), "n must be >= 0"),
            (lambda: BloomParams(n=1, k=0, m=8), "k must be in 1..3"),
            (lambda: BloomParams(n=1, k=4, m=8), "k must be in 1..3"),
            (lambda: LayeredBloomFilter(m=64, layers=("L1", "L4")), r"unknown layers: \['L4'\]"),
            (lambda: LayeredBloomFilter(m=64, layers=()), "1 to 3 layers"),
            (lambda: LayeredBloomFilter(m=64, layers=("L1", "L2", "L3", "L1")), "1 to 3 layers"),
        ],
        ids=["negative-n", "k-0", "k-4", "unknown-layer", "no-layers", "four-layers"],
    )
    def test_constructor_checks(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_repeated_layer_rejected(self):
        # a repeated layer would count twice in k, and so in Eq. 1 and Eq. 2
        with pytest.raises(ValueError, match="repeated layer"):
            LayeredBloomFilter(m=64, layers=("L1", "L1"))

    def test_memory_ceiling(self):
        # MAX_BITS is 2 GiB of bits; one more is refused before allocating
        with pytest.raises(ValueError, match="2 GiB"):
            LayeredBloomFilter(m=MAX_BITS + 1, layers=("L1",))
        blob = bytearray(LayeredBloomFilter(m=777, layers=("L1",)).to_bytes())
        blob[4:12] = struct.pack("<Q", MAX_BITS + 1)
        # refused on the header, before the bit array is taken
        with pytest.raises(DataFormatError, match="2 GiB"):
            LayeredBloomFilter.from_bytes(bytes(blob))


class TestFalsePositiveRate:
    def test_monte_carlo_matches_eq1(self):
        n, m, k = 2000, 4000, 3
        layers = ("L1", "L2", "L3")
        f = LayeredBloomFilter(m=m, layers=layers)
        rng = np.random.default_rng(8)
        inserted = set()
        while len(inserted) < n:
            sigs = rand_sigs(rng, layers)
            key = tuple(sigs[l].data for l in layers)
            if key not in inserted:
                inserted.add(key)
                f.insert(sigs)
        hits = 0
        probes = 10_000
        for _ in range(probes):
            sigs = rand_sigs(rng, layers)
            if tuple(sigs[l].data for l in layers) in inserted:
                continue
            hits += f.query(sigs)
        expected = fp_probability(BloomParams(n=n, m=m, k=k))
        assert hits / probes == pytest.approx(expected, rel=0.20)


class TestSerialization:
    def test_round_trip(self):
        f = LayeredBloomFilter(m=777, layers=("L1", "L2"))
        rng = np.random.default_rng(9)
        for _ in range(50):
            f.insert(rand_sigs(rng, f.layers))
        blob = f.to_bytes()
        assert blob[:4] == b"MBF1"
        back = LayeredBloomFilter.from_bytes(blob)
        assert back.m == 777
        assert back.layers == ("L1", "L2")
        assert back.inserted_count == 50
        assert bytes(back.bits) == bytes(f.bits)
        assert back.to_bytes() == blob

    def test_bad_magic(self):
        from bloomretrieval.errors import BadMagicError

        with pytest.raises(BadMagicError):
            LayeredBloomFilter.from_bytes(b"XXXX" + b"\x00" * 40)

    @pytest.mark.parametrize("m, k", [(0, 1), (777, 0), (777, 4)])
    def test_bad_header_rejected(self, m, k):
        from bloomretrieval.errors import DataFormatError

        blob = bytearray(LayeredBloomFilter(m=777, layers=("L1",)).to_bytes())
        blob[4:13] = struct.pack("<QB", m, k)
        with pytest.raises(DataFormatError, match=f"m={m}, k={k}"):
            LayeredBloomFilter.from_bytes(bytes(blob))

    def test_repeated_seed_rejected(self):
        blob = bytearray(LayeredBloomFilter(m=777, layers=("L1", "L2")).to_bytes())
        blob[17:21] = struct.pack("<I", 1)  # magic, m u64, k u8, first seed, then the second
        with pytest.raises(ConfigMismatchError, match="repeated layer seed 1"):
            LayeredBloomFilter.from_bytes(bytes(blob))

    def test_truncated(self):
        from bloomretrieval.errors import TruncatedFileError

        f = LayeredBloomFilter(m=777, layers=("L1",))
        blob = f.to_bytes()
        with pytest.raises(TruncatedFileError):
            LayeredBloomFilter.from_bytes(blob[:-5])
