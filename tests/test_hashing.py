import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resflow.hashing import (
    BinaryCode,
    BucketCollisionError,
    CentroidTable,
    HashError,
    HashFitError,
    HashFunction,
    assign_bucket,
    bucket_centroids,
    encode,
    encode_many,
    evaluate_map,
    fit_hash,
    hamming,
    load_hash,
    save_hash,
)

from conftest import make_blobs


def brute_force_nearest(code, table):
    # independent oracle: scan ids ascending, strict improvement only
    best_id, best_d = None, None
    for bid, centroid in sorted(table.codes.items()):
        d = bin(code.bits ^ centroid.bits).count("1")
        if best_d is None or d < best_d:
            best_id, best_d = bid, d
    return best_id


def brute_force_map(codes, labels):
    # independent oracle: explicit per-query ranking with insertion-order ties
    aps = []
    for q in range(len(codes)):
        ranked = sorted(
            (bin(codes[q].bits ^ codes[j].bits).count("1"), j)
            for j in range(len(codes))
            if j != q
        )
        rel = [labels[j] == labels[q] for _, j in ranked]
        if not any(rel):
            continue
        hits = 0
        precisions = []
        for rank, is_rel in enumerate(rel, start=1):
            if is_rel:
                hits += 1
                precisions.append(hits / rank)
        aps.append(sum(precisions) / len(precisions))
    return sum(aps) / len(aps)


class TestBinaryCode:
    def test_hex_canonical(self):
        assert BinaryCode(0xAB, 8).to_hex() == "ab"
        assert BinaryCode(1, 32).to_hex() == "00000001"
        assert BinaryCode.from_hex("00ff", 16) == BinaryCode(255, 16)

    def test_width_validation(self):
        with pytest.raises(HashError):
            BinaryCode(4, 2)
        with pytest.raises(HashError):
            BinaryCode(0, 0)


class TestHamming:
    def test_identity(self):
        a = BinaryCode(0b1010, 4)
        assert hamming(a, a) == 0

    def test_single_bit(self):
        assert hamming(BinaryCode(0b1010, 4), BinaryCode(0b0010, 4)) == 1

    def test_complement(self):
        a = BinaryCode(0x12345678, 32)
        b = BinaryCode(a.bits ^ 0xFFFFFFFF, 32)
        assert hamming(a, b) == 32

    def test_width_mismatch(self):
        with pytest.raises(HashError):
            hamming(BinaryCode(0, 4), BinaryCode(0, 8))

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.integers(0, 2**32 - 1),
        b=st.integers(0, 2**32 - 1),
        c=st.integers(0, 2**32 - 1),
    )
    def test_metric_properties(self, a, b, c):
        ca, cb, cc = (BinaryCode(v, 32) for v in (a, b, c))
        assert hamming(ca, cb) >= 0
        assert (hamming(ca, cb) == 0) == (a == b)
        assert hamming(ca, cb) == hamming(cb, ca)
        assert hamming(ca, cc) <= hamming(ca, cb) + hamming(cb, cc)


class TestFitHash:
    def test_two_blobs_one_bit_separates(self):
        points, labels = make_blobs(2, 50, dim=1, spacing=10.0, seed=1)
        h = fit_hash(points, labels, n_bits=1, seed=0)
        bits = np.array([encode(h, e).bits for e in points])
        acc = max((bits == labels).mean(), (bits == 1 - labels).mean())
        assert acc == 1.0

    def test_six_blobs_distinct_centroids(self):
        points, labels = make_blobs(6, 60, dim=12, seed=2)
        h = fit_hash(points, labels, n_bits=32, seed=0)
        table = bucket_centroids(encode_many(h, points), labels)
        items = table.items()
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                assert hamming(items[i][1], items[j][1]) >= 1

    def test_identical_embeddings_error(self):
        points = np.ones((40, 6))
        with pytest.raises(HashFitError, match="no separating direction"):
            fit_hash(points, [0] * 20 + [1] * 20, n_bits=4, seed=0)

    def test_too_few_bits(self):
        points, labels = make_blobs(5, 10, seed=3)
        with pytest.raises(HashError):
            fit_hash(points, labels, n_bits=2, seed=0)

    def test_deterministic(self):
        points, labels = make_blobs(3, 30, seed=4)
        h1 = fit_hash(points, labels, n_bits=16, seed=9)
        h2 = fit_hash(points, labels, n_bits=16, seed=9)
        assert np.array_equal(h1.projections, h2.projections)
        assert np.array_equal(h1.thresholds, h2.thresholds)

    def test_scaling_invariance_of_assignments(self):
        # a hash fitted on positively rescaled points keeps every assignment
        points, labels = make_blobs(4, 40, seed=5)
        h = fit_hash(points, labels, n_bits=16, seed=0)
        codes = encode_many(h, points)
        table = bucket_centroids(codes, labels)
        before = [assign_bucket(c, table) for c in codes]
        scaled = points * 7.3
        h2 = fit_hash(scaled, labels, n_bits=16, seed=0)
        codes2 = encode_many(h2, scaled)
        table2 = bucket_centroids(codes2, labels)
        after = [assign_bucket(c, table2) for c in codes2]
        assert before == after


class TestEncode:
    def test_boundary_is_zero(self):
        h = HashFunction(projections=np.array([[1.0]]), thresholds=np.array([5.0]))
        assert encode(h, np.array([5.0])).bits == 0
        assert encode(h, np.array([5.0 + 1e-9])).bits == 1

    def test_pure(self):
        h = HashFunction(projections=np.eye(3), thresholds=np.zeros(3))
        e = np.array([1.0, -1.0, 0.5])
        assert encode(h, e) == encode(h, e)

    def test_stability_away_from_boundary(self):
        rng = np.random.default_rng(7)
        h = HashFunction(projections=rng.standard_normal((8, 4)), thresholds=np.zeros(8))
        e = rng.standard_normal(4)
        margins = np.abs(h.projections @ e)
        e = e * (1e-3 / margins.min())  # guarantee margin, then perturb far below it
        base = encode(h, e * 1e3)
        assert encode(h, e * 1e3 + 1e-12) == base

    def test_dim_mismatch(self):
        h = HashFunction(projections=np.eye(3), thresholds=np.zeros(3))
        with pytest.raises(HashError):
            encode(h, np.zeros(4))

    def test_encode_many_matches_encode(self):
        rng = np.random.default_rng(8)
        h = HashFunction(projections=rng.standard_normal((16, 5)), thresholds=rng.standard_normal(16))
        E = rng.standard_normal((20, 5))
        assert encode_many(h, E) == [encode(h, e) for e in E]


class TestCentroids:
    def test_single_member(self):
        code = BinaryCode(0b1011, 4)
        table = bucket_centroids([code, BinaryCode(0, 4)], [0, 1])
        assert table.codes[0] == code

    def test_majority_with_tie_to_zero(self):
        codes = [BinaryCode(0b00, 2), BinaryCode(0b01, 2), BinaryCode(0b11, 2)]
        table = bucket_centroids(codes + [BinaryCode(0b10, 2)], [0, 0, 0, 1])
        assert table.codes[0] == BinaryCode(0b01, 2)

    def test_collision_error(self):
        codes = [BinaryCode(0b1, 4), BinaryCode(0b1, 4)]
        with pytest.raises(BucketCollisionError, match="increase n_bits"):
            bucket_centroids(codes, [0, 1])

    def test_table_round_trip(self, tmp_path):
        table = CentroidTable(codes={0: BinaryCode(3, 8), 1: BinaryCode(200, 8)})
        table.save(tmp_path / "c.txt")
        back = CentroidTable.load(tmp_path / "c.txt")
        assert back.codes == table.codes

    @pytest.mark.parametrize(
        "text", ["CTAB1 n_bits=x8\n0 03\n", "CTAB1 n_bits=8\nb0 03\n", "CTAB1 n_bits=8\n0 0x-\n"]
    )
    def test_table_non_integer_tokens(self, tmp_path, text):
        (tmp_path / "c.txt").write_text(text)
        with pytest.raises(HashError, match="malformed centroid table"):
            CentroidTable.load(tmp_path / "c.txt")


class TestAssign:
    def test_exact_match(self):
        table = CentroidTable(codes={i: BinaryCode(i * 5, 8) for i in range(5)})
        assert assign_bucket(BinaryCode(15, 8), table) == 3

    def test_tie_smallest_id(self):
        table = CentroidTable(codes={0: BinaryCode(0b0011, 4), 1: BinaryCode(0b1100, 4)})
        # 0b0110 is distance 2 from both
        assert assign_bucket(BinaryCode(0b0110, 4), table) == 0

    def test_exhaustive_width4_vs_oracle(self):
        table = CentroidTable(codes={0: BinaryCode(0b0000, 4), 1: BinaryCode(0b1111, 4)})
        for bits in range(16):
            code = BinaryCode(bits, 4)
            assert assign_bucket(code, table) == brute_force_nearest(code, table)

    def test_random_tables_vs_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            width = int(rng.integers(4, 9))
            k = int(rng.integers(2, 5))
            codes = rng.choice(2**width, size=k, replace=False)
            table = CentroidTable(codes={i: BinaryCode(int(c), width) for i, c in enumerate(codes)})
            for _ in range(20):
                code = BinaryCode(int(rng.integers(0, 2**width)), width)
                assert assign_bucket(code, table) == brute_force_nearest(code, table)


class TestEvaluateMap:
    def test_all_same_label(self):
        codes = [BinaryCode(i, 8) for i in range(6)]
        assert evaluate_map(codes, [0] * 6).value == 1.0

    def test_perfect_separation(self):
        codes = [BinaryCode(0b0000, 4)] * 3 + [BinaryCode(0b1111, 4)] * 3
        result = evaluate_map(codes, [0, 0, 0, 1, 1, 1])
        assert result.value == 1.0
        assert result.skipped_queries == 0

    def test_identical_codes_two_labels_matches_oracle(self):
        codes = [BinaryCode(0b1010, 4)] * 6
        labels = [0, 1, 0, 1, 0, 1]
        result = evaluate_map(codes, labels)
        assert result.value == pytest.approx(brute_force_map(codes, labels))

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            codes = [BinaryCode(int(rng.integers(0, 16)), 4) for _ in range(n)]
            labels = rng.integers(0, 3, size=n).tolist()
            if all(labels.count(v) < 2 for v in set(labels)):
                labels[1] = labels[0]
            result = evaluate_map(codes, labels)
            assert result.value == pytest.approx(brute_force_map(codes, labels))

    def test_singleton_label_skipped(self):
        codes = [BinaryCode(0, 4), BinaryCode(1, 4), BinaryCode(2, 4)]
        result = evaluate_map(codes, [0, 0, 1])
        assert result.skipped_queries == 1
        assert result.queries == 2

    def test_six_blob_chain_reaches_mAP_floor(self):
        points, labels = make_blobs(6, 40, dim=12, seed=12)
        h = fit_hash(points, labels, n_bits=32, seed=0)
        result = evaluate_map(encode_many(h, points), labels)
        assert result.value >= 0.95


class TestHashIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        h = HashFunction(
            projections=rng.standard_normal((16, 7)), thresholds=rng.standard_normal(16)
        )
        save_hash(tmp_path / "h.hsh1", h)
        back = load_hash(tmp_path / "h.hsh1")
        assert np.array_equal(back.projections, h.projections)
        assert np.array_equal(back.thresholds, h.thresholds)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "h.hsh1").write_bytes(b"NOPE1234")
        with pytest.raises(HashError):
            load_hash(tmp_path / "h.hsh1")

    def test_short_header(self, tmp_path):
        (tmp_path / "h.hsh1").write_bytes(b"HSH1\0\0")
        with pytest.raises(HashError, match="12-byte header"):
            load_hash(tmp_path / "h.hsh1")
