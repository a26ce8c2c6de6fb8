import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from resflow.hashing import (
    HASH_MAGIC,
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
    fit_hash,
    hamming,
    load_hash,
    save_hash,
)
from resflow.hashing import MAX_LABELS, _subset_matrix


from conftest import make_blobs, text_artifacts


@st.composite
def hsh1_files(draw):
    """The HSH1 magic, a bit count and a width, then a body of the length they imply, give or take a byte."""
    n_bits, dim = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    size = max(0, 8 * n_bits * (dim + 1) + draw(st.integers(-1, 1)))
    return HASH_MAGIC + struct.pack("<II", n_bits, dim) + draw(st.binary(min_size=size, max_size=size))


def brute_force_nearest(code, table):
    # independent oracle: scan ids ascending, strict improvement only
    best_id, best_d = None, None
    for bid, centroid in sorted(table.codes.items()):
        d = bin(code.bits ^ centroid.bits).count("1")
        if best_d is None or d < best_d:
            best_id, best_d = bid, d
    return best_id


def brute_force_map(codes, labels):
    # mean average precision: each code queries the others, ranked by hamming
    # distance with insertion-order ties
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


def reference_split_scores(bits, label_idx, counts):
    # per-bit scorer as fit_hash ran it before the whole-matrix rewrite
    n, n_cand = bits.shape
    k = len(counts)
    ones = np.zeros((k, n_cand), dtype=np.float64)
    np.add.at(ones, label_idx, bits.astype(np.float64))
    total_ones = ones.sum(axis=0)
    M = _subset_matrix(k)
    sel_ones = M @ ones
    sel_n = (M @ counts)[:, None]
    pos = sel_ones / sel_n
    neg = (total_ones[None, :] - sel_ones) / (n - sel_n)
    bal = (pos + (1.0 - neg)) / 2.0
    return bal.max(axis=0)


def reference_fit_hash(embeddings, labels, n_bits, seed=0, candidates=64, max_agreement=0.95):
    # exactness oracle: np.add.at label counts and one np.mean agreement check
    # per candidate and accepted bit, in score order
    E = np.asarray(embeddings, dtype=np.float64)
    _, label_idx = np.unique(np.asarray(labels), return_inverse=True)
    counts = np.bincount(label_idx).astype(np.float64)
    rng = np.random.default_rng(seed)
    accepted_bits = []
    projections = np.empty((n_bits, E.shape[1]))
    thresholds = np.empty(n_bits)
    for b in range(n_bits):
        C = rng.standard_normal((candidates, E.shape[1]))
        norms = np.linalg.norm(C, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        C /= norms
        P = E @ C.T
        thr = np.median(P, axis=0)
        B = P > thr
        scores = reference_split_scores(B, label_idx, counts)
        order = np.lexsort((np.arange(candidates), -scores))
        chosen = int(order[0])
        for ci in order:
            col = B[:, ci]
            if all(float(np.mean(col == acc)) <= max_agreement for acc in accepted_bits):
                chosen = int(ci)
                break
        accepted_bits.append(B[:, chosen])
        projections[b] = C[chosen]
        thresholds[b] = thr[chosen]
    return HashFunction(projections=projections, thresholds=thresholds)


def assert_same_hash(got, want):
    assert got.projections.tobytes() == want.projections.tobytes()
    assert got.thresholds.tobytes() == want.thresholds.tobytes()


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

    def test_more_than_twelve_labels_is_an_error(self):
        points, labels = make_blobs(MAX_LABELS + 1, 5, seed=3)
        with pytest.raises(HashError, match="2 to 12 distinct labels, got 13"):
            fit_hash(points, labels, n_bits=32, seed=0)
        fit_hash(points[labels < MAX_LABELS], labels[labels < MAX_LABELS], n_bits=32, seed=0)

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


class TestFitHashMatchesReference:
    @pytest.mark.parametrize(
        "n, k, n_bits",
        [
            (2, 2, 1),
            (3, 2, 4),
            (16, 6, 32),
            (17, 6, 3),
            (64, 10, 32),
            (101, 12, 16),
            (130, 12, 8),
            (257, 2, 32),
            (1024, 10, 32),
            (1023, 12, 4),
        ],
    )
    def test_random_labels(self, n, k, n_bits):
        rng = np.random.default_rng(n * 100 + k)
        points = rng.standard_normal((n, 9)) + rng.integers(0, 3, size=(n, 1))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        for seed in (0, 7):
            assert_same_hash(fit_hash(points, labels, n_bits, seed=seed),
                             reference_fit_hash(points, labels, n_bits, seed=seed))

    @pytest.mark.parametrize("k", [2, 6, 12])
    def test_blobs(self, k):
        points, labels = make_blobs(k, 20, dim=12, seed=k)
        assert_same_hash(fit_hash(points, labels, 32, seed=3),
                         reference_fit_hash(points, labels, 32, seed=3))

    @pytest.mark.parametrize("n", [20, 21])
    def test_tied_scores(self, n):
        # on one axis every direction is +1 or -1, so candidates tie in pairs or wholly
        points, labels = make_blobs(2, n // 2, dim=1, seed=1)
        points = np.concatenate([points, points[:n % 2]])
        labels = np.concatenate([labels, labels[:n % 2]])
        for n_bits in (1, 2, 32):
            assert_same_hash(fit_hash(points, labels, n_bits, seed=0),
                             reference_fit_hash(points, labels, n_bits, seed=0))

    def test_every_candidate_too_correlated(self):
        # an odd count on one axis: each candidate bit agrees with the first on
        # at least the median point, so no candidate passes max_agreement=0
        points = np.arange(15.0)[:, None]
        labels = np.arange(15) % 3
        got = fit_hash(points, labels, 6, seed=2, max_agreement=0.0)
        assert_same_hash(got, reference_fit_hash(points, labels, 6, seed=2, max_agreement=0.0))
        # the fallback keeps the top scorer, which repeats the first bit up to sign
        assert np.array_equal(np.abs(got.projections), np.ones((6, 1)))


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

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=text_artifacts(st.one_of(st.integers().map("CTAB1 n_bits={}".format), st.text(max_size=16))))
    @example(raw=b"CTAB1 n_bits=%d\n0 1\n" % 2**70)
    def test_any_bytes_load_or_raise_hash_error(self, tmp_path, raw):
        path = tmp_path / "c.txt"
        path.write_bytes(raw)
        try:
            table = CentroidTable.load(path)
        except HashError:
            return
        assert isinstance(table, CentroidTable)


class TestAssign:
    def test_exact_match(self):
        table = CentroidTable(codes={i: BinaryCode(i * 5, 8) for i in range(5)})
        assert assign_bucket(BinaryCode(15, 8), table) == 3

    def test_tie_smallest_id(self):
        table = CentroidTable(codes={0: BinaryCode(0b0011, 4), 1: BinaryCode(0b1100, 4)})
        # 0b0110 is distance 2 from both
        assert assign_bucket(BinaryCode(0b0110, 4), table) == 0
        reversed_table = CentroidTable(codes={1: BinaryCode(0b1100, 4), 0: BinaryCode(0b0011, 4)})
        assert assign_bucket(BinaryCode(0b0110, 4), reversed_table) == 0

    def test_width_mismatch(self):
        table = CentroidTable(codes={0: BinaryCode(0, 8), 1: BinaryCode(0xFF, 8)})
        with pytest.raises(HashError, match="width mismatch"):
            assign_bucket(BinaryCode(0, 4), table)

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
    def test_six_blob_chain_reaches_mAP_floor(self):
        points, labels = make_blobs(6, 40, dim=12, seed=12)
        h = fit_hash(points, labels, n_bits=32, seed=0)
        assert brute_force_map(encode_many(h, points), labels) >= 0.95


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

    @pytest.mark.parametrize("field, value", [("projections", np.nan), ("thresholds", np.inf)])
    def test_non_finite_values_are_hash_errors(self, tmp_path, field, value):
        h = HashFunction(projections=np.eye(3), thresholds=np.zeros(3))
        getattr(h, field).flat[1] = value
        save_hash(tmp_path / "h.hsh1", h)
        with pytest.raises(HashError, match="non-finite"):
            load_hash(tmp_path / "h.hsh1")

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=st.one_of(st.binary(max_size=64), st.binary(max_size=64).map(HASH_MAGIC.__add__), hsh1_files()))
    def test_any_bytes_load_or_raise_hash_error(self, tmp_path, raw):
        path = tmp_path / "h.hsh1"
        path.write_bytes(raw)
        try:
            h = load_hash(path)
        except HashError:
            return
        assert np.isfinite(h.projections).all() and np.isfinite(h.thresholds).all()
