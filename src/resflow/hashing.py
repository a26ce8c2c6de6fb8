"""Binary hashing of embeddings, bucket centroids, and hamming assignment.

The hash is a bank of thresholded hyperplanes picked by seeded search: for
each output bit, unit candidate directions are drawn, scored by how well the
induced bipartition matches the best split of the training labels (balanced
accuracy), and the winner is kept subject to a de-correlation cap against
previously accepted bits. Thresholds sit at the projection median, so bucket
assignments are invariant to positive rescaling of the embedding space.

Codes live in a hamming space: each bucket is identified by the per-bit
majority code of its members, and lookups are nearest-centroid scans.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HASH_MAGIC = b"HSH1"
CENTROID_HEADER = "CTAB1"


class HashError(ValueError):
    """Invalid hashing input or file."""


class HashFitError(HashError):
    """Fit cannot produce a separating hash (degenerate embeddings)."""


class BucketCollisionError(HashError):
    """Two buckets collapsed to one centroid code."""


@dataclass(frozen=True)
class BinaryCode:
    """Fixed-width bitstring; bit b is (bits >> b) & 1, hex is lowercase."""

    bits: int
    width: int

    def __post_init__(self):
        if self.width <= 0:
            raise HashError(f"code width must be positive, got {self.width}")
        if not 0 <= self.bits < (1 << self.width):
            raise HashError(f"bits {self.bits:#x} out of range for width {self.width}")

    def to_hex(self) -> str:
        return format(self.bits, f"0{(self.width + 3) // 4}x")

    @classmethod
    def from_hex(cls, s: str, width: int) -> "BinaryCode":
        return cls(bits=int(s, 16), width=width)

    def bit_array(self) -> np.ndarray:
        return np.array([(self.bits >> b) & 1 for b in range(self.width)], dtype=np.uint8)


def hamming(a: BinaryCode, b: BinaryCode) -> int:
    """Popcount of XOR; both codes must share a width."""
    if a.width != b.width:
        raise HashError(f"width mismatch: {a.width} vs {b.width}")
    return (a.bits ^ b.bits).bit_count()


def codes_to_matrix(codes) -> np.ndarray:
    """(n, width) uint8 bit matrix for vectorized distance work."""
    codes = list(codes)
    if not codes:
        return np.zeros((0, 0), dtype=np.uint8)
    width = codes[0].width
    for c in codes:
        if c.width != width:
            raise HashError("mixed code widths")
    return np.stack([c.bit_array() for c in codes])


@dataclass(eq=False)
class HashFunction:
    """n_bits unit-norm projection directions with per-bit thresholds.

    Bit b of a code is 1 iff projections[b] . embedding > thresholds[b];
    equality maps to 0. Immutable after fit.
    """

    projections: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self):
        self.projections = np.asarray(self.projections, dtype=np.float64)
        self.thresholds = np.asarray(self.thresholds, dtype=np.float64)
        if self.projections.ndim != 2:
            raise HashError("projections must be (n_bits, dim)")
        if self.thresholds.shape != (self.projections.shape[0],):
            raise HashError("one threshold per projection required")

    @property
    def n_bits(self) -> int:
        return self.projections.shape[0]

    @property
    def dim(self) -> int:
        return self.projections.shape[1]


def encode(h: HashFunction, embedding: np.ndarray) -> BinaryCode:
    """Hash one embedding; pure function of (h, embedding)."""
    e = np.asarray(embedding, dtype=np.float64)
    if e.shape != (h.dim,):
        raise HashError(f"embedding dim {e.shape} != hash dim ({h.dim},)")
    p = h.projections @ e
    bits = 0
    for b in np.nonzero(p > h.thresholds)[0]:
        bits |= 1 << int(b)
    return BinaryCode(bits=bits, width=h.n_bits)


def encode_many(h: HashFunction, embeddings: np.ndarray) -> list[BinaryCode]:
    E = np.asarray(embeddings, dtype=np.float64)
    P = E @ h.projections.T > h.thresholds
    weights = 1 << np.arange(h.n_bits, dtype=object)
    return [BinaryCode(bits=int((row * weights).sum()), width=h.n_bits) for row in P]


def _subset_matrix(k: int) -> np.ndarray:
    # All nonempty proper label subsets as a (2^k - 2, k) 0/1 matrix.
    masks = np.arange(1, (1 << k) - 1)
    return ((masks[:, None] >> np.arange(k)[None, :]) & 1).astype(np.float64)


def _best_split_scores(bits: np.ndarray, label_idx: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Best balanced accuracy over label bipartitions, per candidate column.

    Exhaustive over subsets for small label counts; greedy one-rate prefix
    splits otherwise.
    """
    n, n_cand = bits.shape
    k = len(counts)
    ones = np.zeros((k, n_cand), dtype=np.float64)
    np.add.at(ones, label_idx, bits.astype(np.float64))
    total_ones = ones.sum(axis=0)
    if k <= 12:
        M = _subset_matrix(k)
        sel_ones = M @ ones
        sel_n = (M @ counts)[:, None]
        pos = sel_ones / sel_n
        neg = (total_ones[None, :] - sel_ones) / (n - sel_n)
        bal = (pos + (1.0 - neg)) / 2.0
        # Complement subsets are in the enumeration, so 1 - bal is covered.
        return bal.max(axis=0)
    scores = np.zeros(n_cand)
    for ci in range(n_cand):
        rates = ones[:, ci] / counts
        order = np.argsort(-rates, kind="stable")
        best = 0.5
        sel_o = 0.0
        sel_c = 0.0
        for g in order[:-1]:
            sel_o += ones[g, ci]
            sel_c += counts[g]
            pos = sel_o / sel_c
            neg = (total_ones[ci] - sel_o) / (n - sel_c)
            bal = (pos + (1.0 - neg)) / 2.0
            best = max(best, bal, 1.0 - bal)
        scores[ci] = best
    return scores


def fit_hash(
    embeddings: np.ndarray,
    labels,
    n_bits: int,
    seed: int = 0,
    candidates: int = 64,
    max_agreement: float = 0.95,
) -> HashFunction:
    """Fit the hyperplane bank against cluster soft-labels.

    Per bit: draw ``candidates`` unit directions from the seeded stream,
    threshold each at its projection median, score by the best-label-split
    balanced accuracy, and accept the top scorer whose bit pattern agrees
    with every previously accepted bit on at most ``max_agreement`` of the
    training points (falling back to the top scorer when all are too
    correlated). Deterministic given the seed.
    """
    E = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels)
    if E.ndim != 2 or len(E) != len(y):
        raise HashError("embeddings must be (n, dim) with one label per row")
    uniq, label_idx = np.unique(y, return_inverse=True)
    k = len(uniq)
    if k < 2:
        raise HashError(f"need at least 2 distinct labels, got {k}")
    min_bits = max((k - 1).bit_length(), 1)
    if n_bits < min_bits:
        raise HashError(f"n_bits={n_bits} too small for {k} buckets (need >= {min_bits})")
    if np.allclose(E, E[0]):
        raise HashFitError("no separating direction: all embeddings identical")
    counts = np.bincount(label_idx, minlength=k).astype(np.float64)

    rng = np.random.default_rng(seed)
    accepted_bits: list[np.ndarray] = []
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
        scores = _best_split_scores(B, label_idx, counts)
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


@dataclass(eq=False)
class CentroidTable:
    """bucket_id -> centroid code; ids dense from 0, codes pairwise distinct."""

    codes: dict[int, BinaryCode]

    def __post_init__(self):
        if not self.codes:
            raise HashError("empty centroid table")
        ids = sorted(self.codes)
        if ids != list(range(len(ids))):
            raise HashError(f"bucket ids must be dense 0..k-1, got {ids}")
        widths = {c.width for c in self.codes.values()}
        if len(widths) != 1:
            raise HashError("mixed centroid widths")
        seen = {}
        for bid, code in self.codes.items():
            if code.bits in seen:
                raise BucketCollisionError(
                    f"bucket collision; increase n_bits "
                    f"(buckets {seen[code.bits]} and {bid} share {code.to_hex()})"
                )
            seen[code.bits] = bid

    @property
    def width(self) -> int:
        return next(iter(self.codes.values())).width

    def __len__(self):
        return len(self.codes)

    def items(self):
        return sorted(self.codes.items())

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as f:
            f.write(f"{CENTROID_HEADER} n_bits={self.width}\n")
            for bid, code in self.items():
                f.write(f"{bid} {code.to_hex()}\n")

    @classmethod
    def load(cls, path) -> "CentroidTable":
        try:
            with open(path, "r", encoding="ascii") as f:
                header = f.readline().split()
                if len(header) != 2 or header[0] != CENTROID_HEADER or not header[1].startswith("n_bits="):
                    raise HashError(f"malformed centroid table header in {path}")
                width = int(header[1].split("=", 1)[1])
                codes = {}
                for line in f:
                    parts = line.split()
                    if not parts:
                        continue
                    if len(parts) != 2:
                        raise HashError(f"malformed centroid line in {path}: {line!r}")
                    codes[int(parts[0])] = BinaryCode.from_hex(parts[1], width)
        except HashError:
            raise
        except ValueError as e:  # a token int() rejects, or a non-ascii byte
            raise HashError(f"malformed centroid table {path}: {e}") from None
        return cls(codes=codes)


def bucket_centroids(codes, labels) -> CentroidTable:
    """Per-bucket, per-bit majority code; exact bit ties resolve to 0."""
    codes = list(codes)
    y = np.asarray(labels)
    if len(codes) != len(y):
        raise HashError("one label per code required")
    ids = sorted(set(int(v) for v in y))
    if ids != list(range(len(ids))):
        raise HashError(f"bucket labels must be dense 0..k-1, got {ids}")
    B = codes_to_matrix(codes)
    width = codes[0].width
    table = {}
    for bid in ids:
        member = B[y == bid]
        ones = member.sum(axis=0)
        majority = ones * 2 > len(member)
        bits = 0
        for b in np.nonzero(majority)[0]:
            bits |= 1 << int(b)
        table[bid] = BinaryCode(bits=bits, width=width)
    return CentroidTable(codes=table)


def assign_bucket(code: BinaryCode, table: CentroidTable) -> int:
    """Nearest centroid in hamming distance; ties go to the smallest id."""
    best_id = -1
    best_d = table.width + 1
    for bid, centroid in table.items():
        d = hamming(code, centroid)
        if d < best_d:
            best_d = d
            best_id = bid
    return best_id


@dataclass(frozen=True)
class MeanAveragePrecision:
    """mAP with a count of queries skipped for lacking any same-label peer."""

    value: float
    queries: int
    skipped_queries: int

    def __float__(self):
        return self.value


def evaluate_map(codes, labels) -> MeanAveragePrecision:
    """Ranking quality of codes against labels.

    Each item queries all others ranked by hamming distance ascending, ties
    broken by insertion index. AP averages precision-at-rank over the
    positions holding same-label items; mAP averages AP over queries.
    """
    codes = list(codes)
    y = np.asarray(labels)
    n = len(codes)
    if n < 2 or len(y) != n:
        raise HashError("need >= 2 items with one label per code")
    B = codes_to_matrix(codes).astype(np.int16)
    aps = []
    skipped = 0
    idx = np.arange(n)
    for q in range(n):
        others = idx != q
        rel_all = (y == y[q]) & others
        if not rel_all.any():
            skipped += 1
            continue
        dist = np.abs(B[others] - B[q]).sum(axis=1)
        order = np.lexsort((idx[others], dist))
        rel = rel_all[others][order]
        precision = np.cumsum(rel) / np.arange(1, len(rel) + 1)
        aps.append(float(precision[rel].mean()))
    if not aps:
        raise HashError("every query was skipped; no label has two members")
    return MeanAveragePrecision(value=float(np.mean(aps)), queries=len(aps), skipped_queries=skipped)


def save_hash(path, h: HashFunction) -> None:
    """Versioned binary form: HSH1, n_bits, dim, then f64 projections and thresholds."""
    with open(path, "wb") as f:
        f.write(HASH_MAGIC)
        f.write(struct.pack("<II", h.n_bits, h.dim))
        f.write(h.projections.astype("<f8").tobytes())
        f.write(h.thresholds.astype("<f8").tobytes())


def load_hash(path) -> HashFunction:
    raw = Path(path).read_bytes()
    if raw[:4] != HASH_MAGIC:
        raise HashError(f"bad hash file magic in {path}")
    if len(raw) < 12:
        raise HashError(f"hash file {path} is {len(raw)} bytes, shorter than its 12-byte header")
    n_bits, dim = struct.unpack("<II", raw[4:12])
    need = 12 + 8 * n_bits * dim + 8 * n_bits
    if len(raw) != need:
        raise HashError(f"hash file {path} is {len(raw)} bytes, expected {need}")
    proj = np.frombuffer(raw, dtype="<f8", count=n_bits * dim, offset=12).reshape(n_bits, dim)
    thr = np.frombuffer(raw, dtype="<f8", count=n_bits, offset=12 + 8 * n_bits * dim)
    return HashFunction(projections=proj.copy(), thresholds=thr.copy())
