"""Binary hashing of embeddings, bucket centroids, and hamming assignment.

The hash is a bank of thresholded hyperplanes picked by seeded search: for
each output bit, unit candidate directions are drawn, scored by how well the
induced bipartition matches the best split of the training labels (balanced
accuracy over every bipartition of the at most ``MAX_LABELS`` labels), and
the winner is kept subject to a de-correlation cap against previously
accepted bits. Thresholds sit at the projection median, so bucket
assignments are invariant to positive rescaling of the embedding space.

Each bit is chosen in whole-matrix steps rather than per candidate: label
counts and agreement counts are matrix products of 0/1 float64 arrays. Their
entries are integers below 2**53, which every summation order gives exactly,
so the fitted hash does not depend on how the products are computed.

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
# fit_hash scores all 2**k - 2 label bipartitions per bit, so k stays small.
MAX_LABELS = 12


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
        # bit_length, not 1 << width: a width read from a file may be huge.
        if self.bits < 0 or self.bits.bit_length() > self.width:
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


def _best_split_scores(ones: np.ndarray, counts: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Best balanced accuracy over label bipartitions, per candidate column.

    ``ones[g, c]`` counts the points of label ``g`` whose candidate bit ``c``
    is set. Every bipartition is scored: ``subsets`` is ``_subset_matrix(k)``.
    """
    n = counts.sum()
    sel_ones = subsets @ ones
    sel_n = (subsets @ counts)[:, None]
    pos = sel_ones / sel_n
    neg = (ones.sum(axis=0)[None, :] - sel_ones) / (n - sel_n)
    bal = (pos + (1.0 - neg)) / 2.0
    # Complement subsets are in the enumeration, so 1 - bal is covered.
    return bal.max(axis=0)


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
    threshold each at its projection median, score by the best balanced
    accuracy over every bipartition of the labels, and accept the top scorer
    whose bit pattern agrees with every previously accepted bit on at most
    ``max_agreement`` of the training points (falling back to the top scorer
    when all are too correlated). Deterministic given the seed. The labels
    must take 2 to ``MAX_LABELS`` distinct values, else ``HashError``.

    Each bit is chosen in whole-matrix steps over the 0/1 float64 candidate
    bits ``B`` (n, candidates): one label one-hot product gives every
    label's ones count, and one product of the accepted bit rows ``A`` with
    ``B`` (both set) plus one of their complements (both clear) gives every
    agreement count. Those are integer sums below 2**53, exact in any
    summation order, and ``count / n`` is the float ``np.mean`` returns for
    a bool column, so the bits and thresholds match a per-candidate loop
    byte for byte.
    """
    E = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels)
    if E.ndim != 2 or len(E) != len(y):
        raise HashError("embeddings must be (n, dim) with one label per row")
    uniq, label_idx = np.unique(y, return_inverse=True)
    k = len(uniq)
    if not 2 <= k <= MAX_LABELS:
        raise HashError(f"need 2 to {MAX_LABELS} distinct labels, got {k}")
    min_bits = max((k - 1).bit_length(), 1)
    if n_bits < min_bits:
        raise HashError(f"n_bits={n_bits} too small for {k} buckets (need >= {min_bits})")
    if np.allclose(E, E[0]):
        raise HashFitError("no separating direction: all embeddings identical")
    n = len(E)
    counts = np.bincount(label_idx, minlength=k).astype(np.float64)
    onehot = (np.arange(k)[:, None] == label_idx[None, :]).astype(np.float64)
    subsets = _subset_matrix(k)

    rng = np.random.default_rng(seed)
    accepted = np.empty((n_bits, n))
    projections = np.empty((n_bits, E.shape[1]))
    thresholds = np.empty(n_bits)
    for b in range(n_bits):
        C = rng.standard_normal((candidates, E.shape[1]))
        norms = np.linalg.norm(C, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        C /= norms
        P = E @ C.T
        thr = np.median(P, axis=0)
        B = (P > thr).astype(np.float64)
        scores = _best_split_scores(onehot @ B, counts, subsets)
        order = np.lexsort((np.arange(candidates), -scores))
        A = accepted[:b]
        agreement = (A @ B + (1.0 - A) @ (1.0 - B)) / n
        passing = (agreement <= max_agreement).all(axis=0)[order]
        chosen = int(order[passing.argmax()]) if passing.any() else int(order[0])
        accepted[b] = B[:, chosen]
        projections[b] = C[chosen]
        thresholds[b] = thr[chosen]
    return HashFunction(projections=projections, thresholds=thresholds)


@dataclass(eq=False)
class CentroidTable:
    """bucket_id -> centroid code; ids dense from 0, codes pairwise distinct.

    The ``(id, bits)`` pairs that ``assign_bucket`` scans are built once, in
    id order, so the table must not change after it is built.
    """

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
        (self.width,) = widths
        self.bits_by_id = tuple((bid, self.codes[bid].bits) for bid in ids)
        seen = {}
        for bid, code in self.codes.items():
            if code.bits in seen:
                raise BucketCollisionError(
                    f"bucket collision; increase n_bits "
                    f"(buckets {seen[code.bits]} and {bid} share {code.to_hex()})"
                )
            seen[code.bits] = bid

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
    if code.width != table.width:
        raise HashError(f"width mismatch: {code.width} vs {table.width}")
    bits = code.bits
    best_id = -1
    best_d = code.width + 1
    for bid, centroid_bits in table.bits_by_id:
        d = (bits ^ centroid_bits).bit_count()
        if d < best_d:
            best_d = d
            best_id = bid
    return best_id


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
    if not (np.isfinite(proj).all() and np.isfinite(thr).all()):
        raise HashError(f"hash file {path} holds a non-finite projection or threshold")
    return HashFunction(projections=proj.copy(), thresholds=thr.copy())
