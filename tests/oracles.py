"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the eigensolver is a
hand-rolled cyclic Jacobi sweep (not numpy.linalg), the covariance PCA is
the textbook D x D route with no Gram matrix or QR, average precision is
recomputed directly from its textbook definition, an evaluation report
is rescored case by case from each query's gated result, the calibrated
threshold is a mean over explicitly enumerated pairs, a cosine distance is
one dot product over two norms, a signature's bits are read byte by byte,
a signature is the L2 distance to every centroid at once, as
`np.linalg.norm` computes it, and a reconstruction is the textbook
mean + basisᵀy.
"""

import numpy as np


def jacobi_eigh(A, tol=1e-12, max_sweeps=100):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors-as-columns), descending order.
    """
    A = np.array(A, dtype=np.float64)
    n = A.shape[0]
    V = np.eye(n)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(A[p, q]))
                if abs(A[p, q]) < tol:
                    continue
                theta = (A[q, q] - A[p, p]) / (2 * A[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1))
                if theta == 0:
                    t = 1.0
                c = 1 / np.sqrt(t * t + 1)
                s = t * c
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
                V = V @ J
        if off < tol:
            break
    vals = np.diag(A).copy()
    order = np.argsort(vals)[::-1]
    return vals[order], V[:, order]


def covariance_pca(samples, target_dim):
    """(mean, basis rows, eigenvalues) of the top target_dim principal
    components: numpy's eigh of the D x D sample covariance, descending
    order, each component's largest-magnitude entry made positive, negative
    rounding noise in the eigenvalues clipped to 0."""
    X = np.asarray(samples, dtype=np.float64)
    mean = X.mean(axis=0)
    centered = X - mean
    vals, vecs = np.linalg.eigh(centered.T @ centered / (len(X) - 1))
    order = np.argsort(vals)[::-1][:target_dim]
    basis = vecs[:, order].T.copy()
    for row in basis:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return mean, basis, np.clip(vals[order], 0.0, None)


def average_precision_oracle(ranked_ids, relevant_ids):
    """AP straight from the definition: mean over relevant items of the
    precision at that item's rank (0 for relevant items never ranked)."""
    relevant = set(relevant_ids)
    precisions = []
    seen_relevant = 0
    for rank, rid in enumerate(ranked_ids, start=1):
        if rid in relevant:
            seen_relevant += 1
            precisions.append(seen_relevant / rank)
    missing = len(relevant) - seen_relevant
    precisions.extend([0.0] * missing)
    return sum(precisions) / len(relevant)


def evaluation_oracle(queries, results, indexed):
    """An evaluation report's fields, timing aside, from each query's
    `gated_query` result and the (id, label) pairs of the index, by four
    cases: a rejected query of an indexed label scores AP 0.0, a passed one
    the AP of its ranking; a distractor (a label not indexed) scores None
    and counts as a correct rejection if rejected, a false positive if not."""
    relevant = {}
    for rid, label in indexed:
        relevant.setdefault(label, []).append(rid)
    aps = []
    rejections = correct_rejections = false_positives = 0
    for q, res in zip(queries, results):
        if res.rejected:
            rejections += 1
            if q.label in relevant:
                aps.append(0.0)
            else:
                correct_rejections += 1
                aps.append(None)
        elif q.label in relevant:
            ranked = [rid for rid, _ in res.results]
            aps.append(average_precision_oracle(ranked, relevant[q.label]))
        else:
            false_positives += 1
            aps.append(None)
    included = [a for a in aps if a is not None]
    return {
        "query_ids": [q.id for q in queries],
        "average_precisions": aps,
        "mean_average_precision": sum(included) / len(included) if included else None,
        "bloom_rejections": rejections,
        "correct_rejections": correct_rejections,
        "bloom_false_positives": false_positives,
    }


def mean_same_class_cosine_distance(labels, rows):
    """Mean cosine distance over every unordered pair of rows sharing a
    label, each pair computed on its own from the raw vectors."""
    by_label = {}
    for label, row in zip(labels, rows):
        by_label.setdefault(label, []).append(np.asarray(row, dtype=np.float64))
    total = 0.0
    pairs = 0
    for group in by_label.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                total += cosine_distance(group[i], group[j])
                pairs += 1
    return total / pairs


def cosine_distance(a, b):
    """1 - cos(a, b) of two raw vectors, neither normalized first."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return 1.0 - np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))


def signature_bits(sig):
    """A signature's bits as a list of bools: bit i at byte i // 8, bit
    position i % 8, least significant first."""
    return [bool((sig.data[i // 8] >> (i % 8)) & 1) for i in range(sig.width)]


def reference_signature(centroids, threshold, x):
    """Signature bytes straight from the definition: bit i set iff
    `np.linalg.norm(C - x, axis=1)[i] < threshold`, over the whole float64
    centroid matrix, packed LSB first."""
    C = np.asarray(centroids, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    bits = np.linalg.norm(C - x, axis=1) < threshold
    return np.packbits(bits, bitorder="little").tobytes()


def reconstruct(model, y):
    """mean + basisᵀy: the inverse of projection on the retained subspace."""
    return model.mean + model.basis.T @ np.asarray(y, dtype=np.float64)
