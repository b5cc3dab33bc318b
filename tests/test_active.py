"""Acquisition scoring, clustering, ranking, the core-set, and the rotation
pretext."""

import numpy as np
import pytest

from a3 import active as ac
from a3 import autodiff as ad
from a3 import models
from a3.errors import BudgetError, ConfigError, ContractError, ShapeError
from a3.models import (init_encoder, init_rotation_classifier,
                       rotation_predict)


def entropy_oracle(rows):
    rows = np.asarray(rows, dtype=np.float64)
    out = np.zeros(rows.shape[:-1])
    for idx in np.ndindex(rows.shape[:-1]):
        acc = 0.0
        for v in rows[idx]:
            if v > 0.0:
                acc -= v * np.log(v)
        out[idx] = acc
    return out


def make_rotation_model(seed=0, side=4, dropout=0.25):
    rng = np.random.default_rng(seed)
    trunk = init_encoder(rng, side * side, widths=(10,), embed_dim=6)
    return init_rotation_classifier(rng, trunk, dropout_rate=dropout)


# Reference implementations: the straightforward forms of scoring, kept
# here so that the optimized code can be compared with them bit for bit.

def kmeans_reference(embeddings, k, max_iter=100, seed=0):
    """Lloyd's loop with the exact (N, k, p) difference-array assignment."""
    x = np.asarray(embeddings, dtype=np.float64)
    n = x.shape[0]
    w = np.ones(n)
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.choice(n, p=w / w.sum())]
    d2 = ac._sq_dists(x, centroids[:1]).min(axis=1)
    for j in range(1, k):
        mass = d2 * w
        total = mass.sum()
        if total > 0.0:
            centroids[j] = x[rng.choice(n, p=mass / total)]
        else:
            centroids[j] = x[rng.choice(n, p=w / w.sum())]
        d2 = np.minimum(d2, ac._sq_dists(x, centroids[j:j + 1]).min(axis=1))
    assignment = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        new_assignment = ac._sq_dists(x, centroids).argmin(axis=1)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for j in range(k):
            members = assignment == j
            mass = w[members].sum()
            if mass > 0.0:
                centroids[j] = (x[members] * w[members, None]).sum(axis=0) / mass
    inertia = float((ac._sq_dists(x, centroids).min(axis=1) * w).sum())
    return centroids, assignment, inertia


def mc_dropout_reference(rot_model, x, t_passes, seed):
    """T full rotation_predict passes, the trunk encoded in each."""
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    keep = 1.0 - rot_model.dropout_rate
    b, p = x.shape[0], rot_model.trunk.embed_dim
    out = np.empty((b, t_passes, 4))
    with ad.no_grad():
        for t in range(t_passes):
            if rot_model.dropout_rate == 0.0:
                mask = np.ones((b, p))
            else:
                mask = (rng.random((b, p)) < keep).astype(np.float64) / keep
            out[:, t, :] = rotation_predict(rot_model, x, mask=mask).data
    return out


def rotate_flat(x_flat, quarter_turns):
    """Lossless 90-degree-multiple rotation of one flattened square image."""
    side = ac._square_side(x_flat.shape[-1])
    grid = x_flat.reshape(side, side)
    return np.ascontiguousarray(np.rot90(grid, quarter_turns)).reshape(-1)


def rotation_pool_reference(target_pool, seed):
    """4N rotate_flat calls in image-major order, then one shuffle."""
    x = np.asarray(target_pool, dtype=np.float64)
    n = x.shape[0]
    xs = np.empty((4 * n, x.shape[1]))
    ys = np.empty(4 * n, dtype=np.int64)
    at = 0
    for i in range(n):
        for j in range(4):
            xs[at] = rotate_flat(x[i], j)
            ys[at] = j
            at += 1
    order = np.random.default_rng(seed).permutation(4 * n)
    return xs[order], ys[order]


def gather_checked(pool, seed):
    """build_rotation_pool(pool, seed) gathered: all 4N rows at once, after
    a shuffled 64-row chunk and the last row gather the reference's bytes."""
    rows, ys = ac.build_rotation_pool(pool, seed)
    want_x, _ = rotation_pool_reference(pool, seed)
    n = ys.shape[0]
    chunk = np.random.default_rng(seed).permutation(n)[:64]
    for m in (chunk, np.array([n - 1])):
        got = rows(m)
        assert got.shape == (m.shape[0], pool.shape[1])
        assert got.tobytes() == want_x[m].tobytes()
    return rows(np.arange(n)), ys


def sq_dists_reference(x, centroids):
    """The one-shot (N, k, p) difference array that `_sq_dists` blocks."""
    diff = x[:, None, :] - centroids[None, :, :]
    return np.einsum("nkp,nkp->nk", diff, diff)


def grid_points(side, dims=2):
    """Integer lattice points: many rows tie exactly between centroids."""
    axes = np.meshgrid(*[np.arange(side, dtype=np.float64)] * dims,
                       indexing="ij")
    return np.stack([a.reshape(-1) for a in axes], axis=1)


def kmeans_inputs():
    """(name, embeddings, k) cases: random, duplicated, tied, unit-norm."""
    rng = np.random.default_rng(30)
    gauss = rng.normal(size=(300, 32))
    unit = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
    dup = np.repeat(rng.normal(size=(40, 5)), 3, axis=0)
    grid = grid_points(7)
    return [
        ("gauss", gauss, 32), ("gauss_k1", gauss, 1),
        ("unit", unit, 16), ("unit_large", rng.normal(size=(1200, 32))
                             / np.sqrt(32.0), 32),
        ("duplicated", dup, 8), ("duplicated_k_n", dup[:12], 12),
        ("grid", grid, 4), ("grid_k9", grid, 9), ("grid_k_n", grid[:10], 10),
        ("scaled", rng.normal(size=(200, 3)) * 1e6, 5),
    ]


class TestMcDropout:
    def test_stack_shape_and_rows_sum_to_one(self):
        rot = make_rotation_model()
        rng = np.random.default_rng(1)
        stack = ac.mc_dropout_probs(rot, rng.random((5, 16)), t_passes=4, seed=2)
        assert stack.shape == (5, 4, 4)
        np.testing.assert_allclose(stack.sum(axis=2), 1.0, atol=1e-9)

    def test_zero_rate_collapses_posterior(self):
        rot = make_rotation_model(dropout=0.0)
        rng = np.random.default_rng(3)
        stack = ac.mc_dropout_probs(rot, rng.random((3, 16)), t_passes=5, seed=4)
        for b in range(3):
            assert np.all(stack[b] == stack[b, 0])
            assert ac.bald_mutual_info(stack[b]) == 0.0

    def test_deterministic_given_seed(self):
        rot = make_rotation_model()
        rng = np.random.default_rng(5)
        x = rng.random((4, 16))
        a = ac.mc_dropout_probs(rot, x, t_passes=6, seed=9)
        b = ac.mc_dropout_probs(rot, x, t_passes=6, seed=9)
        assert np.array_equal(a, b)
        c = ac.mc_dropout_probs(rot, x, t_passes=6, seed=10)
        assert not np.array_equal(a, c)

    def test_records_nothing_on_the_tape(self, monkeypatch):
        rot = make_rotation_model()
        x = np.random.default_rng(6).random((3, 16))
        built = []
        real_init = ad.Node.__init__

        def counting_init(node, op, *rest):
            built.append(op)
            real_init(node, op, *rest)

        monkeypatch.setattr(ad.Node, "__init__", counting_init)
        ac.mc_dropout_probs(rot, x, t_passes=3, seed=1)
        assert built == []
        ad.tsum(ad.mul(rot.head_w, 2.0))  # recorded ops do reach the probe
        assert built == ["mul", "sum"]

    def test_single_pass_rejected(self):
        rot = make_rotation_model()
        with pytest.raises(ConfigError):
            ac.mc_dropout_probs(rot, np.zeros((2, 16)), t_passes=1, seed=0)

    @pytest.mark.parametrize("dropout", [0.0, 0.25])
    @pytest.mark.parametrize("t_passes", [2, 6, 16])
    def test_equals_per_pass_reference(self, t_passes, dropout):
        for seed in range(3):
            rot = make_rotation_model(seed=seed, dropout=dropout)
            x = np.random.default_rng(40 + seed).random((23, 16))
            assert np.array_equal(
                ac.mc_dropout_probs(rot, x, t_passes, seed),
                mc_dropout_reference(rot, x, t_passes, seed))

    def test_default_shape_equals_per_pass_reference(self):
        rng = np.random.default_rng(41)
        trunk = init_encoder(rng, 256, (128, 128), 32)
        rot = init_rotation_classifier(rng, trunk, dropout_rate=0.25)
        x = rng.random((300, 256))
        assert np.array_equal(ac.mc_dropout_probs(rot, x, 16, seed=5),
                              mc_dropout_reference(rot, x, 16, seed=5))

    def test_trunk_encoded_once(self, monkeypatch):
        rot = make_rotation_model()
        calls = []
        encode = models.encode
        monkeypatch.setattr(models, "encode",
                            lambda *a, **kw: calls.append(1) or encode(*a, **kw))
        ac.mc_dropout_probs(rot, np.zeros((4, 16)), t_passes=6, seed=0)
        assert len(calls) == 1


class TestBald:
    def test_identical_rows_give_exact_zero(self):
        row = np.array([0.7, 0.1, 0.1, 0.1])
        assert ac.bald_mutual_info(np.tile(row, (6, 1))) == 0.0

    def test_maximal_disagreement_two_classes(self):
        stack = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert ac.bald_mutual_info(stack) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            t, k = int(rng.integers(2, 9)), int(rng.integers(2, 6))
            logits = rng.normal(size=(t, k)) * 2.0
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            got = ac.bald_mutual_info(p)
            want = entropy_oracle(p.mean(axis=0)) - entropy_oracle(p).mean()
            assert got == pytest.approx(float(want), abs=1e-10)

    def test_bounded_for_four_classes(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4), size=10)
            mi = ac.bald_mutual_info(p)
            assert 0.0 <= mi <= np.log(4.0) + 1e-12

    def test_non_matrix_rejected(self):
        with pytest.raises(ShapeError):
            ac.bald_mutual_info(np.ones(4))


class TestKmeans:
    def test_exact_cover_when_n_equals_k(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 3)) * 4.0
        centroids, assignment, inertia = ac.kmeans(x, k=5, seed=0)
        assert inertia == pytest.approx(0.0, abs=1e-18)
        assert sorted(map(tuple, centroids)) == sorted(map(tuple, x))
        assert len(set(assignment.tolist())) == 5

    def test_two_blob_centroids_near_means(self):
        rng = np.random.default_rng(9)
        blob_a = rng.normal([3.0, 0.0], 0.01, size=(40, 2))
        blob_b = rng.normal([-3.0, 0.0], 0.01, size=(40, 2))
        x = np.vstack([blob_a, blob_b])
        centroids, _, _ = ac.kmeans(x, k=2, seed=1)
        means = np.array([blob_a.mean(axis=0), blob_b.mean(axis=0)])
        for m in means:
            assert np.min(np.linalg.norm(centroids - m, axis=1)) < 0.05

    def test_inertia_non_increasing_with_iterations(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(60, 4))
        _, _, coarse = ac.kmeans(x, k=6, max_iter=1, seed=2)
        _, _, fine = ac.kmeans(x, k=6, max_iter=100, seed=2)
        assert fine <= coarse + 1e-12

    def test_too_few_points_rejected(self):
        with pytest.raises(ContractError):
            ac.kmeans(np.zeros((3, 2)), k=4, seed=0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 3))
        a = ac.kmeans(x, k=4, seed=7)
        b = ac.kmeans(x, k=4, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("name,x,k", kmeans_inputs(),
                             ids=[c[0] for c in kmeans_inputs()])
    def test_equals_exact_lloyd_reference(self, name, x, k):
        for seed in range(3):
            got = ac.kmeans(x, k, seed=seed)
            want = kmeans_reference(x, k, seed=seed)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert got[2] == want[2]

    @pytest.mark.parametrize("name,x,k", kmeans_inputs(),
                             ids=[c[0] for c in kmeans_inputs()])
    def test_nearest_equals_exact_argmin(self, name, x, k):
        rng = np.random.default_rng(31)
        for _ in range(3):
            for c in (x[rng.choice(x.shape[0], k, replace=False)],
                      rng.normal(size=(k, x.shape[1])) * x.std()):
                assert np.array_equal(ac._nearest(x, c),
                                      ac._sq_dists(x, c).argmin(axis=1))

    def test_tied_rows_take_the_exact_form(self, monkeypatch):
        x = grid_points(7)
        c = x[[0, 2, 14, 16]]
        exact = ac._sq_dists(x, c).argmin(axis=1)
        fallback_rows = []
        sq_dists = ac._sq_dists
        monkeypatch.setattr(
            ac, "_sq_dists",
            lambda a, b: fallback_rows.append(a.shape[0]) or sq_dists(a, b))
        assert np.array_equal(ac._nearest(x, c), exact)
        assert len(fallback_rows) == 1 and 0 < fallback_rows[0] < x.shape[0]

    def test_nan_rows_take_the_exact_form(self, monkeypatch):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(20, 4))
        x[3, 1] = np.nan
        c = rng.normal(size=(5, 4))
        exact = ac._sq_dists(x, c).argmin(axis=1)
        fallback = []
        sq_dists = ac._sq_dists
        monkeypatch.setattr(
            ac, "_sq_dists", lambda a, b: fallback.append(a) or sq_dists(a, b))
        assert np.array_equal(ac._nearest(x, c), exact)
        assert np.isnan(np.concatenate(fallback)).any()

    @pytest.mark.parametrize("k,p", [(1, 32), (32, 32), (5, 7), (3, 300)])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_blocked_sq_dists_equal_one_shot_einsum(self, k, p, scale):
        rng = np.random.default_rng(33)
        block = max(1, ac._DIST_BLOCK // (k * p))
        c = rng.normal(size=(k + 2, p)) * scale
        for n in (1, block - 1, block, block + 1, 2 * block + 3):
            x = rng.normal(size=(max(n, 1), p)) * scale
            cases = [(x, c[:k]), (x, c[1:k + 1]),
                     (x, c[k:k + 1]),  # the k-means++ view of one centroid
                     (x[x[:, 0] > 0.0], c[:k])]  # `_nearest`'s row subset
            for a, b in cases:
                got = ac._sq_dists(a, b)
                want = sq_dists_reference(a, b)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_diversity_distances_match_brute_force(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(20, 3))
        c = rng.normal(size=(4, 3))
        got = ac.diversity_distances(x, c)
        want = np.array([min(np.linalg.norm(p - cj) for cj in c) for p in x])
        np.testing.assert_allclose(got, want, atol=1e-12)


def rank(scores, indices=None):
    """rank_pool under hybrid scoring with beta 0, where the score of each
    row is its diversity."""
    indices = range(len(scores)) if indices is None else indices
    return ac.rank_pool(indices, np.zeros(len(scores)), scores, "hybrid",
                        0.0, 0).tolist()


def select_reference(indices, scores, n, c, k):
    """The first k rows of batch c, the plain-Python way: sort the pool by
    (-score, index), cut it into n batches of near-equal size, larger
    batches first, sort batch c again by the same key and take its first
    k."""
    key = lambda row: (-row[1], row[0])
    ordered = sorted(zip(indices, scores), key=key)
    base, extra = divmod(len(ordered), n)
    at = 0
    for j in range(c + 1):
        size = base + (1 if j < extra else 0)
        batch = ordered[at:at + size]
        at += size
    return [i for i, _ in sorted(batch, key=key)[:k]]


class TestScoring:
    def test_a3_score_arithmetic(self):
        u = np.array([0.5, 0.0])
        assert ac.rank_pool([0, 1], u, [2.0, 1.4], "hybrid", 1.0, 0).tolist() \
            == [0, 1]  # 1.5 > 1.4
        assert ac.rank_pool([0, 1], u, [2.0, 1.6], "hybrid", 1.0, 0).tolist() \
            == [1, 0]  # 1.5 < 1.6

    def test_beta_zero_is_pure_diversity_ranking(self):
        rng = np.random.default_rng(13)
        u = rng.random(10)
        d = rng.random(10)
        order = ac.rank_pool(range(10), u, d, "hybrid", 0.0, 0)
        assert order.tolist() == list(np.argsort(-d, kind="stable"))

    def test_diversity_translation_keeps_ranking(self):
        rng = np.random.default_rng(14)
        u = rng.random(8)
        d = rng.random(8)
        base = ac.rank_pool(range(8), u, d, "hybrid", 1.0, 0)
        moved = ac.rank_pool(range(8), u, d + 3.25, "hybrid", 1.0, 0)
        assert base.tolist() == moved.tolist()

    def test_uncertainty_scaling_with_inverse_beta_keeps_ranking(self):
        rng = np.random.default_rng(15)
        u = rng.random(8)
        d = np.zeros(8)
        base = ac.rank_pool(range(8), u, d, "hybrid", 2.0, 0)
        scaled = ac.rank_pool(range(8), u * 5.0, d, "hybrid", 2.0 / 5.0, 0)
        assert base.tolist() == scaled.tolist()

    def test_uncertainty_mode_prefers_least_uncertain(self):
        u = np.array([0.9, 0.1, 0.5])
        d = np.array([0.0, 0.0, 0.0])
        order = ac.rank_pool(range(3), u, d, "uncertainty", 1.0, 0)
        assert order.tolist() == [1, 2, 0]

    def test_random_mode_is_seeded(self):
        u = np.zeros(6)
        d = np.zeros(6)
        a = ac.rank_pool(range(6), u, d, "random", 1.0, 3)
        b = ac.rank_pool(range(6), u, d, "random", 1.0, 3)
        c = ac.rank_pool(range(6), u, d, "random", 1.0, 4)
        want = np.argsort(-np.random.default_rng(3).random(6), kind="stable")
        assert a.tolist() == b.tolist() == want.tolist()
        assert a.tolist() != c.tolist()

    def test_invalid_mode_and_negative_fields(self):
        with pytest.raises(ConfigError):
            ac.rank_pool([0], [0.0], [0.0], "entropy", 1.0, 0)
        with pytest.raises(ConfigError):
            ac.rank_pool([0], [0.0], [0.0], "hybrid", -1.0, 0)
        with pytest.raises(ContractError):
            ac.rank_pool([0], [-0.1], [0.0], "hybrid", 1.0, 0)
        with pytest.raises(ContractError):
            ac.rank_pool([0], [0.1], [-1.0], "hybrid", 1.0, 0)
        with pytest.raises(ShapeError):
            ac.rank_pool([0, 1], [0.1], [1.0], "hybrid", 1.0, 0)


class TestPartition:
    """A static partition is np.array_split of one ranking."""

    def test_single_batch_is_full_sorted_pool(self):
        batches = np.array_split(rank([0.2, 0.9, 0.5]), 1)
        assert [b.tolist() for b in batches] == [[1, 2, 0]]

    def test_ten_records_into_four_batches(self):
        batches = np.array_split(rank(np.linspace(1.0, 0.1, 10)), 4)
        assert [len(b) for b in batches] == [3, 3, 2, 2]
        assert np.concatenate(batches).tolist() == list(range(10))

    def test_equal_scores_fall_back_to_index_order(self):
        assert rank([0.5] * 7, indices=[6, 2, 4, 0, 5, 1, 3]) == list(range(7))

    def test_descending_concatenated_order(self):
        rng = np.random.default_rng(16)
        scores = rng.random(23)
        flat = np.concatenate(np.array_split(rank(scores), 5))
        assert np.all(np.diff(scores[flat]) <= 0.0)

    @pytest.mark.parametrize("mode", ac.SCORING_MODES)
    def test_batch_prefix_equals_sort_partition_resort_reference(self, mode):
        rng = np.random.default_rng(23)
        for _ in range(5):
            n_pool = int(rng.integers(6, 20))
            indices = rng.permutation(3 * n_pool)[:n_pool]
            # a few distinct values, so that many scores tie exactly
            u = rng.integers(0, 3, n_pool) / 8.0
            d = rng.integers(0, 4, n_pool) / 4.0
            if mode == "hybrid":
                scores = [float(di) - 1.0 * float(ui) for ui, di in zip(u, d)]
            elif mode == "uncertainty":
                scores = [-float(ui) for ui in u]
            else:
                scores = list(np.random.default_rng(5).random(n_pool))
            ranked = ac.rank_pool(indices, u, d, mode, 1.0, 5)
            for n in range(1, 7):
                batches = np.array_split(ranked, n)
                for c, batch in enumerate(batches):
                    for k in range(len(batch) + 1):
                        assert batch[:k].tolist() == select_reference(
                            indices.tolist(), scores, n, c, k), (n, c, k)


def grow(core, indices):
    """The core-set with indices appended, as adapt grows it."""
    return ac.CoreSet(core.selected + list(indices), core.budget_total,
                      core.stage)


class TestSelectTopk:
    """A cycle appends the first k of its batch to the core-set."""

    def test_full_batch_appended_in_score_order(self):
        core = grow(ac.CoreSet([], 10, 0), rank([0.1, 0.9, 0.4])[:3])
        assert core.selected == [1, 2, 0]

    def test_k_zero_is_noop(self):
        core = grow(ac.CoreSet([5], 4, 0), rank([0.3])[:0])
        assert core.selected == [5]

    def test_split_selection_equals_single_call(self):
        rng = np.random.default_rng(17)
        scores = rng.random(9)
        single = grow(ac.CoreSet([], 5, 0), rank(scores)[:5])
        first = grow(ac.CoreSet([], 5, 0), rank(scores)[:2])
        remaining = [i for i in range(9) if i not in first.selected]
        both = grow(first, rank(scores[remaining], remaining)[:3])
        assert both.selected == single.selected

    def test_budget_exhaustion_raises(self):
        with pytest.raises(BudgetError):
            grow(ac.CoreSet([9, 8], 3, 0), rank([0.1, 0.2, 0.3])[:2])

    def test_duplicate_index_raises(self):
        with pytest.raises(ContractError):
            grow(ac.CoreSet([1], 5, 0), rank([0.1, 0.2])[:1])

    def test_conservation_over_all_batches(self):
        rng = np.random.default_rng(18)
        core = ac.CoreSet([], 12, 0)
        for batch in np.array_split(rank(rng.random(12)), 4):
            core = grow(core, batch.tolist())
        assert sorted(core.selected) == list(range(12))
        assert len(core.selected) == 12


class TestRotationPool:
    def test_group_identity_and_inverse(self):
        rng = np.random.default_rng(19)
        x = rng.random(16)
        assert np.array_equal(rotate_flat(x, 0), x)
        once = rotate_flat(x, 1)
        assert np.array_equal(rotate_flat(once, 3), x)

    def test_l_pattern_rotations_pairwise_distinct(self):
        grid = np.zeros((4, 4))
        grid[0:3, 0] = 1.0
        grid[2, 0:2] = 1.0
        flat = grid.reshape(-1)
        rots = [rotate_flat(flat, j).tobytes() for j in range(4)]
        assert len(set(rots)) == 4

    def test_pool_size_labels_and_content(self):
        rng = np.random.default_rng(20)
        pool = rng.random((6, 16))
        xs, ys = gather_checked(pool, seed=0)
        assert xs.shape == (24, 16) and ys.shape == (24,)
        assert sorted(ys.tolist()) == sorted(list(range(4)) * 6)
        for xi, yi in zip(xs[:8], ys[:8]):
            candidates = [rotate_flat(p, int(yi)) for p in pool]
            assert any(np.array_equal(xi, c) for c in candidates)

    def test_deterministic_and_seed_sensitive(self):
        rng = np.random.default_rng(21)
        pool = rng.random((5, 16))
        a = gather_checked(pool, seed=3)
        b = gather_checked(pool, seed=3)
        c = gather_checked(pool, seed=4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], c[0])

    def test_non_square_rejected(self):
        with pytest.raises(ContractError):
            ac.build_rotation_pool(np.zeros((2, 15)), seed=0)

    def test_equals_rotate_flat_reference(self):
        rng = np.random.default_rng(22)
        for n, side in ((1, 4), (6, 4), (37, 16)):
            pool = rng.random((n, side * side))
            for seed in range(3):
                xs, ys = gather_checked(pool, seed)
                want_x, want_y = rotation_pool_reference(pool, seed)
                assert xs.shape == want_x.shape
                assert xs.tobytes() == want_x.tobytes()
                assert np.array_equal(ys, want_y) and ys.dtype == np.int64

    def test_strided_pool_and_signed_zero_keep_their_bytes(self):
        # a turn moves pixels, so -0.0 stays -0.0; a strided view of the
        # pool gathers what its contiguous copy does
        rng = np.random.default_rng(23)
        for side in (1, 2, 3, 8):
            wide = rng.random((7, 2 * side * side))
            wide[2, 0] = -0.0
            pool = wide[:, ::2]
            xs, _ = gather_checked(pool, seed=side)
            assert xs.tobytes() == gather_checked(
                np.ascontiguousarray(pool), seed=side)[0].tobytes()
            assert np.signbit(xs[xs == 0.0]).any()


class TestCoresetIo:
    def test_writes_header_then_one_index_per_line(self, tmp_path):
        core = ac.CoreSet(selected=[4, 1, 9], budget_total=12, stage=2)
        path = tmp_path / "core.txt"
        ac.save_coreset(path, core)
        assert path.read_bytes() == (
            b"# a3-coreset v1 stage=2 budget=12\n4\n1\n9\n")
