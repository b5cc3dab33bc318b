"""Acquisition scoring, clustering, selection, and the rotation pretext."""

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
            ac.kmeans(np.zeros((3, 2)), k=4)

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

    def test_diversity_distances_match_brute_force(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(20, 3))
        c = rng.normal(size=(4, 3))
        got = ac.diversity_distances(x, c)
        want = np.array([min(np.linalg.norm(p - cj) for cj in c) for p in x])
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestScoring:
    def test_a3_score_arithmetic(self):
        assert ac.a3_score(0.5, 2.0, beta=1.0) == pytest.approx(1.5)

    def test_beta_zero_is_pure_diversity_ranking(self):
        rng = np.random.default_rng(13)
        u = rng.random(10)
        d = rng.random(10)
        recs = ac.score_pool(range(10), u, d, mode="hybrid", beta=0.0)
        order = [r.sample_index for r in
                 sorted(recs, key=lambda r: (-r.a3_score, r.sample_index))]
        assert order == list(np.argsort(-d, kind="stable"))

    def test_diversity_translation_keeps_ranking(self):
        rng = np.random.default_rng(14)
        u = rng.random(8)
        d = rng.random(8)
        base = ac.score_pool(range(8), u, d, beta=1.0)
        moved = ac.score_pool(range(8), u, d + 3.25, beta=1.0)
        key = lambda recs: [r.sample_index for r in
                            sorted(recs, key=lambda r: (-r.a3_score,
                                                        r.sample_index))]
        assert key(base) == key(moved)

    def test_uncertainty_scaling_with_inverse_beta_keeps_ranking(self):
        rng = np.random.default_rng(15)
        u = rng.random(8)
        d = np.zeros(8)
        key = lambda recs: [r.sample_index for r in
                            sorted(recs, key=lambda r: (-r.a3_score,
                                                        r.sample_index))]
        base = ac.score_pool(range(8), u, d, beta=2.0)
        scaled = ac.score_pool(range(8), u * 5.0, d, beta=2.0 / 5.0)
        assert key(base) == key(scaled)

    def test_uncertainty_mode_prefers_least_uncertain(self):
        u = np.array([0.9, 0.1, 0.5])
        d = np.array([0.0, 0.0, 0.0])
        recs = ac.score_pool(range(3), u, d, mode="uncertainty")
        order = [r.sample_index for r in
                 sorted(recs, key=lambda r: (-r.a3_score, r.sample_index))]
        assert order == [1, 2, 0]

    def test_random_mode_is_seeded(self):
        u = np.zeros(6)
        d = np.zeros(6)
        a = ac.score_pool(range(6), u, d, mode="random", seed=3)
        b = ac.score_pool(range(6), u, d, mode="random", seed=3)
        c = ac.score_pool(range(6), u, d, mode="random", seed=4)
        assert [r.a3_score for r in a] == [r.a3_score for r in b]
        assert [r.a3_score for r in a] != [r.a3_score for r in c]

    def test_invalid_mode_and_negative_fields(self):
        with pytest.raises(ConfigError):
            ac.score_pool([0], [0.0], [0.0], mode="entropy")
        with pytest.raises(ContractError):
            ac.AcquisitionRecord(0, -0.1, 0.0, 0.0)
        with pytest.raises(ContractError):
            ac.AcquisitionRecord(0, 0.1, -1.0, 0.0)


def records_from_scores(scores):
    return [ac.AcquisitionRecord(i, 0.0, 0.0, s) for i, s in enumerate(scores)]


class TestPartition:
    def test_single_batch_is_full_sorted_pool(self):
        recs = records_from_scores([0.2, 0.9, 0.5])
        part = ac.partition_pool(recs, n=1)
        assert part.batches == [[1, 2, 0]]

    def test_ten_records_into_four_batches(self):
        recs = records_from_scores(list(np.linspace(1.0, 0.1, 10)))
        part = ac.partition_pool(recs, n=4)
        assert [len(b) for b in part.batches] == [3, 3, 2, 2]
        flat = [i for b in part.batches for i in b]
        assert flat == list(range(10))

    def test_equal_scores_fall_back_to_index_order(self):
        recs = records_from_scores([0.5] * 7)
        part = ac.partition_pool(recs, n=3)
        flat = [i for b in part.batches for i in b]
        assert flat == list(range(7))

    def test_descending_concatenated_order(self):
        rng = np.random.default_rng(16)
        recs = records_from_scores(list(rng.random(23)))
        part = ac.partition_pool(recs, n=5)
        by_index = {r.sample_index: r.a3_score for r in recs}
        flat_scores = [by_index[i] for b in part.batches for i in b]
        assert all(a >= b for a, b in zip(flat_scores, flat_scores[1:]))

    def test_oversized_partition_rejected(self):
        with pytest.raises(ConfigError):
            ac.partition_pool(records_from_scores([1.0, 2.0]), n=3)
        with pytest.raises(ContractError):
            ac.partition_pool([], n=1)


class TestSelectTopk:
    def test_full_batch_appended_in_score_order(self):
        recs = records_from_scores([0.1, 0.9, 0.4])
        core = ac.select_topk(recs, ac.CoreSet(budget_total=10), k=3)
        assert core.selected == [1, 2, 0]
        assert core.budget_used == 3

    def test_k_zero_is_noop(self):
        recs = records_from_scores([0.3])
        core = ac.CoreSet(selected=[5], budget_total=4, budget_used=1)
        out = ac.select_topk(recs, core, k=0)
        assert out.selected == [5] and out.budget_used == 1

    def test_split_selection_equals_single_call(self):
        rng = np.random.default_rng(17)
        recs = records_from_scores(list(rng.random(9)))
        single = ac.select_topk(recs, ac.CoreSet(budget_total=5), k=5)
        first = ac.select_topk(recs, ac.CoreSet(budget_total=5), k=2)
        chosen = set(first.selected)
        remaining = [r for r in recs if r.sample_index not in chosen]
        both = ac.select_topk(remaining, first, k=3)
        assert both.selected == single.selected

    def test_budget_exhaustion_raises(self):
        recs = records_from_scores([0.1, 0.2, 0.3])
        core = ac.CoreSet(selected=[9, 8], budget_total=3, budget_used=2)
        with pytest.raises(BudgetError):
            ac.select_topk(recs, core, k=2)

    def test_duplicate_index_raises(self):
        recs = records_from_scores([0.1, 0.2])
        core = ac.CoreSet(selected=[1], budget_total=5, budget_used=1)
        with pytest.raises(ContractError):
            ac.select_topk(recs, core, k=1)

    def test_conservation_over_all_batches(self):
        rng = np.random.default_rng(18)
        recs = records_from_scores(list(rng.random(12)))
        part = ac.partition_pool(recs, n=4)
        by_idx = {r.sample_index: r for r in recs}
        core = ac.CoreSet(budget_total=12)
        for batch in part.batches:
            core = ac.select_topk([by_idx[i] for i in batch], core, k=len(batch))
        assert sorted(core.selected) == list(range(12))
        assert core.budget_used == 12


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
        xs, ys = ac.build_rotation_pool(pool, seed=0)
        assert xs.shape == (24, 16) and ys.shape == (24,)
        assert sorted(ys.tolist()) == sorted(list(range(4)) * 6)
        for xi, yi in zip(xs[:8], ys[:8]):
            candidates = [rotate_flat(p, int(yi)) for p in pool]
            assert any(np.array_equal(xi, c) for c in candidates)

    def test_deterministic_and_seed_sensitive(self):
        rng = np.random.default_rng(21)
        pool = rng.random((5, 16))
        a = ac.build_rotation_pool(pool, seed=3)
        b = ac.build_rotation_pool(pool, seed=3)
        c = ac.build_rotation_pool(pool, seed=4)
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
                xs, ys = ac.build_rotation_pool(pool, seed)
                want_x, want_y = rotation_pool_reference(pool, seed)
                assert np.array_equal(xs, want_x)
                assert np.array_equal(ys, want_y) and ys.dtype == np.int64


class TestCoresetIo:
    def test_writes_header_then_one_index_per_line(self, tmp_path):
        core = ac.CoreSet(selected=[4, 1, 9], budget_total=12, budget_used=3,
                          stage=2)
        path = tmp_path / "core.txt"
        ac.save_coreset(path, core)
        assert path.read_bytes() == (
            b"# a3-coreset v1 stage=2 budget=12\n4\n1\n9\n")
