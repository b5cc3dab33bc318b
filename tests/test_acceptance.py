"""Acceptance gate: eight package-level checks, one test per criterion.

Every test prints a single `[criterion N] PASS/FAIL ...` line (visible
with `pytest -s`) and asserts the same condition. The end-to-end grid
behind criteria 6 and 7 (five seeds, five adaptation variants sharing
one source checkpoint per seed) runs once in a module fixture.
"""

import dataclasses
import time

import numpy as np
import pytest

from a3 import active, alignment as al, autodiff as ad, cli, data, models
from a3 import pipeline, ssl_swap as ssl
from a3.autodiff import Tensor
from a3.errors import BudgetError
from a3.models import DomainClassifierParams, Prototypes

from helpers import fd_grad, max_rel_err


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {n}: {detail}"


def _softmax_np(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Criterion 1: gradient integrity of every op and composite loss
# ---------------------------------------------------------------------------

def _fd_check(forward, inputs, rng, transform=None):
    """Max relative error between backprop and central finite differences.

    `transform` maps the numeric gradient onto the expected analytic one
    (used for the reversal channels, where backprop intentionally returns
    a scaled negation of the true derivative).
    """
    tens = [Tensor(a.copy(), requires_grad=True) for a in inputs]
    out = forward(*tens)
    w = rng.normal(size=out.shape)
    ad.backward(ad.tsum(ad.mul(out, Tensor(w))))
    worst = 0.0
    for i in range(len(inputs)):
        def value(x, i=i):
            args = [Tensor(x if j == i else inputs[j].copy())
                    for j in range(len(inputs))]
            return float(np.sum(forward(*args).data * w))

        num = fd_grad(value, inputs[i])
        if transform is not None:
            num = transform(num)
        worst = max(worst, max_rel_err(tens[i].grad, num))
    return worst


def _op_cases(rng):
    def pair():
        return [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]

    def away_from(vals, gap):
        return np.sign(vals) * (np.abs(vals) + gap)

    def dense_inputs():
        while True:  # keep every pre-activation away from the ReLU kink
            h, w, b = (rng.normal(size=(3, 4)), rng.normal(size=(4, 2)),
                       rng.normal(size=2))
            if np.min(np.abs(h @ w + b)) > 0.1:
                return [h, w, b]

    mask = (rng.random((3, 4)) > 0.3).astype(np.float64) / 0.7
    mixed = away_from(rng.uniform(-0.8, 0.8, size=(3, 4)), 0.15)
    mixed.reshape(-1)[::4] *= 2.0  # push some entries past the clamp bounds
    return [
        ("add", pair(), lambda a, b: ad.add(a, b), None),
        ("sub", pair(), lambda a, b: ad.sub(a, b), None),
        ("mul", pair(), lambda a, b: ad.mul(a, b), None),
        ("div", [rng.normal(size=(3, 4)),
                 away_from(rng.normal(size=(3, 4)), 0.5)],
         lambda a, b: ad.div(a, b), None),
        ("neg", [rng.normal(size=(3, 4))], ad.neg, None),
        ("add_bias", [rng.normal(size=(4, 3)), rng.normal(size=3)],
         lambda x, b: ad.add_bias(x, b), None),
        ("matmul", [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))],
         lambda a, b: ad.matmul(a, b), None),
        ("transpose", [rng.normal(size=(3, 4))], ad.transpose, None),
        ("relu", [away_from(rng.normal(size=(3, 4)), 0.1)], ad.relu, None),
        ("log", [rng.uniform(0.2, 2.2, size=(3, 4))], ad.log, None),
        ("exp", [rng.uniform(-1.5, 1.5, size=(3, 4))], ad.exp, None),
        ("sigmoid", [rng.uniform(-3.0, 3.0, size=(3, 4))], ad.sigmoid, None),
        ("softmax", [rng.normal(size=(3, 4))],
         lambda a: ad.softmax(a, axis=1), None),
        ("l2_normalize", [rng.normal(size=(3, 4))],
         lambda a: ad.l2_normalize(a, axis=1), None),
        ("tsum", [rng.normal(size=(3, 4))], lambda a: ad.tsum(a), None),
        ("tsum_axis", [rng.normal(size=(3, 4))],
         lambda a: ad.tsum(a, axis=1), None),
        ("tmean", [rng.normal(size=(3, 4))], lambda a: ad.tmean(a), None),
        ("tmean_axis", [rng.normal(size=(3, 4))],
         lambda a: ad.tmean(a, axis=0), None),
        ("concat", [rng.normal(size=(2, 3)), rng.normal(size=(3, 3))],
         lambda a, b: ad.concat([a, b], axis=0), None),
        ("tslice", [rng.normal(size=(3, 5))],
         lambda a: ad.tslice(a, axis=1, start=1, stop=4), None),
        ("reshape", [rng.normal(size=(3, 4))],
         lambda a: ad.reshape(a, (2, 6)), None),
        ("dropout", [rng.normal(size=(3, 4))],
         lambda a: ad.dropout(a, mask), None),
        ("clamp", [mixed], lambda a: ad.clamp(a, -1.0, 1.0), None),
        ("gradient_reversal", [rng.normal(size=(3, 4))],
         lambda a: ad.gradient_reversal(a, 1.3), lambda g: -1.3 * g),
        ("dense", dense_inputs(), ad.dense, None),
    ]


def _swap_errs(rng):
    b, k, p = 5, 3, 4
    za = rng.normal(size=(b, p))
    za /= np.linalg.norm(za, axis=1, keepdims=True)
    zb = rng.normal(size=(b, p))
    zb /= np.linalg.norm(zb, axis=1, keepdims=True)
    c = rng.normal(size=(k, p))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    qa = rng.dirichlet(np.full(k, 2.0), size=b)
    qb = rng.dirichlet(np.full(k, 2.0), size=b)
    tau = 0.1

    t_za = Tensor(za.copy(), requires_grad=True)
    protos = Prototypes(Tensor(c.copy(), requires_grad=True))
    ad.backward(ssl.swap_loss_given_codes(t_za, Tensor(zb), protos, tau,
                                          qa, qb))

    def f_z(x):
        return ssl.swap_loss_given_codes(
            Tensor(x), Tensor(zb), Prototypes(Tensor(c.copy())), tau,
            qa, qb).item()

    def f_c(cm):
        return ssl.swap_loss_given_codes(
            Tensor(za.copy()), Tensor(zb), Prototypes(Tensor(cm)), tau,
            qa, qb).item()

    return max(max_rel_err(t_za.grad, fd_grad(f_z, za)),
               max_rel_err(protos.vectors.grad, fd_grad(f_c, c)))


def _entropy_err(rng):
    logits = rng.normal(size=(4, 5))
    t = Tensor(logits.copy(), requires_grad=True)
    ad.backward(al.entropy_loss(ad.softmax(t, axis=1)))

    def f(x):
        return al.entropy_loss(ad.softmax(Tensor(x), axis=1)).item()

    return max_rel_err(t.grad, fd_grad(f, logits))


def _vat_err(rng):
    w = rng.normal(size=(4, 3))
    x = rng.normal(size=(5, 3))
    r = 0.3 * rng.normal(size=(5, 3))
    wt = Tensor(w.copy(), requires_grad=True)
    ad.backward(al.vat_loss(
        lambda xt: ad.softmax(ad.matmul(xt, ad.transpose(wt)), axis=1), x,
        _softmax_np(x @ w.T), r))

    # clean-branch distribution is detached, so the oracle holds it fixed
    p0 = np.clip(_softmax_np(x @ w.T), 1e-7, 1.0)

    def f(wm):
        q = np.clip(_softmax_np((x + r) @ wm.T), 1e-7, 1.0)
        return float(np.sum(p0 * (np.log(p0) - np.log(q))) / x.shape[0])

    return max_rel_err(wt.grad, fd_grad(f, w))


def _dal_errs(rng, lam):
    dp = models.init_domain_classifier(rng, 4, hidden=5)
    x = rng.normal(size=(6, 3))
    w = rng.normal(size=(4, 3))
    zs = rng.normal(size=(6, 4))
    w1 = dp.w1.data.copy()

    def loss_value(w_enc, w1_now):
        dp2 = DomainClassifierParams(
            w1=Tensor(w1_now), b1=Tensor(dp.b1.data.copy()),
            w2=Tensor(dp.w2.data.copy()), b2=Tensor(dp.b2.data.copy()))
        z_t = ad.matmul(Tensor(x), ad.transpose(Tensor(w_enc)))
        return al.dal_loss(dp2, Tensor(zs), z_t, lam).item()

    wt = Tensor(w.copy(), requires_grad=True)
    z_t = ad.matmul(Tensor(x), ad.transpose(wt))
    ad.backward(al.dal_loss(dp, Tensor(zs), z_t, lam))

    # encoder channel is reversed, discriminator channel is not
    enc_err = max_rel_err(wt.grad,
                          -lam * fd_grad(lambda v: loss_value(v, w1), w))
    dom_err = max_rel_err(dp.w1.grad,
                          fd_grad(lambda v: loss_value(w, v), w1))
    return max(enc_err, dom_err)


def test_criterion_1_gradient_integrity():
    t0 = time.perf_counter()
    worst = {}
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        for name, inputs, forward, transform in _op_cases(rng):
            err = _fd_check(forward, inputs, rng, transform)
            worst[name] = max(worst.get(name, 0.0), err)
        worst["loss_swap"] = max(worst.get("loss_swap", 0.0), _swap_errs(rng))
        worst["loss_entropy"] = max(worst.get("loss_entropy", 0.0),
                                    _entropy_err(rng))
        worst["loss_vat"] = max(worst.get("loss_vat", 0.0), _vat_err(rng))
        worst["loss_dal"] = max(worst.get("loss_dal", 0.0),
                                _dal_errs(rng, lam=(0.7, 1.0, 1.3)[seed % 3]))
    elapsed = time.perf_counter() - t0
    peak = max(worst.values())
    ok = peak <= 1e-4 and elapsed < 30.0
    _verdict(1, ok, f"{len(worst)} ops/losses x 20 seeds, worst rel err "
                    f"{peak:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: Sinkhorn marginals and shift invariance
# ---------------------------------------------------------------------------

def test_criterion_2_sinkhorn_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst_row = worst_col = worst_shift = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 17))
        b = int(rng.integers(2 * k, 65))
        scores = rng.normal(size=(b, k))
        q = ssl.sinkhorn_codes(scores, 0.05, iters=20000, tol=1e-5).q
        worst_row = max(worst_row, float(np.max(np.abs(q.sum(axis=1) - 1.0))))
        worst_col = max(worst_col,
                        float(np.max(np.abs(q.sum(axis=0) - b / k))))
        q_shift = ssl.sinkhorn_codes(scores + 7.3, 0.05, iters=20000,
                                     tol=1e-5).q
        worst_shift = max(worst_shift, float(np.max(np.abs(q_shift - q))))
    elapsed = time.perf_counter() - t0
    ok = (worst_row <= 1e-6 and worst_col <= 1e-4 and worst_shift <= 1e-8
          and elapsed < 10.0)
    _verdict(2, ok, f"100 matrices: row dev {worst_row:.2e}, col dev "
                    f"{worst_col:.2e}, shift dev {worst_shift:.2e}, "
                    f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: loss invariant suite
# ---------------------------------------------------------------------------

def test_criterion_3_loss_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    failures = []

    if al.entropy_loss(Tensor(np.eye(4)[[0, 2, 1]])).item() != 0.0:
        failures.append("entropy one-hot != 0")
    if abs(al.entropy_loss(Tensor(np.full((3, 6), 1 / 6))).item()
           - np.log(6.0)) > 1e-12:
        failures.append("entropy uniform != log K")
    for _ in range(20):
        k = int(rng.integers(2, 9))
        v = al.entropy_loss(Tensor(_softmax_np(
            3.0 * rng.normal(size=(5, k))))).item()
        if not -1e-12 <= v <= np.log(k) + 1e-9:
            failures.append("entropy outside [0, log K]")

    w = rng.normal(size=(4, 3))
    x = rng.normal(size=(6, 3))

    def model(xt):
        return ad.softmax(ad.matmul(xt, ad.transpose(Tensor(w))), axis=1)

    if al.vat_loss(model, x, model(Tensor(x)).data,
                   np.zeros_like(x)).item() != 0.0:
        failures.append("vat nonzero at r=0")
    const = Tensor(np.full((6, 4), 0.25))
    if al.vat_loss(lambda xt: const, x, const.data,
                   rng.normal(size=x.shape)).item() != 0.0:
        failures.append("vat nonzero for constant model")

    dp = models.init_domain_classifier(rng, 5, hidden=4)
    for t in (dp.w1, dp.b1, dp.w2, dp.b2):
        t.data[:] = 0.0
    dal = al.dal_loss(dp, Tensor(rng.normal(size=(7, 5))),
                      Tensor(rng.normal(size=(7, 5))), 1.0).item()
    if abs(dal - 2.0 * np.log(2.0)) > 1e-12:
        failures.append("dal at sigmoid(0) != 2 log 2")

    comps = [Tensor(np.asarray(v)) for v in (0.3, 1.1, 0.7, 0.9)]
    lo1 = al.total_loss(*comps, 0.4, 0.2).item()
    hi1 = al.total_loss(*comps, 0.8, 0.2).item()
    lo2 = al.total_loss(*comps, 0.4, 0.1).item()
    if abs((hi1 - lo1) - 0.4 * 1.1) > 1e-12:
        failures.append("total not linear in lambda1")
    if abs((lo1 - lo2) - 0.1 * (0.7 + 0.9)) > 1e-12:
        failures.append("total not linear in lambda2")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    _verdict(3, ok, f"entropy/VAT/DAL/combination endpoints, {elapsed:.1f}s"
             + ("" if not failures else f"; {failures}"))


# ---------------------------------------------------------------------------
# Criterion 4: gradient reversal realizes the min-max game
# ---------------------------------------------------------------------------

def _dal_grads(seed, lam):
    rng = np.random.default_rng(seed)
    dp = models.init_domain_classifier(rng, 4, hidden=5)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    x = Tensor(rng.normal(size=(6, 3)))
    zs = Tensor(rng.normal(size=(6, 4)))
    ad.backward(al.dal_loss(dp, zs, ad.matmul(x, ad.transpose(w)), lam))
    return (w.grad.copy(),
            [t.grad.copy() for t in (dp.w1, dp.b1, dp.w2, dp.b2)])


def test_criterion_4_grl_min_max():
    worst_enc = worst_dom = 0.0
    for seed in range(5):
        # grl_lambda=-1 makes the reversal an identity, exposing the
        # non-reversed encoder gradient
        plain_enc, plain_dom = _dal_grads(seed, lam=-1.0)
        for lam in (0.7, 1.0, 2.5):
            enc, dom = _dal_grads(seed, lam)
            worst_enc = max(worst_enc,
                            float(np.max(np.abs(enc - (-lam) * plain_enc))))
            for got, want in zip(dom, plain_dom):
                worst_dom = max(worst_dom, float(np.max(np.abs(got - want))))
    ok = worst_enc <= 1e-10 and worst_dom <= 1e-10
    _verdict(4, ok, f"encoder reversal dev {worst_enc:.2e}, discriminator "
                    f"dev {worst_dom:.2e}")


# ---------------------------------------------------------------------------
# Criterion 5: acquisition correctness
# ---------------------------------------------------------------------------

def test_criterion_5_acquisition():
    rng = np.random.default_rng(55)
    failures = []

    def entropy(p):
        live = p[p > 0]
        return float(-(live * np.log(live)).sum())

    worst = 0.0
    for _ in range(50):
        t, k = int(rng.integers(2, 12)), int(rng.integers(2, 8))
        stack = rng.dirichlet(np.full(k, 0.7), size=t)
        want = entropy(stack.mean(axis=0)) - np.mean(
            [entropy(row) for row in stack])
        worst = max(worst, abs(active.bald_mutual_info(stack) - want))
    if worst > 1e-10:
        failures.append(f"bald oracle dev {worst:.2e}")

    enc = models.init_encoder(np.random.default_rng(7), 64, (16,), 8)
    rot = models.init_rotation_classifier(np.random.default_rng(8), enc, 0.3)
    pool = np.random.default_rng(9).normal(size=(40, 64))

    def score_once():
        probs = active.mc_dropout_probs(rot, pool, t_passes=6, seed=123)
        unc = np.array([active.bald_mutual_info(probs[i]) for i in range(40)])
        emb = models.encode(enc, pool, normalize=True).data
        centroids, _, _ = active.kmeans(emb, 5, seed=3)
        div = active.diversity_distances(emb, centroids)
        ranked = active.rank_pool(range(40), unc, div, "hybrid", 1.0, seed=11)
        return unc, div, ranked, active.CoreSet(ranked[:10].tolist(), 30, 0)

    (u1, d1, r1, c1), (u2, d2, r2, c2) = score_once(), score_once()
    if (u1.tobytes(), d1.tobytes(), r1.tobytes()) != \
            (u2.tobytes(), d2.tobytes(), r2.tobytes()) or c1 != c2:
        failures.append("scoring path not bitwise reproducible")

    ranked = active.rank_pool(range(30), rng.random(30), rng.random(30),
                              "hybrid", 1.0, seed=0)
    core = active.CoreSet([], 30, 0)
    for batch in np.array_split(ranked, 3):
        core = active.CoreSet(core.selected + batch.tolist(), 30, 0)
    if len(core.selected) != 30 or sorted(core.selected) != list(range(30)):
        failures.append("partition/selection did not conserve the budget")
    try:
        active.CoreSet(core.selected + [30], 30, 0)
        failures.append("budget overrun not rejected")
    except BudgetError:
        pass

    n = 50
    unc, div = rng.random(n), rng.random(n)

    def ranking(beta):
        return active.rank_pool(range(n), unc, div, "hybrid", beta,
                                seed=0).tolist()

    if ranking(0.0) != [int(i) for i in np.argsort(-div)]:
        failures.append("beta=0 is not the pure-diversity ranking")
    if ranking(1e12) != [int(i) for i in np.argsort(unc)]:
        failures.append("beta->inf is not the most-certain-first ranking")

    _verdict(5, not failures,
             f"bald dev {worst:.2e}, determinism, budget, beta endpoints"
             + ("" if not failures else f"; {failures}"))


# ---------------------------------------------------------------------------
# Criteria 6 and 7: end-to-end gains and ablation orderings
# ---------------------------------------------------------------------------

VARIANT_OVERRIDES = {
    "uncertainty": {"acquisition": "uncertainty"},
    "random": {"acquisition": "random"},
    "dal_vat": {"loss_variant": "dal_vat"},
    "entropy": {"loss_variant": "entropy"},
}


@pytest.fixture(scope="module")
def adaptation_grid():
    """Five-seed grid on the default bundle, sharing source checkpoints.

    The timer covers only the full method (pretrain, adapt, evaluate),
    matching the runtime bound; the extra ablation variants reuse the
    per-seed source checkpoint.
    """
    bundle = data.generate_domain_pair(pipeline.RunConfig().domain_spec())
    base = []
    rows = {name: [] for name in ("consolidated", *VARIANT_OVERRIDES)}
    full_seconds = 0.0
    for seed in range(5):
        cfg = pipeline.RunConfig(seed=seed)
        t0 = time.perf_counter()
        src, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        base.append(pipeline.evaluate(src, bundle)["target_acc"])
        adapted, _, _ = pipeline.adapt(cfg, src, bundle.target_x)
        rows["consolidated"].append(
            pipeline.evaluate(adapted, bundle)["target_acc"])
        full_seconds += time.perf_counter() - t0
        for name, overrides in VARIANT_OVERRIDES.items():
            vcfg = dataclasses.replace(cfg, **overrides)
            vck, _, _ = pipeline.adapt(vcfg, src, bundle.target_x)
            rows[name].append(pipeline.evaluate(vck, bundle)["target_acc"])
    rows["hybrid"] = rows["consolidated"]
    return {"base": base, "rows": rows, "full_seconds": full_seconds}


def test_criterion_6_adaptation_gain(adaptation_grid):
    gains = [after - before for after, before in
             zip(adaptation_grid["rows"]["consolidated"],
                 adaptation_grid["base"])]
    median_gain = float(np.median(gains))
    seconds = adaptation_grid["full_seconds"]
    ok = median_gain >= 0.10 and seconds < 300.0
    _verdict(6, ok, f"median gain {100 * median_gain:+.1f} points over 5 "
                    f"seeds (per-seed {[f'{100 * g:+.1f}' for g in gains]}), "
                    f"runtime {seconds:.0f}s")


def test_criterion_7_ablation_orderings(adaptation_grid):
    med = {name: float(np.median(accs))
           for name, accs in adaptation_grid["rows"].items()}
    inversions = []
    for better, worse in (("hybrid", "uncertainty"),
                          ("uncertainty", "random"),
                          ("consolidated", "dal_vat"),
                          ("dal_vat", "entropy")):
        if med[better] < med[worse] - 0.01:
            inversions.append(f"{better} {med[better]:.3f} < {worse} "
                              f"{med[worse]:.3f}")
    detail = " ".join(
        f"{name}={med[name]:.3f}" for name in
        ("hybrid", "uncertainty", "random", "consolidated", "dal_vat",
         "entropy"))
    _verdict(7, not inversions, detail
             + ("" if not inversions else f"; inverted: {inversions}"))


# ---------------------------------------------------------------------------
# Criterion 8: command-line determinism audit
# ---------------------------------------------------------------------------

def test_criterion_8_cli_determinism(tmp_path):
    bundle_path = tmp_path / "bundle.bin"
    assert cli.main(["gen", "--out", str(bundle_path)]) == 0
    pre = tmp_path / "pre"
    assert cli.main(["pretrain", "--out", str(pre),
                     "--bundle", str(bundle_path)]) == 0
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert cli.main(["adapt", "--source-ckpt",
                         str(pre / "source_ckpt.bin"), "--out", str(out),
                         "--bundle", str(bundle_path)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    ok = (names == sorted(p.name for p in outs[1].iterdir())
          and all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                  for n in names))
    _verdict(8, ok, f"two default `a3 adapt` runs, {len(names)} output "
                    f"files bitwise identical")
