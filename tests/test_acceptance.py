"""End-to-end checks over the shipped configs and core numeric contracts.

One test per claim, in dependency order: the toy experiment's accuracy and
robustness bands, gradient correctness against central finite differences,
attack constraint invariants, reservoir retention statistics, the stream
orderings under PGD and FGSM training, the robustness ordering that holds
under stronger evaluation attacks, the previous-task attack-rate contract,
byte-level rerun determinism, and the shipped configs' recorded output
digests. Each test finishes with a PASS line carrying the measured
numbers so a captured log tells the full story.
Wall-clock budgets assume a single desk-class core.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from eatcl.attacks import AttackConfig, _steps, attack
from eatcl.metrics import prev_task_rate, robustness
from eatcl.nets import MLPModel, forward, gradients, init_model, one_hot, softmax_ce
from eatcl.replay import ReplayBuffer
from eatcl.runner import build_streams

from conftest import STRONGER, build_facts, output_digests, run_config
from reference import label_softmax_ce

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def test_toy_training_mode_bands(shipped_runs):
    """The 2-D toy figure's four conditions, balanced or imbalanced data with
    clean or adversarial training: accuracy and robustness land in the
    expected bands and order the same way in almost every seed."""
    bal, imb = shipped_runs["toy_balanced"], shipped_runs["toy_imbalanced"]
    ct_acc, ct_rob = bal.stat("joint", "accuracy"), bal.stat("joint", "robustness")
    at_acc, at_rob = bal.stat("joint_at", "accuracy"), bal.stat("joint_at", "robustness")
    im_acc, im_rob = imb.stat("joint_at", "accuracy"), imb.stat("joint_at", "robustness")
    ic_acc, ic_rob = imb.stat("joint", "accuracy"), imb.stat("joint", "robustness")

    assert ct_acc["mean"] >= 98.0
    assert 33.6 <= ct_rob["mean"] <= 53.6
    assert 59.6 <= at_rob["mean"] <= 79.6
    assert at_rob["mean"] - ct_rob["mean"] >= 10.0
    assert im_acc["mean"] <= 97.0
    assert at_acc["mean"] - im_acc["mean"] >= 3.0
    ordered = sum(1 for a, i, c in zip(at_rob["values"], im_rob["values"],
                                       ct_rob["values"]) if a > i > c)
    assert ordered >= 4
    # imbalanced clean training: mean +- 2 sample std of its five seeds
    # (98.30 +- 1.20 accuracy, 52.73 +- 5.35 robustness)
    assert ic_acc["mean"] >= 95.9
    assert 42.0 <= ic_rob["mean"] <= 63.4
    im_ordered = sum(1 for ca, cr, aa, ar in zip(ic_acc["values"], ic_rob["values"],
                                                 im_acc["values"], im_rob["values"])
                     if ca > aa and ar > cr)
    assert im_ordered >= 4
    elapsed = bal.seconds + imb.seconds
    assert elapsed <= 120.0
    print(f"PASS toy bands: clean {ct_acc['mean']:.1f}/{ct_rob['mean']:.1f} "
          f"adv {at_acc['mean']:.1f}/{at_rob['mean']:.1f} "
          f"imbalanced clean {ic_acc['mean']:.1f}/{ic_rob['mean']:.1f} "
          f"adv {im_acc['mean']:.1f}/{im_rob['mean']:.1f} "
          f"ordering {ordered}/5 and {im_ordered}/5 in {elapsed:.0f}s")


def _loss(model, x, labels) -> float:
    return label_softmax_ce(forward(model, x), labels)[0]


def test_gradients_match_central_differences():
    """Analytic parameter and input gradients agree with central finite
    differences to 1e-4 relative error on 50 random small networks."""
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    h = 1e-6
    for trial in range(50):
        depth = int(rng.integers(1, 3))
        sizes = (int(rng.integers(1, 5)),
                 *(int(rng.integers(1, 6)) for _ in range(depth)),
                 int(rng.integers(2, 5)))
        model = init_model(sizes, [7, trial])
        # randomize biases too: zero biases can park a relu exactly on its
        # kink (a dead unit feeds 0 into the next layer), where central
        # differences straddle two regimes and the comparison is meaningless
        for b in model.biases:
            b += rng.normal(0.0, 0.3, size=b.shape)
        n = int(rng.integers(1, 4))
        x = rng.normal(0.0, 1.0, size=(n, sizes[0]))
        labels = rng.integers(0, sizes[-1], size=n)
        y = one_hot(labels, sizes[-1])
        grads = gradients(model, x, lambda z: softmax_ce(z, y))
        for arrs, anal in ((model.weights, grads.weight_grads),
                           (model.biases, grads.bias_grads)):
            for a, g in zip(arrs, anal):
                fd = np.zeros_like(a)
                it = np.nditer(a, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = a[idx]
                    a[idx] = orig + h
                    up = _loss(model, x, labels)
                    a[idx] = orig - h
                    down = _loss(model, x, labels)
                    a[idx] = orig
                    fd[idx] = (up - down) / (2 * h)
                np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-8)
        fd_x = np.zeros_like(x)
        for r in range(x.shape[0]):
            for c in range(x.shape[1]):
                orig = x[r, c]
                x[r, c] = orig + h
                up = _loss(model, x, labels)
                x[r, c] = orig - h
                down = _loss(model, x, labels)
                x[r, c] = orig
                fd_x[r, c] = (up - down) / (2 * h)
        np.testing.assert_allclose(grads.input_grads, fd_x, rtol=1e-4, atol=1e-8)
    elapsed = time.perf_counter() - started
    assert elapsed <= 10.0
    print(f"PASS gradient oracle: 50 nets, rtol 1e-4, {elapsed:.1f}s")


def test_attack_ball_clip_and_single_step_equivalence():
    """1000 random attack invocations stay inside the L-inf ball to 1e-12,
    and FGSM matches PGD(K=1, started at x, alpha=eps)."""
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    n_fgsm_pairs = 0
    for trial in range(1000):
        dim = int(rng.integers(1, 7))
        classes = int(rng.integers(2, 5))
        model = init_model((dim, int(rng.integers(1, 7)), classes), [11, trial])
        n = int(rng.integers(1, 6))
        x = rng.normal(0.0, 1.0, size=(n, dim)) * rng.uniform(0.2, 2.0)
        y = one_hot(rng.integers(0, classes, size=n), classes)
        eps = 0.0 if rng.random() < 0.1 else float(rng.uniform(1e-4, 0.3))
        kind = "fgsm" if rng.random() < 0.5 else "pgd"
        rng.random()  # an unused draw, kept in the sequence that sets every trial's inputs
        cfg = AttackConfig(kind=kind, eps=eps,
                           alpha=max(eps, 1e-6) * float(rng.uniform(0.2, 1.5)),
                           iters=int(rng.integers(1, 7)))
        # half the PGD runs start at x, the other half at random
        start_rng = None if rng.random() >= 0.5 else np.random.default_rng([11, trial, 1])
        if kind == "fgsm" or start_rng is not None:
            adv = attack(model, x, y, cfg, start_rng)
        else:
            adv = _steps(model, x, y, cfg, cfg.alpha, cfg.iters, None)
        assert adv.shape == x.shape
        assert np.max(np.abs(adv - x)) <= eps + 1e-12
        if kind == "fgsm":
            twin = AttackConfig(kind="pgd", eps=eps, alpha=max(eps, 1e-6), iters=1)
            cfg1 = AttackConfig(kind="fgsm", eps=eps, alpha=max(eps, 1e-6), iters=1)
            a = attack(model, x, y, cfg1)
            b = _steps(model, x, y, twin, twin.alpha, 1, None)
            assert np.max(np.abs(a - b)) <= 1e-12
            n_fgsm_pairs += 1
    elapsed = time.perf_counter() - started
    assert elapsed <= 10.0
    print(f"PASS attack invariants: 1000 invocations, {n_fgsm_pairs} "
          f"single-step equivalence pairs, {elapsed:.1f}s")


def test_reservoir_retention_uniformity():
    """Capacity 50 over a 1000-item stream: 10,000 trials put every item's
    retention frequency within 0.05 +- 0.01."""
    started = time.perf_counter()
    # each row holds its item id; the targets do not affect what is kept
    xs, targets = np.arange(1000.0)[:, None], np.zeros((1000, 1))
    rng = np.random.default_rng(13)
    counts = np.zeros(1000)
    trials = 10_000
    starts = range(0, 1000, 32)
    for _ in range(trials):
        buf = ReplayBuffer(50)
        # as training inserts: an epoch of 32-row steps, planned at once
        plan = buf.plan_epoch([[len(xs[s:s + 32])] for s in starts], [0], 1, [rng])
        for s, (_, writes) in zip(starts, plan, strict=True):
            buf.insert(writes, xs[s:s + 32], targets[s:s + 32], None)
        counts[buf.x[:, 0].astype(np.int64)] += 1  # the items kept, each once
    freq = counts / trials
    dev = np.abs(freq - 0.05)
    assert dev.max() <= 0.01
    elapsed = time.perf_counter() - started
    assert elapsed <= 30.0
    print(f"PASS reservoir stats: max deviation {dev.max():.4f} over "
          f"{trials} trials, {elapsed:.1f}s")


def test_stream_strategy_orderings_pgd(shipped_runs):
    """On the 5-task blob stream under PGD-4: externally generated
    adversarial examples beat on-the-fly adversarial training on both
    robustness and accuracy, which in turn beats replay-only robustness."""
    run = shipped_runs["stream_pgd"]
    er_rob = run.stat("er", "robustness")["mean"]
    at_rob = run.stat("er_at", "robustness")["mean"]
    eat_rob = run.stat("er_eat", "robustness")["mean"]
    at_acc = run.stat("er_at", "accuracy")["mean"]
    eat_acc = run.stat("er_eat", "accuracy")["mean"]
    assert eat_rob > at_rob
    assert eat_acc > at_acc
    assert at_rob > er_rob
    assert run.seconds <= 300.0
    print(f"PASS stream orderings: rob {eat_rob:.1f} > {at_rob:.1f} > "
          f"{er_rob:.1f}, acc {eat_acc:.1f} > {at_acc:.1f}, "
          f"{run.seconds:.0f}s")


def test_stream_fgsm_orderings_and_cost(shipped_runs):
    """FGSM training attacks keep the stream orderings and take fewer attack
    gradient passes than PGD-4 training on the same config: one per
    attacked batch against up to four."""
    fg, pg = shipped_runs["stream_fgsm"], shipped_runs["stream_pgd"]
    er_acc = fg.stat("er", "accuracy")["mean"]
    eat_acc = fg.stat("er_eat", "accuracy")["mean"]
    at_rob = fg.stat("er_at", "robustness")["mean"]
    eat_rob = fg.stat("er_eat", "robustness")["mean"]
    assert eat_acc >= er_acc
    assert eat_rob > at_rob
    assert fg.attack_passes < pg.attack_passes
    assert fg.seconds <= 300.0
    print(f"PASS fgsm variant: acc {eat_acc:.1f} >= {er_acc:.1f}, "
          f"rob {eat_rob:.1f} > {at_rob:.1f}, attack gradient passes "
          f"{fg.attack_passes} < {pg.attack_passes}")


def test_stream_eat_one_external_call_per_group(shipped_runs):
    """In every shipped config, the _eat strategies form one family, which
    trains all of their external models with one eat_generate call, and no
    other family makes one; smoke runs three _eat strategies."""
    calls, eat = {}, {}
    for name, run in shipped_runs.items():
        eat[name] = sum(s.endswith("_eat") for s in run.cfg["strategies"])
        calls[name] = run.eat_generates
        assert calls[name] == min(eat[name], 1), name
    assert eat["smoke"] == 3 and eat["stream_pgd"] >= 1 and eat["stream_fgsm"] >= 1
    print(f"PASS one eat_generate call per config with _eat strategies: {calls}")


def _final_robustness(run, atk: AttackConfig) -> dict[str, float]:
    """Each strategy's mean final robustness under atk, over its seeds'
    final models and every task of their test streams, as the last
    evaluation step measures it, with evaluation rngs of their own."""
    by_strategy = {}
    for r in run.results:
        test = build_streams(run.cfg, r.seed)[1]
        robs = [robustness(r.model, data, atk, np.random.default_rng([0, 99, t]))
                for t, data in enumerate(test.tasks)]
        by_strategy.setdefault(r.strategy, []).append(np.mean(robs))
    return {s: float(np.mean(v)) for s, v in by_strategy.items()}


def test_robustness_under_stronger_evaluation(shipped_runs, pytestconfig):
    """Every shipped config's final models, with no retraining, under two
    attacks stronger than the stream configs' PGD-4 at step eps/4: FGSM at
    eps and PGD-20 at step eps/10. On stream_pgd, adversarial training
    stays more robust than replay alone under both; the summary prints the
    rest next to the shipped robustness."""
    table = pytestconfig.stash[STRONGER] = {}
    for name, run in shipped_runs.items():
        eps = run.cfg["attack.eps"]
        fgsm = _final_robustness(run, AttackConfig("fgsm", eps, eps, 1))
        pgd20 = _final_robustness(run, AttackConfig("pgd", eps, eps / 10, 20))
        table[name] = {s: (run.stat(s, "robustness")["mean"], fgsm[s], pgd20[s])
                       for s in fgsm}
    _, at_fgsm, at_pgd20 = table["stream_pgd"]["er_at"]
    _, er_fgsm, er_pgd20 = table["stream_pgd"]["er"]
    assert at_fgsm > er_fgsm
    assert at_pgd20 > er_pgd20
    print(f"PASS stronger evaluation: stream_pgd er_at over er under FGSM "
          f"{at_fgsm:.2f} > {er_fgsm:.2f}, under PGD-20 {at_pgd20:.2f} > {er_pgd20:.2f}")


def _forced_prediction_model() -> MLPModel:
    # relu(x) > 1 -> class 0, < 1 -> class 2; classes 1 and 3 never win
    weights = [np.array([[1.0]]), np.array([[1.0, 0.0, -1.0, 0.0]])]
    biases = [np.zeros(1), np.array([-1.0, -10.0, 1.0, -10.0])]
    return MLPModel((1, 1, 4), weights, biases)


def test_prev_task_rate_contract(shipped_runs):
    """The previous-task attack rate is 0 on the first task, counts
    forced predictions exactly, and is lower for external generation than
    for on-the-fly adversarial training on the stream's second task."""
    model = _forced_prediction_model()
    assert prev_task_rate(model, 0, np.array([[2.0]]), [(0, 1)]) == 0.0

    # 3 of 8 rows land above the hinge -> class 0, an earlier-task class
    x = np.array([[2.0]] * 3 + [[0.5]] * 5)
    rate = prev_task_rate(model, 1, x, [(0, 1), (2, 3)])
    assert rate == 37.5

    by_strategy = {"er_at": [], "er_eat": []}
    with open(shipped_runs["stream_pgd"].out_dir / "rates.csv") as fh:
        for row in csv.DictReader(fh):
            strat = row["run_id"].rsplit("_s", 1)[0]
            if strat in by_strategy and row["task"] == "2":
                by_strategy[strat].append(float(row["rate"]))
    at_rate = float(np.mean(by_strategy["er_at"]))
    eat_rate = float(np.mean(by_strategy["er_eat"]))
    assert eat_rate < at_rate
    print(f"PASS attack-rate contract: first-task 0, forced case 37.5, "
          f"task-2 rate {eat_rate:.1f} < {at_rate:.1f}")


def test_rerun_byte_identical_csvs(shipped_runs, tmp_path):
    """Running a shipped config twice produces byte-identical CSVs."""
    first = shipped_runs["smoke"]
    second = run_config("smoke", tmp_path / "smoke_again")
    for name in ("metrics.csv", "rates.csv"):
        a = (first.out_dir / name).read_bytes()
        b = (second.out_dir / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
    print("PASS determinism: metrics.csv and rates.csv byte-identical on rerun")


def test_shipped_output_digests(shipped_runs):
    """Every shipped config's metrics.csv and rates.csv keep the sha256
    recorded in digests.json. Output bits depend on the numeric build (a
    DYNAMIC_ARCH OpenBLAS picks its kernels by CPU), so the check runs only
    on the build recorded there and skips, naming the difference, on any
    other. A change that moves output bits on purpose records the new
    digests, which the failure message prints."""
    recorded = json.loads(DIGESTS.read_text())
    build = build_facts()
    differ = [f"{key} is {build.get(key)!r}, recorded {value!r}"
              for key, value in recorded["build"].items() if build.get(key) != value]
    if differ:
        pytest.skip("digests were recorded on another build: " + "; ".join(differ))
    got = {name: output_digests(run) for name, run in shipped_runs.items()}
    assert got == recorded["digests"], json.dumps(got, indent=2)
    print(f"PASS output digests: {len(got)} shipped configs, metrics.csv and "
          f"rates.csv as recorded on {build['blas']} ({build['openblas_core']})")
