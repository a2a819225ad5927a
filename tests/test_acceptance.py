"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (visible in the pytest -v log)
and then asserts the criterion at its stated tolerance.
"""

import json
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from ilrkit import dataengine, evalkit, simcore, synthgen
from ilrkit.expert import ExpertHead, combined_loss_and_grads
from ilrkit.fusion import FusionAdapter, fuse, matching_loss_and_grads


def _verdict(capsys, ok: bool, name: str, detail: str) -> None:
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'}: {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_matching_oracle_equivalence(capsys):
    rng = np.random.default_rng(101)
    cases = [(rng.standard_normal(16), rng.standard_normal((10, 16)))
             for _ in range(1000)]
    t0 = time.monotonic()
    agreements = 0
    for query, gallery in cases:
        got = simcore.match_by_similarity(query, gallery).best_index
        best, best_score = 0, -np.inf
        for i, row in enumerate(gallery):
            s = float(query @ row) / (np.linalg.norm(query) * np.linalg.norm(row))
            if s > best_score:
                best, best_score = i, s
        agreements += got == best
    elapsed = time.monotonic() - t0
    ok = agreements == 1000 and elapsed < 1.0
    _verdict(capsys, ok, "matching oracle equivalence",
             f"{agreements}/1000 argmax agreements in {elapsed:.3f}s")


def test_02_fusion_attention_invariants(capsys):
    rng = np.random.default_rng(102)
    worst_sum, rank1_err = 0.0, 0.0
    nonnegative = True
    neutral_exact = True
    for case in range(10000):
        d_e, h, d = (int(rng.integers(2, 7)) for _ in range(3))
        n_tok = int(rng.integers(1, 9))
        adapter = FusionAdapter(
            w1=rng.standard_normal((d_e, h)), b1=rng.standard_normal(h),
            w2=rng.standard_normal((h, d)), b2=rng.standard_normal(d),
            temperature=float(rng.uniform(0.2, 2.0)),
        )
        tokens = rng.standard_normal((n_tok, d))
        out = fuse(adapter, tokens, rng.standard_normal(d_e))
        if np.any(out.attention < 0.0):
            nonnegative = False
        worst_sum = max(worst_sum, abs(float(out.attention.sum()) - 1.0))
        delta = out.fused - tokens
        rank1_err = max(rank1_err, float(np.max(np.abs(
            delta - np.outer(out.attention, out.projected)
        ))))
        if case % 100 == 0:
            neutral = FusionAdapter(adapter.w1, adapter.b1,
                                    np.zeros((h, d)), np.zeros(d),
                                    temperature=adapter.temperature)
            n_out = fuse(neutral, tokens, rng.standard_normal(d_e))
            if not np.array_equal(n_out.fused, tokens):
                neutral_exact = False
    ok = worst_sum <= 1e-9 and rank1_err <= 1e-9 and nonnegative and neutral_exact
    _verdict(capsys, ok, "fusion attention invariants",
             f"10000 calls, max |sum(A)-1| = {worst_sum:.2e}, "
             f"max rank-1 residual = {rank1_err:.2e}, attention "
             f"{'non-negative' if nonnegative else 'negative!'}, "
             f"zero-expert neutrality {'exact' if neutral_exact else 'violated'}")


def _fd_max_rel(loss_fn, params, analytic, step=1e-4):
    worst = 0.0
    for param, grad in zip(params, analytic):
        numeric = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        for _v in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + step
            up = loss_fn()
            param[idx] = orig - step
            down = loss_fn()
            param[idx] = orig
            numeric[idx] = (up - down) / (2.0 * step)
        scale = max(float(np.max(np.abs(numeric))), 1e-8)
        worst = max(worst, float(np.max(np.abs(grad - numeric))) / scale)
    return worst


def test_03_gradient_checks(capsys):
    rng = np.random.default_rng(103)
    t0 = time.monotonic()
    worst = 0.0
    checked = 0
    while checked < 100:  # adapter loss micro-instances
        adapter = FusionAdapter(
            w1=rng.standard_normal((3, 3)), b1=rng.standard_normal(3),
            w2=rng.standard_normal((3, 3)), b2=rng.standard_normal(3),
        )
        q_tok = rng.standard_normal((2, 3))
        g_toks = [rng.standard_normal((2, 3)) for _ in range(2)]
        q_vec = rng.standard_normal(3)
        g_vecs = [rng.standard_normal(3) for _ in range(2)]
        answer = int(rng.integers(2))
        # resample if a ReLU pre-activation sits at a kink within FD reach
        z = np.abs(np.stack([v @ adapter.w1 + adapter.b1
                             for v in (q_vec, *g_vecs)]))
        if z.min() < 5e-3:
            continue
        checked += 1

        def loss_fn():
            return matching_loss_and_grads(
                adapter, q_tok, g_toks, q_vec, g_vecs, answer
            )[0]

        _, grads = matching_loss_and_grads(adapter, q_tok, g_toks, q_vec, g_vecs, answer)
        worst = max(worst, _fd_max_rel(
            loss_fn,
            [adapter.w1, adapter.b1, adapter.w2, adapter.b2],
            [grads.w1, grads.b1, grads.w2, grads.b2],
        ))
    checked = 0
    while checked < 100:  # combined expert loss micro-instances
        head = ExpertHead(rng.standard_normal((4, 3)), rng.standard_normal(3),
                          margin=0.3)
        protos = rng.standard_normal((3, 2))
        x = rng.standard_normal((4, 4))
        labels = np.array([0, 0, 1, 1])
        # resample if a hinge or the batch-hard mining choice sits at a kink
        y = x @ head.w + head.b
        e = y / np.linalg.norm(y, axis=1, keepdims=True)
        dist = np.linalg.norm(e[:, None, :] - e[None, :, :], axis=2)
        near_kink = False
        for a in range(4):
            same = [j for j in range(4) if labels[j] == labels[a] and j != a]
            diff = [j for j in range(4) if labels[j] != labels[a]]
            d_ap = max(dist[a, j] for j in same)
            d_an = min(dist[a, j] for j in diff)
            gaps = [abs(dist[a, i] - dist[a, j])
                    for i in diff for j in diff if i < j]
            if abs(d_ap - d_an + head.margin) < 5e-3 or (gaps and min(gaps) < 5e-3):
                near_kink = True
        if near_kink:
            continue
        checked += 1

        def loss_fn():
            return combined_loss_and_grads(head, protos, x, labels)[0]

        _, gw, gb, gp = combined_loss_and_grads(head, protos, x, labels)
        worst = max(worst, _fd_max_rel(loss_fn, [head.w, head.b, protos],
                                       [gw, gb, gp]))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    _verdict(capsys, ok, "gradient checks",
             f"200 micro-instances, max relative error {worst:.2e} in {elapsed:.1f}s")


def test_04_gallery_construction_soundness(capsys, default_bundle, default_split):
    violations, n_tasks, n_strict = 0, 0, 0
    for seed in range(1000):
        (task,) = dataengine.build_gallery_tasks(
            default_bundle.general_set, default_split.test_instances,
            k=5, tau=0.5, n_tasks=1, seed=seed,
        )
        n_tasks += 1
        n_strict += not task.relaxed
        try:
            dataengine.check_gallery_task(task, default_bundle.general_set)
        except Exception:
            violations += 1
    ok = violations == 0 and n_tasks == 1000
    _verdict(capsys, ok, "gallery construction soundness",
             f"{n_tasks} seeded builds at tau=0.5 K=5, {n_strict} strict, "
             f"{violations} invariant violations")


def test_05_split_hygiene(capsys, default_bundle, default_split):
    overlap = default_split.train_instances & default_split.test_instances
    union = default_split.train_instances | default_split.test_instances
    complete = union == set(default_bundle.general_set.instance_index)
    ok = not overlap and complete
    _verdict(capsys, ok, "split hygiene",
             f"{len(default_split.train_instances)} train / "
             f"{len(default_split.test_instances)} test instances, "
             f"{len(overlap)} overlapping")


def _restricted(eset, instances):
    from ilrkit.embedstore import EmbeddingSet

    return EmbeddingSet.from_records(
        "view", [r for r in eset.records if r.instance_id in instances]
    )


def test_06_expert_vs_general_ordering(capsys, default_bundle, default_split,
                                       trained_expert):
    _, expert_set, elapsed = trained_expert
    test_ids = default_split.test_instances
    expert_recall = synthgen.recall_at_1(_restricted(expert_set, test_ids))
    general_recall = synthgen.recall_at_1(
        _restricted(default_bundle.general_set, test_ids)
    )
    ok = expert_recall >= 0.90 and general_recall <= 0.75 and elapsed < 120.0
    _verdict(capsys, ok, "expert-vs-general ordering",
             f"held-out recall@1 expert {expert_recall:.3f} vs general "
             f"{general_recall:.3f}, trained in {elapsed:.1f}s")


def test_07_difficulty_monotonicity_and_gap(capsys, default_bundle, default_split,
                                            trained_expert):
    _, expert_set, _ = trained_expert
    general_matcher = evalkit.similarity_matcher(default_bundle.general_set)
    expert_matcher = evalkit.similarity_matcher(expert_set)
    taus = (0.2, 0.5, 0.8)
    inversions, widened = 0, 0
    for seed in range(20):
        acc_g, acc_e = {}, {}
        for tau in taus:
            tasks = dataengine.build_gallery_tasks(
                default_bundle.general_set, default_split.test_instances,
                k=5, tau=tau, n_tasks=150, seed=1000 + seed,
            )
            acc_g[tau] = evalkit.matcher_accuracy(tasks, general_matcher)
            acc_e[tau] = evalkit.matcher_accuracy(tasks, expert_matcher)
        inversions += sum(
            acc_g[hi] > acc_g[lo] for lo, hi in zip(taus, taus[1:])
        )
        widened += (acc_e[0.8] - acc_g[0.8]) > (acc_e[0.2] - acc_g[0.2])
    ok = inversions <= 1 and widened >= 16
    _verdict(capsys, ok, "difficulty monotonicity and widening gap",
             f"{inversions} inversions across 20 seeds, "
             f"gap widened in {widened}/20 seeds")


def test_08_fused_matching_benefit(capsys, default_bundle, default_split,
                                   trained_adapter, token_map_index,
                                   expert_vectors):
    adapter, elapsed = trained_adapter
    tasks = dataengine.build_gallery_tasks(
        default_bundle.general_set, default_split.test_instances,
        k=5, tau=0.5, n_tasks=500, seed=3,
    )
    general_acc = evalkit.matcher_accuracy(
        tasks, evalkit.similarity_matcher(default_bundle.general_set)
    )
    fused_acc = evalkit.matcher_accuracy(
        tasks, evalkit.fused_matcher(adapter, token_map_index, expert_vectors)
    )
    ok = fused_acc > general_acc and elapsed < 300.0
    _verdict(capsys, ok, "fused matching benefit",
             f"held-out tau=0.5 accuracy fused {fused_acc:.3f} vs general "
             f"{general_acc:.3f}, 30-epoch training in {elapsed:.1f}s")


def test_09_metric_arithmetic(capsys):
    from ilrkit.dataengine import DetectionTask, GalleryTask
    from ilrkit.evalkit import PredictionLog, score_detection, score_matching

    tasks, entries = [], {}
    counts = {"person": 449, "face": 377, "pet": 364, "object": 398}
    for category, n_correct in counts.items():
        for i in range(500):
            task_id = f"{category}-{i}"
            tasks.append(GalleryTask(task_id, category, "q",
                                     ("g1", "g2", "g3", "g4", "g5"), 0,
                                     0.5, False, 0))
            entries[task_id] = "Image 1" if i < n_correct else "Image 2"
    macro = 100.0 * score_matching(tasks, PredictionLog(entries=entries)).average

    det_tasks, det_entries = [], {}
    for i in range(1000):
        det_tasks.append(DetectionTask(f"p{i}", "person", "q", "g", True, 0.5, 0))
        det_entries[f"p{i}"] = "yes" if i < 966 else "no"
        det_tasks.append(DetectionTask(f"n{i}", "person", "q", "g", False, 0.5, 0))
        det_entries[f"n{i}"] = "no" if i < 909 else "yes"
    weighted = score_detection(det_tasks, PredictionLog(entries=det_entries)).weighted

    ok = abs(macro - 79.4) <= 0.05 and weighted == pytest.approx(0.9375)
    _verdict(capsys, ok, "metric arithmetic",
             f"matching macro average {macro:.2f} (want 79.40 +/- 0.05), "
             f"detection weighted {100 * weighted:.2f} (want 93.75)")


def test_10_emit_parse_round_trip_and_scoring(capsys, small_bundle):
    side = set(small_bundle.general_set.instance_index)
    tasks = dataengine.build_gallery_tasks(
        small_bundle.general_set, side, k=5, tau=0.2, n_tasks=2000, seed=17
    )
    oracle_acc = evalkit.matcher_accuracy(tasks, lambda t: t.answer_index)
    rng = np.random.default_rng(0)
    random_acc = sum(
        int(rng.integers(5)) == t.answer_index for t in tasks
    ) / len(tasks)
    round_trip = all(
        dataengine.parse_answer(rec.target, 5) == rec.answer_index
        for rec in dataengine.emit_conversations(tasks, "match_mcq")
    )
    ok = oracle_acc == 1.0 and abs(random_acc - 0.20) <= 0.03 and round_trip
    _verdict(capsys, ok, "emit/parse round trip and scoring sanity",
             f"oracle {100 * oracle_acc:.1f}%, random {random_acc:.3f} "
             f"(want 0.20 +/- 0.03), target round trip "
             f"{'complete' if round_trip else 'broken'} over 2000 K=5 tasks")


PIPELINE_CONFIG = {
    "seed": 2,
    "k": 3,
    "tau": 0.3,
    "taus": [0.1, 0.4],
    "n_tasks": 8,
    "n_train_tasks": 10,
    "n_sweep_tasks": 5,
    "synth": {
        "seed": 2, "n_categories": 2, "clusters_per_category": 3,
        "instances_per_cluster": 4, "images_per_instance": 3,
        "dim_raw": 24, "dim_general": 8, "n_tokens": 4,
    },
    "expert": {"d_out": 8, "epochs": 2, "p_instances": 4, "q_images": 2},
    "adapter": {"epochs": 1, "batch_size": 4},
}


def test_11_pipeline_determinism(capsys, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(PIPELINE_CONFIG))
    digests = []
    workers = []
    for name, threads in (("run1", "1"), ("run2", "4")):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "ilrkit.cli", "pipeline", "-v",
             "--config", str(config_path), "--threads", threads,
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append({
            p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()
        })
        # each job of a forked worker logs its seconds
        workers.append(len(re.findall(r"worker: .+ took ", proc.stderr)))
    # the runs compare two lanes only if the second one forked a worker
    forked = workers[0] == 0 and workers[1] > 0
    same_names = set(digests[0]) == set(digests[1])
    identical = same_names and all(
        digests[0][name] == digests[1][name] for name in digests[0]
    )
    split = json.loads(digests[0]["split.json"].decode())
    disjoint = not (set(split["train_instances"]) & set(split["test_instances"]))
    ok = identical and disjoint and forked and len(digests[0]) > 0
    _verdict(capsys, ok, "pipeline determinism",
             f"{len(digests[0])} output files byte-identical across reruns at "
             f"--threads 1 and 4: {identical}; worker jobs at --threads 1 and 4: "
             f"{workers}; pipeline split disjoint: {disjoint}")
