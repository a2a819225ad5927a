"""Reference computations the tests check the batched program paths against."""

import math

import numpy as np

from ilrkit import expert, fusion
from ilrkit.errors import DataValidationError


def score_gallery(query, gallery, kind: str = "cosine") -> np.ndarray:
    """Scores of ``query`` (d,) against every row of ``gallery`` (n, d), in
    float64, one row set at a time: a matrix-vector product, divided for the
    cosine kind by the query norm and the row norms as ``np.linalg.norm``
    computes them. ``simcore.match_batch`` must give bit-equal scores."""
    if kind not in ("cosine", "dot"):
        raise DataValidationError(f"unknown similarity kind {kind!r}")
    query = np.ascontiguousarray(query, dtype=np.float64)
    gallery = np.ascontiguousarray(gallery, dtype=np.float64)
    if gallery.ndim != 2 or gallery.shape[0] == 0 or gallery.shape[1] != query.shape[0]:
        raise DataValidationError(
            f"gallery {gallery.shape} does not match query {query.shape}"
        )
    scores = gallery @ query
    if kind == "cosine":
        nq = float(np.linalg.norm(query))
        ng = np.linalg.norm(gallery, axis=1)
        if nq == 0.0 or np.any(ng == 0.0):
            raise DataValidationError("cosine similarity is undefined for zero vectors")
        scores = scores / (nq * ng)
    return scores


# --- The expert and adapter training steps written plainly, before the
# in-place, buffer-reusing versions in ilrkit.expert and ilrkit.fusion: list
# mining, a 2-D np.add.at over stacked targets, the adapter step on fresh
# arrays, Adam through fresh temporaries, and one flat gradient concatenated
# per gallery size. The trainers must give bit-equal parameters.


def batch_hard_mine(embeddings, labels):
    """Per anchor (anchor, farthest same-label, nearest other-label); ties
    to the lowest index."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = list(labels)
    code_of: dict = {}
    codes = np.array([code_of.setdefault(lab, len(code_of)) for lab in labels], dtype=np.intp)
    if len(code_of) < 2 or np.bincount(codes).min() < 2:
        raise DataValidationError("batch must contain >= 2 instances with >= 2 samples each")
    dist = expert._pairwise_dist(embeddings)
    same = codes[:, None] == codes[None, :]
    positives = np.where(same & ~np.eye(len(labels), dtype=bool), dist, -np.inf)
    negatives = np.where(same, np.inf, dist)
    pos = np.argmax(positives, axis=1).tolist()
    neg = np.argmin(negatives, axis=1).tolist()
    return list(zip(range(len(labels)), pos, neg))


def combined_loss_and_grads(head, prototypes, x, labels):
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    batch = x.shape[0]
    cw, tw = head.loss_weights
    y = x @ head.w + head.b
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    if np.any(norms < expert._NORM_EPS):
        raise DataValidationError("zero embedding cannot be normalized")
    e = y / norms
    logits = e @ prototypes
    logits -= logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    probs = expl / expl.sum(axis=1, keepdims=True)
    rows = np.arange(batch)
    ce = -np.mean(np.log(np.maximum(probs[rows, labels], 1e-300)))
    dlogits = probs.copy()
    dlogits[rows, labels] -= 1.0
    dlogits /= batch
    grad_protos = cw * (e.T @ dlogits)
    de = cw * (dlogits @ prototypes.T)
    a, p, n = np.array(batch_hard_mine(e, labels), dtype=np.intp).T
    diff_p, diff_n = e[a] - e[p], e[a] - e[n]
    d_ap = np.sqrt((diff_p[:, None, :] @ diff_p[:, :, None])[:, 0, 0])
    d_an = np.sqrt((diff_n[:, None, :] @ diff_n[:, :, None])[:, 0, 0])
    hinge = d_ap - d_an + head.margin
    live = hinge > 0
    tri_loss = sum(hinge[live].tolist()) / batch
    coef = tw / batch
    use_p = live & (d_ap > expert._NORM_EPS)
    use_n = live & (d_an > expert._NORM_EPS)
    g_p = coef * diff_p / np.where(use_p, d_ap, 1.0)[:, None]
    g_n = coef * diff_n / np.where(use_n, d_an, 1.0)[:, None]
    use = np.stack([use_p, use_p, use_n, use_n], axis=1)
    np.add.at(
        de,
        np.stack([a, p, a, n], axis=1)[use],
        np.stack([g_p, -g_p, -g_n, g_n], axis=1)[use],
    )
    dy = (de - np.sum(de * e, axis=1, keepdims=True) * e) / norms
    return cw * ce + tw * tri_loss, x.T @ dy, dy.sum(axis=0), grad_protos


def expert_batches(raw_set, p_instances, q_images, rng):
    """One epoch of P x Q batches: (rows, labels), a label being the
    instance's position in sorted order. Two draws per epoch: a permutation
    of the instances, then a block of uniform keys with a row per instance
    and a column per image of the largest instance. Each instance takes its
    images in the order of a stable sort of its own keys, at most Q."""
    instances = sorted(raw_set.instance_index)
    image_lists = [raw_set.instance_index[inst] for inst in instances]
    order = rng.permutation(len(instances))
    keys = rng.random((len(instances), max(len(ids) for ids in image_lists)))
    for start in range(0, len(order) - 1, p_instances):
        chosen = order[start : start + p_instances]
        if len(chosen) < 2:
            continue
        rows, labels = [], []
        for local in chosen:
            image_ids = image_lists[local]
            row = keys[local].tolist()
            by_key = sorted(range(len(image_ids)), key=lambda i: row[i])
            for i in by_key[:q_images]:
                rows.append(raw_set.row_of(image_ids[i]))
                labels.append(local)
        yield np.asarray(rows), np.asarray(labels)


def train_expert(raw_set, config):
    instances = sorted(raw_set.instance_index)
    label_of = {inst: i for i, inst in enumerate(instances)}
    d_raw = raw_set.dimension
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xE8]))
    lim = 1.0 / math.sqrt(d_raw)
    head = expert.ExpertHead(
        w=rng.uniform(-lim, lim, size=(d_raw, config.d_out)),
        b=np.zeros(config.d_out),
        margin=config.margin,
        loss_weights=config.loss_weights,
    )
    lim = 1.0 / math.sqrt(config.d_out)
    prototypes = rng.uniform(-lim, lim, size=(head.w.shape[1], len(instances)))
    matrix = np.asarray(raw_set.matrix(), dtype=np.float64)
    record_labels = np.asarray([label_of[inst] for inst in raw_set.instance_ids])
    for _ in range(config.epochs):
        for rows, _labels in expert_batches(raw_set, config.p_instances, config.q_images, rng):
            _, gw, gb, gp = combined_loss_and_grads(
                head, prototypes, matrix[rows], record_labels[rows]
            )
            head.w -= config.step_size * gw
            head.b -= config.step_size * gb
            prototypes -= config.step_size * gp
    return head


class Adam:
    def __init__(self, size, step, beta1=0.9, beta2=0.999, eps=1e-8):
        self.step, self.beta1, self.beta2, self.eps = step, beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def update(self, param, grad):
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        mh = self.m / (1 - self.beta1**self.t)
        vh = self.v / (1 - self.beta2**self.t)
        param -= self.step * mh / (np.sqrt(vh) + self.eps)


def batch_matching_loss_and_grads(adapter, views, rows, answers, readout_temperature=0.1,
                                  need_grads=True):
    """The adapter step in unit-vector form, on fresh arrays: the images as
    (B*(K+1), .) rows, u = p/|p| once per pooled vector, the cosines as dot
    products of unit vectors, and the backward pass through u."""
    b, m = rows.shape
    idx = rows.ravel()
    x = views.experts[idx]
    z = x @ adapter.w1 + adapter.b1
    a = np.maximum(0.0, z)
    counts = views.token_counts[idx][:, None]
    p = (a @ adapter.w2 + adapter.b2) / counts + views.token_means[idx]
    norms = np.sqrt(np.vecdot(p, p))[:, None]
    u = p / norms
    uq, ug = u.reshape(b, m, -1)[:, :1], u.reshape(b, m, -1)[:, 1:]
    scores = np.vecdot(ug, uq) / readout_temperature
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    picked = np.arange(b)
    losses = -np.log(np.maximum(probs[picked, answers], 1e-300))
    if not need_grads:
        return losses, None
    g = probs.copy()
    g[picked, answers] -= 1.0
    g /= readout_temperature
    du = np.empty((b, m, u.shape[1]))
    du[:, :1] = g[:, None, :] @ ug  # dU_q = sum_k g_k u_k
    du[:, 1:] = g[:, :, None] * uq  # dU_k = g_k u_q
    du = du.reshape(b * m, -1)
    dp = (du - np.vecdot(du, u)[:, None] * u) / (norms * counts)
    dz = (dp @ adapter.w2.T) * (z > 0)
    return losses, fusion.AdapterGrads(
        w1=x.T @ dz, b1=dz.sum(axis=0), w2=a.T @ dp, b2=dp.sum(axis=0)
    )


def quotient_rule_batch_matching_loss_and_grads(adapter, views, rows, answers,
                                                readout_temperature=0.1, need_grads=True):
    """The same step written as the quotient rule of cos = q.g / (|q| |g|)
    on (B, K+1, .) arrays: the formula the adapter trained with before the
    unit-vector form. Equal in exact arithmetic, not in float64 rounding."""
    b, m = rows.shape
    x = views.experts[rows]
    z = x @ adapter.w1 + adapter.b1
    a = np.maximum(0.0, z)
    counts = views.token_counts[rows][..., None]
    pooled = views.token_means[rows] + (a @ adapter.w2 + adapter.b2) / counts
    norms = np.sqrt(np.einsum("bmd,bmd->bm", pooled, pooled))
    q, g = pooled[:, :1], pooled[:, 1:]
    nq, ng = norms[:, :1, None], norms[:, 1:, None]
    cos = np.einsum("bqd,bkd->bk", q, g)[..., None] / (nq * ng)
    scores = cos[..., 0] / readout_temperature
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    picked = np.arange(b)
    losses = -np.log(np.maximum(probs[picked, answers], 1e-300))
    if not need_grads:
        return losses, None
    dscores = probs
    dscores[picked, answers] -= 1.0
    gsc = (dscores / readout_temperature)[..., None]
    d_q = (gsc * (g / (nq * ng) - cos * q / (nq * nq))).sum(axis=1, keepdims=True)
    d_g = gsc * (q / (nq * ng) - cos * g / (ng * ng))
    d_proj = (np.concatenate([d_q, d_g], axis=1) / counts).reshape(b * m, -1)
    a, z, x = a.reshape(b * m, -1), z.reshape(b * m, -1), x.reshape(b * m, -1)
    d_z = (d_proj @ adapter.w2.T) * (z > 0)
    return losses, fusion.AdapterGrads(
        w1=x.T @ d_z, b1=d_z.sum(axis=0), w2=a.T @ d_proj, b2=d_proj.sum(axis=0)
    )


def train_adapter(adapter_init, tasks, token_maps, expert_vectors, config):
    index: dict[str, int] = {}
    for task in tasks:
        for image_id in (task.query_id, *task.gallery_ids):
            index.setdefault(image_id, len(index))
    views = fusion.matching_views(
        adapter_init, [token_maps[i] for i in index], [expert_vectors[i] for i in index]
    )
    sizes = np.array([len(t.gallery_ids) for t in tasks])
    slot = np.empty(len(tasks), dtype=np.intp)
    tables = {}
    for k in sorted(set(sizes.tolist())):
        members = np.flatnonzero(sizes == k)
        slot[members] = np.arange(len(members))
        tables[k] = (
            np.array([[index[i] for i in (tasks[t].query_id, *tasks[t].gallery_ids)]
                      for t in members]),
            np.array([tasks[t].answer_index for t in members]),
        )
    temperature = config.readout_temperature

    def batch_loss(current, batch, need_grads=True):
        losses, grad = np.empty(len(batch)), None
        for k, (rows, answers) in tables.items():
            in_k = sizes[batch] == k
            if not in_k.any():
                continue
            picked = slot[batch[in_k]]
            part, grads = batch_matching_loss_and_grads(
                current, views, rows[picked], answers[picked], temperature, need_grads
            )
            losses[in_k] = part
            if need_grads:
                g = np.concatenate([grads.w1.ravel(), grads.b1, grads.w2.ravel(), grads.b2])
                grad = g if grad is None else grad + g
        return losses, grad

    # one flat vector of all the parameters, and an adapter of views into it
    params = (adapter_init.w1, adapter_init.b1, adapter_init.w2, adapter_init.b2)
    flat = np.concatenate([p.ravel() for p in params])
    ends = np.cumsum([p.size for p in params])
    adapter = fusion.FusionAdapter(
        *(part.reshape(p.shape) for part, p in zip(np.split(flat, ends[:-1]), params)),
        adapter_init.temperature,
    )
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x7A1]))

    def mean_loss(current):
        losses = [
            batch_loss(current, np.arange(s, min(s + 64, len(tasks))), False)[0]
            for s in range(0, len(tasks), 64)
        ]
        return sum(np.concatenate(losses).tolist()) / len(tasks)

    initial_loss = mean_loss(adapter)
    best_loss, best = initial_loss, adapter.copy()
    optimizer = Adam(flat.size, config.step_size)
    order = np.arange(len(tasks))
    for _ in range(config.epochs):
        rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            losses, grad = batch_loss(adapter, batch)
            for loss in losses.tolist():
                epoch_loss += loss
            optimizer.update(flat, grad * (1.0 / len(batch)))
        epoch_loss /= len(order)
        if epoch_loss < best_loss:
            best_loss, best = epoch_loss, adapter.copy()
    return best if mean_loss(adapter) > initial_loss else adapter


def init_adapter(expert_dim: int, output_dim: int, seed: int = 0) -> fusion.FusionAdapter:
    """A seeded random adapter, the start the trainer oracle cases fine-tune
    from: uniform in +/- 1/sqrt(fan_in) with max(expert_dim, output_dim)
    hidden units and temperature 1, the final layer scaled by 0.1 so the
    fusion is a small perturbation of the tokens."""
    hidden = max(expert_dim, output_dim)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xADA7]))
    lim1 = 1.0 / math.sqrt(expert_dim)
    lim2 = 1.0 / math.sqrt(hidden)
    return fusion.FusionAdapter(
        w1=rng.uniform(-lim1, lim1, size=(expert_dim, hidden)),
        b1=rng.uniform(-lim1, lim1, size=hidden),
        w2=0.1 * rng.uniform(-lim2, lim2, size=(hidden, output_dim)),
        b2=0.1 * rng.uniform(-lim2, lim2, size=output_dim),
    )


def pick_scale(tasks, token_maps, expert_vectors, mu, p):
    """fusion.fit_adapter's choice of scale written as a loop over scales
    and tasks: each image pooled alone as mean(tokens) + s (e - mu) P / N,
    each task scored by score_gallery's cosine, the first best score
    taken as the answer. Returns the scale answering the most tasks, the
    first of equal counts, and the fraction answered at each scale."""
    accuracies = {}
    for scale in fusion.SCALES:
        correct = 0
        for task in tasks:
            pooled = []
            for image_id in (task.query_id, *task.gallery_ids):
                tokens = token_maps[image_id]
                tokens = np.asarray(getattr(tokens, "tokens", tokens), dtype=np.float64)
                shifted = (np.asarray(expert_vectors[image_id], dtype=np.float64) - mu) @ p
                pooled.append(tokens.mean(axis=0) + scale * (shifted / tokens.shape[0]))
            scores = score_gallery(pooled[0], np.array(pooled[1:]))
            correct += int(np.argmax(scores)) == task.answer_index
        accuracies[scale] = correct / len(tasks)
    best = max(accuracies.values())
    return next(s for s in fusion.SCALES if accuracies[s] == best), accuracies
