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


def fit_expert(raw_set, d_out):
    """expert.fit_expert with its scatters summed image by image: the mean,
    each instance's mean and the within- and between-instance covariances as
    sums of outer products, then the same two eigen-decompositions, and the
    columns whitened, ordered, cut and signed one at a time."""
    rows = [np.asarray(v, dtype=np.float64) for v in raw_set.matrix()]
    n, d = len(rows), len(rows[0])
    mu = np.zeros(d)
    for row in rows:
        mu += row
    mu /= n
    sums, counts = {}, {}
    for instance, row in zip(raw_set.instance_ids, rows):
        sums[instance] = sums.get(instance, np.zeros(d)) + (row - mu)
        counts[instance] = counts.get(instance, 0) + 1
    if len(sums) < 2:
        raise DataValidationError("the expert fit needs >= 2 training instances")
    s_w, s_b = np.zeros((d, d)), np.zeros((d, d))
    for instance, row in zip(raw_set.instance_ids, rows):
        mean = sums[instance] / counts[instance]
        s_w += np.outer(row - mu - mean, row - mu - mean)
        s_b += np.outer(mean, mean)
    s_w /= n
    s_b /= n
    variance = (np.trace(s_w) + np.trace(s_b)) / d
    ridge = expert._RIDGE * variance
    values, vectors = np.linalg.eigh(s_w)
    whitening = np.zeros((d, d))
    for j in range(d):
        whitening[:, j] = vectors[:, j] / math.sqrt(max(values[j], 0.0) + ridge)
    directions = np.linalg.eigh(whitening.T @ s_b @ whitening)[1]
    w = np.zeros((d, d_out))
    for j in range(min(d, d_out)):
        column = whitening @ directions[:, d - 1 - j]  # by falling eigenvalue
        w[:, j] = -column if column[np.argmax(np.abs(column))] < 0 else column
    return expert.ExpertHead(w, -(mu @ w))


# --- The adapter training step written plainly, before the in-place,
# buffer-reusing version in ilrkit.fusion: the adapter step on fresh arrays,
# Adam through fresh temporaries, and one flat gradient concatenated per
# gallery size. The trainer must give bit-equal parameters.


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
