/* The dispatch-order FCFS recursion of `engine.run` for one stage under rr,
 * jiq, lwl or card, compiled on first use by `dispatchsim.kernel`.
 *
 * Each function dispatches tasks k..T-1 of a stage of servers
 * offset..offset+count-1: task k is ready at arr[k] and needs req[k]. It
 * picks a server g as the Python chooser in `policies.py` would, then takes
 * the FCFS step of `engine._fcfs`: c += r/speed if the task joins g's busy
 * period, else c = a + r/speed. It writes done[k] and where[k] and updates
 * clear[g], busy[g] and since[g] in place.
 *
 * Output must be bit-identical to `engine._stage`, so build with -O2
 * -ffp-contract=off and never with -ffast-math or -march=native: contracting
 * a*b+c into an FMA or reassociating a sum changes the last bit.
 *
 * Tie-breaks read `halves`, the policy stream's 64-bit words split into
 * their low then high 32-bit halves by `randomness.halves`, from index *pos
 * on: the order in which numpy's generator hands out 32-bit draws. jiq and
 * lwl map one half to an index by Lemire's method (ACM TOMACS 2019), as
 * `randomness.UniformIndex` does; card replays `Generator.permutation(count)`.
 * A dispatch that runs out of halves returns its own index with *pos at its
 * first draw and leaves all state as it was; the caller appends halves and
 * calls again from that index.
 */

#include <stddef.h>
#include <stdint.h>

static void serve(ptrdiff_t k, ptrdiff_t g, double a, double r, double speed,
                  double *clear, double *busy, double *since, double *done, ptrdiff_t *where)
{
    double c = clear[g];
    if (a <= c) { /* joins the busy period */
        c += r / speed;
    } else { /* the previous busy period closed at c */
        busy[g] += c - since[g];
        since[g] = a;
        c = a + r / speed;
    }
    clear[g] = c;
    done[k] = c;
    where[k] = g;
}

/* Unfinished work of a server whose backlog empties at `clear`. */
static double backlog(double clear, double now, double speed)
{
    double gap = clear - now;
    return gap > 0.0 ? gap * speed : 0.0;
}

/* A uniform index in [0, k), k >= 2, as `rng.integers(k)` draws it. */
static int uniform(uint32_t k, const uint32_t *halves, ptrdiff_t len, ptrdiff_t *p, uint32_t *out)
{
    if (*p >= len)
        return 0;
    uint64_t m = (uint64_t)halves[(*p)++] * k;
    if ((uint32_t)m < k) {
        uint32_t floor = (uint32_t)(0 - k) % k;
        while ((uint32_t)m < floor) {
            if (*p >= len)
                return 0;
            m = (uint64_t)halves[(*p)++] * k;
        }
    }
    *out = (uint32_t)(m >> 32);
    return 1;
}

/* `rng.permutation(count)`: Fisher-Yates from i = count-1 down to 1, each
 * step drawing masked halves until one is <= i. */
static int permutation(ptrdiff_t *perm, ptrdiff_t count, const uint32_t *halves,
                       ptrdiff_t len, ptrdiff_t *p)
{
    for (ptrdiff_t j = 0; j < count; j++)
        perm[j] = j;
    for (ptrdiff_t i = count - 1; i > 0; i--) {
        uint32_t mask = (uint32_t)i, v;
        mask |= mask >> 1;
        mask |= mask >> 2;
        mask |= mask >> 4;
        mask |= mask >> 8;
        mask |= mask >> 16;
        do {
            if (*p >= len)
                return 0;
            v = halves[(*p)++] & mask;
        } while (v > (uint32_t)i);
        ptrdiff_t t = perm[i];
        perm[i] = perm[v];
        perm[v] = t;
    }
    return 1;
}

void dispatch_rr(ptrdiff_t T, const double *arr, const double *req, ptrdiff_t offset,
                 ptrdiff_t count, double speed, double *clear, double *busy, double *since,
                 double *done, ptrdiff_t *where)
{
    for (ptrdiff_t k = 0; k < T; k++)
        serve(k, offset + k % count, arr[k], req[k], speed, clear, busy, since, done, where);
}

/* `least_work_left`: the least backlog, ties uniform over the minimizers in
 * server order. `ties` has room for count indices. */
ptrdiff_t dispatch_lwl(ptrdiff_t T, const double *arr, const double *req, ptrdiff_t offset,
                       ptrdiff_t count, double speed, double *clear, double *busy,
                       double *since, double *done, ptrdiff_t *where, ptrdiff_t k,
                       const uint32_t *halves, ptrdiff_t len, ptrdiff_t *pos, ptrdiff_t *ties)
{
    const double *stage = clear + offset;
    for (; k < T; k++) {
        double a = arr[k], best = backlog(stage[0], a, speed);
        ptrdiff_t tied = 1;
        ties[0] = 0;
        for (ptrdiff_t j = 1; j < count; j++) {
            double w = backlog(stage[j], a, speed);
            if (w < best) {
                best = w;
                ties[0] = j;
                tied = 1;
            } else if (w == best) {
                ties[tied++] = j;
            }
        }
        ptrdiff_t j = ties[0], p = *pos;
        if (tied > 1) {
            uint32_t u;
            if (!uniform((uint32_t)tied, halves, len, &p, &u))
                return k;
            *pos = p;
            j = ties[u];
        }
        serve(k, offset + j, a, req[k], speed, clear, busy, since, done, where);
    }
    return T;
}

/* jiq's lazy heap of (clear, g) drain instants, ordered as Python orders the
 * tuples. It holds at most one entry per server. */
static int earlier(double c, ptrdiff_t g, double d, ptrdiff_t h)
{
    return c < d || (c == d && g < h);
}

static void heap_push(double *hc, ptrdiff_t *hg, ptrdiff_t *len, double c, ptrdiff_t g)
{
    ptrdiff_t i = (*len)++;
    while (i > 0) {
        ptrdiff_t up = (i - 1) / 2;
        if (!earlier(c, g, hc[up], hg[up]))
            break;
        hc[i] = hc[up];
        hg[i] = hg[up];
        i = up;
    }
    hc[i] = c;
    hg[i] = g;
}

static void heap_pop(double *hc, ptrdiff_t *hg, ptrdiff_t *len)
{
    ptrdiff_t n = --*len, i = 0;
    double c = hc[n];
    ptrdiff_t g = hg[n];
    for (;;) {
        ptrdiff_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && earlier(hc[child + 1], hg[child + 1], hc[child], hg[child]))
            child++;
        if (!earlier(hc[child], hg[child], c, g))
            break;
        hc[i] = hc[child];
        hg[i] = hg[child];
        i = child;
    }
    hc[i] = c;
    hg[i] = g;
}

/* Fields of jiq's state vector `st`, which persists across calls. */
enum { HEAP_LEN, IDLE_LEN, READY, TIED, OUT };

/* `engine._jiq_choose` over `policies.JoinIdleQueue`: a uniformly random
 * idle server, else one uniform over the stage. Before dispatch k, every
 * fresh heap entry that drains before k pops (clear < a; on stage 1 also
 * clear == a when the server's last completion pops first) joins the idle
 * table; a stale entry, whose server got more work since its push, is pushed
 * again at its current clear. These drains are collected in heap order into
 * cand_c/cand_g (global servers). If two share an instant, or one is at a,
 * only the calendar's pop order settles them: the call returns k with
 * st[TIED] = their number, and the caller writes back into cand_g the
 * servers that drain, in pop order, then those held in the heap, sets
 * st[OUT] to the number that drain and calls again from k. st[READY] is the
 * dispatch whose drains are done, so no call repeats them.
 *
 * heap_c/heap_g hold the heap; idle and slot (count entries each, stage
 * local) the idle table and each server's place in it, or -1 if busy. A
 * busy server has exactly one heap entry, so a server is pushed when it
 * leaves the table, as `JoinIdleQueue.on_assign` reports to `_jiq_choose`.
 * A chosen idle server leaves the table by swap-remove, and a drained one
 * is appended. */
ptrdiff_t dispatch_jiq(ptrdiff_t T, const double *arr, const double *req, ptrdiff_t offset,
                       ptrdiff_t count, double speed, double *clear, double *busy,
                       double *since, double *done, ptrdiff_t *where, ptrdiff_t k,
                       const uint32_t *halves, ptrdiff_t len, ptrdiff_t *pos, ptrdiff_t stage1,
                       double *heap_c, ptrdiff_t *heap_g, ptrdiff_t *idle, ptrdiff_t *slot,
                       double *cand_c, ptrdiff_t *cand_g, ptrdiff_t *st)
{
    for (; k < T; k++) {
        double a = arr[k];
        if (st[READY] != k) {
            ptrdiff_t m = st[TIED], out = st[OUT], i;
            if (m) { /* the caller settled the tie */
                st[TIED] = 0;
            } else {
                int tied = 0;
                while (st[HEAP_LEN] && (heap_c[0] < a || (stage1 && heap_c[0] == a))) {
                    double c = heap_c[0];
                    ptrdiff_t g = heap_g[0];
                    heap_pop(heap_c, heap_g, &st[HEAP_LEN]);
                    if (clear[g] != c) { /* more work since the push */
                        heap_push(heap_c, heap_g, &st[HEAP_LEN], clear[g], g);
                        continue;
                    }
                    tied |= c == a || (m && cand_c[m - 1] == c);
                    cand_c[m] = c;
                    cand_g[m++] = g;
                }
                if (tied) {
                    st[TIED] = m;
                    return k;
                }
                out = m;
            }
            for (i = 0; i < out; i++) {
                ptrdiff_t j = cand_g[i] - offset;
                slot[j] = st[IDLE_LEN];
                idle[st[IDLE_LEN]++] = j;
            }
            for (; i < m; i++)
                heap_push(heap_c, heap_g, &st[HEAP_LEN], clear[cand_g[i]], cand_g[i]);
            st[READY] = k;
        }
        ptrdiff_t n_idle = st[IDLE_LEN], span = n_idle ? n_idle : count, p = *pos, j;
        uint32_t u = 0;
        if (span > 1) {
            if (!uniform((uint32_t)span, halves, len, &p, &u))
                return k;
            *pos = p;
        }
        j = n_idle ? idle[u] : (ptrdiff_t)u;
        serve(k, offset + j, a, req[k], speed, clear, busy, since, done, where);
        if (slot[j] >= 0) { /* the chosen idle server leaves the table */
            ptrdiff_t last = idle[--st[IDLE_LEN]];
            idle[slot[j]] = last;
            slot[last] = slot[j];
            slot[j] = -1;
            heap_push(heap_c, heap_g, &st[HEAP_LEN], clear[offset + j], offset + j);
        }
    }
    return T;
}

/* Whether server x ranks before server y: by backlog, ties by rank in the
 * permutation, as `np.lexsort((tie, work))` orders them. */
static int before(ptrdiff_t x, ptrdiff_t y, const double *work, const ptrdiff_t *tie)
{
    return work[x] < work[y] || (work[x] == work[y] && tie[x] < tie[y]);
}

/* Reorder idx[0..n) so idx[r] is the server of rank r and every later
 * position holds a server of higher rank (Hoare's selection). */
static ptrdiff_t select_rank(ptrdiff_t *idx, ptrdiff_t n, ptrdiff_t r, const double *work,
                             const ptrdiff_t *tie)
{
    ptrdiff_t lo = 0, hi = n - 1;
    while (lo < hi) {
        ptrdiff_t pivot = idx[lo + (hi - lo) / 2], i = lo, j = hi;
        while (i <= j) {
            while (before(idx[i], pivot, work, tie))
                i++;
            while (before(pivot, idx[j], work, tie))
                j--;
            if (i <= j) {
                ptrdiff_t t = idx[i];
                idx[i++] = idx[j];
                idx[j--] = t;
            }
        }
        if (r <= j)
            hi = j;
        else if (r >= i)
            lo = i;
        else
            break;
    }
    return idx[r];
}

/* The first of idx[0..n) in rank order (last = 0), or the last (last = 1). */
static ptrdiff_t extreme(const ptrdiff_t *idx, ptrdiff_t n, int last, const double *work,
                         const ptrdiff_t *tie)
{
    ptrdiff_t best = idx[0];
    for (ptrdiff_t i = 1; i < n; i++)
        if (last ? before(best, idx[i], work, tie) : before(idx[i], best, work, tie))
            best = idx[i];
    return best;
}

/* `multi_band_card`: a task of size s below m[0] goes to rank 0, one at or
 * above m[count-1] to rank count-1, else to rank b-1 with b = bisect_right(m,
 * s), spilling to rank b if that server's backlog exceeds cut[b-1]. `work`,
 * `tie` and `idx` have room for count entries; m holds count boundaries. */
ptrdiff_t dispatch_card(ptrdiff_t T, const double *arr, const double *req, ptrdiff_t offset,
                        ptrdiff_t count, double speed, double *clear, double *busy,
                        double *since, double *done, ptrdiff_t *where, ptrdiff_t k,
                        const uint32_t *halves, ptrdiff_t len, ptrdiff_t *pos,
                        const double *size, const double *m, const double *cut, double *work,
                        ptrdiff_t *tie, ptrdiff_t *idx)
{
    for (; k < T; k++) {
        double a = arr[k], s = size[k];
        for (ptrdiff_t j = 0; j < count; j++) {
            work[j] = backlog(clear[offset + j], a, speed);
            idx[j] = j;
        }
        ptrdiff_t p = *pos, j;
        if (!permutation(tie, count, halves, len, &p))
            return k;
        *pos = p;
        if (s < m[0]) {
            j = extreme(idx, count, 0, work, tie);
        } else if (s >= m[count - 1]) {
            j = extreme(idx, count, 1, work, tie);
        } else {
            ptrdiff_t band = 0, hi = count; /* bisect_right */
            while (band < hi) {
                ptrdiff_t mid = band + (hi - band) / 2;
                if (s < m[mid])
                    hi = mid;
                else
                    band = mid + 1;
            }
            j = select_rank(idx, count, band - 1, work, tie);
            if (!(work[j] <= cut[band - 1]))
                j = extreme(idx + band, count - band, 0, work, tie);
        }
        serve(k, offset + j, a, req[k], speed, clear, busy, since, done, where);
    }
    return T;
}
