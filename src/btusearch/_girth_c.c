/* Compiled girth kernel, pair scorer, slot matcher, cycle grower and pair
 * coder; _girth_py is the reference implementation of all five.
 *
 * A batch is a table of image rows plus a row index.  The table holds
 * rows of m unsigned ints of 1, 2 or 4 bytes, each a 0-based one-line
 * image; graph g has r slots, and slot t is table row index[g*r + t]:
 * row vertex i is joined to column vertex row[i].  The girth is the
 * length of the shortest cycle (2 for a double edge), or 0 for a forest.
 *
 * The pair scorer takes no index: it scores, in (final, word) order, the
 * graphs whose slot t is table row t but whose slot `at` is a word row
 * and slot r-1 a final row, for the pairs of a final range and a word
 * range whose rows differ at every point, and returns the position and
 * girth of each.  It loads the fixed slots once, each final once, and
 * each word in the pass that tests it against the final.  Both scorers
 * share one BFS, which resets only the vertices it queued, and which
 * runs from rows 0..p-1 only when the caller promises that every slot
 * commutes with x -> x + p.
 *
 * The matcher splits an r-regular bipartite graph, given as the r
 * columns of each row, into r perfect matchings: the slots of a BTU read
 * from a file.
 *
 * The grower lists the n-cycles w of 0..n-1 that a search stage keeps
 * for its replaced slot and its level-2 finals, depth-first in the order
 * of their words, and prunes a prefix at the first entry that fails a
 * filter.  It reads the few rows w must avoid, in O(n) memory.
 *
 * The pair coder takes pairs (a, b) of table rows and writes, for each,
 * an int64 code of the cycle type of x -> inv(a)[b[x]]: the union-cycle
 * partition of the pair that the oracle's census groups tuples by.
 * Every call runs without the GIL, so threads can share a search.
 *
 * ABI numbers the calls' signatures and contracts; _kernel imports this
 * module only when its ABI equals _kernel.ABI, so bump both together.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { ABI = 3 };

enum {
    OK = 0, NO_MEMORY = -1, BAD_IMAGE = -2, BAD_ROW = -3, NOT_REGULAR = -4, BAD_HEAD = -5,
    BAD_DIGIT = -6, BAD_AVOID = -7
};

/* A scoring call's input and output.  girth_batch reads graph g's slot t
 * from table row index[g*r + t]; girth_pairs reads slot t from row t,
 * but slot `at` from each word row w0..w1-1 and slot r-1 from each final
 * row f0..f1-1, and writes each scored pair's position to pairs.  With
 * period > 0 every slot commutes with x -> x + period. */
typedef struct {
    const char *table;
    Py_ssize_t rows;
    int itemsize;
    const int *index;
    Py_ssize_t n, f0, f1, w0, w1;
    int m, r, at, cutoff, slack, stop, period;
    int64_t *pairs;
    int *out;
} Batch;

static inline unsigned item(const char *row, int itemsize, int i)
{
    if (itemsize == 1)
        return ((const unsigned char *)row)[i];
    if (itemsize == 2) {
        uint16_t v;
        memcpy(&v, row + 2 * (Py_ssize_t)i, 2);
        return v;
    }
    uint32_t v;
    memcpy(&v, row + 4 * (Py_ssize_t)i, 4);
    return v;
}

static inline const char *row_at(const Batch *b, Py_ssize_t row)
{
    return b->table + row * (Py_ssize_t)b->m * b->itemsize;
}

/* Copies a table row into img and its inverse into inv, checking that it
 * is a permutation of 0..m-1: OK or BAD_IMAGE.  Inlined once per item
 * size, so each copy reads a fixed width. */
static inline int load_as(const char *row, int m, int *img, int *inv, int itemsize)
{
    memset(inv, 0xff, (size_t)m * sizeof(int));
    for (int i = 0; i < m; i++) {
        unsigned v = item(row, itemsize, i);
        if (v >= (unsigned)m || inv[v] >= 0)
            return BAD_IMAGE;
        img[i] = (int)v;
        inv[v] = i;
    }
    return OK;
}

static int load(const Batch *b, Py_ssize_t row, int *img, int *inv)
{
    if (b->itemsize == 1)
        return load_as(row_at(b, row), b->m, img, inv, 1);
    if (b->itemsize == 2)
        return load_as(row_at(b, row), b->m, img, inv, 2);
    return load_as(row_at(b, row), b->m, img, inv, 4);
}

/* Loads a word row into img and inv when it differs from final at every
 * point: 1 when loaded, 0 when some point agrees, BAD_IMAGE when it
 * differs everywhere but is not a permutation.  A value counts as taken
 * when mark holds stamp for it, so no array is cleared per word. */
static inline int load_word_as(const char *row, const int *final, int m, int *img, int *inv,
                               unsigned *mark, unsigned stamp, int itemsize)
{
    int bad = 0;
    for (int i = 0; i < m; i++) {
        unsigned v = item(row, itemsize, i);
        if (v == (unsigned)final[i])
            return 0;
        if (v >= (unsigned)m || mark[v] == stamp) {
            bad = 1;
            continue;
        }
        mark[v] = stamp;
        img[i] = (int)v;
        inv[v] = i;
    }
    return bad ? BAD_IMAGE : 1;
}

static int load_word(const Batch *b, Py_ssize_t row, const int *final, int *img, int *inv,
                     unsigned *mark, unsigned stamp)
{
    if (b->itemsize == 1)
        return load_word_as(row_at(b, row), final, b->m, img, inv, mark, stamp, 1);
    if (b->itemsize == 2)
        return load_word_as(row_at(b, row), final, b->m, img, inv, mark, stamp, 2);
    return load_word_as(row_at(b, row), final, b->m, img, inv, mark, stamp, 4);
}

/* Whether two slots agree at some row: a double edge, a cycle of 2. */
static int twice(const int *img, int m, int r)
{
    for (Py_ssize_t at = m; at < (Py_ssize_t)r * m; at += m)
        for (Py_ssize_t s = 0; s < at; s += m)
            for (int i = 0; i < m; i++)
                if (img[s + i] == img[at + i])
                    return 1;
    return 0;
}

/* With r = 2 the graph is a union of cycles: row i reaches row
 * inv0[img1[i]] through two edges, so the girth is twice the shortest
 * cycle of that map, whose fixed points are the double edges.  seen
 * holds m ints. */
static int girth_two(const int *img, const int *inv, int m, int *seen)
{
    int best = 0;
    memset(seen, 0, (size_t)m * sizeof(int));
    for (int s = 0; s < m && best != 2; s++) {
        int len = 0;
        for (int i = s; !seen[i]; i = inv[img[m + i]], len++)
            seen[i] = 1;
        if (len && (!best || 2 * len < best))
            best = 2 * len;
    }
    return best;
}

/* The work buffer of one call: the loaded graph and the BFS arrays.
 * dist holds -1 for every vertex between searches. */
typedef struct {
    int *img, *inv, *dist, *parent, *queue;
} Work;

static int *start_work(const Batch *b, Work *w)
{
    Py_ssize_t rm = (Py_ssize_t)b->r * b->m, nv = 2 * (Py_ssize_t)b->m;
    int *all = malloc((size_t)(2 * rm + 3 * nv) * sizeof(int));
    if (all) {
        w->img = all;
        w->inv = all + rm;
        w->dist = w->inv + rm;
        w->parent = w->dist + nv;
        w->queue = w->parent + nv;
        memset(w->dist, 0xff, (size_t)nv * sizeof(int));
    }
    return all;
}

/* The girth of the loaded graph, by one BFS from each source row (every
 * cycle passes through a row vertex): rows 0..period-1 with period > 0,
 * whose shift orbits hold every row, or else every row.  The search ends
 * at the first cycle of length 4, the shortest a bipartite graph without
 * double edges has, or at most cutoff: a girth <= cutoff may then come
 * back as any value in [girth, cutoff], while a larger girth is exact.
 * Every BFS value is the length of a closed walk, so never below the
 * girth; only a value above cutoff must be exact, and only then are
 * double edges looked for.  Each BFS resets only the vertices it queued. */
static int score(const Batch *b, int cutoff, const Work *w)
{
    int m = b->m, r = b->r, best = 0, enough = cutoff > 4 ? cutoff : 4, done = 0;
    int sources = b->period > 0 ? b->period : m;
    Py_ssize_t rm = (Py_ssize_t)r * m;
    const int *img = w->img, *inv = w->inv;
    int *dist = w->dist, *parent = w->parent, *queue = w->queue;
    if (r == 2)
        return girth_two(img, inv, m, queue);

    for (int s = 0; s < sources && !done; s++) {
        dist[s] = 0;
        parent[s] = -1;
        int head = 0, tail = 0;
        queue[tail++] = s;
        while (head < tail && !done) {
            int u = queue[head++], du = dist[u], pu = parent[u];
            if (best && 2 * du >= best)
                continue;
            /* A row's neighbours are its columns, img + m; a column's its rows. */
            const int *next = u < m ? img + u : inv + (u - m);
            int offset = u < m ? m : 0;
            for (Py_ssize_t t = 0; t < rm; t += m) {
                int v = next[t] + offset;
                if (dist[v] < 0) {
                    dist[v] = du + 1;
                    parent[v] = u;
                    queue[tail++] = v;
                } else if (v != pu && (!best || du + dist[v] + 1 < best)) {
                    best = du + dist[v] + 1;
                    if ((done = best <= enough))
                        break;
                }
            }
        }
        while (tail)
            dist[queue[--tail]] = -1;
    }
    return best > cutoff && twice(img, m, r) ? 2 : best;
}

/* Records an entry: raises the cutoff to the best entry minus slack, and
 * returns whether the call ends, at an entry >= stop when stop > 0. */
static inline int record(const Batch *b, int girth, int *best, int *cutoff)
{
    if (girth > *best)
        *best = girth;
    if (*best - b->slack > *cutoff)
        *cutoff = *best - b->slack;
    return b->stop > 0 && girth >= b->stop;
}

/* Checks every row index, then scores graphs in order until the batch
 * ends or an entry reaches stop.  Returns the graphs scored, or a status
 * below 0. */
static Py_ssize_t girth_many(const Batch *b)
{
    for (Py_ssize_t i = 0; i < b->n * b->r; i++)
        if (b->index[i] < 0 || b->index[i] >= b->rows)
            return BAD_ROW;
    Work w;
    int *all = start_work(b, &w);
    if (!all)
        return NO_MEMORY;
    Py_ssize_t g = 0;
    int best = 0, cutoff = b->cutoff;
    while (g < b->n) {
        int status = OK;
        for (int t = 0; t < b->r && status == OK; t++)
            status = load(b, b->index[g * b->r + t], w.img + (Py_ssize_t)t * b->m,
                          w.inv + (Py_ssize_t)t * b->m);
        if (status != OK) {
            g = status;
            break;
        }
        int girth = score(b, cutoff, &w);
        b->out[g++] = girth;
        if (record(b, girth, &best, &cutoff))
            break;
    }
    free(all);
    return g;
}

/* Scores the (final, word) pairs whose rows differ at every point, in
 * that order, until the ranges end or an entry reaches stop.  The fixed
 * slots are loaded once, each final once, and each word in the same pass
 * that tests it against the final.  Returns the pairs scored, or a
 * status below 0. */
static Py_ssize_t girth_pairs_many(const Batch *b)
{
    Work w;
    int *all = start_work(b, &w);
    unsigned *mark = calloc((size_t)b->m, sizeof(unsigned)), stamp = 0;
    if (!all || !mark) {
        free(all);
        free(mark);
        return NO_MEMORY;
    }
    int m = b->m, *final = w.img + (Py_ssize_t)(b->r - 1) * m;
    int *word = w.img + (Py_ssize_t)b->at * m, *word_inv = w.inv + (Py_ssize_t)b->at * m;
    int status = OK, best = 0, cutoff = b->cutoff;
    for (int t = 0; t < b->r - 1 && status == OK; t++)
        if (t != b->at)
            status = load(b, t, w.img + (Py_ssize_t)t * m, w.inv + (Py_ssize_t)t * m);
    Py_ssize_t done = 0, words = b->w1 - b->w0;
    for (Py_ssize_t f = b->f0; f < b->f1 && status == OK; f++) {
        status = load(b, f, final, w.inv + (Py_ssize_t)(b->r - 1) * m);
        for (Py_ssize_t v = b->w0; v < b->w1 && status == OK; v++) {
            if (!++stamp) { /* wrapped: clear the marks once */
                memset(mark, 0, (size_t)m * sizeof(unsigned));
                stamp = 1;
            }
            int loaded = load_word(b, v, final, word, word_inv, mark, stamp);
            if (loaded <= 0) {
                status = loaded;
                continue;
            }
            int girth = score(b, cutoff, &w);
            b->pairs[done] = (f - b->f0) * words + (v - b->w0);
            b->out[done++] = girth;
            if (record(b, girth, &best, &cutoff))
                goto end;
        }
    }
end:
    free(mark);
    free(all);
    return status == OK ? done : status;
}

/* Depth-first augmenting-path search from row `root`, on explicit stacks
 * of at most m rows: each row on the path first takes its first free
 * column, in adj order; failing that, it descends into its unseen
 * columns in that order.  On success every column along the path passes
 * to the row above it.  A column is seen in this search when seen holds
 * root for it, so one array serves every root of a matching.  adj rows
 * are `stride` apart and hold w columns.  Returns whether owner grew. */
static int augment(const int *adj, Py_ssize_t stride, int w, int *owner, int *seen,
                   int root, int *rows, int *next, int *via)
{
    int depth = 0, row = root;
    for (;;) {
        const int *cols = adj + row * stride;
        for (int k = 0; k < w; k++)
            if (owner[cols[k]] < 0) {
                owner[cols[k]] = row;
                for (int d = 0; d < depth; d++)
                    owner[via[d]] = rows[d];
                return 1;
            }
        rows[depth] = row;
        next[depth++] = 0;
        for (;;) {
            if (!depth)
                return 0;
            const int *top = adj + rows[depth - 1] * stride;
            int k = next[depth - 1];
            while (k < w && seen[top[k]] == root)
                k++;
            if (k == w) {
                depth--;
                continue;
            }
            next[depth - 1] = k + 1;
            seen[top[k]] = root;
            via[depth - 1] = top[k];
            row = owner[top[k]];
            break;
        }
    }
}

/* Splits the (m, r) column table adj, which it overwrites, into r slots
 * of m columns in out.  Each of r-1 rounds matches rows in order, each
 * taking its first free column or else augmenting, and then removes
 * every row's matched column (its first copy) from its list; the last
 * slot is the one column each row has left.  OK, or NOT_REGULAR when a
 * round finds no perfect matching or the residual is not a permutation.
 * work holds 5*m ints. */
static int split(int *adj, int m, int r, int *out, int *work)
{
    int *owner = work, *seen = owner + m, *rows = seen + m, *next = rows + m, *via = next + m;
    for (int t = 0; t < r - 1; t++) {
        int w = r - t, *slot = out + (Py_ssize_t)t * m;
        memset(owner, 0xff, (size_t)m * sizeof(int));
        memset(seen, 0xff, (size_t)m * sizeof(int));
        for (int i = 0; i < m; i++) {
            const int *cols = adj + (Py_ssize_t)i * r;
            int k = 0;
            while (k < w && owner[cols[k]] >= 0)
                k++;
            if (k < w)
                owner[cols[k]] = i;
            else if (!augment(adj, r, w, owner, seen, i, rows, next, via))
                return NOT_REGULAR;
        }
        for (int j = 0; j < m; j++)
            slot[owner[j]] = j;
        for (int i = 0; i < m; i++) {
            int *cols = adj + (Py_ssize_t)i * r, k = 0;
            while (cols[k] != slot[i])
                k++;
            memmove(cols + k, cols + k + 1, (size_t)(w - 1 - k) * sizeof(int));
        }
    }
    int *last = out + (Py_ssize_t)(r - 1) * m;
    memset(seen, 0, (size_t)m * sizeof(int));
    for (int i = 0; i < m; i++) {
        int j = adj[(Py_ssize_t)i * r];
        if (seen[j]++)
            return NOT_REGULAR;
        last[i] = j;
    }
    return OK;
}

/* The grower's input and output.  avoid holds t rows of n values, and
 * w(x) = v is barred when some row holds v at x; heads[v] is the point
 * that inv(left).w reaches from x when w(x) = v; digits, when not NULL,
 * holds the limit's n-1 factorial-base digits.  Kept rows go to `rows`,
 * n items of itemsize bytes each. */
typedef struct {
    const int *avoid, *heads, *digits;
    Py_ssize_t t;
    int n, length, itemsize;
    char *rows;
    Py_ssize_t count, capacity;
} Growth;

/* Appends the image img to g's rows: OK or NO_MEMORY. */
static int keep(Growth *g, const int *img)
{
    Py_ssize_t width = (Py_ssize_t)g->n * g->itemsize;
    if (g->count == g->capacity) {
        Py_ssize_t more = g->capacity ? 2 * g->capacity : 64;
        char *rows = more <= PY_SSIZE_T_MAX / width
                         ? realloc(g->rows, (size_t)more * (size_t)width)
                         : NULL;
        if (!rows)
            return NO_MEMORY;
        g->rows = rows;
        g->capacity = more;
    }
    char *row = g->rows + g->count++ * width;
    for (int i = 0; i < g->n; i++) {
        if (g->itemsize == 1) {
            row[i] = (char)img[i];
        } else if (g->itemsize == 2) {
            uint16_t v = (uint16_t)img[i];
            memcpy(row + 2 * (Py_ssize_t)i, &v, 2);
        } else {
            uint32_t v = (uint32_t)img[i];
            memcpy(row + 4 * (Py_ssize_t)i, &v, 4);
        }
    }
    return OK;
}

/* Whether some avoid row holds v at x. */
static inline int barred(const Growth *g, int x, int v)
{
    for (Py_ssize_t s = 0; s < g->t; s++)
        if (g->avoid[s * g->n + x] == v)
            return 1;
    return 0;
}

/* Grows the words W of 0..n-2 depth-first in lexicographic order.  Word
 * entry j fixes one edge x -> W[j] of w, from x = n-1 at j = 0 and from
 * x = W[j-1] after, and the word closes with W[n-2] -> n-1.  An entry v
 * is refused when an avoid row holds v at x, or when its edge
 * x -> heads[v] of inv(left).w closes a cycle of other than `length`
 * points or joins two paths into one of more.  A path is kept as each
 * end's other end (`other`) and point count (`size`); a join records
 * what it overwrote, so leaving the entry puts it back.  Under a limit, a prefix is tight while its
 * entries' ranks among the values left equal the limit's digits: a
 * tight prefix's entry j takes values up to the digits[j]-th left, and
 * the one whole word that stays tight, of rank equal to the limit, is
 * not kept.  Returns OK or NO_MEMORY. */
static int grow(Growth *g)
{
    int n = g->n, len = g->length, last = n - 2;
    int *work = malloc((size_t)n * 10 * sizeof(int));
    unsigned char *used = calloc((size_t)n, 1);
    if (!work || !used) {
        free(work);
        free(used);
        return NO_MEMORY;
    }
    /* Per point: w's image so far, path ends.  Per entry: its value, the
     * largest value it may take, whether its prefix is tight, and the
     * start, end and two sizes a join overwrote (start < 0: a close). */
    int *img = work, *other = img + n, *size = other + n, *value = size + n, *top = value + n,
        *tight = top + n, *start = tight + n, *end = start + n, *sizes = end + n;
    for (int x = 0; x < n; x++) {
        other[x] = x;
        size[x] = 1;
    }
    int j = 0, status = OK;
    value[0] = -1;
    tight[0] = g->digits != NULL;
    for (;;) {
        if (value[j] < 0) { /* a new entry: its range of values */
            top[j] = last;
            if (tight[j])
                for (int v = 0, skip = g->digits[j]; v <= last; v++)
                    if (!used[v] && !skip--) {
                        top[j] = v;
                        break;
                    }
        }
        int x = j ? value[j - 1] : n - 1, v = value[j];
        if (v >= 0) { /* leave the entry's last value */
            used[v] = 0;
            if (start[j] >= 0) {
                other[start[j]] = x;
                other[end[j]] = g->heads[v];
                size[start[j]] = sizes[2 * j];
                size[end[j]] = sizes[2 * j + 1];
            }
        }
        int tail = other[x], at_x = size[x];
        for (v++; v <= top[j]; v++) {
            if (used[v] || barred(g, x, v))
                continue;
            int h = g->heads[v];
            if (tail == h ? at_x == len : at_x + size[h] <= len)
                break;
        }
        if (v > top[j]) { /* no value left: back to the entry before */
            if (!j--)
                break;
            continue;
        }
        value[j] = v;
        used[v] = 1;
        img[x] = v;
        int h = g->heads[v];
        start[j] = -1;
        if (tail != h) { /* join x's path to the path that starts at h */
            int e = other[h], joined = at_x + size[h];
            start[j] = tail;
            end[j] = e;
            sizes[2 * j] = at_x;
            sizes[2 * j + 1] = size[h];
            other[tail] = e;
            other[e] = tail;
            size[tail] = joined;
            size[e] = joined;
        }
        if (j < last) {
            tight[j + 1] = tight[j] && v == top[j];
            value[++j] = -1;
        } else if (!barred(g, v, n - 1) && size[v] == len && !(tight[j] && v == top[j])) {
            /* The closing edge v -> n-1 meets the one open path, whose
             * other end is heads[n-1]. */
            img[v] = n - 1;
            if ((status = keep(g, img)) != OK)
                break;
        }
    }
    free(work);
    free(used);
    return status;
}

/* The largest m whose pair codes fit in int64: m (m+1)^(m-1), the code
 * of one m-cycle, is below 2^63 for m = 15 and above it for m = 16. */
#define MAX_CODED 15

/* The pair coder's input and output: pair k is table rows a =
 * index[2k] and b = index[2k+1], and out[k] gets its code. */
typedef struct {
    const char *table;
    Py_ssize_t rows;
    int itemsize;
    const int *index;
    Py_ssize_t n;
    int m;
    int64_t *out;
} Pairs;

/* Codes pairs in order, each as sum_L c_L (m+1)^(L-1), c_L the points
 * on cycles of length L of x -> inv(a)[b[x]]; each row is checked to
 * be a permutation as it is read, with a bit per value.  Inlined once
 * per item size.  OK or BAD_IMAGE. */
static inline int codes_as(const Pairs *p, const int64_t *weight, int itemsize)
{
    int m = p->m, inv[MAX_CODED], step[MAX_CODED];
    for (Py_ssize_t k = 0; k < p->n; k++) {
        const char *a = p->table + p->index[2 * k] * (Py_ssize_t)m * itemsize,
                   *b = p->table + p->index[2 * k + 1] * (Py_ssize_t)m * itemsize;
        unsigned in_a = 0, in_b = 0, seen = 0;
        for (int i = 0; i < m; i++) {
            unsigned v = item(a, itemsize, i);
            if (v >= (unsigned)m || in_a >> v & 1)
                return BAD_IMAGE;
            in_a |= 1u << v;
            inv[v] = i;
        }
        for (int i = 0; i < m; i++) {
            unsigned v = item(b, itemsize, i);
            if (v >= (unsigned)m || in_b >> v & 1)
                return BAD_IMAGE;
            in_b |= 1u << v;
            step[i] = inv[v];
        }
        int64_t code = 0;
        for (int s = 0; s < m; s++) {
            int len = 0;
            for (int x = s; !(seen >> x & 1); x = step[x], len++)
                seen |= 1u << x;
            if (len)
                code += len * weight[len - 1];
        }
        p->out[k] = code;
    }
    return OK;
}

/* Checks every row index, then codes every pair: OK, BAD_ROW or
 * BAD_IMAGE. */
static int code_pairs(const Pairs *p)
{
    for (Py_ssize_t i = 0; i < 2 * p->n; i++)
        if (p->index[i] < 0 || p->index[i] >= p->rows)
            return BAD_ROW;
    int64_t weight[MAX_CODED];
    weight[0] = 1;
    for (int t = 1; t < p->m; t++)
        weight[t] = weight[t - 1] * (p->m + 1);
    if (p->itemsize == 1)
        return codes_as(p, weight, 1);
    if (p->itemsize == 2)
        return codes_as(p, weight, 2);
    return codes_as(p, weight, 4);
}

/* Takes a C-contiguous buffer from obj into view, of items of `width`
 * bytes (of 1, 2 or 4 when width is 0), with at least `need` items, or
 * exactly that many when `exact`; need < 0 asks nothing of the count. */
static int get_buffer(PyObject *obj, Py_buffer *view, int flags, const char *what,
                      int width, Py_ssize_t need, int exact)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    Py_ssize_t size = view->itemsize, items = size ? view->len / size : 0;
    if (width ? size != width : size != 1 && size != 2 && size != 4) {
        if (width)
            PyErr_Format(PyExc_ValueError, "%s must hold %d-byte ints, not %zd-byte items",
                         what, width, size);
        else
            PyErr_Format(PyExc_ValueError, "%s must hold 1-, 2- or 4-byte ints, not "
                         "%zd-byte items", what, size);
    } else if (need >= 0 && (exact ? items != need : items < need)) {
        PyErr_Format(PyExc_ValueError, "%s has %zd items, needs %s%zd", what, items,
                     exact ? "" : "at least ", need);
    } else {
        return 0;
    }
    PyBuffer_Release(view);
    return -1;
}

static PyObject *girth_batch(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *table_obj, *index_obj, *out_obj;
    Batch b = {.slack = 0, .stop = 0};
    Py_buffer table, index, out;
    if (!PyArg_ParseTuple(args, "OOniiOi|ii:girth_batch", &table_obj, &index_obj, &b.n,
                          &b.m, &b.r, &out_obj, &b.cutoff, &b.slack, &b.stop))
        return NULL;
    if (b.m < 1 || b.r < 1 || b.m > INT_MAX / 2 || b.n < 0 || b.slack < 0) {
        PyErr_Format(PyExc_ValueError, "need 1 <= m <= %d, r >= 1, n_graphs >= 0 and "
                     "slack >= 0, got m=%d, r=%d, n_graphs=%zd, slack=%d",
                     INT_MAX / 2, b.m, b.r, b.n, b.slack);
        return NULL;
    }
    if (b.n > PY_SSIZE_T_MAX / 4 / b.r) {
        PyErr_SetString(PyExc_ValueError, "n_graphs * r is too large");
        return NULL;
    }
    if (get_buffer(table_obj, &table, PyBUF_SIMPLE, "table", 0, -1, 0) < 0)
        return NULL;
    if (get_buffer(index_obj, &index, PyBUF_SIMPLE, "index", 4, b.n * b.r, 1) < 0) {
        PyBuffer_Release(&table);
        return NULL;
    }
    if (get_buffer(out_obj, &out, PyBUF_WRITABLE, "out", 4, b.n, 0) < 0) {
        PyBuffer_Release(&index);
        PyBuffer_Release(&table);
        return NULL;
    }
    Py_ssize_t items = table.len / table.itemsize, done = 0;
    if (items % b.m) {
        PyErr_Format(PyExc_ValueError, "table has %zd items, not a multiple of m=%d",
                     items, b.m);
        done = -1;
    } else {
        b.table = table.buf;
        b.rows = items / b.m;
        b.itemsize = (int)table.itemsize;
        b.index = index.buf;
        b.out = out.buf;
        Py_BEGIN_ALLOW_THREADS
        done = b.n ? girth_many(&b) : 0;
        Py_END_ALLOW_THREADS
        if (done == NO_MEMORY)
            PyErr_NoMemory();
        else if (done == BAD_ROW)
            PyErr_Format(PyExc_ValueError, "each row index must be in 0..%zd", b.rows - 1);
        else if (done == BAD_IMAGE)
            PyErr_Format(PyExc_ValueError, "each image must be a permutation of 0..%d",
                         b.m - 1);
    }
    PyBuffer_Release(&out);
    PyBuffer_Release(&index);
    PyBuffer_Release(&table);
    return done < 0 ? NULL : PyLong_FromSsize_t(done);
}

static PyObject *girth_pairs(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *table_obj, *pairs_obj, *out_obj;
    Batch b = {.slack = 0, .stop = 0, .period = 0};
    Py_buffer table, pairs, out;
    if (!PyArg_ParseTuple(args, "OiiinnnnOOi|iii:girth_pairs", &table_obj, &b.m, &b.r, &b.at,
                          &b.f0, &b.f1, &b.w0, &b.w1, &pairs_obj, &out_obj, &b.cutoff, &b.slack,
                          &b.stop, &b.period))
        return NULL;
    if (b.m < 1 || b.m > INT_MAX / 2 || b.r < 2 || b.at < 0 || b.at > b.r - 2 || b.slack < 0 ||
        b.period < 0 || (b.period && b.m % b.period)) {
        PyErr_Format(PyExc_ValueError, "need 1 <= m <= %d, r >= 2, 0 <= at <= r-2, slack >= 0 "
                     "and a period >= 0 that divides m if not 0, got m=%d, r=%d, at=%d, "
                     "slack=%d, period=%d", INT_MAX / 2, b.m, b.r, b.at, b.slack, b.period);
        return NULL;
    }
    if (get_buffer(table_obj, &table, PyBUF_SIMPLE, "table", 0, -1, 0) < 0)
        return NULL;
    Py_ssize_t items = table.len / table.itemsize, rows = items / b.m;
    if (items % b.m) {
        PyErr_Format(PyExc_ValueError, "table has %zd items, not a multiple of m=%d", items,
                     b.m);
        PyBuffer_Release(&table);
        return NULL;
    }
    if (rows < b.r - 1 || b.f0 < 0 || b.f0 > b.f1 || b.f1 > rows || b.w0 < 0 || b.w0 > b.w1 ||
        b.w1 > rows || (b.w1 > b.w0 && b.f1 - b.f0 > PY_SSIZE_T_MAX / 8 / (b.w1 - b.w0))) {
        PyErr_Format(PyExc_ValueError, "need r-1 fixed rows and row ranges 0 <= f0 <= f1 <= "
                     "%zd and 0 <= w0 <= w1 <= %zd in a table of %zd rows, got r=%d, f0=%zd, "
                     "f1=%zd, w0=%zd, w1=%zd", rows, rows, rows, b.r, b.f0, b.f1, b.w0, b.w1);
        PyBuffer_Release(&table);
        return NULL;
    }
    Py_ssize_t need = (b.f1 - b.f0) * (b.w1 - b.w0), done = 0;
    if (get_buffer(pairs_obj, &pairs, PyBUF_WRITABLE, "pairs", 8, need, 0) < 0) {
        PyBuffer_Release(&table);
        return NULL;
    }
    if (get_buffer(out_obj, &out, PyBUF_WRITABLE, "out", 4, need, 0) < 0) {
        PyBuffer_Release(&pairs);
        PyBuffer_Release(&table);
        return NULL;
    }
    b.table = table.buf;
    b.rows = rows;
    b.itemsize = (int)table.itemsize;
    b.pairs = pairs.buf;
    b.out = out.buf;
    Py_BEGIN_ALLOW_THREADS
    done = girth_pairs_many(&b);
    Py_END_ALLOW_THREADS
    if (done == NO_MEMORY)
        PyErr_NoMemory();
    else if (done == BAD_IMAGE)
        PyErr_Format(PyExc_ValueError, "each image must be a permutation of 0..%d", b.m - 1);
    PyBuffer_Release(&out);
    PyBuffer_Release(&pairs);
    PyBuffer_Release(&table);
    return done < 0 ? NULL : PyLong_FromSsize_t(done);
}

static PyObject *split_slots(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *cols_obj, *out_obj;
    int m, r;
    Py_buffer cols, out;
    if (!PyArg_ParseTuple(args, "OiiO:split_slots", &cols_obj, &m, &r, &out_obj))
        return NULL;
    if (m < 1 || r < 1) {
        PyErr_Format(PyExc_ValueError, "need m, r >= 1, got m=%d, r=%d", m, r);
        return NULL;
    }
    Py_ssize_t need = (Py_ssize_t)m * r;
    if (get_buffer(cols_obj, &cols, PyBUF_SIMPLE, "cols", 4, need, 1) < 0)
        return NULL;
    if (get_buffer(out_obj, &out, PyBUF_WRITABLE, "out", 4, need, 0) < 0) {
        PyBuffer_Release(&cols);
        return NULL;
    }
    int status = OK, *adj = NULL;
    const int *given = cols.buf;
    for (Py_ssize_t at = 0; at < need; at++)
        if (given[at] < 0 || given[at] >= m) {
            status = BAD_IMAGE;
            break;
        }
    if (status == OK && !(adj = malloc((size_t)(need + 5 * (Py_ssize_t)m) * sizeof(int))))
        status = NO_MEMORY;
    if (status == OK) {
        memcpy(adj, given, (size_t)need * sizeof(int));
        Py_BEGIN_ALLOW_THREADS
        status = split(adj, m, r, out.buf, adj + need);
        Py_END_ALLOW_THREADS
    }
    free(adj);
    PyBuffer_Release(&out);
    PyBuffer_Release(&cols);
    if (status == OK)
        Py_RETURN_NONE;
    if (status == NO_MEMORY)
        PyErr_NoMemory();
    else if (status == BAD_IMAGE)
        PyErr_Format(PyExc_ValueError, "each column must be in 0..%d", m - 1);
    else
        PyErr_SetString(PyExc_ValueError, "matrix is not regular: no perfect matching");
    return NULL;
}

static PyObject *grow_cycles(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *avoid_obj, *heads_obj, *digits_obj;
    Growth g = {.rows = NULL, .count = 0, .capacity = 0};
    Py_buffer avoid, heads, digits = {.obj = NULL};
    if (!PyArg_ParseTuple(args, "OOOiii:grow_cycles", &avoid_obj, &heads_obj, &digits_obj,
                          &g.n, &g.length, &g.itemsize))
        return NULL;
    if (g.n < 2 || g.length < 1 || !(g.itemsize == 1 || g.itemsize == 2 || g.itemsize == 4) ||
        (g.itemsize < 4 && (g.n - 1) >> (8 * g.itemsize - 1))) {
        PyErr_Format(PyExc_ValueError, "need n >= 2, length >= 1 and a signed item size of "
                     "1, 2 or 4 bytes that holds n-1, got n=%d, length=%d, itemsize=%d",
                     g.n, g.length, g.itemsize);
        return NULL;
    }
    int n = g.n;
    if (get_buffer(avoid_obj, &avoid, PyBUF_SIMPLE, "avoid", 4, -1, 0) < 0)
        return NULL;
    Py_ssize_t items = avoid.len / 4;
    if (items % n) {
        PyErr_Format(PyExc_ValueError, "avoid has %zd items, not a multiple of n=%d", items, n);
        PyBuffer_Release(&avoid);
        return NULL;
    }
    if (get_buffer(heads_obj, &heads, PyBUF_SIMPLE, "heads", 4, n, 1) < 0) {
        PyBuffer_Release(&avoid);
        return NULL;
    }
    if (digits_obj != Py_None &&
        get_buffer(digits_obj, &digits, PyBUF_SIMPLE, "digits", 4, n - 1, 1) < 0) {
        PyBuffer_Release(&heads);
        PyBuffer_Release(&avoid);
        return NULL;
    }
    g.avoid = avoid.buf;
    g.t = items / n;
    g.heads = heads.buf;
    g.digits = digits.obj ? digits.buf : NULL;
    int status = OK, bad = 0;
    for (int v = 0; v < n && status == OK; v++)
        if (g.heads[v] < 0 || g.heads[v] >= n)
            status = BAD_HEAD;
    for (int j = 0; g.digits && j < n - 1 && status == OK; j++)
        if (g.digits[j] < 0 || g.digits[j] > n - 2 - j) {
            status = BAD_DIGIT;
            bad = j;
        }
    for (Py_ssize_t at = 0; at < items && status == OK; at++)
        if (g.avoid[at] < 0 || g.avoid[at] >= n)
            status = BAD_AVOID;
    if (status == OK) {
        Py_BEGIN_ALLOW_THREADS
        status = grow(&g);
        Py_END_ALLOW_THREADS
    }
    if (digits.obj)
        PyBuffer_Release(&digits);
    PyBuffer_Release(&heads);
    PyBuffer_Release(&avoid);
    PyObject *rows = NULL;
    if (status == OK)
        rows = PyByteArray_FromStringAndSize(g.rows, g.count * n * g.itemsize);
    else if (status == NO_MEMORY)
        PyErr_NoMemory();
    else if (status == BAD_HEAD)
        PyErr_Format(PyExc_ValueError, "each head must be in 0..%d", n - 1);
    else if (status == BAD_AVOID)
        PyErr_Format(PyExc_ValueError, "each avoid value must be in 0..%d", n - 1);
    else
        PyErr_Format(PyExc_ValueError, "digits[%d] must be in 0..%d", bad, n - 2 - bad);
    free(g.rows);
    return rows;
}

static PyObject *pair_codes(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *table_obj, *index_obj, *out_obj;
    Pairs p;
    Py_buffer table, index, out;
    if (!PyArg_ParseTuple(args, "OOniO:pair_codes", &table_obj, &index_obj, &p.n, &p.m,
                          &out_obj))
        return NULL;
    if (p.m < 1 || p.m > MAX_CODED || p.n < 0) {
        PyErr_Format(PyExc_ValueError, "need 1 <= m <= %d and n_pairs >= 0, got m=%d, "
                     "n_pairs=%zd", MAX_CODED, p.m, p.n);
        return NULL;
    }
    if (p.n > PY_SSIZE_T_MAX / 8) {
        PyErr_SetString(PyExc_ValueError, "n_pairs is too large");
        return NULL;
    }
    if (get_buffer(table_obj, &table, PyBUF_SIMPLE, "table", 0, -1, 0) < 0)
        return NULL;
    if (get_buffer(index_obj, &index, PyBUF_SIMPLE, "index", 4, 2 * p.n, 1) < 0) {
        PyBuffer_Release(&table);
        return NULL;
    }
    if (get_buffer(out_obj, &out, PyBUF_WRITABLE, "out", 8, p.n, 0) < 0) {
        PyBuffer_Release(&index);
        PyBuffer_Release(&table);
        return NULL;
    }
    Py_ssize_t items = table.len / table.itemsize;
    int status = OK;
    if (items % p.m) {
        PyErr_Format(PyExc_ValueError, "table has %zd items, not a multiple of m=%d", items,
                     p.m);
        status = BAD_ROW;
    } else {
        p.table = table.buf;
        p.rows = items / p.m;
        p.itemsize = (int)table.itemsize;
        p.index = index.buf;
        p.out = out.buf;
        Py_BEGIN_ALLOW_THREADS
        status = code_pairs(&p);
        Py_END_ALLOW_THREADS
        if (status == BAD_ROW)
            PyErr_Format(PyExc_ValueError, "each row index must be in 0..%zd", p.rows - 1);
        else if (status == BAD_IMAGE)
            PyErr_Format(PyExc_ValueError, "each image must be a permutation of 0..%d",
                         p.m - 1);
    }
    PyBuffer_Release(&out);
    PyBuffer_Release(&index);
    PyBuffer_Release(&table);
    if (status != OK)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"girth_batch", girth_batch, METH_VARARGS,
     "girth_batch(table, index, n_graphs, m, r, out, cutoff, slack=0, stop=0)\n\n"
     "Scores n_graphs graphs in order, releasing the GIL, and returns the\n"
     "number scored: slot t of graph g is row index[g*r + t] of table, rows\n"
     "of m 0-based images in 1-, 2- or 4-byte unsigned ints, and out[g] gets\n"
     "its girth.  Graph g's cutoff is the larger of cutoff and (the largest\n"
     "out entry before it) - slack; out[g] is exact when the girth exceeds\n"
     "that cutoff, and otherwise some value v with girth <= v <= cutoff.\n"
     "With stop > 0 the call ends after the first entry >= stop."},
    {"girth_pairs", girth_pairs, METH_VARARGS,
     "girth_pairs(table, m, r, at, f0, f1, w0, w1, pairs, out, cutoff, slack=0, stop=0,\n"
     "            period=0)\n\n"
     "Scores, releasing the GIL, the graphs of the (final, word) pairs of\n"
     "table rows f0..f1-1 and w0..w1-1, finals outer, whose two rows differ\n"
     "at every point, and returns the number scored.  Slot t is table row t,\n"
     "but slot `at` (0 <= at <= r-2) is the word and slot r-1 the final;\n"
     "table rows hold m 0-based images in 1-, 2- or 4-byte unsigned ints.\n"
     "The k-th scored pair's position (final-f0)*(w1-w0) + (word-w0) goes to\n"
     "pairs[k] (8-byte ints) and its girth to out[k], under girth_batch's\n"
     "cutoff, slack and stop rules.  A period p > 0, which must divide m,\n"
     "promises that every slot commutes with x -> x + p, and the BFS runs\n"
     "from rows 0..p-1 only.  ValueError for a row range outside the table\n"
     "or a row read that is not a permutation."},
    {"split_slots", split_slots, METH_VARARGS,
     "split_slots(cols, m, r, out)\n\n"
     "Splits an r-regular bipartite graph into r perfect matchings, releasing\n"
     "the GIL: cols holds m rows of r 0-based columns in 4-byte ints, row i's\n"
     "list in the order the matcher scans it, and out[t*m + i] gets row i's\n"
     "column in slot t.  Each of r-1 rounds gives every row in turn its first\n"
     "free column, or else augments depth-first over its unseen columns, and\n"
     "then removes the matched column from each list; the last slot is what\n"
     "the lists have left.  ValueError when a column is out of range or the\n"
     "lists do not split into perfect matchings."},
    {"grow_cycles", grow_cycles, METH_VARARGS,
     "grow_cycles(avoid, heads, digits, n, length, itemsize)\n\n"
     "Grows, depth-first and releasing the GIL, the n-cycles w of 0..n-1 in\n"
     "the lexicographic order of their words W (w(n-1) = W[0], w(W[i]) =\n"
     "W[i+1], w(W[-1]) = n-1), and returns the kept ones as one bytearray of\n"
     "rows of n ints of itemsize bytes.  avoid holds t rows of n 4-byte ints\n"
     "in 0..n-1 (t >= 0), and a row is kept when it differs from each avoid\n"
     "row at every point, every cycle of x -> heads[w(x)] has `length`\n"
     "points, and, when digits (n-1 4-byte ints) is not None, its word's\n"
     "rank is below the limit those factorial-base digits spell.  heads\n"
     "holds n 4-byte ints in 0..n-1.  No n x n table is built."},
    {"pair_codes", pair_codes, METH_VARARGS,
     "pair_codes(table, index, n_pairs, m, out)\n\n"
     "Codes n_pairs pairs of table rows, releasing the GIL: pair k is rows\n"
     "a = index[2k] and b = index[2k+1] (4-byte ints) of table, rows of m\n"
     "0-based images in 1-, 2- or 4-byte unsigned ints, and out[k] (8-byte\n"
     "ints) gets sum_L c_L (m+1)^(L-1), c_L the points on cycles of length L\n"
     "of x -> inv(a)[b[x]].  ValueError for m outside 1..15 (the code of an\n"
     "m-cycle overflows int64 at m = 16), a row index outside the table or\n"
     "a row that is not a permutation of 0..m-1."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_girth_c",
    .m_doc = "Compiled girth kernel, pair scorer, slot matcher, cycle grower and pair coder.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__girth_c(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod != NULL && PyModule_AddIntConstant(mod, "ABI", ABI) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
