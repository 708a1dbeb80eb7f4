/* Compiled girth kernel; _girth_py is the reference implementation.
 *
 * A batch is a table of image rows plus a row index.  The table holds
 * rows of m unsigned ints of 1, 2 or 4 bytes, each a 0-based one-line
 * image; graph g has r slots, and slot t is table row index[g*r + t]:
 * row vertex i is joined to column vertex row[i].  The girth is the
 * length of the shortest cycle (2 for a double edge), or 0 for a forest.
 * The whole call runs without the GIL, so threads can share a search.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { OK = 0, NO_MEMORY = -1, BAD_IMAGE = -2, BAD_ROW = -3 };

typedef struct {
    const char *table;
    Py_ssize_t rows;
    int itemsize;
    const int *index;
    Py_ssize_t n;
    int m, r, cutoff, slack, stop;
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

/* Copies graph g's slots into img (slot-major) and their inverses into
 * inv, checking that each is a permutation of 0..m-1: OK or BAD_IMAGE.
 * Inlined once per item size, so each copy reads a fixed width. */
static inline int load_as(const Batch *b, Py_ssize_t g, int *img, int *inv, int itemsize)
{
    int m = b->m;
    memset(inv, 0xff, (size_t)b->r * (size_t)m * sizeof(int));
    for (Py_ssize_t t = 0, at = 0; t < b->r; t++, at += m) {
        const char *row = b->table + b->index[g * b->r + t] * (Py_ssize_t)m * itemsize;
        for (int i = 0; i < m; i++) {
            unsigned v = item(row, itemsize, i);
            if (v >= (unsigned)m || inv[at + v] >= 0)
                return BAD_IMAGE;
            img[at + i] = (int)v;
            inv[at + v] = i;
        }
    }
    return OK;
}

static int load(const Batch *b, Py_ssize_t g, int *img, int *inv)
{
    if (b->itemsize == 1)
        return load_as(b, g, img, inv, 1);
    if (b->itemsize == 2)
        return load_as(b, g, img, inv, 2);
    return load_as(b, g, img, inv, 4);
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

/* One BFS from every row vertex (every cycle passes through one).  The
 * search ends at the first cycle of length 4, the shortest a bipartite
 * graph without double edges has, or at most cutoff: a girth <= cutoff
 * may then come back as any value in [girth, cutoff], while a larger
 * girth is exact.  Every BFS value is the length of a closed walk, so
 * never below the girth; only a value above cutoff must be exact, and
 * only then are double edges looked for.  work holds 2*r*m + 6*m ints. */
static int girth_one(const Batch *b, Py_ssize_t g, int cutoff, int *work)
{
    int m = b->m, r = b->r, nv = 2 * m, best = 0, enough = cutoff > 4 ? cutoff : 4;
    Py_ssize_t rm = (Py_ssize_t)r * m;
    int *img = work, *inv = img + rm, *dist = inv + rm, *parent = dist + nv,
        *queue = parent + nv;

    int status = load(b, g, img, inv);
    if (status != OK)
        return status;
    if (r == 2)
        return girth_two(img, inv, m, dist);

    for (int s = 0; s < m; s++) {
        memset(dist, 0xff, (size_t)nv * sizeof(int));
        dist[s] = 0;
        parent[s] = -1;
        int head = 0, tail = 0;
        queue[tail++] = s;
        while (head < tail) {
            int u = queue[head++], du = dist[u];
            if (best && 2 * du >= best)
                continue;
            for (Py_ssize_t t = 0; t < rm; t += m) {
                int w = u < m ? img[t + u] + m : inv[t + u - m];
                if (dist[w] < 0) {
                    dist[w] = du + 1;
                    parent[w] = u;
                    queue[tail++] = w;
                } else if (w != parent[u] && (!best || du + dist[w] + 1 < best)) {
                    best = du + dist[w] + 1;
                    if (best <= enough)
                        goto found;
                }
            }
        }
    }
found:
    return best > cutoff && twice(img, m, r) ? 2 : best;
}

/* Checks every row index, then scores graphs in order until the batch
 * ends or an entry reaches stop.  Returns the graphs scored, or a status
 * below 0. */
static Py_ssize_t girth_many(const Batch *b)
{
    for (Py_ssize_t i = 0; i < b->n * b->r; i++)
        if (b->index[i] < 0 || b->index[i] >= b->rows)
            return BAD_ROW;
    int *work = malloc((size_t)(2 * (Py_ssize_t)b->r + 6) * (size_t)b->m * sizeof(int));
    if (!work)
        return NO_MEMORY;
    Py_ssize_t g = 0;
    int best = 0, cutoff = b->cutoff;
    while (g < b->n) {
        int girth = girth_one(b, g, cutoff, work);
        if (girth < 0) {
            g = girth;
            break;
        }
        b->out[g++] = girth;
        if (girth > best)
            best = girth;
        if (best - b->slack > cutoff)
            cutoff = best - b->slack;
        if (b->stop > 0 && girth >= b->stop)
            break;
    }
    free(work);
    return g;
}

/* Takes a C-contiguous buffer from obj into view, of items of 4 bytes
 * (or of 1, 2 or 4 when `any_width`), with at least `need` items, or
 * exactly that many when `exact`; need < 0 asks nothing of the count. */
static int get_buffer(PyObject *obj, Py_buffer *view, int flags, const char *what,
                      int any_width, Py_ssize_t need, int exact)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    Py_ssize_t size = view->itemsize, items = size ? view->len / size : 0;
    if (size != 4 && !(any_width && (size == 1 || size == 2))) {
        PyErr_Format(PyExc_ValueError, "%s must hold %s-byte ints, not %zd-byte items",
                     what, any_width ? "1-, 2- or 4" : "4", size);
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
    if (get_buffer(table_obj, &table, PyBUF_SIMPLE, "table", 1, -1, 0) < 0)
        return NULL;
    if (get_buffer(index_obj, &index, PyBUF_SIMPLE, "index", 0, b.n * b.r, 1) < 0) {
        PyBuffer_Release(&table);
        return NULL;
    }
    if (get_buffer(out_obj, &out, PyBUF_WRITABLE, "out", 0, b.n, 0) < 0) {
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
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_girth_c",
    .m_doc = "Compiled girth kernel.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__girth_c(void)
{
    return PyModule_Create(&module);
}
