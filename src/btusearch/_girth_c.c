/* Compiled girth kernel; _girth_py is the reference implementation.
 *
 * A graph is an (m, r) incidence given as r one-line images of degree m,
 * 1-based and flattened: row vertex i is joined to column vertex
 * flat[t*m + i] - 1 for each slot t.  A batch is n such graphs back to
 * back.  The girth is the length of the shortest cycle, or 0 for a
 * forest.  The BFS runs without the GIL, so threads can share a search.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdlib.h>
#include <string.h>

enum { OK = 0, NO_MEMORY = -1, BAD_IMAGE = -2 };

/* One BFS from every row vertex (every cycle passes through one).  The
 * source loop stops once the best cycle is 4, the shortest a simple
 * bipartite graph has, or at most cutoff: a girth <= cutoff may then come
 * back as any value in [girth, cutoff], while a larger girth is exact.
 * work holds r*m + 6*m ints. */
static int girth_one(const int *flat, int m, int r, int cutoff, int *work)
{
    Py_ssize_t rm = (Py_ssize_t)r * m;
    int nv = 2 * m, best = 0;
    int *inv = work, *dist = work + rm, *parent = dist + nv, *queue = parent + nv;

    memset(inv, 0xff, (size_t)rm * sizeof(int));
    for (Py_ssize_t t = 0; t < rm; t += m)
        for (int i = 0; i < m; i++) {
            int v = flat[t + i];
            if (v < 1 || v > m || inv[t + v - 1] >= 0)
                return BAD_IMAGE;
            inv[t + v - 1] = i;
        }

    for (int s = 0; s < m && best != 4 && !(best && best <= cutoff); s++) {
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
                int w = u < m ? flat[t + u] - 1 + m : inv[t + u - m];
                if (dist[w] < 0) {
                    dist[w] = du + 1;
                    parent[w] = u;
                    queue[tail++] = w;
                } else if (w != parent[u]) {
                    int cycle = du + dist[w] + 1;
                    if (!best || cycle < best)
                        best = cycle;
                }
            }
        }
    }
    return best;
}

static int girth_many(const int *flat, Py_ssize_t n, int m, int r, int cutoff, int *out)
{
    Py_ssize_t rm = (Py_ssize_t)r * m;
    int *work = malloc((size_t)(rm + 6 * (Py_ssize_t)m) * sizeof(int));
    if (!work)
        return NO_MEMORY;
    int status = OK;
    for (Py_ssize_t g = 0; g < n && status == OK; g++) {
        int girth = girth_one(flat + g * rm, m, r, cutoff, work);
        if (girth < 0)
            status = girth;
        else
            out[g] = girth;
    }
    free(work);
    return status;
}

/* Takes a C-contiguous buffer of 4-byte items from obj into view, with at
 * least `need` items, or exactly that many when `exact`. */
static int get_ints(PyObject *obj, Py_buffer *view, int flags, const char *what,
                    Py_ssize_t need, int exact)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    if (view->itemsize != 4) {
        PyErr_Format(PyExc_ValueError, "%s must hold 4-byte ints, not %zd-byte items",
                     what, view->itemsize);
    } else if (exact ? view->len / 4 != need : view->len / 4 < need) {
        PyErr_Format(PyExc_ValueError, "%s has %zd items, needs %s%zd", what,
                     view->len / 4, exact ? "" : "at least ", need);
    } else {
        return 0;
    }
    PyBuffer_Release(view);
    return -1;
}

/* Runs the batch without the GIL and maps its status to an exception. */
static int run(PyObject *flat_obj, Py_ssize_t n, int m, int r, int cutoff, int *out)
{
    Py_buffer flat;
    if (m < 1 || r < 1 || m > INT_MAX / 2 || n < 0) {
        PyErr_Format(PyExc_ValueError, "need 1 <= m <= %d, r >= 1 and n_graphs >= 0, "
                     "got m=%d, r=%d, n_graphs=%zd", INT_MAX / 2, m, r, n);
        return -1;
    }
    Py_ssize_t rm = (Py_ssize_t)r * m;
    if (n > PY_SSIZE_T_MAX / 4 / rm) {
        PyErr_SetString(PyExc_ValueError, "n_graphs * r * m is too large");
        return -1;
    }
    if (get_ints(flat_obj, &flat, PyBUF_SIMPLE, "flat", n * rm, 1) < 0)
        return -1;
    int status;
    Py_BEGIN_ALLOW_THREADS
    status = n ? girth_many(flat.buf, n, m, r, cutoff, out) : OK;
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&flat);
    if (status == NO_MEMORY)
        PyErr_NoMemory();
    else if (status == BAD_IMAGE)
        PyErr_Format(PyExc_ValueError, "each image must be a permutation of 1..%d", m);
    return status == OK ? 0 : -1;
}

static PyObject *girth_batch(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *flat, *out_obj;
    Py_ssize_t n;
    int m, r, cutoff;
    Py_buffer out;
    if (!PyArg_ParseTuple(args, "OniiOi:girth_batch", &flat, &n, &m, &r, &out_obj, &cutoff))
        return NULL;
    if (get_ints(out_obj, &out, PyBUF_WRITABLE, "out", n, 0) < 0)
        return NULL;
    int status = run(flat, n, m, r, cutoff, out.buf);
    PyBuffer_Release(&out);
    if (status < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"girth_batch", girth_batch, METH_VARARGS,
     "girth_batch(flat, n_graphs, m, r, out, cutoff)\n\n"
     "Writes the girths of n_graphs graphs to out[0:n_graphs], releasing the\n"
     "GIL.  out[i] is exact when the girth exceeds cutoff; otherwise it is\n"
     "some value v with girth <= v <= cutoff, so cutoff 0 makes it exact."},
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
