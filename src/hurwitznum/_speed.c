/* Compiled twin of `_purekernels.scan_involutions_block`.

   scan_involutions_block(d, first, lens, target) walks every
   fixed-point-free involution v of {0..d-1} with v(0) = first, forms the
   composite t[x] = phi[v[x]] (v o phi is conjugate to it, so has the same
   cycle type) and keeps v when t has the target cycle type and the pairs of
   v join the anchor's point classes into one, so that the generated group
   is transitive.  The anchor is r = class_representative(lens): its cycle i
   lies on s_i .. s_i + l_i - 1 as x -> x + 1.  phi, the inverse of r, is
   derived from lens, and the anchor's point classes are the cycles of phi.

   Of the survivors it keeps only those that pass one symmetry test, which
   the least member of every orbit of the anchor's centralizer passes: for
   every g in S, the conjugate g v g^-1 is not lexicographically smaller
   than v.  S holds every power of the rotation of each cycle, cycle 0
   included, and the pointwise swap of each pair of adjacent equal-length
   cycles, fixed points included.  S is built once per call.  The test runs
   as each pair is placed and cuts only when a conjugate is already strictly
   smaller on positions that both sides have fixed, so at the last pair it
   is the full comparison.

   The walk also tracks the cycles and open paths of the partial t: placing
   the pair (a, b) adds the edges a -> phi[b] and b -> phi[a], and the
   subtree is cut when an edge closes a cycle whose length is no longer left
   among the target's parts, or makes an open path longer than the largest
   part.  Backtracking undoes the edges.  These cuts drop only
   non-survivors, and they are the whole cycle-type test: at a leaf every
   point lies on a closed cycle of t, each of which took a part of its
   length off the target, and lens and target both sum to d, so the cycle
   lengths are exactly the target.  The leaf only tests transitivity.

   The walk pairs the least free point next, for every anchor, so that the
   positions of v fill from 0 upwards and the symmetry test's prefix
   comparisons decide early.  The survivors and their order match the pure
   twin's.  Build it next to the Python sources with
   `python3 setup.py build_ext --inplace`.

   API must equal `_purekernels.API`; `kernels` ignores a build whose API
   differs, so bump both whenever the signature or the semantics change.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h> /* also includes stdlib.h and string.h */

#define MAXD 32
#define API 9

typedef struct {
    int d, nroots, largest, ngens;
    int phi[MAXD], parent[MAXD]; /* parent: cycles of phi */
    /* S as pairs g, ginv; it has at most d - 1 members. */
    int g[MAXD][MAXD], ginv[MAXD][MAXD];
    /* The edges of t placed so far form cycles and open paths; a point not
       yet reached is a path of one point.  A path runs from start[e] to e
       and from a to end[a], and has size[a] points.  left[n] counts the
       parts n of the target not yet matched by a closed cycle. */
    int start[MAXD], end[MAXD], size[MAXD], left[MAXD + 1];
    int *out; /* survivors, d entries each */
    Py_ssize_t count, cap;
} Scan;

static int find(int *uf, int x)
{
    while (uf[x] != x) {
        uf[x] = uf[uf[x]];
        x = uf[x];
    }
    return x;
}

/* Transitivity of <anchor, v>: start from the anchor's classes and join x
   with v[x]. */
static int transitive(const Scan *s, const int *v)
{
    int comps = s->nroots, uf[MAXD];

    memcpy(uf, s->parent, s->d * sizeof(int));
    for (int x = 0; x < s->d && comps > 1; x++) {
        int rx = find(uf, x), ry = find(uf, v[x]);
        if (rx != ry) {
            uf[rx] = ry;
            comps--;
        }
    }
    return comps == 1;
}

static int keep(Scan *s, const int *v)
{
    if (s->count == s->cap) {
        Py_ssize_t cap = s->cap ? 2 * s->cap : 64;
        int *out = realloc(s->out, (size_t)cap * s->d * sizeof(int));
        if (out == NULL)
            return 0;
        s->out = out;
        s->cap = cap;
    }
    memcpy(s->out + s->count * s->d, v, s->d * sizeof(int));
    s->count++;
    return 1;
}

/* Places the edge x -> y of t, or returns 0, changing nothing, when no
   completion can have the target cycle type: the edge closes a cycle whose
   length is not left, or makes an open path longer than the largest part. */
static int add_edge(Scan *s, int x, int y)
{
    int a = s->start[x], n;
    if (a == y) {
        n = s->size[y];
        if (!s->left[n])
            return 0;
        s->left[n]--;
        return 1;
    }
    n = s->size[a] + s->size[y];
    if (n > s->largest)
        return 0;
    int e = s->end[y];
    s->end[a] = e;
    s->start[e] = a;
    s->size[a] = n;
    return 1;
}

/* Undoes the latest add_edge(s, x, y) that returned 1.  The points it made
   interior are never an end or a start of a later edge, so start[x], end[y]
   and size[y] still hold their values. */
static void remove_edge(Scan *s, int x, int y)
{
    int a = s->start[x];
    if (a == y) {
        s->left[s->size[y]]++;
    } else {
        s->end[a] = x;
        s->start[s->end[y]] = y;
        s->size[a] -= s->size[y];
    }
}

/* The symmetry test on the pairs placed so far.  Entry k of act is the
   index of a g in S whose conjugate w = g v g^-1 equals v before position
   pos[k]; w[y] = g[v[ginv[y]]], so a position is fixed on both sides once
   v[y] and v[ginv[y]] are placed (an unplaced point has v = -1).  Copies to
   act2 and pos2 the entries whose comparison still waits on an unplaced
   point, each with the position it reached, and returns their number, or -1
   when a conjugate is smaller.  An entry is dropped once w is larger, or
   equal. */
static int undecided(const Scan *s, const int *v, const int *act, const int *pos, int nact,
                     int *act2, int *pos2)
{
    int n = 0;
    for (int k = 0; k < nact; k++) {
        const int *g = s->g[act[k]], *ginv = s->ginv[act[k]];
        for (int y = pos[k]; y < s->d; y++) {
            int vy = v[y], vx;
            if (vy < 0 || (vx = v[ginv[y]]) < 0) {
                act2[n] = act[k];
                pos2[n++] = y;
                break;
            }
            if (g[vx] != vy) {
                if (g[vx] < vy)
                    return -1;
                break;
            }
        }
    }
    return n;
}

/* Pairs the least unpaired point a with each later unpaired point in
   increasing order, as the pure twin does, skipping pairs whose edges of t
   add_edge refuses and pairs that the symmetry test cuts; act, pos and nact
   are the test's state, as in undecided().  Returns 0 when the survivor
   buffer cannot grow. */
static int walk(Scan *s, int *v, int *used, int npaired, const int *act, const int *pos,
                int nact)
{
    if (npaired == s->d)
        return !transitive(s, v) || keep(s, v);
    int a = 1; /* point 0 is always paired */
    while (used[a])
        a++;
    used[a] = 1;
    for (int b = a + 1; b < s->d; b++) {
        if (used[b])
            continue;
        int pa = s->phi[a], pb = s->phi[b];
        if (!add_edge(s, a, pb))
            continue;
        if (add_edge(s, b, pa)) {
            int act2[MAXD], pos2[MAXD], nact2 = 0;
            used[b] = 1;
            v[a] = b;
            v[b] = a;
            if (nact)
                nact2 = undecided(s, v, act, pos, nact, act2, pos2);
            if (nact2 >= 0 && !walk(s, v, used, npaired + 2, act2, pos2, nact2))
                return 0;
            used[b] = 0;
            v[b] = -1;
            remove_edge(s, b, pa);
        }
        remove_edge(s, a, pb);
    }
    used[a] = 0;
    v[a] = -1;
    return 1;
}

/* Appends the identity to S and returns its index. */
static int add_generator(Scan *s)
{
    int m = s->ngens++;
    for (int x = 0; x < s->d; x++)
        s->g[m][x] = s->ginv[m][x] = x;
    return m;
}

/* Derives phi, the cycles of phi and S from the anchor's cycle lengths,
   which are in 1..d and sum to d.  Cycle i starts at point c. */
static void set_anchor(Scan *s, const int *lens, int nlens)
{
    s->nroots = nlens;
    for (int i = 0, c = 0; i < nlens; c += lens[i++]) {
        int n = lens[i];
        for (int j = 0; j < n; j++) {
            s->phi[c + j] = c + (j + n - 1) % n;
            s->parent[c + j] = c;
        }
        for (int k = 1; k < n; k++) { /* the powers of the rotation of cycle i */
            int m = add_generator(s);
            for (int j = 0; j < n; j++) {
                s->g[m][c + j] = c + (j + k) % n;
                s->ginv[m][c + j] = c + (j + n - k) % n;
            }
        }
        if (i && lens[i - 1] == n) { /* the swap of cycles i - 1 and i */
            int m = add_generator(s), p = c - n;
            for (int j = 0; j < n; j++) {
                s->g[m][p + j] = s->ginv[m][p + j] = c + j;
                s->g[m][c + j] = s->ginv[m][c + j] = p + j;
            }
        }
    }
}

/* Copies the entries of the sequence obj into out, which holds d ints, and
   returns their number; they must be parts in 1..d that sum to d.  Returns
   -1 with an exception set otherwise. */
static int read_parts(PyObject *obj, const char *name, int *out, int d)
{
    PyObject *seq = PySequence_Fast(obj, "lens and target must be sequences");
    if (seq == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq), i = 0;
    int sum = 0;
    /* Every part is at least 1, so i <= sum < d when out[i] is written. */
    for (; i < n && sum < d; i++) {
        long x = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        if (x < 1 || x > d)
            break;
        out[i] = (int)x;
        sum += (int)x;
    }
    Py_DECREF(seq);
    if (PyErr_Occurred())
        return -1;
    if (i < n || sum != d) {
        PyErr_Format(PyExc_ValueError, "%s must be parts in 1..%d summing to %d", name, d, d);
        return -1;
    }
    return (int)n;
}

static PyObject *survivor_list(const Scan *s)
{
    PyObject *list = PyList_New(s->count);
    if (list == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < s->count; i++) {
        PyObject *tup = PyTuple_New(s->d);
        if (tup == NULL)
            goto fail;
        PyList_SET_ITEM(list, i, tup);
        for (int j = 0; j < s->d; j++) {
            PyObject *x = PyLong_FromLong(s->out[i * s->d + j]);
            if (x == NULL)
                goto fail;
            PyTuple_SET_ITEM(tup, j, x);
        }
    }
    return list;
fail:
    Py_DECREF(list);
    return NULL;
}

static PyObject *scan_involutions_block(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"d", "first", "lens", "target", NULL};
    Scan s = {0};
    int first, ok, nlens, ntarget, v[MAXD], used[MAXD] = {0}, lens[MAXD], target[MAXD];
    int act[MAXD], pos[MAXD] = {0}, act2[MAXD], pos2[MAXD], nact2 = 0;
    PyObject *lensobj, *targetobj, *result;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiOO:scan_involutions_block", kwlist,
                                     &s.d, &first, &lensobj, &targetobj))
        return NULL;
    if (s.d < 2 || s.d > MAXD || s.d % 2)
        return PyErr_Format(PyExc_ValueError, "degree must be even and at most %d, got %d",
                            MAXD, s.d);
    if (first < 1 || first >= s.d)
        return PyErr_Format(PyExc_ValueError, "first partner must be in 1..%d, got %d",
                            s.d - 1, first);
    if ((nlens = read_parts(lensobj, "lens", lens, s.d)) < 0
        || (ntarget = read_parts(targetobj, "target", target, s.d)) < 0)
        return NULL;
    set_anchor(&s, lens, nlens);
    for (int x = 0; x < s.d; x++) {
        s.start[x] = s.end[x] = x;
        s.size[x] = 1;
        v[x] = -1;
    }
    for (int i = 0; i < ntarget; i++) {
        s.left[target[i]]++;
        if (target[i] > s.largest)
            s.largest = target[i];
    }

    if (!add_edge(&s, 0, s.phi[first]) || !add_edge(&s, first, s.phi[0]))
        return PyList_New(0);
    v[0] = first;
    v[first] = 0;
    used[0] = used[first] = 1;
    for (int k = 0; k < s.ngens; k++)
        act[k] = k;
    if (s.ngens)
        nact2 = undecided(&s, v, act, pos, s.ngens, act2, pos2);
    if (nact2 < 0)
        return PyList_New(0);
    ok = walk(&s, v, used, 2, act2, pos2, nact2);
    result = ok ? survivor_list(&s)
                : PyErr_Format(PyExc_MemoryError, "survivor buffer allocation failed");
    free(s.out);
    return result;
}

static PyObject *backend(PyObject *self, PyObject *unused)
{
    return PyUnicode_FromString("compiled");
}

static PyMethodDef methods[] = {
    {"scan_involutions_block", (PyCFunction)(void (*)(void))scan_involutions_block,
     METH_VARARGS | METH_KEYWORDS,
     "Canonical survivors among involutions pairing 0 with first; see the pure twin."},
    {"backend", backend, METH_NOARGS, "Identify this implementation."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_speed",
    .m_doc = "Compiled scan over fixed-point-free involutions with a fixed first pair.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__speed(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddIntConstant(m, "API", API) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
