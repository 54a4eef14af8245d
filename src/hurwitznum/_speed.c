/* Compiled twin of `_purekernels.scan_involutions_block`.

   scan_involutions_block(d, first, phi, target, rot) walks every
   fixed-point-free involution v of {0..d-1} with v(0) = first, forms the
   composite t[x] = phi[v[x]] (v o phi is conjugate to it, so has the same
   cycle type) and keeps v when t has the target cycle type and the pairs of
   v join the anchor's point classes into one, so that the generated group
   is transitive.  phi is the inverse of the anchor, so those classes are
   the cycles of phi; they are found once per call.  It keeps only the v
   that are canonical under rotation of the anchor's cycle 0..rot-1: for
   x < rot, label(x) = (v[x] - x) mod rot when v[x] < rot, else rot + v[x],
   and v is kept when no label is below label(0).  Rotating that cycle fixes
   the anchor and rotates the labels, so every rotation orbit of survivors
   keeps a member; rot = 1 keeps all.  The pairs at 0..rot-1 are placed
   first, so a violated label cuts its whole subtree.  The walk also tracks
   the cycles and open paths of the partial t: placing the pair (a, b) adds
   the edges a -> phi[b] and b -> phi[a], and the subtree is cut when an
   edge closes a cycle whose length is no longer left among the target's
   parts, or makes an open path longer than the largest part.  Backtracking
   undoes the edges.  Only non-survivors are cut, so the survivors and their
   order match the full walk; survives() still checks each leaf in full.
   phi must be a permutation.  The walk runs with the interpreter lock
   released, so blocks scanned on several threads run in parallel.  Build it
   next to the Python sources with `python3 setup.py build_ext --inplace`.

   API must equal `_purekernels.API`; `kernels` ignores a build whose API
   differs, so bump both whenever the signature or the semantics change.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h> /* also includes stdlib.h and string.h */

#define MAXD 32
#define API 4

typedef struct {
    int d, nroots, ntarget, rot, label0, largest;
    int phi[MAXD], target[MAXD], parent[MAXD]; /* parent: cycles of phi */
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

/* The label of x < rot when v[x] = y; see the header. */
static int label(int rot, int x, int y)
{
    return y < rot ? (y - x + rot) % rot : rot + y;
}

static int survives(const Scan *s, const int *v)
{
    int d = s->d, ncyc = 0;
    int t[MAXD], seen[MAXD] = {0}, lens[MAXD], uf[MAXD];

    for (int i = 0; i < d; i++)
        t[i] = s->phi[v[i]];
    /* Cycle lengths of t, kept in weakly decreasing order. */
    for (int i = 0; i < d; i++) {
        if (seen[i])
            continue;
        if (ncyc == s->ntarget)
            return 0;
        int n = 0, j = ncyc++;
        for (int x = i; !seen[x]; x = t[x], n++)
            seen[x] = 1;
        for (; j > 0 && lens[j - 1] < n; j--)
            lens[j] = lens[j - 1];
        lens[j] = n;
    }
    if (ncyc != s->ntarget || memcmp(lens, s->target, ncyc * sizeof(int)))
        return 0;

    /* Transitivity of <anchor, v>: start from the anchor's classes and join
       x with v[x]. */
    int comps = s->nroots;
    memcpy(uf, s->parent, d * sizeof(int));
    for (int x = 0; x < d && comps > 1; x++) {
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

/* Pairs the smallest unpaired point with each later unpaired point in turn,
   in the pure twin's order, skipping pairs that give a point of 0..rot-1 a
   label below label(0) and pairs whose edges of t add_edge refuses.  Returns
   0 when the survivor buffer cannot grow. */
static int walk(Scan *s, int *v, int *used, int npaired)
{
    if (npaired == s->d)
        return !survives(s, v) || keep(s, v);
    int a = 0;
    while (used[a])
        a++;
    used[a] = 1;
    for (int b = a + 1; b < s->d; b++) {
        if (used[b])
            continue;
        if (a < s->rot
            && (label(s->rot, a, b) < s->label0
                || (b < s->rot && label(s->rot, b, a) < s->label0)))
            continue;
        int pa = s->phi[a], pb = s->phi[b];
        if (!add_edge(s, a, pb))
            continue;
        if (add_edge(s, b, pa)) {
            used[b] = 1;
            v[a] = b;
            v[b] = a;
            if (!walk(s, v, used, npaired + 2))
                return 0;
            used[b] = 0;
            remove_edge(s, b, pa);
        }
        remove_edge(s, a, pb);
    }
    used[a] = 0;
    return 1;
}

/* Copies the integer entries of the sequence obj, each in lo..hi, into out.
   There must be exactly d of them when exact, else at most d.  Returns their
   number, or -1 with an exception set. */
static int read_ints(PyObject *obj, const char *name, int *out, int d, int exact,
                     long lo, long hi)
{
    PyObject *seq = PySequence_Fast(obj, "phi and target must be sequences");
    if (seq == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    if (exact ? n != d : n > d) {
        PyErr_Format(PyExc_ValueError, "%s has %zd entries for degree %d", name, n, d);
        n = -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        long x = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        if (x == -1 && PyErr_Occurred()) {
            n = -1;
        } else if (x < lo || x > hi) {
            PyErr_Format(PyExc_ValueError, "%s entry %ld is outside %ld..%ld", name, x, lo, hi);
            n = -1;
        } else {
            out[i] = (int)x;
        }
    }
    Py_DECREF(seq);
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
    static char *kwlist[] = {"d", "first", "phi", "target", "rot", NULL};
    Scan s = {0};
    int first, ok, v[MAXD], used[MAXD] = {0}, hit[MAXD] = {0};
    PyObject *phi, *target, *result;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiOOi:scan_involutions_block", kwlist,
                                     &s.d, &first, &phi, &target, &s.rot))
        return NULL;
    if (s.d < 2 || s.d > MAXD || s.d % 2)
        return PyErr_Format(PyExc_ValueError, "degree must be even and at most %d, got %d",
                            MAXD, s.d);
    if (first < 1 || first >= s.d)
        return PyErr_Format(PyExc_ValueError, "first partner must be in 1..%d, got %d",
                            s.d - 1, first);
    if (s.rot < 1 || s.rot > s.d)
        return PyErr_Format(PyExc_ValueError, "rotated cycle length must be in 1..%d, got %d",
                            s.d, s.rot);
    if (read_ints(phi, "phi", s.phi, s.d, 1, 0, s.d - 1) < 0
        || (s.ntarget = read_ints(target, "target", s.target, s.d, 0, 1, s.d)) < 0)
        return NULL;
    for (int x = 0; x < s.d; x++)
        if (hit[s.phi[x]]++)
            return PyErr_Format(PyExc_ValueError, "phi is not a permutation of 0..%d",
                                s.d - 1);
    /* Every point of the cycle of phi first reached from x points to x. */
    memset(s.parent, -1, sizeof s.parent);
    for (int x = 0; x < s.d; x++) {
        s.nroots += s.parent[x] < 0;
        for (int y = x; s.parent[y] < 0; y = s.phi[y])
            s.parent[y] = x;
    }
    for (int x = 0; x < s.d; x++) {
        s.start[x] = s.end[x] = x;
        s.size[x] = 1;
    }
    for (int i = 0; i < s.ntarget; i++) {
        s.left[s.target[i]]++;
        if (s.target[i] > s.largest)
            s.largest = s.target[i];
    }

    s.label0 = label(s.rot, 0, first);
    if (first < s.rot && label(s.rot, first, 0) < s.label0)
        return PyList_New(0);
    if (!add_edge(&s, 0, s.phi[first]) || !add_edge(&s, first, s.phi[0]))
        return PyList_New(0);
    v[0] = first;
    v[first] = 0;
    used[0] = used[first] = 1;
    Py_BEGIN_ALLOW_THREADS
    ok = walk(&s, v, used, 2);
    Py_END_ALLOW_THREADS
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
     "Rotation-canonical survivors among involutions pairing 0 with first; see the pure twin."},
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
