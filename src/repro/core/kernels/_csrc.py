"""C source for the compiled (``cext``) kernel backend.

The source is embedded as a string (rather than shipped as a data file) so
the backend works from any install layout; :mod:`._cext` writes it into the
kernel cache directory and compiles it with the system C compiler.

Every floating-point kernel is float64 only; the package wrappers hand
over C-contiguous arrays of the declared dtype and shape and nothing else.

Bit-identity contract: every kernel performs exactly the same IEEE-754
operations, in the same per-element order, as the pure-NumPy reference in
:mod:`._numpy`.  That is why compilation must NOT enable value-changing
optimizations — no ``-ffast-math`` and no FMA contraction
(``-ffp-contract=off``): a fused multiply-add rounds once where the
reference rounds twice, which would break the ``array_equal`` equivalence
suite in ``tests/test_kernels.py``.  The fused ``network_run_i64`` loop
steps every chip compartment with ``cuba_step_i64`` (the one
integrate-and-fire compartment the EMSTDP builder programs) and counts
every int64 trace register with ``trace_update_i64``, both verbatim, so it
inherits their contract; its remaining arithmetic is exact int64.  The
fused ``microcode_epoch_i64`` loop evaluates every rule with
``sop_eval_f64`` verbatim on the registers converted to double (exact:
they are hardware-bounded integers); its rounding and clamping are the
reference's ``np.floor``/``np.round``/``np.clip`` on integer-valued
doubles, so it reproduces ``LearningEngine.apply_all`` bit for bit
(``tests/test_loihi_fused.py``).  The fused ``spike_present_f64`` loop
steps every population with ``if_step_f64``, the paper's one IF neuron,
and sums weight rows in the order the per-step reference in
:mod:`repro.core.network` defines, so it reproduces that path bit for bit
(``tests/test_spike_fused.py``).  The fused ``rate_phase2_f64`` loop runs
the rate engine's clip/quantize chains as the reference's IEEE operations
in their order and sums its phase-2 products with the same row sums, so
it reproduces ``network.rate_phase2_reference`` byte for byte; its
optional Eq. (7) write-back performs ``delta_w_f64``'s or
``delta_w_batch_f64``'s products and sums in their order, then
``quantize_weights``' clip and rounding on the same uniforms, so it
reproduces ``WeightUpdater.apply`` / ``apply_batch`` byte for byte
(``tests/test_rate_fused.py``).
"""

from ._layout import (MICROCODE_CONN_ARRAYS, MICROCODE_CONN_FIELDS,
                      MICROCODE_RULE_FIELDS, NETWORK_CONN_ARRAYS,
                      NETWORK_CONN_FIELDS, NETWORK_GROUP_ARRAYS,
                      NETWORK_GROUP_FIELDS)

#: Bump when the C ABI below changes; part of the compile-cache key.
SOURCE_VERSION = 13


def _c_enum(prefix: str, fields) -> str:
    """``enum { PREFIX_FIELD, ..., PREFIX_FIELDS };``: one table's column
    indices, in the order of its ``kernels.NETWORK_*`` tuple."""
    names = [f"{prefix}_{field.upper()}" for field in fields]
    return "enum { " + ", ".join(names + [f"{prefix}_FIELDS"]) + " };\n"


SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>

/* -- IF neuron step (core/neuron.py): Eqs. (1)-(2) of the paper ------- *
 * Add the drive, spike where v >= 1 - 1e-9, subtract the threshold 1 from
 * the neurons that spiked (soft reset) and floor at 0.  Branchless on
 * purpose: every per-element decision is a ternary so the compiler can
 * emit masked/blend SIMD; the blends select between the *same*
 * elementwise IEEE results the reference computes, so vectorization
 * cannot change a single bit.  The compare is repeated instead of reusing
 * a flag: gcc only if-converts (and thus vectorizes) this shape.         */
void if_step_f64(double *v, const double *drive, uint8_t *spikes,
                 ptrdiff_t n) {
    const double margin = 1.0 - 1e-9;
    for (ptrdiff_t i = 0; i < n; i++) {
        double vi = v[i] + drive[i];
        spikes[i] = vi >= margin;
        vi = vi >= margin ? vi - 1.0 : vi;
        v[i] = vi < 0.0 ? 0.0 : vi;
    }
}

/* -- Chip compartment step (loihi/compartment.py) ---------------------- *
 * The integrate-and-fire compartment EMSTDP programs (no leak, instant
 * current decay): add the synaptic input and the bias, floor at 0 if the
 * prototype says so, spike where v >= vth and subtract vth from the
 * compartments that spiked; a non-spiking compartment only integrates.
 * Exact int64, and branchless per element like if_step_f64: the two flags
 * are loop-invariant.                                                   */
void cuba_step_i64(int64_t *v, const int64_t *bias, const int64_t *syn,
                   int64_t vth, int floor_at_zero, int non_spiking,
                   uint8_t *fired, ptrdiff_t n) {
    for (ptrdiff_t i = 0; i < n; i++) {
        int64_t vi = v[i] + syn[i] + bias[i];
        vi = floor_at_zero && vi < 0 ? 0 : vi;
        int f = !non_spiking && vi >= vth;
        fired[i] = (uint8_t)f;
        v[i] = f ? vi - vth : vi;
    }
}

/* -- Trace counter (loihi/traces.py): +1 where spiked, saturate -------- */
void trace_update_i64(int64_t *values, const uint8_t *spikes,
                      int64_t trace_max, ptrdiff_t n) {
    for (ptrdiff_t i = 0; i < n; i++) {
        int64_t x = values[i] + spikes[i];
        values[i] = x < trace_max ? x : trace_max;
    }
}

/* -- EMSTDP Eq. (7): dW = eta * (h_hat - h) (x) pre --------------------- */
void delta_w_f64(const double *h_hat, const double *h, const double *pre,
                 double eta, double *dw, ptrdiff_t ni, ptrdiff_t nj) {
    for (ptrdiff_t i = 0; i < ni; i++) {
        double p = pre[i];
        for (ptrdiff_t j = 0; j < nj; j++)
            dw[i * nj + j] = eta * (p * (h_hat[j] - h[j]));
    }
}

/* -- Batched Eq. (7): ordered accumulation over the batch axis ---------- */
void delta_w_batch_f64(const double *h_hat, const double *h,
                       const double *pre, double eta, int mean, double *dw,
                       ptrdiff_t nb, ptrdiff_t ni, ptrdiff_t nj) {
    for (ptrdiff_t k = 0; k < ni * nj; k++) dw[k] = 0.0;
    for (ptrdiff_t b = 0; b < nb; b++) {
        for (ptrdiff_t i = 0; i < ni; i++) {
            double p = pre[b * ni + i];
            for (ptrdiff_t j = 0; j < nj; j++)
                dw[i * nj + j] += p * (h_hat[b * nj + j] - h[b * nj + j]);
        }
    }
    for (ptrdiff_t k = 0; k < ni * nj; k++) dw[k] = eta * dw[k];
    if (mean) {
        double bb = (double)nb;
        for (ptrdiff_t k = 0; k < ni * nj; k++) dw[k] = dw[k] / bb;
    }
}

/* -- Microcode sum-of-products (loihi/microcode.py) --------------------- *
 * Flattened rule encoding (built by kernels._flatten_rule):
 *   scales[t]            sign * 2^k of term t
 *   offs[t] .. offs[t+1] factor range of term t
 *   kinds[f]             0 = presynaptic (R, S), 1 = postsynaptic (R, D),
 *                        2 = synaptic (R, S, D), 3 = bare constant
 *   idxs[f]              index into the variable stack of that kind
 *                        (pre: x0, x1; post: y0, y1; syn: t, w)
 *   consts[f]            the additive constant C of the (V + C) factor
 */
/* The per-element factor product is *separable*: a term's pre factors only
 * depend on i, its post factors only on j, bare constants on neither.  We
 * therefore fold each term into cpart * pre_buf[i] * post_buf[j] * (syn
 * factors) and sweep the synaptic block once per term.  Regrouping float
 * multiplications is normally not bit-safe, but every learning-engine
 * variable is an integer from a hardware-bounded register (traces <= 127,
 * |tag| <= 511, |w| <= 255) and every scale is a signed power of two, so
 * each partial product is exact in float64 and any grouping yields the
 * same bits as the reference's strict factor-order product.  Term sums
 * still accumulate in program order (term 0 first) like the reference.   */
void sop_eval_f64(const double *scales, const int32_t *offs,
                  const int32_t *kinds, const int32_t *idxs,
                  const double *consts, ptrdiff_t n_terms,
                  const double *pre, const double *post, const double *syn,
                  double *dz, ptrdiff_t R, ptrdiff_t S, ptrdiff_t D) {
    double *pre_buf = (double *)malloc((size_t)(S > 0 ? S : 1)
                                       * sizeof(double));
    double *post_buf = (double *)malloc((size_t)(D > 0 ? D : 1)
                                        * sizeof(double));
    ptrdiff_t n_factors = n_terms > 0 ? offs[n_terms] : 0;
    int32_t *syn_f = (int32_t *)malloc((size_t)(n_factors > 0 ? n_factors : 1)
                                       * sizeof(int32_t));
    for (ptrdiff_t k = 0; k < R * S * D; k++) dz[k] = 0.0;
    for (ptrdiff_t r = 0; r < R; r++) {
        for (ptrdiff_t t = 0; t < n_terms; t++) {
            double cpart = scales[t];
            ptrdiff_t n_syn = 0;
            for (ptrdiff_t i = 0; i < S; i++) pre_buf[i] = 1.0;
            for (ptrdiff_t j = 0; j < D; j++) post_buf[j] = 1.0;
            for (int32_t f = offs[t]; f < offs[t + 1]; f++) {
                switch (kinds[f]) {
                case 0: {
                    const double *p = pre + (ptrdiff_t)idxs[f] * R * S
                                      + r * S;
                    double c = consts[f];
                    for (ptrdiff_t i = 0; i < S; i++)
                        pre_buf[i] *= p[i] + c;
                    break;
                }
                case 1: {
                    const double *p = post + (ptrdiff_t)idxs[f] * R * D
                                      + r * D;
                    double c = consts[f];
                    for (ptrdiff_t j = 0; j < D; j++)
                        post_buf[j] *= p[j] + c;
                    break;
                }
                case 2:
                    syn_f[n_syn++] = f;
                    break;
                default:
                    cpart *= consts[f];
                }
            }
            double *out = dz + r * S * D;
            if (n_syn == 0) {
                for (ptrdiff_t i = 0; i < S; i++) {
                    double pi = cpart * pre_buf[i];
                    for (ptrdiff_t j = 0; j < D; j++)
                        out[i * D + j] += pi * post_buf[j];
                }
            } else if (n_syn == 1) {
                const double *sp = syn + ((ptrdiff_t)idxs[syn_f[0]] * R + r)
                                   * S * D;
                double c = consts[syn_f[0]];
                for (ptrdiff_t i = 0; i < S; i++) {
                    double pi = cpart * pre_buf[i];
                    for (ptrdiff_t j = 0; j < D; j++)
                        out[i * D + j] += pi * post_buf[j]
                                          * (sp[i * D + j] + c);
                }
            } else {
                for (ptrdiff_t i = 0; i < S; i++) {
                    double pi = cpart * pre_buf[i];
                    for (ptrdiff_t j = 0; j < D; j++) {
                        double val = pi * post_buf[j];
                        for (ptrdiff_t k = 0; k < n_syn; k++) {
                            int32_t f = syn_f[k];
                            val *= syn[((ptrdiff_t)idxs[f] * R + r) * S * D
                                       + i * D + j] + consts[f];
                        }
                        out[i * D + j] += val;
                    }
                }
            }
        }
    }
    free(pre_buf);
    free(post_buf);
    free(syn_f);
}

/* Row sums.  acc[j] += sign[q] * rows[q][j] for q = 0, 1, ... k-1 in that
 * order; the signs are +1 or -1, so each product is exact.  The columns go
 * in blocks whose running sums stay in vector registers across all k rows
 * instead of making a load/store round trip through acc per row.  Each
 * lane still adds one row at a time in list order, the same scalar IEEE
 * adds as a plain row loop, so no vector width can change a bit.  The
 * chip's delivery sums its int64 weight rows the same way (sum_rows_i64),
 * where integer adds make any order exact.                               */
#if defined(__AVX__)
#define VEC_BYTES 32
#else
#define VEC_BYTES 16
#endif
typedef double vec_f64 __attribute__((vector_size(VEC_BYTES)));
typedef int64_t vec_i64 __attribute__((vector_size(VEC_BYTES)));
enum { LANES = VEC_BYTES / sizeof(double), BLOCK = 4 * LANES };

static vec_f64 vec_load(const double *p) {
    vec_f64 x;
    memcpy(&x, p, sizeof x);
    return x;
}

static void sum_rows(double *restrict acc, const double *const *rows,
                     const double *sign, ptrdiff_t k, ptrdiff_t cols) {
    ptrdiff_t j = 0;
    for (; j + BLOCK <= cols; j += BLOCK) {
        vec_f64 a[4];
        for (int u = 0; u < 4; u++) a[u] = vec_load(acc + j + u * LANES);
        for (ptrdiff_t q = 0; q < k; q++)
            for (int u = 0; u < 4; u++)
                a[u] += sign[q] * vec_load(rows[q] + j + u * LANES);
        memcpy(acc + j, a, sizeof a);
    }
    for (; j + LANES <= cols; j += LANES) {
        vec_f64 a = vec_load(acc + j);
        for (ptrdiff_t q = 0; q < k; q++) a += sign[q] * vec_load(rows[q] + j);
        memcpy(acc + j, &a, sizeof a);
    }
    for (; j < cols; j++) {
        double a = acc[j];
        for (ptrdiff_t q = 0; q < k; q++) a += sign[q] * rows[q][j];
        acc[j] = a;
    }
}

/* List the rows of w (cols wide) whose spike is nonzero, in row order,
 * with the spike as the sign; returns how many.  Branchless (every row is
 * written, only an active one advances the count): spikes are close to
 * random, so a branch per row would mispredict about every other time.   */
static ptrdiff_t list_spiking(const double **rows, double *sign,
                              const uint8_t *s, const double *w,
                              ptrdiff_t n, ptrdiff_t cols) {
    ptrdiff_t k = 0;
    for (ptrdiff_t i = 0; i < n; i++) {
        rows[k] = w + i * cols;
        sign[k] = 1.0;
        k += s[i] != 0;
    }
    return k;
}

static ptrdiff_t list_signed(const double **rows, double *sign,
                             const double *s, const double *w, ptrdiff_t n,
                             ptrdiff_t cols) {
    ptrdiff_t k = 0;
    for (ptrdiff_t i = 0; i < n; i++) {
        rows[k] = w + i * cols;
        sign[k] = s[i];
        k += s[i] != 0.0;
    }
    return k;
}

static vec_i64 vec_load_i64(const int64_t *p) {
    vec_i64 x;
    memcpy(&x, p, sizeof x);
    return x;
}

static void vec_add_store_i64(int64_t *p, vec_i64 x) {
    x += vec_load_i64(p);
    memcpy(p, &x, sizeof x);
}

/* out[j] += scale * (rows[0][j] + ... + rows[k-1][j]): the column sums stay
 * in vector registers across all k rows, as in sum_rows, and each is
 * scaled once.  Exact int64: the chip's weights, fan-ins and scales keep
 * every sum far inside 2^63, so this equals a multiply per row.          */
static void sum_rows_i64(int64_t *restrict out, const int64_t *const *rows,
                         ptrdiff_t k, ptrdiff_t cols, int64_t scale) {
    ptrdiff_t j = 0;
    for (; j + BLOCK <= cols; j += BLOCK) {
        vec_i64 a[4] = {{0}};
        for (ptrdiff_t q = 0; q < k; q++)
            for (int u = 0; u < 4; u++)
                a[u] += vec_load_i64(rows[q] + j + u * LANES);
        for (int u = 0; u < 4; u++)
            vec_add_store_i64(out + j + u * LANES, a[u] * scale);
    }
    for (; j + LANES <= cols; j += LANES) {
        vec_i64 a = {0};
        for (ptrdiff_t q = 0; q < k; q++) a += vec_load_i64(rows[q] + j);
        vec_add_store_i64(out + j, a * scale);
    }
    for (; j < cols; j++) {
        int64_t a = 0;
        for (ptrdiff_t q = 0; q < k; q++) a += rows[q][j];
        out[j] += a * scale;
    }
}

/* list_spiking for int64 rows: the rows of w whose spike is set.        */
static ptrdiff_t list_active_i64(const int64_t **rows, const uint8_t *s,
                                 const int64_t *w, ptrdiff_t n,
                                 ptrdiff_t cols) {
    ptrdiff_t k = 0;
    for (ptrdiff_t i = 0; i < n; i++) {
        rows[k] = w + i * cols;
        k += s[i] != 0;
    }
    return k;
}

/* -- Fused network run (loihi/runtime.py: Runtime.run) ----------------- *
 * Advances a flattened network `steps` timesteps in one call with the
 * exact semantics of that many Runtime.step() calls; the table layouts
 * are kernels.NETWORK_* (one row per group / connection, declaration
 * order), whose column enums are generated from those tuples.  Every
 * step:
 *   deliver   — each connection adds (spikes @ W) * weight_scale from
 *               its source's previous-step spikes and counts active *
 *               dst.n synaptic events: per replica, the active rows are
 *               listed once and summed by sum_rows_i64 (int64: exact in
 *               any order, scaled once per destination element);
 *   integrate — each group runs cuba_step_i64, then ANDs gate.v > 0, ORs
 *               the merge group's spikes as currently stored and ANDs the
 *               mask; disabled groups hold state and emit nothing,
 *               non-spiking groups integrate and emit nothing;
 *   trace     — each plastic connection counts its pre, then its post
 *               trace with trace_update_i64.
 * Returns 0; -1 if scratch allocation fails, -2 if a table holds an
 * out-of-range size, group index or mask stride, or a null address —
 * both before any state is touched.                                      */
""" + "".join(_c_enum(prefix, fields) for prefix, fields in (
    ("G", NETWORK_GROUP_FIELDS), ("GA", NETWORK_GROUP_ARRAYS),
    ("C", NETWORK_CONN_FIELDS), ("CA", NETWORK_CONN_ARRAYS),
    ("MC", MICROCODE_CONN_FIELDS), ("MA", MICROCODE_CONN_ARRAYS),
    ("MR", MICROCODE_RULE_FIELDS))) + r"""
#define GROUP_ARRAY(T, k, f) ((T *)ga[(k) * GA_FIELDS + (f)])

static int network_tables_ok(int64_t R, ptrdiff_t n_groups,
                             const int64_t *g, const uintptr_t *ga,
                             ptrdiff_t n_conns, const int64_t *c,
                             const uintptr_t *ca) {
    if (R < 1) return 0;
    for (ptrdiff_t k = 0; k < n_groups; k++) {
        const int64_t *gk = g + k * G_FIELDS;
        int64_t stride = gk[G_MASK_STRIDE];
        if (gk[G_N] < 1 || gk[G_GATE] < -1 || gk[G_GATE] >= n_groups
            || gk[G_MERGE] < -1 || gk[G_MERGE] >= n_groups
            || (stride != 0 && stride != gk[G_N]))
            return 0;
        for (int f = 0; f < GA_FIELDS; f++)
            if (!ga[k * GA_FIELDS + f]) return 0;
    }
    for (ptrdiff_t k = 0; k < n_conns; k++) {
        const int64_t *ck = c + k * C_FIELDS;
        if (ck[C_SRC] < 0 || ck[C_SRC] >= n_groups || ck[C_DST] < 0
            || ck[C_DST] >= n_groups || !ca[k * CA_FIELDS + CA_WEIGHT])
            return 0;
        if (ck[C_PLASTIC] && (!ca[k * CA_FIELDS + CA_PRE_TRACE]
                              || !ca[k * CA_FIELDS + CA_POST_TRACE]))
            return 0;
    }
    return 1;
}

int network_run_i64(int64_t steps, int64_t R, ptrdiff_t n_groups,
                    const int64_t *g, const uintptr_t *ga,
                    int64_t *g_spikes, ptrdiff_t n_conns, const int64_t *c,
                    const uintptr_t *ca, int64_t *c_events,
                    int64_t trace_max) {
    if (!network_tables_ok(R, n_groups, g, ga, n_conns, c, ca)) return -2;
    ptrdiff_t total = 0, widest = 1;
    ptrdiff_t *off = (ptrdiff_t *)malloc((size_t)(n_groups > 0 ? n_groups
                                                              : 1)
                                         * sizeof(ptrdiff_t));
    if (!off) return -1;
    for (ptrdiff_t k = 0; k < n_groups; k++) {
        ptrdiff_t m = R * g[k * G_FIELDS + G_N];
        off[k] = total;
        total += m;
        if (m > widest) widest = m;
    }
    int64_t *cur = (int64_t *)malloc((size_t)(total > 0 ? total : 1)
                                     * sizeof(int64_t));
    uint8_t *fired = (uint8_t *)malloc((size_t)widest);
    /* A replica's active source rows; no group is wider than widest.    */
    const int64_t **rows = (const int64_t **)malloc((size_t)widest
                                                    * sizeof(int64_t *));
    if (!cur || !fired || !rows) {
        free(off);
        free(cur);
        free(fired);
        free(rows);
        return -1;
    }
    for (int64_t t = 0; t < steps; t++) {
        memset(cur, 0, (size_t)total * sizeof(int64_t));
        for (ptrdiff_t k = 0; k < n_conns; k++) {            /* deliver */
            const int64_t *ck = c + k * C_FIELDS;
            int64_t src = ck[C_SRC], dst = ck[C_DST];
            ptrdiff_t S = g[src * G_FIELDS + G_N];
            ptrdiff_t D = g[dst * G_FIELDS + G_N];
            const uint8_t *sp = GROUP_ARRAY(const uint8_t, src, GA_SPIKES);
            const int64_t *w = (const int64_t *)ca[k * CA_FIELDS + CA_WEIGHT];
            for (int64_t r = 0; r < R; r++) {
                ptrdiff_t active = list_active_i64(
                    rows, sp + r * S, ck[C_PLASTIC] ? w + r * S * D : w, S,
                    D);
                if (!active) continue;
                c_events[k] += active * D;
                sum_rows_i64(cur + off[dst] + r * D, rows, active, D,
                             ck[C_WEIGHT_SCALE]);
            }
        }
        for (ptrdiff_t k = 0; k < n_groups; k++) {          /* integrate */
            const int64_t *gk = g + k * G_FIELDS;
            ptrdiff_t n = gk[G_N], m = R * n;
            uint8_t *spikes = GROUP_ARRAY(uint8_t, k, GA_SPIKES);
            if (!gk[G_ENABLED]) {
                memset(spikes, 0, (size_t)m);
                continue;
            }
            cuba_step_i64(GROUP_ARRAY(int64_t, k, GA_V),
                          GROUP_ARRAY(const int64_t, k, GA_BIAS),
                          cur + off[k], gk[G_VTH], (int)gk[G_FLOOR_AT_ZERO],
                          (int)gk[G_NON_SPIKING], fired, m);
            if (gk[G_NON_SPIKING]) {
                memset(spikes, 0, (size_t)m);
                continue;
            }
            if (gk[G_GATE] >= 0) {
                const int64_t *gv = GROUP_ARRAY(const int64_t, gk[G_GATE],
                                                GA_V);
                for (ptrdiff_t i = 0; i < m; i++) fired[i] &= gv[i] > 0;
            }
            if (gk[G_MERGE] >= 0) {
                const uint8_t *ms = GROUP_ARRAY(const uint8_t, gk[G_MERGE],
                                                GA_SPIKES);
                for (ptrdiff_t i = 0; i < m; i++) fired[i] |= ms[i];
            }
            const uint8_t *mask = GROUP_ARRAY(const uint8_t, k, GA_MASK);
            int64_t *count = GROUP_ARRAY(int64_t, k, GA_SPIKE_COUNT);
            ptrdiff_t stride = gk[G_MASK_STRIDE];
            int64_t emitted = 0;
            for (int64_t r = 0; r < R; r++) {
                for (ptrdiff_t j = 0; j < n; j++) {
                    uint8_t f = fired[r * n + j] & mask[r * stride + j];
                    spikes[r * n + j] = f;
                    count[r * n + j] += f;
                    emitted += f;
                }
            }
            g_spikes[k] += emitted;
        }
        for (ptrdiff_t k = 0; k < n_conns; k++) {              /* trace */
            const int64_t *ck = c + k * C_FIELDS;
            if (!ck[C_PLASTIC]) continue;
            int64_t src = ck[C_SRC], dst = ck[C_DST];
            trace_update_i64((int64_t *)ca[k * CA_FIELDS + CA_PRE_TRACE],
                             GROUP_ARRAY(const uint8_t, src, GA_SPIKES),
                             trace_max, R * g[src * G_FIELDS + G_N]);
            trace_update_i64((int64_t *)ca[k * CA_FIELDS + CA_POST_TRACE],
                             GROUP_ARRAY(const uint8_t, dst, GA_SPIKES),
                             trace_max, R * g[dst * G_FIELDS + G_N]);
        }
    }
    free(off);
    free(cur);
    free(fired);
    free(rows);
    return 0;
}

/* -- Fused learning epoch (loihi/runtime.py: Runtime.learning_epoch) ---- *
 * Applies each connection's rule list with the exact semantics of
 * LearningEngine.apply_all, connections in table order and each list in
 * program order; the table layouts are kernels.MICROCODE_*.  Every rule
 * is evaluated by sop_eval_f64 on the operands as they stand, so a weight
 * rule reads the tag an earlier tag rule just wrote: x0 / y0 are the
 * source / destination spikes, x1 / y1 the pre / post trace registers,
 * t and w the tag and weight blocks.  dz is rounded stochastically,
 * floor(dz) + (u < dz - floor(dz)) with replica r's next S * D uniforms
 * from row r of u, or, without u, to nearest with ties to even
 * (nearbyint in the default rounding mode, as np.round), then added to
 * its target in place and clamped to +-weight_max (w) or +-tag_max (t).
 * With hardware-bounded operands (see sop_eval_f64) every dz is a signed
 * power-of-two multiple of an integer far inside 2^53, so floor, the
 * subtraction and nearbyint are exact, as in the reference.  A rule
 * flagged MR_INTEGER (every term scale and factor constant an integer)
 * has an integer dz, which both roundings return unchanged (its fraction
 * is 0 and no uniform is below 0): it is added as it is and reads no
 * uniform, so only unflagged rules count toward n_draws.
 * Returns 0; -1 if scratch allocation fails, -2 if a table holds an
 * out-of-range size, slice, factor code or draw count, a flag that a
 * non-integer scale or constant of its rule contradicts, or a null
 * address — both before any state is touched.                            */
static int microcode_tables_ok(int64_t R, ptrdiff_t n_conns, const int64_t *c,
                               const uintptr_t *ca, ptrdiff_t n_rules,
                               const int64_t *rl, ptrdiff_t n_terms,
                               const double *scales, const int32_t *offs,
                               ptrdiff_t n_factors, const int32_t *kinds,
                               const int32_t *idxs, const double *consts,
                               int stochastic, ptrdiff_t n_draws) {
    if (R < 1 || offs[0] < 0 || offs[n_terms] > n_factors) return 0;
    for (ptrdiff_t t = 0; t < n_terms; t++)
        if (offs[t] > offs[t + 1]) return 0;
    for (ptrdiff_t f = 0; f < n_factors; f++)
        if (kinds[f] < 0 || kinds[f] > 3
            || (kinds[f] < 3 && (idxs[f] < 0 || idxs[f] > 1)))
            return 0;
    for (ptrdiff_t q = 0; q < n_rules; q++) {
        const int64_t *rq = rl + q * MR_FIELDS;
        if (rq[MR_TARGET] < 0 || rq[MR_TARGET] > 1 || rq[MR_TERM_LO] < 0
            || rq[MR_TERM_LO] > rq[MR_TERM_HI] || rq[MR_TERM_HI] > n_terms
            || rq[MR_INTEGER] < 0 || rq[MR_INTEGER] > 1)
            return 0;
        for (int64_t t = rq[MR_TERM_LO]; rq[MR_INTEGER] && t < rq[MR_TERM_HI];
             t++) {
            if (scales[t] != floor(scales[t])) return 0;
            for (int32_t f = offs[t]; f < offs[t + 1]; f++)
                if (consts[f] != floor(consts[f])) return 0;
        }
    }
    ptrdiff_t draws = 0;
    for (ptrdiff_t k = 0; k < n_conns; k++) {
        const int64_t *ck = c + k * MC_FIELDS;
        if (ck[MC_N_SRC] < 1 || ck[MC_N_DST] < 1 || ck[MC_RULE_LO] < 0
            || ck[MC_RULE_LO] > ck[MC_RULE_HI] || ck[MC_RULE_HI] > n_rules)
            return 0;
        for (int f = 0; f < MA_FIELDS; f++)
            if (!ca[k * MA_FIELDS + f]) return 0;
        for (int64_t q = ck[MC_RULE_LO]; q < ck[MC_RULE_HI]; q++)
            if (!rl[q * MR_FIELDS + MR_INTEGER])
                draws += ck[MC_N_SRC] * ck[MC_N_DST];
    }
    return !stochastic || draws == n_draws;
}

int microcode_epoch_i64(int64_t R, ptrdiff_t n_conns, const int64_t *c,
                        const uintptr_t *ca, ptrdiff_t n_rules,
                        const int64_t *rl, ptrdiff_t n_terms,
                        const double *scales, const int32_t *offs,
                        ptrdiff_t n_factors, const int32_t *kinds,
                        const int32_t *idxs, const double *consts,
                        const double *u, ptrdiff_t n_draws,
                        int64_t weight_max, int64_t tag_max) {
    if (!microcode_tables_ok(R, n_conns, c, ca, n_rules, rl, n_terms, scales,
                             offs, n_factors, kinds, idxs, consts, u != NULL,
                             n_draws))
        return -2;
    ptrdiff_t widest_pre = 1, widest_post = 1, widest_syn = 1;
    for (ptrdiff_t k = 0; k < n_conns; k++) {
        ptrdiff_t S = c[k * MC_FIELDS + MC_N_SRC];
        ptrdiff_t D = c[k * MC_FIELDS + MC_N_DST];
        if (R * S > widest_pre) widest_pre = R * S;
        if (R * D > widest_post) widest_post = R * D;
        if (R * S * D > widest_syn) widest_syn = R * S * D;
    }
    /* The sop_eval_f64 operand stacks (x0, x1), (y0, y1), (t, w) and dz. */
    double *pre = (double *)malloc((size_t)(2 * widest_pre) * sizeof(double));
    double *post = (double *)malloc((size_t)(2 * widest_post)
                                    * sizeof(double));
    double *syn = (double *)malloc((size_t)(3 * widest_syn) * sizeof(double));
    if (!pre || !post || !syn) {
        free(pre);
        free(post);
        free(syn);
        return -1;
    }
    ptrdiff_t drawn = 0;
    for (ptrdiff_t k = 0; k < n_conns; k++) {
        const int64_t *ck = c + k * MC_FIELDS;
        const uintptr_t *ak = ca + k * MA_FIELDS;
        ptrdiff_t S = ck[MC_N_SRC], D = ck[MC_N_DST];
        ptrdiff_t RS = R * S, RD = R * D, SD = S * D, RSD = R * SD;
        const uint8_t *xs = (const uint8_t *)ak[MA_SRC_SPIKES];
        const int64_t *xt = (const int64_t *)ak[MA_PRE_TRACE];
        const uint8_t *ys = (const uint8_t *)ak[MA_DST_SPIKES];
        const int64_t *yt = (const int64_t *)ak[MA_POST_TRACE];
        int64_t *tag = (int64_t *)ak[MA_TAG];
        int64_t *w = (int64_t *)ak[MA_WEIGHT];
        double *dz = syn + 2 * RSD;
        for (ptrdiff_t i = 0; i < RS; i++) {
            pre[i] = (double)xs[i];
            pre[RS + i] = (double)xt[i];
        }
        for (ptrdiff_t j = 0; j < RD; j++) {
            post[j] = (double)ys[j];
            post[RD + j] = (double)yt[j];
        }
        for (int64_t q = ck[MC_RULE_LO]; q < ck[MC_RULE_HI]; q++) {
            const int64_t *rq = rl + q * MR_FIELDS;
            int64_t lo = rq[MR_TERM_LO], hi = rq[MR_TERM_HI];
            /* Convert only the synaptic variables this rule reads, as
             * they stand after the rules before it.                      */
            int reads[2] = {0, 0};
            for (int32_t f = offs[lo]; f < offs[hi]; f++)
                if (kinds[f] == 2) reads[idxs[f]] = 1;
            if (reads[0])
                for (ptrdiff_t e = 0; e < RSD; e++) syn[e] = (double)tag[e];
            if (reads[1])
                for (ptrdiff_t e = 0; e < RSD; e++)
                    syn[RSD + e] = (double)w[e];
            sop_eval_f64(scales + lo, offs + lo, kinds, idxs, consts,
                         hi - lo, pre, post, syn, dz, R, S, D);
            int64_t *z = rq[MR_TARGET] ? tag : w;
            int64_t bound = rq[MR_TARGET] ? tag_max : weight_max;
            int integer = (int)rq[MR_INTEGER];
            for (int64_t r = 0; r < R; r++) {
                const double *ur = u && !integer ? u + r * n_draws + drawn
                                                 : NULL;
                int64_t *zr = z + r * SD;
                const double *dr = dz + r * SD;
                for (ptrdiff_t e = 0; e < SD; e++) {
                    double d = dr[e], fl = floor(d);
                    double step = integer ? d
                                  : ur ? fl + (double)(ur[e] < d - fl)
                                       : nearbyint(d);
                    int64_t x = zr[e] + (int64_t)step;
                    zr[e] = x < -bound ? -bound : (x > bound ? bound : x);
                }
            }
            if (!integer) drawn += SD;
        }
    }
    free(pre);
    free(post);
    free(syn);
    return 0;
}

/* -- Fused EMSTDP presentation (core/network.py: spike dynamics) -------- *
 * One presentation of a (B, n_in) block with the exact semantics of the
 * per-step reference, network.spike_present_reference: phase 1 for T
 * steps, then (given a target) phase 2 for T steps with membranes carried
 * over, the label layer, the output error pair, the FA chain or DFA
 * broadcast of hidden error pairs, and gates from the phase-1 counts.
 * Every IF population steps through if_step_f64, so it inherits that
 * kernel's contract.  Every weighted input is
 * the sum of the active rows of its matrix in row order, starting from
 * +0.0 (the bias unit's row last); a signed spike adds or subtracts its
 * row.  Samples are independent under frozen weights, so the loop runs
 * each sample's whole presentation before the next one.
 * Returns 0; -1 if scratch allocation fails, -2 on a bad size or a null
 * address — both before any output is written.                           */
/* A signed error pair: the positive channel integrates d, the negative
 * one -d; out = gated positive spike - gated negative spike, times scale
 * (the class mask for the output pair, 1 otherwise).                     */
static void error_pair_step(double *v_pos, double *v_neg, const double *d,
                            double *neg_d, uint8_t *sp, uint8_t *sn,
                            const int64_t *gate_count,
                            const double *scale, double *out, ptrdiff_t n) {
    for (ptrdiff_t j = 0; j < n; j++) neg_d[j] = -d[j];
    if_step_f64(v_pos, d, sp, n);
    if_step_f64(v_neg, neg_d, sn, n);
    for (ptrdiff_t j = 0; j < n; j++) {
        uint8_t g = gate_count ? gate_count[j] > 0 : 1;
        double e = (double)(sp[j] & g) - (double)(sn[j] & g);
        out[j] = scale ? e * scale[j] : e;
    }
}

int spike_present_f64(ptrdiff_t n_layers, const int64_t *dims, int64_t T,
                      ptrdiff_t B, const double *drive,
                      const uintptr_t *weights, const uintptr_t *feedback,
                      const uint8_t *class_mask, const double *target,
                      int bias_unit, int fa, int gate_hidden,
                      double error_gain, int64_t *counts1,
                      int64_t *counts2) {
    if (n_layers < 1 || T < 0 || B < 0 || !dims || !weights || !class_mask
        || !counts1 || (B && !drive)
        || (target && (!counts2 || (n_layers > 1 && !feedback))))
        return -2;
    ptrdiff_t total = 0, widest = 1;
    for (ptrdiff_t k = 0; k <= n_layers; k++) {
        if (dims[k] < 1) return -2;
        total += dims[k];
        if (dims[k] > widest) widest = dims[k];
    }
    for (ptrdiff_t i = 0; i < n_layers; i++)
        if (!weights[i] || (target && i < n_layers - 1 && !feedback[i]))
            return -2;
    ptrdiff_t n_out = dims[n_layers];
    ptrdiff_t hidden = total - dims[0] - n_out;
    /* Phase-2 state, zeroed per sample: the label layer, the output error
     * pair and its pending spikes (n_out each), then the hidden error
     * pairs and their pending spikes (hidden each).                      */
    ptrdiff_t n_err = 4 * n_out + 3 * hidden;
    double *buf = (double *)malloc((size_t)(total + 4 * widest + 1 + n_out
                                            + n_err) * sizeof(double));
    ptrdiff_t *off = (ptrdiff_t *)malloc((size_t)(n_layers + 1)
                                         * sizeof(ptrdiff_t));
    uint8_t *spk = (uint8_t *)malloc((size_t)(total + 3 * widest));
    /* Active-row lists: a layer's inputs plus the bias row.              */
    const double **rows = (const double **)malloc((size_t)(widest + 1)
                                                  * sizeof(double *));
    if (!buf || !off || !spk || !rows) {
        free(buf);
        free(off);
        free(spk);
        free(rows);
        return -1;
    }
    double *v = buf, *acc = v + total, *d = acc + widest;
    double *neg_d = d + widest, *sign = neg_d + widest;
    double *mask = sign + widest + 1;
    double *v_label = mask + n_out, *v_opos = v_label + n_out;
    double *v_oneg = v_opos + n_out, *pend_out = v_oneg + n_out;
    double *v_hpos = pend_out + n_out, *v_hneg = v_hpos + hidden;
    double *pend_hid = v_hneg + hidden;
    uint8_t *sp = spk + total, *sn = sp + widest, *s_label = sn + widest;
    for (ptrdiff_t k = 0, o = 0; k <= n_layers; o += dims[k], k++)
        off[k] = o;
    for (ptrdiff_t j = 0; j < n_out; j++) mask[j] = class_mask[j] ? 1.0 : 0.0;
    const ptrdiff_t last = off[n_layers];

    for (ptrdiff_t b = 0; b < B; b++) {
        const double *x = drive + b * dims[0];
        int64_t *c1 = counts1 + b * total;
        memset(v, 0, (size_t)total * sizeof(double));
        for (int phase = 0; phase < (target ? 2 : 1); phase++) {
            int64_t *c = phase ? counts2 + b * total : c1;
            memset(c, 0, (size_t)total * sizeof(int64_t));
            if (phase) memset(v_label, 0, (size_t)n_err * sizeof(double));
            for (int64_t t = 0; t < T; t++) {
                if_step_f64(v, x, spk, dims[0]);
                for (ptrdiff_t j = 0; j < dims[0]; j++) c[j] += spk[j];
                for (ptrdiff_t i = 0; i < n_layers; i++) {     /* forward */
                    ptrdiff_t n_pre = dims[i], n = dims[i + 1];
                    const double *w = (const double *)weights[i];
                    ptrdiff_t active = list_spiking(rows, sign, spk + off[i],
                                                    w, n_pre, n);
                    if (bias_unit) {
                        rows[active] = w + n_pre * n;
                        sign[active++] = 1.0;
                    }
                    for (ptrdiff_t j = 0; j < n; j++) acc[j] = 0.0;
                    sum_rows(acc, rows, sign, active, n);
                    if (phase && i < n_layers - 1) {
                        const double *e = pend_hid + off[i + 1] - off[1];
                        for (ptrdiff_t j = 0; j < n; j++)
                            acc[j] = acc[j] + e[j];
                    } else if (phase) {
                        for (ptrdiff_t j = 0; j < n; j++)
                            acc[j] = acc[j] + pend_out[j] * mask[j];
                    }
                    uint8_t *s = spk + off[i + 1];
                    int64_t *ci = c + off[i + 1];
                    if_step_f64(v + off[i + 1], acc, s, n);
                    for (ptrdiff_t j = 0; j < n; j++) ci[j] += s[j];
                }
                if (!phase) continue;
                /* Output error: label spikes minus masked output spikes. */
                if_step_f64(v_label, target + b * n_out, s_label, n_out);
                for (ptrdiff_t j = 0; j < n_out; j++)
                    d[j] = error_gain * ((double)s_label[j]
                                         - (double)spk[last + j] * mask[j]);
                error_pair_step(v_opos, v_oneg, d, neg_d, sp, sn, NULL,
                                mask, pend_out, n_out);
                /* Hidden errors: FA relays down the chain from the layer
                 * above, DFA broadcasts the output error to every layer. */
                const double *e_above = pend_out;
                ptrdiff_t n_above = n_out;
                for (ptrdiff_t k = 0; k < n_layers - 1; k++) {
                    ptrdiff_t i = fa ? n_layers - 2 - k : k;
                    ptrdiff_t n = dims[i + 1], h = off[i + 1] - off[1];
                    ptrdiff_t active = list_signed(
                        rows, sign, fa ? e_above : pend_out,
                        (const double *)feedback[i], fa ? n_above : n_out, n);
                    for (ptrdiff_t j = 0; j < n; j++) acc[j] = 0.0;
                    sum_rows(acc, rows, sign, active, n);
                    error_pair_step(v_hpos + h, v_hneg + h, acc, neg_d, sp, sn,
                                    gate_hidden ? c1 + off[i + 1] : NULL,
                                    NULL, pend_hid + h, n);
                    e_above = pend_hid + h;
                    n_above = n;
                }
            }
        }
    }
    free(buf);
    free(off);
    free(spk);
    free(rows);
    return 0;
}

/* -- Rate-engine phase 2 (core/network.py: rate dynamics) -------------- *
 * All `iterations` damped fixed-point passes of phase 2 for a (B, n)
 * block with the exact semantics of network.rate_phase2_reference: per
 * pass, the output error pair, the FA chain or DFA broadcast of the
 * hidden error pairs, and the corrected forward pass of every layer, the
 * first layer's drive coming precomputed from phase 1.  Each elementwise
 * chain is the reference's IEEE operations in its order; its max and min
 * are compare-and-selects, since no zero's sign survives the + 1e-9 next
 * to them.  Without a gate the error channels are multiplied by 1.0,
 * which changes no bit.  Every product sums the rows of its matrix over
 * the nonzero inputs, in row order from +0.0 (the bias unit's row last),
 * through list_signed and sum_rows, as network.accumulate_rows does.
 * Samples are independent under frozen weights, so the loop runs each
 * sample's passes before the next one; h_hat starts as a copy of h.  A
 * sample's target is the one-hot row of its label times the class mask
 * (encode_labels(y) * mask: every product is 0.0 or 1.0, so the row is
 * built without multiplying).
 *
 * With an update mode, the Eq. (7) write-back of learning.WeightUpdater
 * follows once every sample's passes are done: layer by layer, the
 * presynaptic rates being pre (the input layer's, for layer 0) or the
 * phase-1 rates below, with the bias unit's 1.0 last.  RATE_SAMPLE is
 * apply for one sample, w + eta * (p * (h_hat - h)) (delta_w_f64's
 * product); RATE_MEAN is apply_batch's mean, the per-sample products
 * p * (h_hat - h) summed from +0.0 in batch order, times eta, over B
 * (delta_w_batch_f64).  Each sum then goes through rate_project, the
 * quantize_weights chain, and back into w in place; uniforms holds the
 * stochastic rounding's draws, one per weight, layer 0's first.
 * Returns 0; -1 if scratch allocation fails, -2 on a bad size, label or
 * mode or a null address — both before any output or weight is written. */
enum { RATE_NO_UPDATE, RATE_SAMPLE, RATE_MEAN };
enum { ROUND_NONE, ROUND_NEAREST, ROUND_STOCHASTIC };

static double rate_requantize(double r, double T) {
    r = r < 0.0 ? 0.0 : r;
    r = r > 1.0 ? 1.0 : r;
    return floor(r * T + 1e-9) / T;
}

static double rate_activate(double p, double T) {
    p = floor(p * T + 1e-9);
    p = p < 0.0 ? 0.0 : p;
    p = p > T ? T : p;
    return p / T;
}

/* One pair's damped step from drive x: net rate, gated by the phase-1
 * rates gate (NULL: ungated), then c + (new - c) * 0.5; scale is the
 * class mask for the output pair.                                        */
static void rate_error_pair(double *c, const double *x, const double *gate,
                            const double *scale, double T, ptrdiff_t n) {
    for (ptrdiff_t j = 0; j < n; j++) {
        double g = gate && !(gate[j] > 0.0) ? 0.0 : 1.0;
        double e = rate_requantize(x[j], T) * g
                   - rate_requantize(-x[j], T) * g;
        if (scale) e = e * scale[j];
        c[j] = c[j] + (e - c[j]) * 0.5;
    }
}

/* np.clip(x, lo, hi): x stays unless a compare moves it, so a NaN passes
 * and a zero keeps its sign, as in NumPy's clip.                        */
static double clip_f64(double x, double lo, double hi) {
    x = x < lo ? lo : x;
    return x > hi ? hi : x;
}

/* quantize_weights of a row x into w (clip = inf for no clip): the clip,
 * then on the grid x / step, rounded down plus (u < fraction) or to
 * nearest with ties to even (nearbyint, as np.round), clipped to +-levels
 * and times step.  floor(-0.0) + 0.0 is +0.0, as NumPy's floor + (u <
 * frac).  One loop per rounding, so each vectorizes.                    */
static void rate_project(double *w, const double *x, const double *u,
                         ptrdiff_t n, double clip, int rounding, double step,
                         double levels) {
    if (rounding == ROUND_NONE) {
        for (ptrdiff_t j = 0; j < n; j++) w[j] = clip_f64(x[j], -clip, clip);
    } else if (rounding == ROUND_NEAREST) {
        for (ptrdiff_t j = 0; j < n; j++) {
            double s = nearbyint(clip_f64(x[j], -clip, clip) / step);
            w[j] = clip_f64(s, -levels, levels) * step;
        }
    } else {
        for (ptrdiff_t j = 0; j < n; j++) {
            double s = clip_f64(x[j], -clip, clip) / step;
            double fl = floor(s);
            s = fl + (double)(u[j] < s - fl);
            w[j] = clip_f64(s, -levels, levels) * step;
        }
    }
}

int rate_phase2_f64(ptrdiff_t n_layers, const int64_t *dims, double T,
                    int64_t iterations, ptrdiff_t B, const double *drive,
                    const uintptr_t *h, const uintptr_t *weights,
                    const uintptr_t *feedback, const uint8_t *class_mask,
                    const int64_t *labels, int bias_unit, int fa,
                    int gate_hidden, double error_gain, double *out,
                    int update, const double *pre, double eta, double clip,
                    int rounding, double step, double levels,
                    const double *uniforms) {
    if (n_layers < 1 || iterations < 0 || B < 0 || !dims || !h || !weights
        || !class_mask || (n_layers > 1 && !feedback)
        || (B && (!drive || !labels || !out))
        || update < RATE_NO_UPDATE || update > RATE_MEAN
        || (update == RATE_SAMPLE && B != 1)
        || (update == RATE_MEAN && B < 1) || (update && !pre)
        || rounding < ROUND_NONE || rounding > ROUND_STOCHASTIC
        || (update && rounding == ROUND_STOCHASTIC && !uniforms))
        return -2;
    ptrdiff_t total = 0, widest = 1;
    for (ptrdiff_t k = 1; k <= n_layers; k++) {
        if (dims[k] < 1) return -2;
        total += dims[k];
        if (dims[k] > widest) widest = dims[k];
    }
    if (dims[0] < 1) return -2;
    for (ptrdiff_t i = 0; i < n_layers; i++)
        if (!weights[i] || (B && !h[i])
            || (i < n_layers - 1 && !feedback[i]))
            return -2;
    ptrdiff_t n_out = dims[n_layers];
    for (ptrdiff_t b = 0; b < B; b++)
        if (labels[b] < 0 || labels[b] >= n_out) return -2;
    /* Per sample: the damped corrections of layers 1..L, then the row
     * sums, the listed rows' multipliers (a row per sample in the
     * write-back), the class mask, the target row built from a label and
     * the write-back's per-sample h_hat - h of one layer.                */
    ptrdiff_t listed = update && B > widest ? B : widest + 1;
    double *buf = (double *)malloc(
        (size_t)(total + widest + listed + 2 * n_out
                 + (update ? B * widest : 0)) * sizeof(double));
    ptrdiff_t *off = (ptrdiff_t *)malloc((size_t)(n_layers + 1)
                                         * sizeof(ptrdiff_t));
    const double **rows = (const double **)malloc((size_t)listed
                                                  * sizeof(double *));
    if (!buf || !off || !rows) {
        free(buf);
        free(off);
        free(rows);
        return -1;
    }
    double *corr = buf, *acc = corr + total, *sign = acc + widest;
    double *mask = sign + listed, *onehot = mask + n_out;
    double *diff = onehot + n_out;
    for (ptrdiff_t k = 0, o = 0; k <= n_layers; k++) {
        off[k] = o;
        if (k < n_layers) o += dims[k + 1];
    }
    for (ptrdiff_t j = 0; j < n_out; j++) mask[j] = class_mask[j] ? 1.0 : 0.0;
    const ptrdiff_t last = n_layers - 1;
    double *e_out = corr + off[last];
#define H1(i) ((const double *)h[i] + b * dims[(i) + 1])
#define HAT(i) (out + B * off[i] + b * dims[(i) + 1])

    for (ptrdiff_t b = 0; b < B; b++) {
        for (ptrdiff_t i = 0; i < n_layers; i++)
            memcpy(HAT(i), H1(i), (size_t)dims[i + 1] * sizeof(double));
        memset(corr, 0, (size_t)total * sizeof(double));
        for (ptrdiff_t j = 0; j < n_out; j++)
            onehot[j] = j == labels[b] ? mask[j] : 0.0;
        for (int64_t it = 0; it < iterations; it++) {
            const double *o = HAT(last);
            for (ptrdiff_t j = 0; j < n_out; j++)
                acc[j] = (onehot[j] - o[j]) * error_gain;
            rate_error_pair(e_out, acc, NULL, mask, T, n_out);
            /* Hidden errors: FA relays down the chain from the layer
             * above, DFA broadcasts the output error to every layer.     */
            const double *e_above = e_out;
            ptrdiff_t n_above = n_out;
            for (ptrdiff_t k = 0; k < n_layers - 1; k++) {
                ptrdiff_t i = fa ? n_layers - 2 - k : k;
                ptrdiff_t n = dims[i + 1];
                ptrdiff_t active = list_signed(
                    rows, sign, fa ? e_above : e_out,
                    (const double *)feedback[i], fa ? n_above : n_out, n);
                for (ptrdiff_t j = 0; j < n; j++) acc[j] = 0.0;
                sum_rows(acc, rows, sign, active, n);
                rate_error_pair(corr + off[i], acc,
                                gate_hidden ? H1(i) : NULL, NULL, T, n);
                e_above = corr + off[i];
                n_above = n;
            }
            for (ptrdiff_t i = 0; i < n_layers; i++) {  /* corrected pass */
                ptrdiff_t n = dims[i + 1];
                double *r = HAT(i);
                const double *c = corr + off[i];
                if (i == 0) {
                    const double *x = drive + b * n;
                    for (ptrdiff_t j = 0; j < n; j++)
                        r[j] = rate_requantize(x[j] + c[j], T);
                } else {
                    const double *w = (const double *)weights[i];
                    ptrdiff_t active = list_signed(rows, sign, HAT(i - 1), w,
                                                   dims[i], n);
                    if (bias_unit) {
                        rows[active] = w + dims[i] * n;
                        sign[active++] = 1.0;
                    }
                    for (ptrdiff_t j = 0; j < n; j++) acc[j] = 0.0;
                    sum_rows(acc, rows, sign, active, n);
                    for (ptrdiff_t j = 0; j < n; j++)
                        r[j] = rate_requantize(
                            rate_activate(acc[j], T) + c[j], T);
                }
                if (i == last)
                    for (ptrdiff_t j = 0; j < n; j++) r[j] = r[j] * mask[j];
            }
        }
    }

    /* The write-back.  Per layer, diff holds each sample's h_hat - h; per
     * weight row, acc gets w + delta, delta being one sample's
     * eta * (p * diff) or the products p * diff summed from +0.0 in
     * batch order (sum_rows, the samples' diff rows times their p), times
     * eta, over B; rate_project writes it back.                          */
    const double *u = uniforms;
    for (ptrdiff_t i = 0; update && i < n_layers; i++) {
        ptrdiff_t n_pre = dims[i], n = dims[i + 1];
        const double *p_in = i == 0 ? pre : (const double *)h[i - 1];
        double *w = (double *)weights[i];
        for (ptrdiff_t b = 0; b < B; b++) {
            const double *hat = HAT(i), *h1 = H1(i);
            double *d = diff + b * n;
            for (ptrdiff_t j = 0; j < n; j++) d[j] = hat[j] - h1[j];
            rows[b] = d;
        }
        for (ptrdiff_t q = 0; q < n_pre + bias_unit; q++, w += n) {
            if (update == RATE_SAMPLE) {
                double p = q < n_pre ? p_in[q] : 1.0;
                for (ptrdiff_t j = 0; j < n; j++)
                    acc[j] = w[j] + eta * (p * diff[j]);
            } else {
                for (ptrdiff_t b = 0; b < B; b++)
                    sign[b] = q < n_pre ? p_in[b * n_pre + q] : 1.0;
                for (ptrdiff_t j = 0; j < n; j++) acc[j] = 0.0;
                sum_rows(acc, rows, sign, B, n);
                for (ptrdiff_t j = 0; j < n; j++)
                    acc[j] = w[j] + eta * acc[j] / (double)B;
            }
            rate_project(w, acc, u ? u + q * n : NULL, n, clip, rounding,
                         step, levels);
        }
        if (u) u += (n_pre + bias_unit) * n;
    }
#undef H1
#undef HAT
    free(buf);
    free(off);
    free(rows);
    return 0;
}
"""
