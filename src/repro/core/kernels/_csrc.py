"""C source for the compiled (``cext``) kernel backend.

The source is embedded as a string (rather than shipped as a data file) so
the backend works from any install layout; :mod:`._cext` writes it into the
kernel cache directory and compiles it with the system C compiler.

Bit-identity contract: every kernel performs exactly the same IEEE-754
operations, in the same per-element order, as the pure-NumPy reference in
:mod:`._numpy`.  That is why compilation must NOT enable value-changing
optimizations — no ``-ffast-math`` and no FMA contraction
(``-ffp-contract=off``): a fused multiply-add rounds once where the
reference rounds twice, which would break the ``array_equal`` equivalence
suite in ``tests/test_kernels.py``.  The fused ``network_run_i64`` loop
reuses the per-step ``cuba_step_i64`` and ``trace_update_f64`` functions
verbatim, so it inherits their contract; its remaining arithmetic is exact
int64.
"""

from ._layout import (NETWORK_CONN_ARRAYS, NETWORK_CONN_FIELDS,
                      NETWORK_CONN_TRACE_FIELDS, NETWORK_GROUP_ARRAYS,
                      NETWORK_GROUP_FIELDS)

#: Bump when the C ABI below changes; part of the compile-cache key.
SOURCE_VERSION = 3


def _c_enum(prefix: str, fields) -> str:
    """``enum { PREFIX_FIELD, ..., PREFIX_FIELDS };``: one table's column
    indices, in the order of its ``kernels.NETWORK_*`` tuple."""
    names = [f"{prefix}_{field.upper()}" for field in fields]
    return "enum { " + ", ".join(names + [f"{prefix}_FIELDS"]) + " };\n"


SOURCE = r"""
#include <stdint.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>

/* Python floor division (// rounds toward -inf; C / truncates toward 0). */
static int64_t floordiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q -= 1;
    return q;
}

/* -- IF membrane update + spike/soft-reset step (core/neuron.py) -------- *
 * Branchless on purpose: every per-element decision is a ternary so the
 * compiler can emit masked/blend SIMD instead of branchy scalar code.
 * Blends select between the *same* elementwise IEEE results the reference
 * computes, so vectorization cannot change a single bit.                  */
#define DEFINE_IF_STEP(NAME, T)                                             \
void NAME(T *v, int64_t *refrac, const T *drive, double threshold,          \
          int soft_reset, int64_t refractory, uint8_t *spikes,              \
          ptrdiff_t n) {                                                    \
    T thr = (T)threshold;                                                   \
    T margin = thr - (T)1e-9;                                               \
    if (!refractory) {                                                      \
        /* Hot path: no refractory bookkeeping (EMSTDP's configuration).   \
         * The int64 refrac mask blocks SIMD when mixed into the float     \
         * blend, so OR-reduce it first (vectorizes on its own); with no   \
         * held neuron the update is a pure float compare/blend loop.      \
         * refrac[i] can still be nonzero if the caller seeded it; a held  \
         * neuron neither integrates nor counts down, exactly like the     \
         * general path below.  */                                         \
        int64_t any_held = 0;                                               \
        for (ptrdiff_t i = 0; i < n; i++) any_held |= refrac[i];            \
        if (!any_held) {                                                    \
            /* The compare is repeated instead of reusing a flag: gcc      \
             * only if-converts (and thus vectorizes) this shape.  */      \
            if (soft_reset) {                                               \
                for (ptrdiff_t i = 0; i < n; i++) {                         \
                    T vi = v[i] + drive[i];                                 \
                    spikes[i] = vi >= margin;                               \
                    vi = vi >= margin ? vi - thr : vi;                      \
                    v[i] = vi < (T)0 ? (T)0 : vi;                           \
                }                                                           \
            } else {                                                        \
                for (ptrdiff_t i = 0; i < n; i++) {                         \
                    T vi = v[i] + drive[i];                                 \
                    spikes[i] = vi >= margin;                               \
                    vi = vi >= margin ? (T)0 : vi;                          \
                    v[i] = vi < (T)0 ? (T)0 : vi;                           \
                }                                                           \
            }                                                               \
            return;                                                         \
        }                                                                   \
        for (ptrdiff_t i = 0; i < n; i++) {                                 \
            int active = refrac[i] == 0;                                    \
            T vi = active ? v[i] + drive[i] : v[i];                         \
            int s = active && (vi >= margin);                               \
            vi = s ? (soft_reset ? vi - thr : (T)0) : vi;                   \
            v[i] = vi < (T)0 ? (T)0 : vi;                                   \
            spikes[i] = (uint8_t)s;                                         \
        }                                                                   \
        return;                                                             \
    }                                                                       \
    for (ptrdiff_t i = 0; i < n; i++) {                                     \
        int64_t rf = refrac[i];                                             \
        int active = rf == 0;                                               \
        T vi = active ? v[i] + drive[i] : v[i];                             \
        int s = active && (vi >= margin);                                   \
        vi = s ? (soft_reset ? vi - thr : (T)0) : vi;                       \
        v[i] = vi < (T)0 ? (T)0 : vi;                                       \
        refrac[i] = s ? refractory : (rf > 0 ? rf - 1 : 0);                 \
        spikes[i] = (uint8_t)s;                                             \
    }                                                                       \
}
DEFINE_IF_STEP(if_step_f64, double)
DEFINE_IF_STEP(if_step_f32, float)

/* -- CUBA integer compartment step (loihi/compartment.py) --------------- *
 * decay_u == 4096 (instant current decay) and decay_v == 0 (no leak) are
 * the paper's IF configuration; both make the floordiv exact:
 * floordiv(u * 0, 4096) == 0 and floordiv(v * 4096, 4096) == v, so the
 * specializations below change the arithmetic path but not one result.   */
void cuba_step_i64(int64_t *u, int64_t *v, int64_t *refrac,
                   const int64_t *bias, const int64_t *syn,
                   int64_t decay_u, int64_t decay_v, int64_t vth,
                   int soft_reset, int64_t refractory, int floor_at_zero,
                   int non_spiking, uint8_t *fired, ptrdiff_t n) {
    int u_clears = decay_u == 4096;
    int v_holds = decay_v == 0;
    if (u_clears && v_holds && !non_spiking && !refractory
        && floor_at_zero && soft_reset) {
        /* The default IF prototype with nobody refractory: a pure int64
         * compare/blend loop the compiler can vectorize.  Identical
         * arithmetic to the general loop below (see the floordiv
         * identities above), just without the masks.  */
        int64_t any_held = 0;
        for (ptrdiff_t i = 0; i < n; i++) any_held |= refrac[i];
        if (!any_held) {
            for (ptrdiff_t i = 0; i < n; i++) {
                int64_t ui = syn[i];
                int64_t vi = v[i] + ui + bias[i];
                vi = vi < 0 ? 0 : vi;
                fired[i] = vi >= vth;
                v[i] = vi >= vth ? vi - vth : vi;
                u[i] = ui;
            }
            return;
        }
    }
    for (ptrdiff_t i = 0; i < n; i++) {
        int64_t ui = u_clears ? syn[i]
                              : floordiv(u[i] * (4096 - decay_u), 4096)
                                + syn[i];
        int64_t rf = refrac[i];
        int ok = rf == 0;
        int64_t leaked = v_holds ? v[i]
                                 : floordiv(v[i] * (4096 - decay_v), 4096);
        int64_t vi = ok ? leaked + ui + bias[i] : v[i];
        if (floor_at_zero) vi = vi < 0 ? 0 : vi;
        u[i] = ui;
        if (non_spiking) { v[i] = vi; fired[i] = 0; continue; }
        int f = ok && (vi >= vth);
        vi = f ? (soft_reset ? vi - vth : 0) : vi;
        v[i] = vi;
        if (refractory) refrac[i] = f ? refractory : (rf > 0 ? rf - 1 : 0);
        fired[i] = (uint8_t)f;
    }
}

/* -- Trace decay / accumulation / saturation (loihi/traces.py) ---------- */
#define DEFINE_TRACE_UPDATE(NAME, T)                                        \
void NAME(T *values, const uint8_t *spikes, double impulse, double decay,   \
          double trace_max, ptrdiff_t n) {                                  \
    T imp = (T)impulse;                                                     \
    T mx = (T)trace_max;                                                    \
    T dec = (T)decay;                                                       \
    if (decay != 1.0) {                                                     \
        for (ptrdiff_t i = 0; i < n; i++) {                                 \
            T x = values[i] * dec + (spikes[i] ? imp : (T)0);               \
            values[i] = x < mx ? x : mx;                                    \
        }                                                                   \
    } else {                                                                \
        for (ptrdiff_t i = 0; i < n; i++) {                                 \
            T x = values[i] + (spikes[i] ? imp : (T)0);                     \
            values[i] = x < mx ? x : mx;                                    \
        }                                                                   \
    }                                                                       \
}
DEFINE_TRACE_UPDATE(trace_update_f64, double)
DEFINE_TRACE_UPDATE(trace_update_f32, float)

/* -- EMSTDP Eq. (7): dW = eta * (h_hat - h) (x) pre --------------------- */
#define DEFINE_DELTA_W(NAME, T)                                             \
void NAME(const T *h_hat, const T *h, const T *pre, double eta, T *dw,      \
          ptrdiff_t ni, ptrdiff_t nj) {                                     \
    T e = (T)eta;                                                           \
    for (ptrdiff_t i = 0; i < ni; i++) {                                    \
        T p = pre[i];                                                       \
        for (ptrdiff_t j = 0; j < nj; j++)                                  \
            dw[i * nj + j] = e * (p * (h_hat[j] - h[j]));                   \
    }                                                                       \
}
DEFINE_DELTA_W(delta_w_f64, double)
DEFINE_DELTA_W(delta_w_f32, float)

/* -- Batched Eq. (7): ordered accumulation over the batch axis ---------- */
#define DEFINE_DELTA_W_BATCH(NAME, T)                                       \
void NAME(const T *h_hat, const T *h, const T *pre, double eta, int mean,   \
          T *dw, ptrdiff_t nb, ptrdiff_t ni, ptrdiff_t nj) {                \
    for (ptrdiff_t k = 0; k < ni * nj; k++) dw[k] = (T)0;                   \
    for (ptrdiff_t b = 0; b < nb; b++) {                                    \
        for (ptrdiff_t i = 0; i < ni; i++) {                                \
            T p = pre[b * ni + i];                                          \
            for (ptrdiff_t j = 0; j < nj; j++)                              \
                dw[i * nj + j] += p * (h_hat[b * nj + j] - h[b * nj + j]);  \
        }                                                                   \
    }                                                                       \
    T e = (T)eta;                                                           \
    for (ptrdiff_t k = 0; k < ni * nj; k++) dw[k] = e * dw[k];              \
    if (mean) {                                                             \
        T bb = (T)nb;                                                       \
        for (ptrdiff_t k = 0; k < ni * nj; k++) dw[k] = dw[k] / bb;         \
    }                                                                       \
}
DEFINE_DELTA_W_BATCH(delta_w_batch_f64, double)
DEFINE_DELTA_W_BATCH(delta_w_batch_f32, float)

/* -- EMSTDP Eq. (12): dW = (2*eta*h_hat - eta*Z) (x) pre ---------------- */
#define DEFINE_DELTA_W_LOIHI(NAME, T)                                       \
void NAME(const T *h_hat, const T *z, const T *pre, double eta, T *dw,      \
          ptrdiff_t ni, ptrdiff_t nj) {                                     \
    T e = (T)eta;                                                           \
    T e2 = (T)(2.0 * eta);                                                  \
    for (ptrdiff_t i = 0; i < ni; i++) {                                    \
        T p = pre[i];                                                       \
        for (ptrdiff_t j = 0; j < nj; j++)                                  \
            dw[i * nj + j] = p * (e2 * h_hat[j] - e * z[j]);                \
    }                                                                       \
}
DEFINE_DELTA_W_LOIHI(delta_w_loihi_f64, double)
DEFINE_DELTA_W_LOIHI(delta_w_loihi_f32, float)

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

/* -- Fused network run (loihi/runtime.py: Runtime.run) ----------------- *
 * Advances a flattened network `steps` timesteps in one call with the
 * exact semantics of that many Runtime.step() calls; the table layouts
 * are kernels.NETWORK_* (one row per group / connection, declaration
 * order), whose column enums are generated from those tuples.  Every
 * step:
 *   deliver   — each connection adds spikes @ W * weight_scale from its
 *               source's previous-step spikes (int64: exact in any order)
 *               and counts active * dst.n synaptic events;
 *   integrate — each group runs cuba_step_i64, then ANDs gate.v > 0, ORs
 *               the merge group's spikes as currently stored and ANDs the
 *               mask; disabled groups hold state and emit nothing,
 *               non-spiking groups integrate and emit nothing;
 *   trace     — each plastic connection updates its pre, then its post
 *               trace with trace_update_f64.
 * Returns 0; -1 if scratch allocation fails, -2 if a table holds an
 * out-of-range size, group index or mask stride, or a null address —
 * both before any state is touched.                                      */
""" + "".join(_c_enum(prefix, fields) for prefix, fields in (
    ("G", NETWORK_GROUP_FIELDS), ("GA", NETWORK_GROUP_ARRAYS),
    ("C", NETWORK_CONN_FIELDS), ("CT", NETWORK_CONN_TRACE_FIELDS),
    ("CA", NETWORK_CONN_ARRAYS))) + r"""
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
                    const double *ct, const uintptr_t *ca,
                    int64_t *c_events, double trace_max) {
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
    if (!cur || !fired) {
        free(off);
        free(cur);
        free(fired);
        return -1;
    }
    for (int64_t t = 0; t < steps; t++) {
        memset(cur, 0, (size_t)total * sizeof(int64_t));
        for (ptrdiff_t k = 0; k < n_conns; k++) {            /* deliver */
            const int64_t *ck = c + k * C_FIELDS;
            int64_t src = ck[C_SRC], dst = ck[C_DST];
            int64_t scale = ck[C_WEIGHT_SCALE];
            ptrdiff_t S = g[src * G_FIELDS + G_N];
            ptrdiff_t D = g[dst * G_FIELDS + G_N];
            const uint8_t *sp = GROUP_ARRAY(const uint8_t, src, GA_SPIKES);
            int64_t active = 0;
            for (ptrdiff_t i = 0; i < R * S; i++) active += sp[i];
            if (!active) continue;
            c_events[k] += active * D;
            const int64_t *w = (const int64_t *)ca[k * CA_FIELDS + CA_WEIGHT];
            for (int64_t r = 0; r < R; r++) {
                const int64_t *wr = ck[C_PER_REPLICA] ? w + r * S * D : w;
                const uint8_t *spr = sp + r * S;
                int64_t *out = cur + off[dst] + r * D;
                for (ptrdiff_t s = 0; s < S; s++) {
                    if (!spr[s]) continue;
                    const int64_t *row = wr + s * D;
                    for (ptrdiff_t d = 0; d < D; d++)
                        out[d] += row[d] * scale;
                }
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
            cuba_step_i64(GROUP_ARRAY(int64_t, k, GA_U),
                          GROUP_ARRAY(int64_t, k, GA_V),
                          GROUP_ARRAY(int64_t, k, GA_REFRAC),
                          GROUP_ARRAY(const int64_t, k, GA_BIAS),
                          cur + off[k], gk[G_DECAY_U], gk[G_DECAY_V],
                          gk[G_VTH], (int)gk[G_SOFT_RESET],
                          gk[G_REFRACTORY], (int)gk[G_FLOOR_AT_ZERO],
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
            const double *tk = ct + k * CT_FIELDS;
            int64_t src = ck[C_SRC], dst = ck[C_DST];
            trace_update_f64((double *)ca[k * CA_FIELDS + CA_PRE_TRACE],
                             GROUP_ARRAY(const uint8_t, src, GA_SPIKES),
                             tk[CT_PRE_IMPULSE], tk[CT_PRE_DECAY], trace_max,
                             R * g[src * G_FIELDS + G_N]);
            trace_update_f64((double *)ca[k * CA_FIELDS + CA_POST_TRACE],
                             GROUP_ARRAY(const uint8_t, dst, GA_SPIKES),
                             tk[CT_POST_IMPULSE], tk[CT_POST_DECAY],
                             trace_max, R * g[dst * G_FIELDS + G_N]);
        }
    }
    free(off);
    free(cur);
    free(fired);
    return 0;
}
"""
