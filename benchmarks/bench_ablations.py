"""Ablations of the reproduction's design choices.

Not paper tables — engineering evidence for the four adaptation techniques
of Section I and the knobs around them:

* ``bench_ablation_feedback``   — FA vs DFA resource cost (synapses,
  error neurons, cores): the DFA savings argument of Section III-A.
* ``bench_ablation_gating``     — h'-gating of hidden error channels
  on/off: gating must not hurt accuracy while silencing dead neurons.
* ``bench_ablation_precision``  — weight precision sweep 4..32 bits: the
  quantization gap of Table I should shrink monotonically-ish with bits.
* ``bench_ablation_phase_length`` — T in {16, 32, 64}: longer phases give
  finer rate resolution but cost linearly more time ("Reducing the duration
  of each phase will improve the throughput but also sacrifice the quality
  of learning", Section IV-A2).
* ``bench_ablation_input_encoding`` — host I/O events: bias programming vs
  streaming rate-coded spikes (Section III-D's motivation).
"""


from repro.analysis import format_table
from repro.core import (EMSTDPConfig, EMSTDPNetwork, bias_io_events,
                        feedback_neuron_count, feedback_synapse_count,
                        full_precision_config, spike_train_io_events)
from repro.data import load_dataset


def _task(n_train=400, n_test=150):
    train, test = load_dataset("mnist_like", n_train, n_test, side=16)
    return train.flat(), train.labels, test.flat(), test.labels


def _train_eval(cfg, xs, ys, tx, ty, dims=(256, 64, 10), epochs=1):
    net = EMSTDPNetwork(dims, cfg)
    for _ in range(epochs):
        net.train_stream(xs, ys)
    return net.evaluate(tx, ty)


def bench_ablation_feedback(benchmark):
    dims = (256, 1024, 128, 100, 10)

    def run():
        rows = []
        for mode in ("fa", "dfa"):
            rows.append([mode, feedback_neuron_count(dims, mode),
                         feedback_synapse_count(dims, mode)])
        print()
        print(format_table(["feedback", "error neurons", "feedback synapses"],
                           rows, title="Ablation — feedback path cost"))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    (_, fa_neurons, fa_syn), (_, dfa_neurons, dfa_syn) = rows
    assert dfa_neurons < fa_neurons
    assert dfa_syn < fa_syn


def bench_ablation_gating(benchmark):
    xs, ys, tx, ty = _task()

    def run():
        rows = []
        for gate in (True, False):
            cfg = full_precision_config(seed=1, feedback="fa",
                                        gate_hidden=gate)
            acc = _train_eval(cfg, xs, ys, tx, ty)
            rows.append(["on" if gate else "off", acc])
        print()
        print(format_table(["h' gating", "accuracy"], rows,
                           title="Ablation — hidden error gating (FA)"))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    # Gating is a hardware necessity; it must not collapse learning.
    assert rows[0][1] > 0.6


def bench_ablation_precision(benchmark):
    xs, ys, tx, ty = _task()

    def run():
        rows = []
        for bits in (4, 6, 8, 16, None):
            cfg = EMSTDPConfig(seed=1, weight_bits=bits,
                               weight_clip=2.0 if bits else None)
            acc = _train_eval(cfg, xs, ys, tx, ty)
            rows.append([bits if bits else "float", acc])
        print()
        print(format_table(["weight bits", "accuracy"], rows,
                           title="Ablation — weight precision"))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    accs = {r[0]: r[1] for r in rows}
    # 8-bit (the chip's precision) must be close to float; 4-bit degrades.
    assert accs["float"] - accs[8] < 0.12
    assert accs[8] >= accs[4] - 0.05


def bench_ablation_phase_length(benchmark):
    xs, ys, tx, ty = _task()

    def run():
        rows = []
        for T in (8, 16, 32, 64):
            cfg = full_precision_config(seed=1, phase_length=T)
            acc = _train_eval(cfg, xs, ys, tx, ty)
            rows.append([T, acc, 2 * T])
        print()
        print(format_table(["T", "accuracy", "steps/sample"], rows,
                           title="Ablation — phase length (accuracy vs time)"))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    accs = [r[1] for r in rows]
    # Longer phases must not be materially worse; T=64 beats T=8.
    assert accs[-1] > accs[0] - 0.05


def bench_ablation_input_encoding(benchmark):
    xs, _, _, _ = _task(n_train=100)
    T = 64

    def run():
        bias_events = sum(bias_io_events(x, T) for x in xs)
        spike_events = sum(spike_train_io_events(x, T) for x in xs)
        print()
        print(format_table(
            ["encoding", "host->chip events (100 samples)"],
            [["bias programming", bias_events],
             ["rate-coded spike streaming", spike_events]],
            title="Ablation — input I/O cost (Section III-D)"))
        return bias_events, spike_events

    bias_events, spike_events = benchmark.pedantic(run, rounds=1,
                                                   iterations=1)
    assert bias_events < spike_events
