"""Metric arithmetic of the membership-pipeline benchmark.

Pure functions over the raw measurements the C++ driver writes
(result.json plus binary sample and span files); run.py calls them and
tests/test_metrics.py pins the arithmetic.
"""

import array
import statistics
import struct

# SCMP control types counted by ctrl_bytes_per_event.
CONTROL_TYPES = ("JOIN", "LEAVE", "TREE", "BRANCH", "PRUNE", "CLEAR", "ACK")
# Packet types broken out in the per-layer sim/net table.
TX_TYPES = CONTROL_TYPES[:6] + ("ACK", "DATA", "DATA_ENCAP")

# A percentile is reported only as far as it keeps this many samples beyond
# it; with fewer samples the highest percentile that does is reported.
MIN_TAIL_SAMPLES = 10

SPAN_RECORD = struct.Struct("<IIQQ")  # name index, depth, start ns, dur ns

# Timed-pass wall times are reported at the host speed at which the
# benchmark's reference kernel (driver.cpp, reference_seconds) takes this
# long; see normalised().
REFERENCE_S = 0.1


def percentile(sorted_values, q):
    """Linear-interpolated percentile of already sorted values.

    Returns (value, q_used): q is lowered to the highest percentile with at
    least MIN_TAIL_SAMPLES samples beyond it (the whole range when there are
    fewer samples than that), so a tail percentile never rests on a handful
    of samples.
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of no samples")
    q_used = max(0.0, min(q, 1.0 - MIN_TAIL_SAMPLES / n))
    pos = q_used * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    lo_value, hi_value = sorted_values[lo], sorted_values[hi]
    return lo_value + (hi_value - lo_value) * frac, q_used


def normalised(times, ref_s):
    """Wall times scaled to the reference host speed.

    ref_s[i] and ref_s[i + 1] are the reference kernel's times just before
    and just after repetition i; each time is scaled by REFERENCE_S over
    their mean. A shared host's speed drifts for tens of seconds at a time,
    and the drift hits the kernel and the repetition it brackets alike, so
    it cancels; the kernel shares no code with the program, so a change to
    the program shows in full.
    """
    if len(ref_s) != len(times) + 1:
        raise ValueError("need one reference time around each repetition")
    return [t * REFERENCE_S * 2.0 / (before + after)
            for t, before, after in zip(times, ref_s, ref_s[1:])]


def per_op(total, ops):
    """`total` normalised per operation (0 when no operation ran)."""
    return total / ops if ops else 0.0


def rate(ops, seconds):
    """Operations per second over a wall-clock interval."""
    if seconds <= 0:
        raise ValueError("rate over a non-positive interval")
    return ops / seconds


def self_times(spans):
    """Per-name span count, total and self time.

    `spans` is an iterable of (name, start, duration, depth) on one thread.
    Nesting is recovered from the intervals themselves: a span's parent is
    the innermost span that contains it, and a span's self time is its
    duration minus the durations of its direct children. Records from
    different sources (program spans, the benchmark's own timer records)
    therefore nest correctly; the recorded depth only orders spans whose
    intervals are identical (the shallower one is the parent).

    Returns {name: {"count": int, "total": float, "self": float}}.
    """
    # Parents sort before the children they contain: by start, longest first.
    ordered = sorted(spans, key=lambda s: (s[1], -s[2], s[3]))
    out = {}
    stack = []  # open (end, stats entry) pairs, innermost last
    for name, start, dur, _depth in ordered:
        while stack and stack[-1][0] <= start:
            stack.pop()
        entry = out.setdefault(name, {"count": 0, "total": 0, "self": 0})
        entry["count"] += 1
        entry["total"] += dur
        entry["self"] += dur
        if stack:
            stack[-1][1]["self"] -= dur
        stack.append((start + dur, entry))
    return out


def load_f64(path):
    values = array.array("d")
    with open(path, "rb") as f:
        values.frombytes(f.read())
    return sorted(values)


def load_spans(path, names):
    """Span records as (name, start_ns, dur_ns, depth) tuples."""
    with open(path, "rb") as f:
        data = f.read()
    return [(names[i], start, dur, depth)
            for i, depth, start, dur in SPAN_RECORD.iter_unpack(data)]


def end_to_end(result, converge_s, deliver_s):
    """The end-to-end metrics of a tracked run, plus notes for the log."""
    ops = result["ops"]
    run_s = statistics.median(normalised(result["run_s"], result["ref_s"]))
    setup_s = statistics.median(normalised(result["setup_s"], result["ref_s"]))
    conv50, conv50_q = percentile(converge_s, 0.50)
    conv99, conv99_q = percentile(converge_s, 0.99)
    del50, del50_q = percentile(deliver_s, 0.50)
    del99, del99_q = percentile(deliver_s, 0.99)
    tx = result["checked_tx"]
    ctrl_bytes = sum(tx.get("bytes." + t, 0) for t in CONTROL_TYPES)
    episodes = result["episodes"]
    metrics = {
        "ops_per_s": (rate(ops, run_s), "1/s"),
        "setup_s": (setup_s, "s"),
        "converge_ms_p50": (conv50 * 1e3, "ms"),
        "converge_ms_p99": (conv99 * 1e3, "ms"),
        "deliver_ms_p50": (del50 * 1e3, "ms"),
        "deliver_ms_p99": (del99 * 1e3, "ms"),
        "ctrl_bytes_per_event": (per_op(ctrl_bytes, result["membership_ops"]),
                                 "bytes/event"),
        "tree_cost": (result["tree_cost"], "cost"),
        "tree_delay_ms": (result["tree_delay_ms"], "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "converged_frac": (1.0 - per_op(result["episodes_failed"], episodes),
                           "frac"),
    }
    notes = {
        "converge_samples": len(converge_s),
        "converge_q": (conv50_q, conv99_q),
        "deliver_samples": len(deliver_s),
        "deliver_q": (del50_q, del99_q),
        "episodes": episodes,
        "fail_frac": per_op(result["episodes_failed"], episodes),
        "timed_reps": len(result["run_s"]),
        "raw_ops_per_s": rate(ops, statistics.median(result["run_s"])),
        "raw_setup_s": statistics.median(result["setup_s"]),
        "reference_s": statistics.median(result["ref_s"]),
    }
    return metrics, notes


def per_layer(result, spans):
    """The per-layer metrics of a traced run."""
    c = result["counters"]
    st = self_times(spans)
    ns = 1e-9

    def count(name):
        return st.get(name, {}).get("count", 0)

    def self_s(name):
        return st.get(name, {}).get("self", 0) * ns

    def total_s(name):
        return st.get(name, {}).get("total", 0) * ns

    def counter(name):
        return c.get(name, 0)

    join_calls = count("dcdm.join")
    run_s = total_s("bench.run")
    events = counter("sim.events.executed")
    tx_packets = sum(v for k, v in c.items() if k.startswith("net.tx.packets|"))
    requests = counter("scmp.retx.acked") + counter("scmp.retx.exhausted")
    m = {
        "topo.gen_s": (result["topo_gen_s"], "s"),
        "graph.paths_build_s": (total_s("paths.rebuild"), "s"),
        "graph.link_event_s": (total_s("paths.link_event"), "s"),
        "graph.sources_recomputed":
            (counter("paths.rebuild.sources_recomputed"), "count"),
        "dcdm.join_calls": (join_calls, "count"),
        "dcdm.join_s": (self_s("dcdm.join"), "s"),
        "dcdm.leave_calls": (count("dcdm.leave"), "count"),
        "dcdm.leave_s": (self_s("dcdm.leave"), "s"),
        "dcdm.candidates_per_join":
            (per_op(counter("dcdm.join.candidates"), join_calls), "count/join"),
        "dcdm.joins_per_event":
            (per_op(join_calls, result["membership_ops"]), "count/event"),
        "dcdm.restructures": (counter("dcdm.restructures"), "count"),
        "scmp.join_self_s": (self_s("scmp.join"), "s"),
        "scmp.leave_self_s": (self_s("scmp.leave"), "s"),
        "scmp.epoch_flushes": (counter("scmp.epoch.flushes"), "count"),
        "scmp.epoch_recomputes": (counter("scmp.epoch.recomputes"), "count"),
        "scmp.epoch_coalesced": (counter("scmp.epoch.coalesced"), "count"),
        "scmp.epoch_flush_s": (total_s("scmp.epoch.flush"), "s"),
        "scmp.rebuild_calls": (count("scmp.rebuild"), "count"),
        "scmp.rebuild_self_s": (self_s("scmp.rebuild"), "s"),
        "install.branch_count": (counter("scmp.installs.branch"), "count"),
        "install.tree_count": (counter("scmp.installs.tree"), "count"),
        "install.branch_s": (self_s("scmp.install.branch"), "s"),
        "install.tree_s": (self_s("scmp.install.tree"), "s"),
        "retx.packets": (counter("scmp.retx.packets"), "count"),
        "retx.acked": (counter("scmp.retx.acked"), "count"),
        "retx.exhausted": (counter("scmp.retx.exhausted"), "count"),
        "retx.duplicates": (counter("scmp.retx.duplicates"), "count"),
        "retx.pending_hwm": (counter("scmp.retx.pending_hwm"), "count"),
        "retx.per_request":
            (per_op(counter("scmp.retx.packets"), requests), "count/request"),
        "reconcile.cycles": (counter("scmp.reconcile.cycles"), "count"),
        "reconcile.repairs": (counter("scmp.reconcile.repairs"), "count"),
        "reconcile.resolicits": (counter("scmp.reconcile.resolicits"), "count"),
        "reconcile.s": (total_s("scmp.reconcile"), "s"),
        "reconcile.fixpoint_passes": (result["fixpoint_passes"], "count"),
        "sim.events": (events, "count"),
        "sim.run_s": (run_s, "s"),
        "sim.self_s": (self_s("bench.run"), "s"),
        "sim.event_reuse_frac":
            (per_op(counter("sim.pool.events.reuse"), events), "frac"),
        "sim.packet_reuse_frac":
            (per_op(counter("sim.pool.packets.reuse"), tx_packets), "frac"),
    }
    for t in TX_TYPES:
        m["net.tx_packets." + t] = (counter("net.tx.packets|" + t), "count")
        m["net.tx_bytes." + t] = (counter("net.tx.bytes|" + t), "bytes")
    m["net.drops.injected"] = (counter("net.drops.injected"), "count")
    m["net.drops.no_link"] = (counter("net.drops.no_link"), "count")
    m["net.deliveries"] = (counter("net.deliveries"), "count")
    timed_s = statistics.median(result["run_s"])
    m["obs.overhead_frac"] = (run_s / timed_s - 1.0, "frac")
    m["obs.spans_dropped"] = (result["spans_dropped"], "count")
    shares = {
        "dcdm": per_op(m["dcdm.join_s"][0] + m["dcdm.leave_s"][0], run_s),
        "epoch_close": per_op(m["scmp.epoch_flush_s"][0], run_s),
        "sim_self": per_op(m["sim.self_s"][0], run_s),
    }
    return m, shares
