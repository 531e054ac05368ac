"""Metric definitions of the campaign benchmark and their computation
from one harness document (the JSON perfbench_harness prints).

BENCHMARK.json at the repository root lists the same names, units and
directions; test_perfbench.py checks that the two agree.
"""

from stats import (geomean, mean, median, quartiles, ratio, spread,
                   timing_summary)

WORKLOADS = ("campaign_path", "campaign_pcguard", "durable")

# The 18 subjects, in the harness's (alphabetical) order.
SUBJECTS = ("cflow", "exiv2", "ffmpeg", "flvmeta", "gdk", "imginfo",
            "infotocap", "jhead", "jq", "lame", "mp3gain", "mp42aac", "mujs",
            "nm-new", "objdump", "pdftotext", "sqlite3", "tiffsplit")

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("execs_per_sec", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("edges_covered", "count", "higher", 0.03),
    ("bugs_found", "count", "higher", 0.15),
    ("ckpt_kb", "KiB", "lower", 0.1),
)

# name, unit, better. Per-call times of the campaign layers are means over
# the replayed calls at the reference probe speed (see call_ns); the
# detail line carries each series' raw median, tail percentile and count.
LAYERS = (
    # set-up -> setup_s, all workloads (sums over the 18 subjects)
    ("lang.compile_ms", "ms", "lower"),
    ("instrument.ms", "ms", "lower"),
    ("vm.image_ms", "ms", "lower"),
    ("vm.jit_compile_ms", "ms", "lower"),
    ("vm.jit_code_kb", "KiB", "lower"),
    # execute -> execs_per_sec on campaign_*
    ("vm.full_exec_us", "us", "lower"),
    ("vm.cheap_exec_us", "us", "lower"),
    ("vm.full_execs", "count", "lower"),
    ("vm.cheap_execs", "count", "lower"),
    ("vm.replay_rate", "ratio", "lower"),
    ("vm.steps_per_exec", "steps", "lower"),
    ("vm.jit_bailouts", "count", "lower"),
    # map -> execs_per_sec on campaign_*
    ("cov.reset_us", "us", "lower"),
    ("cov.classify_us", "us", "lower"),
    ("cov.novelty_us", "us", "lower"),
    ("cov.checksum_us", "us", "lower"),
    ("cov.density", "bytes", "lower"),
    ("cov.novel_rate", "ratio", "higher"),
    # mutate -> execs_per_sec on campaign_pcguard
    ("fuzz.havoc_us", "us", "lower"),
    ("fuzz.splice_us", "us", "lower"),
    # queue -> execs_per_sec on campaign_path
    ("fuzz.queue_add_us", "us", "lower"),
    ("fuzz.cull_us", "us", "lower"),
    ("fuzz.queue_adds", "count", "lower"),
    ("fuzz.cull_passes", "count", "lower"),
    # store -> execs_per_sec and ckpt_kb on durable; zero on campaign_*
    ("fuzz.snapshot_ms", "ms", "lower"),
    ("fuzz.restore_ms", "ms", "lower"),
    ("strategy.store_write_ms", "ms", "lower"),
    ("strategy.store_recover_ms", "ms", "lower"),
    ("strategy.checkpoints", "count", "lower"),
    ("strategy.serialize_us", "us", "lower"),
    # residual
    ("fuzz.unattributed_us_per_exec", "us", "lower"),
    ("fuzz.attributed_pct", "%", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)

# Per-subject rows kept beside the geomean: a subject that slows while the
# geomean holds stays visible.
SUBJECT_ROWS = (
    ("execs_per_sec", "1/s", "higher"),
    ("replay_rate", "ratio", "lower"),
    ("queue_size", "count", "lower"),
    ("ckpt_kb", "KiB", "lower"),
)

# Per-call samples (ns) the harness records, and the unit each layer
# metric reports them in.
NS_PER = {"ms": 1e6, "us": 1e3}

# Reference time of the harness's memory probe (seconds). Other tenants
# of a shared machine contend for its memory hierarchy and slow campaigns
# by up to a third for minutes at a time; the probe, timed just before
# each campaign from a cache state the campaign does not set, slows
# alike. Campaign times are reported scaled to this fixed probe time, so
# they compare across runs made under different load. The unscaled
# figures, the program's own timings, are kept in the detail line.
REF_PROBE_S = 0.004


def adjusted(times, probes):
    """Times scaled to the reference probe speed."""
    return [t * REF_PROBE_S / p for t, p in zip(times, probes)]


def per_layer_defs():
    defs = [(n, u, b) for n, u, b in LAYERS]
    for s in SUBJECTS:
        defs += [("subject.%s.%s" % (s, n), u, b) for n, u, b in SUBJECT_ROWS]
    return defs


def subject_rows(doc):
    rows = {}
    for s in doc["subjects"]:
        ck = s["ckpt_bytes"]
        row = {
            "execs_per_sec": ratio(
                s["execs"], median(adjusted(s["wall_s"], s["probe_s"]))),
            "queue_size": s["queue"],
            "ckpt_kb": mean(ck) / 1024.0,
        }
        c = s.get("counts")
        if c:
            row["replay_rate"] = ratio(c.get("ctr.vm.selective.replays", 0),
                                       _calls(c)["cheap"])
        rows[s["name"]] = row
    return rows


def end_to_end(doc):
    """The end-to-end metrics of an untraced run."""
    subs = doc["subjects"]
    rows = subject_rows(doc)
    ckpts = [b for s in subs for b in s["ckpt_bytes"]]
    values = {
        "execs_per_sec": geomean(r["execs_per_sec"] for r in rows.values()),
        "setup_s": median(doc["setup_s"]),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
        "edges_covered": sum(s["edges"] for s in subs),
        "bugs_found": sum(s["bugs"] for s in subs),
        "ckpt_kb": mean(ckpts) / 1024.0,
    }
    return {n: {"value": values[n], "unit": u} for n, u, _, _ in END_TO_END}


def raw_figures(doc):
    """Unscaled throughput, with the probe's median."""
    subs = doc["subjects"]
    return {
        "raw_execs_per_sec": geomean(ratio(s["execs"], median(s["wall_s"]))
                                     for s in subs),
        "probe_ms": 1e3 * median(p for s in subs for p in s["probe_s"]),
    }


def pass_steadiness(doc):
    """Quartiles and spread of the suite throughput pass by pass: how
    steady the run itself was."""
    subs = doc["subjects"]
    scaled = [adjusted(s["wall_s"], s["probe_s"]) for s in subs]
    per_pass = [geomean(ratio(s["execs"], w[p]) for s, w in zip(subs, scaled))
                for p in range(min(len(w) for w in scaled))]
    if len(per_pass) < 2:
        return {}
    q1, q2, q3 = quartiles(per_pass)
    return {"q1": q1, "median": q2, "q3": q3, "spread": spread(per_pass)}


def _calls(c):
    """Exact per-campaign call counts of every timed layer function,
    derived from the traced campaign's counters."""
    seeds, kept = c["seeds"], c["seeds_kept"]
    mutations = c["ctr.execs"] - seeds
    selective = bool(c["selective"])
    replays = c.get("ctr.vm.selective.replays", 0)
    if selective:
        # Crashes and hangs end on the cheap tier; replays are clean.
        full = replays + seeds
        novelty = replays + kept
    else:
        full = mutations + seeds
        loop_faults = c["crashes"] + c["hangs"] - (seeds - kept)
        novelty = mutations - loop_faults + kept
    durable = 1 if c["checkpoints"] else 0
    return {
        "full": full,
        "cheap": mutations if selective else 0,
        "novelty": novelty,
        "mutations": mutations,
        "queue_adds": c["queue_adds"],
        "cull_passes": c["cull_passes"],
        "checkpoints": c["checkpoints"],
        "resumes": durable,
    }


# Layer -> (per-call sample series, call-count key).
ATTRIBUTION = (
    ("execute", "vm.full_exec_us", "full"),
    ("execute", "vm.cheap_exec_us", "cheap"),
    ("map", "cov.reset_us", "full"),
    ("map", "cov.classify_us", "novelty"),
    ("map", "cov.novelty_us", "novelty"),
    ("map", "cov.checksum_us", "queue_adds"),
    ("queue", "fuzz.queue_add_us", "queue_adds"),
    ("queue", "fuzz.cull_us", "cull_passes"),
    ("store", "fuzz.snapshot_ms", "checkpoints"),
    ("store", "strategy.serialize_us", "checkpoints"),
    ("store", "strategy.store_write_ms", "checkpoints"),
    ("store", "strategy.store_recover_ms", "resumes"),
    ("store", "fuzz.restore_ms", "resumes"),
)


# Replayed calls whose cost depends on how long the input runs.
EXEC_SERIES = ("vm.full_exec_us", "vm.cheap_exec_us")


def steps_bucket(steps):
    """log2 bucket of a step count, as telemetry::Histogram::bucketOf."""
    return min(63, int(steps).bit_length())


def steps_weights(hist, steps):
    """Per-sample weights that make the replayed inputs' steps follow the
    campaign's own exec.steps histogram. The scheduler favours fast
    entries; parents drawn uniformly from the corpus run longer."""
    total = sum(hist)
    seen = {}
    for st in steps:
        b = steps_bucket(st)
        seen[b] = seen.get(b, 0) + 1
    if not total or not steps:
        return [1.0] * len(steps)
    n = len(steps)
    return [(hist[steps_bucket(st)] / total) / (seen[steps_bucket(st)] / n)
            for st in steps]


def call_ns(subject, series):
    """Mean cost (ns) of one replayed layer call at the reference probe
    speed. Exec calls are weighted to the campaign's steps mix."""
    xs = subject["samples_ns"].get(series, [])
    if not xs:
        return 0.0
    if series in EXEC_SERIES:
        w = steps_weights(subject["steps_hist"], subject["replay_steps"])
        pairs = list(zip(xs, w))
        m = ratio(sum(x * wi for x, wi in pairs), sum(wi for _, wi in pairs))
    else:
        m = mean(xs)
    return m * REF_PROBE_S / subject["replay_probe_s"]


def _mutate_ns(subject, calls):
    """Mutation time: havoc and splice split as in the replayed sample
    (the loop draws both with the same probability)."""
    samples = subject["samples_ns"]
    nh = len(samples.get("fuzz.havoc_us", []))
    ns = len(samples.get("fuzz.splice_us", []))
    share = ratio(ns, nh + ns)
    m = calls["mutations"]
    return m * ((1 - share) * call_ns(subject, "fuzz.havoc_us") +
                share * call_ns(subject, "fuzz.splice_us"))


def attribution(subject):
    """Per-layer self time (ns) of one subject's campaign: per-call cost
    times the exact call count."""
    calls = _calls(subject["counts"])
    out = {"execute": 0.0, "map": 0.0, "queue": 0.0, "store": 0.0}
    for layer, series, key in ATTRIBUTION:
        out[layer] += calls[key] * call_ns(subject, series)
    out["mutate"] = _mutate_ns(subject, calls)
    return out


def scaled_wall_ns(subject):
    """The subject's median untraced pass at the reference probe speed."""
    return median(adjusted(subject["wall_s"], subject["probe_s"])) * 1e9


def per_layer(doc):
    """The per-layer metrics of a traced run, plus a detail record with
    each timing's median, tail percentile and sample count (raw ns)."""
    subs = doc["subjects"]
    units = {n: u for n, u, _ in per_layer_defs()}
    v = {}

    # Set-up calls are reported raw, like setup_s.
    for series in ("lang.compile_ms", "instrument.ms", "vm.image_ms",
                   "vm.jit_compile_ms"):
        v[series] = sum(median(s["samples_ns"][series]) for s in subs) / 1e6
    v["vm.jit_code_kb"] = sum(s["jit_code_bytes"] for s in subs) / 1024.0

    calls = [_calls(s["counts"]) for s in subs]
    counts = [s["counts"] for s in subs]

    def total(key):
        return sum(c[key] for c in calls)

    # Suite per-call cost: total attributed time / total calls.
    for _, series, key in ATTRIBUTION:
        num = sum(c[key] * call_ns(s, series) for c, s in zip(calls, subs))
        v[series] = ratio(num, total(key)) / NS_PER[units[series]]
    for series in ("fuzz.havoc_us", "fuzz.splice_us"):
        v[series] = mean(call_ns(s, series) for s in subs) / NS_PER["us"]

    v["vm.full_execs"] = total("full")
    v["vm.cheap_execs"] = total("cheap")
    v["vm.replay_rate"] = ratio(
        sum(c.get("ctr.vm.selective.replays", 0) for c in counts),
        total("cheap"))
    v["vm.steps_per_exec"] = ratio(
        sum(c["hist.exec.steps.sum"] for c in counts),
        sum(c["hist.exec.steps.count"] for c in counts))
    v["vm.jit_bailouts"] = sum(c.get("ctr.vm.jit.bailouts", 0)
                               for c in counts)
    v["cov.density"] = ratio(sum(c["density_sum"] for c in counts),
                             sum(c["density_n"] for c in counts))
    kept = sum(c["seeds_kept"] for c in counts)
    v["cov.novel_rate"] = ratio(total("queue_adds") - kept,
                                total("novelty") - kept)
    v["fuzz.queue_adds"] = total("queue_adds")
    v["fuzz.cull_passes"] = total("cull_passes")
    v["strategy.checkpoints"] = total("checkpoints")

    walls = [scaled_wall_ns(s) for s in subs]
    layers = [attribution(s) for s in subs]
    attributed = sum(sum(a.values()) for a in layers)
    execs = sum(s["execs"] for s in subs)
    v["fuzz.unattributed_us_per_exec"] = (sum(walls) - attributed) / execs / 1e3
    v["fuzz.attributed_pct"] = 100.0 * ratio(attributed, sum(walls))
    traced = sum(s["traced_wall_s"] * REF_PROBE_S / s["traced_probe_s"]
                 for s in subs) * 1e9
    v["trace.overhead_pct"] = 100.0 * (traced - sum(walls)) / sum(walls)

    for name, row in subject_rows(doc).items():
        for key, value in row.items():
            v["subject.%s.%s" % (name, key)] = value

    metrics = {n: {"value": v[n], "unit": units[n]} for n in units}
    detail = {
        "timings_ns": {
            series: timing_summary(
                [x for s in subs for x in s["samples_ns"].get(series, [])])
            for series in sorted({k for s in subs for k in s["samples_ns"]})
        },
        "layer_share_pct": {
            layer: 100.0 * ratio(sum(a[layer] for a in layers), sum(walls))
            for layer in layers[0]
        } if layers else {},
    }
    return metrics, detail
