"""Checks of one benchmark run against closed forms and required properties.

Every check here recomputes what the simulator's output must be from the
scenario's configuration (the paper's Lemma 6 stationary point, Jain's index,
packet conservation, link capacity), never from a stored copy of earlier
output. Each check function takes the raw records that pelsbench prints and
returns a Verdict: how many operations were attempted, which of them failed,
and which scenario-level properties broke. README.md names each formula.
"""
import math
from dataclasses import dataclass, field

# Tolerances. Each is the slack a correct simulation needs, not a fit to a run.
RATE_TOL = 0.02          # |r - r*| / r* per flow over the final stretch
LOSS_TOL = 0.015         # |p - p*| absolute, bottleneck loss over the stretch
YELLOW_LOSS_MAX = 0.01   # yellow is protected: loss ~ 0 once converged
RED_BAND = 0.15          # red loss within p_thr +- RED_BAND
JAIN_MIN = 0.99          # fairness across identical PELS flows
SINK_SHARE_SLACK = 1.10  # goodput <= (C/N) * T * slack (frame-size variation)


@dataclass
class Verdict:
    attempted: int = 0
    failed_ops: list = field(default_factory=list)   # (op id, reason)
    broken: list = field(default_factory=list)       # scenario-level failures
    known_faults: list = field(default_factory=list)  # reported, not gating

    @property
    def failed(self):
        return len(self.failed_ops)

    @property
    def correct(self):
        return not self.broken

    def merge(self, other):
        self.attempted += other.attempted
        self.failed_ops += other.failed_ops
        self.broken += other.broken
        self.known_faults += other.known_faults
        return self


def finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def jain(xs):
    s = sum(xs)
    q = sum(x * x for x in xs)
    return s * s / (len(xs) * q) if q > 0 else 0.0


def stationary_rate(C, N, alpha, beta):
    """Lemma 6: r* = C/N + alpha/beta."""
    return C / N + alpha / beta


def stationary_loss(C, N, alpha, beta):
    """p* = N(alpha/beta) / (C + N alpha/beta), from sum r*(1 - p*) = C."""
    a = N * alpha / beta
    return a / (C + a)


def loss_free_rate(start_rate, alpha, start, T, interval):
    """Final MKC rate of a flow that sees no loss: every control tick after
    its start adds alpha (r <- r + alpha - beta r p with p = 0). A flow whose
    path crosses no PELS queue must reach it; one tick of slack covers a tick
    landing on the flow's start or at the horizon. Any tick with p > 0 costs
    beta p r, which later ticks cannot win back (they add at most alpha)."""
    ticks = math.floor(T / interval + 1e-9) - math.floor(start / interval + 1e-9) - 1
    return start_rate + alpha * max(0, ticks)


def intra_rack_short(scen):
    """Intra-rack video flows (endpoints in one rack, so no PELS queue on the
    path) that ended below loss_free_rate: (index, final rate, that rate)."""
    hpr = scen["hosts_per_rack"]
    out = []
    for i, (src, dst, start, start_rate, rate) in enumerate(scen["video"]):
        if src // hpr != dst // hpr or not finite(rate):
            continue
        target = loss_free_rate(start_rate, scen["alpha_bps"], start, scen["horizon_s"],
                                scen["control_interval_s"])
        if rate < target:
            out.append((i, rate, target))
    return out


def link_conservation(links, where):
    """arrivals = drops + queued + in flight + delivered + corrupted."""
    broken = []
    for i, l in enumerate(links):
        accounted = l["drops"] + l["queued"] + l["in_flight"] + l["delivered"] + l["corrupted"]
        if l["arrivals"] != accounted:
            broken.append(f"{where}: link {i} arrivals {l['arrivals']} != accounted {accounted}")
    return broken


def check_dumbbell(scen, tag="dumbbell"):
    v = Verdict()
    C, N = scen["video_capacity_bps"], scen["flows"]
    alpha, beta = scen["alpha_bps"], scen["beta"]
    r_star = stationary_rate(C, N, alpha, beta)
    p_star = stationary_loss(C, N, alpha, beta)
    T = scen["horizon_s"]
    rates = scen["rate_bps"]
    v.attempted = N
    for i in range(N):
        r = rates[i]
        if not finite(r) or abs(r - r_star) > RATE_TOL * r_star:
            v.failed_ops.append((f"{tag} flow {i}", f"rate {r} vs r* {r_star:.1f}"))
        elif scen["sink_bytes"][i] * 8 > SINK_SHARE_SLACK * C / N * T:
            v.failed_ops.append((f"{tag} flow {i}",
                                 f"sink got {scen['sink_bytes'][i]} B > share {C / N * T / 8:.0f} B"))
    b = scen["bottleneck"]
    arr = sum(b[c]["stretch_arrivals"] for c in ("green", "yellow", "red"))
    drops = sum(b[c]["stretch_drops"] for c in ("green", "yellow", "red"))
    p = drops / arr if arr else float("nan")
    if not (abs(p - p_star) <= LOSS_TOL):
        v.broken.append(f"{tag}: bottleneck loss {p:.4f} vs p* {p_star:.4f}")
    if b["green"]["drops"] != 0:
        v.broken.append(f"{tag}: {b['green']['drops']} green drops")
    y = b["yellow"]
    if y["stretch_arrivals"] == 0 or y["stretch_drops"] / y["stretch_arrivals"] > YELLOW_LOSS_MAX:
        v.broken.append(f"{tag}: yellow loss {y['stretch_drops']}/{y['stretch_arrivals']}")
    red = b["red"]
    red_loss = red["stretch_drops"] / red["stretch_arrivals"] if red["stretch_arrivals"] else float("nan")
    if not abs(red_loss - scen["p_thr"]) <= RED_BAND:
        v.broken.append(f"{tag}: red loss {red_loss:.3f} outside p_thr {scen['p_thr']} +- {RED_BAND}")
    if all(finite(r) for r in rates) and jain(rates) < JAIN_MIN:
        v.broken.append(f"{tag}: Jain index {jain(rates):.4f} < {JAIN_MIN}")
    v.broken += link_conservation(scen["links"], tag)
    return v


def check_population(scen, tag="population"):
    v = Verdict()
    floor, cap = scen["min_rate_bps"], scen["max_rate_bps"]
    video = scen["video"]
    T = scen["horizon_s"]
    v.attempted = len(video)
    for i, rate in enumerate(f[4] for f in video):
        if not finite(rate) or not floor <= rate <= cap:
            v.failed_ops.append((f"{tag} video {i}", f"rate {rate} outside [{floor}, {cap}]"))
    short = intra_rack_short(scen)
    if short:
        i, rate, target = short[0]
        v.known_faults.append(f"{tag}: {len(short)} intra-rack video flow(s) ended below the "
                              f"loss-free MKC rate, e.g. video {i} at {rate:.0f} b/s < {target:.0f}")
    for cls, c in scen["classes"].items():
        if c["delivered"] > c["sent"]:
            v.broken.append(f"{tag}: {cls} delivered {c['delivered']} > sent {c['sent']}")
    for i, l in enumerate(scen["core_links"]):
        limit = l["bandwidth_bps"] * T / 8 + 1500  # one packet on the wire at t = 0
        if l["bytes"] > limit:
            v.broken.append(f"{tag}: core link {i} delivered {l['bytes']} B > {limit:.0f} B")
    for k in ("gamma_min", "gamma_max", "rate_min", "rate_max"):
        if not finite(scen[k]):
            v.broken.append(f"{tag}: {k} is not finite")
    if finite(scen["gamma_min"]) and finite(scen["gamma_max"]) and not (
            0.0 <= scen["gamma_min"] <= scen["gamma_max"] <= 1.0):
        v.broken.append(f"{tag}: gamma range [{scen['gamma_min']}, {scen['gamma_max']}] not in [0,1]")
    if finite(scen["rate_min"]) and finite(scen["rate_max"]) and not (
            floor <= scen["rate_min"] <= scen["rate_max"] <= cap):
        v.broken.append(f"{tag}: rate range [{scen['rate_min']}, {scen['rate_max']}] outside floor/cap")
    if scen["pool_growth"] != 0:
        v.known_faults.append(f"{tag}: scheduler pools grew by {scen['pool_growth']} entries after warm-up")
    return v


def check_fingerprints(single, multi, workers):
    """The end state must be byte-identical at 1 and `workers` DomainRunner workers."""
    v = Verdict()
    if single != multi:
        v.broken.append(f"population: fingerprint {single} at 1 worker != {multi} at {workers}")
    return v


def check_round(rnd, tag="campaign"):
    v = Verdict()
    min_ticks = int(round(rnd["horizon_s"] / rnd["monitor_period_s"]))
    for i, s in enumerate(rnd["schedules"]):
        op = f"{tag} round {rnd['round']} schedule {i}"
        v.attempted += 1
        if s.get("error"):
            v.failed_ops.append((op, "task error: " + s["error"]))
        elif s["violation"]:
            v.failed_ops.append((op, "invariant violation: " + s["violation"]))
        elif s["ticks"] < min_ticks:
            v.failed_ops.append((op, f"{s['ticks']} monitor ticks < {min_ticks}"))
        elif s["green"] <= 0:
            v.failed_ops.append((op, "no base-layer packets delivered"))
    return v


def check_run(doc):
    """Verdict over every scenario (or round) of one pelsbench document."""
    v = Verdict()
    wl = doc["workload"]
    if wl == "campaign":
        for rnd in doc["rounds"]:
            v.merge(check_round(rnd))
    else:
        fn = check_dumbbell if wl == "dumbbell" else check_population
        for k, scen in enumerate(doc["scenarios"]):
            v.merge(fn(scen, f"{wl} scenario {k}"))
    if v.attempted == 0:
        v.broken.append(f"{wl}: no operations attempted")
    return v
