#!/usr/bin/env python3
"""Schema validator for eric.metrics.v1 snapshots.

Validates a metrics snapshot written by `eric_fleetd --metrics-out` (or
the `telemetry` section of a campaign report): the document must parse,
carry the right schema tag, and every counter, gauge, and histogram
must satisfy the invariants the exporter promises — snake_case names,
non-negative integer counters, ordered percentiles bounded by min/max,
and sparse bucket lists whose counts sum exactly to the histogram
count. CI runs this against a live snapshot from a real campaign so a
malformed exporter fails the build, not a dashboard at 3am.

The `events` and `health` sections (the structured event ring and the
SLO watchdog report) are validated whenever present: severities must be
in the enum, event sequence numbers strictly increasing, the ring's
appended/dropped arithmetic coherent, and every SLO entry must carry a
complete spec + state with a non-negative burn rate. `--require-slo`
and `--require-event` turn their absence into a failure, which is how
CI pins the live faulty-campaign snapshot.

Usage:
  validate_metrics.py SNAPSHOT.json [more.json ...]
      [--require-counter NAME ...] [--require-histogram NAME ...]
      [--require-slo NAME ...] [--require-event SUBSYSTEM ...]

A file whose top level is a campaign report (has a "telemetry" key) is
validated on that section, so both `--metrics-out` snapshots and
`--json` reports are accepted.
"""

import argparse
import json
import re
import sys

SCHEMA = "eric.metrics.v1"
NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

# Accumulated problems for the file currently being validated.
_problems = []


def problem(msg):
    _problems.append(msg)


def check_name(kind, name):
    if not NAME_RE.match(name):
        problem(f"{kind} {name!r}: name is not snake_case")


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def is_num(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_counters(counters):
    if not isinstance(counters, dict):
        problem("'counters' is not an object")
        return
    for name, value in counters.items():
        check_name("counter", name)
        if not is_int(value) or value < 0:
            problem(f"counter {name!r}: value {value!r} is not a "
                    "non-negative integer")


# Per-ISA campaign counters: fleet_isa_<isa>_<stat>, registered by the
# deployment engine only for ISAs a campaign actually touched.
KNOWN_ISAS = ("rv64gc", "rv32i")
ISA_STATS = ("targets", "targets_succeeded", "deliveries",
             "bytes_shipped", "seal_builds", "compile_builds")
# Stats whose per-ISA slices must never exceed the fleet-wide total.
# (Equality is not required: fleet_deliveries also counts delta-fallback
# re-deliveries, which the per-ISA slices attribute to attempts.)
ISA_SUM_BOUNDS = {
    "targets_succeeded": "fleet_targets_succeeded",
    "deliveries": "fleet_deliveries",
    "bytes_shipped": "fleet_bytes_shipped",
}


def validate_isa_counters(counters):
    """The fleet_isa_* family: the ISA must be one a backend implements,
    the stat one the engine folds, and the slices must sum to no more
    than their fleet-wide counterparts."""
    sums = {}
    for name, value in counters.items():
        if not name.startswith("fleet_isa_") or not is_int(value):
            continue
        rest = name[len("fleet_isa_"):]
        for isa in KNOWN_ISAS:
            if rest.startswith(isa + "_"):
                stat = rest[len(isa) + 1:]
                if stat not in ISA_STATS:
                    problem(f"counter {name!r}: {stat!r} is not a per-ISA "
                            f"stat the engine folds {ISA_STATS}")
                else:
                    sums[stat] = sums.get(stat, 0) + value
                break
        else:
            problem(f"counter {name!r}: names an ISA no backend "
                    f"implements (known: {KNOWN_ISAS})")
    for stat, total_name in ISA_SUM_BOUNDS.items():
        if stat in sums and total_name in counters \
                and is_int(counters[total_name]) \
                and sums[stat] > counters[total_name]:
            problem(f"per-ISA {stat} slices sum to {sums[stat]}, more "
                    f"than {total_name} = {counters[total_name]}")


# The wire transport's metric family (net/server.cpp, net/channel.cpp).
# Every net_-prefixed counter must be one of these — a typo'd or ad-hoc
# name in the transport fails validation the same way an unknown ISA
# slice does.
NET_COUNTERS = (
    "net_connections_accepted", "net_connections_closed",
    "net_handshakes", "net_frames_sent", "net_frames_received",
    "net_bytes_sent", "net_bytes_received", "net_frame_crc_errors",
    "net_frame_resyncs", "net_deliveries_ok", "net_delivery_timeouts",
    "net_delivery_failures", "net_backpressure_stalls",
    "net_late_responses", "net_naks", "net_idle_closes",
    # The fault-injecting channel (shared by the in-process and wire
    # delivery paths).
    "net_channel_deliveries", "net_channel_faults",
    "net_channel_bytes_in", "net_channel_bytes_out",
)
NET_GAUGES = ("net_connections_open",)
NET_HISTOGRAMS = ("net_delivery_rtt_us", "net_channel_rtt_us")
# Per-frame overhead the wire format promises (net/frame.h): header +
# CRC trailer. Every counted frame carries at least this many bytes.
NET_FRAME_OVERHEAD = 16


def validate_net_family(counters, gauges, histograms):
    """The net_* family: names must be ones the transport registers, and
    the counters must satisfy the arithmetic the server promises — a
    handshake needs an accepted connection, a close needs an accept, an
    OK delivery needs a sent frame, and byte totals can never undercut
    the framing overhead of the frames they carried."""
    for name in counters:
        if name.startswith("net_") and name not in NET_COUNTERS:
            problem(f"counter {name!r}: not a counter the transport "
                    "registers (stale validator or typo'd metric?)")
    for name in gauges if isinstance(gauges, dict) else ():
        if name.startswith("net_") and name not in NET_GAUGES:
            problem(f"gauge {name!r}: not a gauge the transport registers")
    for name in histograms if isinstance(histograms, dict) else ():
        if name.startswith("net_") and name not in NET_HISTOGRAMS:
            problem(f"histogram {name!r}: not a histogram the transport "
                    "registers")

    def count(name):
        value = counters.get(name, 0)
        return value if is_int(value) else 0

    accepted = count("net_connections_accepted")
    for name in ("net_handshakes", "net_connections_closed",
                 "net_idle_closes"):
        if count(name) > accepted:
            problem(f"counter {name!r} = {count(name)} exceeds "
                    f"net_connections_accepted = {accepted}")
    if count("net_deliveries_ok") > count("net_frames_sent"):
        problem(f"net_deliveries_ok = {count('net_deliveries_ok')} exceeds "
                f"net_frames_sent = {count('net_frames_sent')} (every OK "
                "delivery sends at least its dispatch frame)")
    for frames, byte_total in (("net_frames_sent", "net_bytes_sent"),
                               ("net_frames_received",
                                "net_bytes_received")):
        if count(byte_total) < count(frames) * NET_FRAME_OVERHEAD:
            problem(f"{byte_total} = {count(byte_total)} is below "
                    f"{frames} * {NET_FRAME_OVERHEAD}-byte framing "
                    f"overhead ({count(frames)} frames)")
    open_conns = gauges.get("net_connections_open") \
        if isinstance(gauges, dict) else None
    if is_num(open_conns) and not 0 <= open_conns <= accepted:
        problem(f"gauge net_connections_open = {open_conns} is outside "
                f"[0, net_connections_accepted = {accepted}]")


# The simulator's metric family (sim/soc.cpp): recorded once per Soc::Run,
# so MIPS is sim_instructions over the summed sim_exec_us. No arithmetic
# between them is checked: a live snapshot can land between the three
# updates of one run.
SIM_COUNTERS = ("sim_instructions", "sim_cycles")
SIM_HISTOGRAMS = ("sim_exec_us",)


def validate_sim_family(counters, histograms):
    """The sim_* family: names must be ones Soc::Run registers."""
    for name in counters:
        if name.startswith("sim_") and name not in SIM_COUNTERS:
            problem(f"counter {name!r}: not a counter the simulator "
                    "registers (stale validator or typo'd metric?)")
    for name in histograms if isinstance(histograms, dict) else ():
        if name.startswith("sim_") and name not in SIM_HISTOGRAMS:
            problem(f"histogram {name!r}: not a histogram the simulator "
                    "registers")


def validate_gauges(gauges):
    if not isinstance(gauges, dict):
        problem("'gauges' is not an object")
        return
    for name, value in gauges.items():
        check_name("gauge", name)
        if not is_num(value):
            problem(f"gauge {name!r}: value {value!r} is not numeric")


def validate_histogram(name, hist):
    check_name("histogram", name)
    if not isinstance(hist, dict):
        problem(f"histogram {name!r}: not an object")
        return
    for field in ("count", "sum_us", "min_us", "max_us",
                  "p50_us", "p95_us", "p99_us", "buckets"):
        if field not in hist:
            problem(f"histogram {name!r}: missing field {field!r}")
            return
    count = hist["count"]
    if not is_int(count) or count < 0:
        problem(f"histogram {name!r}: count {count!r} is not a "
                "non-negative integer")
        return
    buckets = hist["buckets"]
    if not isinstance(buckets, list):
        problem(f"histogram {name!r}: 'buckets' is not a list")
        return
    bucket_total = 0
    prev_upper = -1.0
    for entry in buckets:
        if (not isinstance(entry, list) or len(entry) != 2
                or not is_num(entry[0]) or not is_int(entry[1])):
            problem(f"histogram {name!r}: bucket {entry!r} is not an "
                    "[upper_us, count] pair")
            return
        upper, n = entry
        if upper <= prev_upper:
            problem(f"histogram {name!r}: bucket bounds not strictly "
                    f"increasing at {upper}")
        if n <= 0:
            problem(f"histogram {name!r}: sparse bucket with "
                    f"non-positive count {n}")
        prev_upper = upper
        bucket_total += n
    if bucket_total != count:
        problem(f"histogram {name!r}: bucket counts sum to "
                f"{bucket_total}, histogram count is {count}")
    if count == 0:
        return
    lo, p50, p95, p99, hi = (hist["min_us"], hist["p50_us"],
                             hist["p95_us"], hist["p99_us"],
                             hist["max_us"])
    if not all(is_num(v) for v in (lo, p50, p95, p99, hi)):
        problem(f"histogram {name!r}: non-numeric summary field")
        return
    eps = 1e-9
    if not (0 <= lo <= p50 + eps and p50 <= p95 + eps
            and p95 <= p99 + eps and p99 <= hi + eps):
        problem(f"histogram {name!r}: percentiles out of order: "
                f"min {lo} p50 {p50} p95 {p95} p99 {p99} max {hi}")
    if not is_num(hist["sum_us"]) or hist["sum_us"] + eps < lo * count:
        problem(f"histogram {name!r}: sum_us {hist['sum_us']!r} is "
                f"below min_us * count")


EVENT_SEVERITIES = ("info", "warn", "error", "fatal")
EVENT_FIELDS = ("seq", "uptime_us", "severity", "subsystem", "device",
                "campaign", "message")
SLO_KINDS = ("ratio", "rate", "quantile")
SLO_POLICIES = ("log", "pause", "abort")
SLO_FIELDS = ("name", "kind", "metric", "threshold", "window_seconds",
              "min_count", "policy", "observed", "burn_rate",
              "window_count", "breached", "latched")


def validate_events(events):
    """The structured event ring: loss accounting must be coherent and
    every retained record complete, enum-valid, and in emit order."""
    if not isinstance(events, dict):
        problem("'events' is not an object")
        return
    for field in ("ring_capacity", "appended", "dropped", "recent"):
        if field not in events:
            problem(f"events: missing field {field!r}")
            return
    for field in ("ring_capacity", "appended", "dropped"):
        if not is_int(events[field]) or events[field] < 0:
            problem(f"events: {field} {events[field]!r} is not a "
                    "non-negative integer")
            return
    recent = events["recent"]
    if not isinstance(recent, list):
        problem("events: 'recent' is not a list")
        return
    if len(recent) + events["dropped"] > events["appended"]:
        problem(f"events: {len(recent)} retained + {events['dropped']} "
                f"dropped exceeds {events['appended']} appended")
    prev_seq = 0
    for entry in recent:
        if not isinstance(entry, dict):
            problem(f"events: recent entry {entry!r} is not an object")
            return
        for field in EVENT_FIELDS:
            if field not in entry:
                problem(f"events: entry seq={entry.get('seq')!r} missing "
                        f"field {field!r}")
                return
        if not is_int(entry["seq"]) or entry["seq"] <= prev_seq:
            problem(f"events: seq {entry['seq']!r} is not strictly "
                    f"increasing after {prev_seq}")
        prev_seq = entry["seq"] if is_int(entry["seq"]) else prev_seq
        if entry["severity"] not in EVENT_SEVERITIES:
            problem(f"events: seq={entry['seq']}: severity "
                    f"{entry['severity']!r} not in {EVENT_SEVERITIES}")
        if not isinstance(entry["subsystem"], str) or not entry["subsystem"]:
            problem(f"events: seq={entry['seq']}: empty subsystem")
        if not isinstance(entry["message"], str):
            problem(f"events: seq={entry['seq']}: message is not a string")
        if not is_num(entry["uptime_us"]) or entry["uptime_us"] < 0:
            problem(f"events: seq={entry['seq']}: bad uptime_us "
                    f"{entry['uptime_us']!r}")
        for field in ("device", "campaign"):
            if not is_int(entry[field]) or entry[field] < 0:
                problem(f"events: seq={entry['seq']}: {field} "
                        f"{entry[field]!r} is not a non-negative integer")


def validate_health(health):
    """The watchdog report: every SLO entry carries its full spec and
    windowed state, with enum-valid kind/policy and sane numbers."""
    if not isinstance(health, dict):
        problem("'health' is not an object")
        return
    if not is_int(health.get("evaluations")) or health["evaluations"] < 0:
        problem(f"health: evaluations {health.get('evaluations')!r} is not "
                "a non-negative integer")
    slos = health.get("slos")
    if not isinstance(slos, list):
        problem("health: 'slos' is not a list")
        return
    seen = set()
    for slo in slos:
        if not isinstance(slo, dict):
            problem(f"health: slo entry {slo!r} is not an object")
            return
        for field in SLO_FIELDS:
            if field not in slo:
                problem(f"health: slo {slo.get('name')!r} missing field "
                        f"{field!r}")
                return
        name = slo["name"]
        if not isinstance(name, str) or not name:
            problem(f"health: slo name {name!r} is not a non-empty string")
            continue
        if name in seen:
            problem(f"health: duplicate slo name {name!r}")
        seen.add(name)
        if slo["kind"] not in SLO_KINDS:
            problem(f"health: slo {name!r}: kind {slo['kind']!r} not in "
                    f"{SLO_KINDS}")
        if slo["kind"] == "ratio" and "denominator" not in slo:
            problem(f"health: ratio slo {name!r} lacks a denominator")
        if slo["kind"] == "quantile" and not is_num(slo.get("quantile")):
            problem(f"health: quantile slo {name!r} lacks a quantile")
        if slo["policy"] not in SLO_POLICIES:
            problem(f"health: slo {name!r}: policy {slo['policy']!r} not in "
                    f"{SLO_POLICIES}")
        check_name("slo metric", slo["metric"])
        if not is_num(slo["threshold"]) or slo["threshold"] <= 0:
            problem(f"health: slo {name!r}: threshold {slo['threshold']!r} "
                    "is not positive")
        if not is_num(slo["window_seconds"]) or slo["window_seconds"] <= 0:
            problem(f"health: slo {name!r}: window_seconds "
                    f"{slo['window_seconds']!r} is not positive")
        if not is_int(slo["min_count"]) or slo["min_count"] < 1:
            problem(f"health: slo {name!r}: min_count {slo['min_count']!r} "
                    "is not a positive integer")
        for field in ("observed", "burn_rate"):
            if not is_num(slo[field]) or slo[field] < 0:
                problem(f"health: slo {name!r}: {field} {slo[field]!r} is "
                        "not a non-negative number")
        if not is_int(slo["window_count"]) or slo["window_count"] < 0:
            problem(f"health: slo {name!r}: window_count "
                    f"{slo['window_count']!r} is not a non-negative integer")
        for field in ("breached", "latched"):
            if not isinstance(slo[field], bool):
                problem(f"health: slo {name!r}: {field} is not a boolean")
        if slo["breached"] and not slo["latched"]:
            problem(f"health: slo {name!r}: breached but not latched "
                    "(the latch must stick while the breach holds)")


def validate_snapshot(doc, require_counters, require_histograms,
                      require_slos=(), require_events=()):
    if not isinstance(doc, dict):
        problem("top level is not an object")
        return
    if doc.get("schema") != SCHEMA:
        problem(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    if not is_int(doc.get("sequence")) or doc["sequence"] < 1:
        problem("'sequence' is not a positive integer")
    if not is_num(doc.get("uptime_us")) or doc["uptime_us"] < 0:
        problem("'uptime_us' is not a non-negative number")
    for section in ("counters", "gauges", "histograms"):
        if section not in doc:
            problem(f"missing section {section!r}")
            return
    validate_counters(doc["counters"])
    if isinstance(doc["counters"], dict):
        validate_isa_counters(doc["counters"])
        validate_net_family(doc["counters"], doc["gauges"],
                            doc["histograms"])
        validate_sim_family(doc["counters"], doc["histograms"])
    validate_gauges(doc["gauges"])
    for name, hist in doc["histograms"].items():
        validate_histogram(name, hist)
    if "events" in doc:
        validate_events(doc["events"])
    elif require_events:
        problem("snapshot has no 'events' section but events are required")
    if "health" in doc:
        validate_health(doc["health"])
    elif require_slos:
        problem("snapshot has no 'health' section but SLOs are required")
    for name in require_counters:
        if name not in doc["counters"]:
            problem(f"required counter {name!r} is absent")
    for name in require_histograms:
        hist = doc["histograms"].get(name)
        if hist is None:
            problem(f"required histogram {name!r} is absent")
        elif hist.get("count") == 0:
            problem(f"required histogram {name!r} has no samples")
    slos = doc.get("health", {}).get("slos", []) \
        if isinstance(doc.get("health"), dict) else []
    slo_names = {s.get("name") for s in slos if isinstance(s, dict)}
    for name in require_slos:
        if name not in slo_names:
            problem(f"required slo {name!r} is absent from the health "
                    "section")
    recent = doc.get("events", {}).get("recent", []) \
        if isinstance(doc.get("events"), dict) else []
    subsystems = {e.get("subsystem") for e in recent if isinstance(e, dict)}
    for name in require_events:
        if name not in subsystems:
            problem(f"no event from required subsystem {name!r} in the "
                    "events section")


def validate_file(path, require_counters, require_histograms,
                  require_slos=(), require_events=()):
    global _problems
    _problems = []
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        return [f"cannot read: {err}"]
    except json.JSONDecodeError as err:
        return [f"not valid JSON (torn write?): {err}"]
    if isinstance(doc, dict) and "telemetry" in doc:
        doc = doc["telemetry"]  # campaign report: validate its section
    validate_snapshot(doc, require_counters, require_histograms,
                      require_slos, require_events)
    return _problems


def main():
    parser = argparse.ArgumentParser(
        description="validate eric.metrics.v1 snapshots")
    parser.add_argument("files", nargs="+", help="snapshot or report JSON")
    parser.add_argument("--require-counter", action="append", default=[],
                        metavar="NAME",
                        help="fail unless this counter is present")
    parser.add_argument("--require-histogram", action="append", default=[],
                        metavar="NAME",
                        help="fail unless this histogram has samples")
    parser.add_argument("--require-slo", action="append", default=[],
                        metavar="NAME",
                        help="fail unless the health section tracks this SLO")
    parser.add_argument("--require-event", action="append", default=[],
                        metavar="SUBSYSTEM",
                        help="fail unless an event from this subsystem is "
                             "in the ring")
    args = parser.parse_args()

    failed = False
    for path in args.files:
        problems = validate_file(path, args.require_counter,
                                 args.require_histogram,
                                 args.require_slo, args.require_event)
        if problems:
            failed = True
            print(f"FAIL {path}")
            for msg in problems:
                print(f"  - {msg}")
        else:
            print(f"ok   {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
