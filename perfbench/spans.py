"""Span tracing from outside the program, and the per-layer metrics.

The traced run patches each layer's entry points where their callers
look them up (many modules import functions by name, so the patch goes
on the importing module, not only on the defining one).  A span records
name, thread, start, end, parent span and request id; a layer's self
time is its spans' durations minus the same-thread child spans they
contain.  Work a layer hands to an executor thread starts a new root
there, so waiting for it stays in the caller's self time.

Clocks are ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux), which
is shared across processes, so daemon spans can be cut to the client's
timed window.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import threading
from collections import defaultdict
from time import perf_counter_ns

# span record fields
NAME, TID, T0, T1, PARENT, RID, TAG, NBYTES = range(8)

#: Per-layer metrics: name, unit, better.  The unit follows the suffix.
PER_LAYER = [
    ("core.scatter_us", "us", "lower"),
    ("core.scatter_dense_ratio", "ratio", "higher"),
    ("drx.file_self_us", "us", "lower"),
    ("drx.plan_us", "us", "lower"),
    ("drx.plan_hit_ratio", "ratio", "higher"),
    ("drx.mpool_hit_ratio", "ratio", "higher"),
    ("drx.mpool_faults_per_op", "1/op", "lower"),
    ("drx.mpool_evictions_per_op", "1/op", "lower"),
    ("drx.mpool_writebacks_per_op", "1/op", "lower"),
    ("drx.mpool_prefetch_useful_ratio", "ratio", "higher"),
    ("drx.mpool_writebehind_stalls", "count", "lower"),
    ("drx.codec_encode_us_per_mib", "us/MiB", "lower"),
    ("drx.codec_decode_us_per_mib", "us/MiB", "lower"),
    ("drx.codec_ratio", "ratio", "higher"),
    ("drx.runs_per_request", "1/call", "lower"),
    ("drx.store_calls_per_op", "1/op", "lower"),
    ("drx.store_bytes_per_call", "B", "higher"),
    ("drx.store_readv_us", "us", "lower"),
    ("drx.store_writev_us", "us", "lower"),
    ("drx.meta_commit_us", "us", "lower"),
    ("drx.meta_commit_bytes", "B", "lower"),
    ("pfs.requests_per_mib", "1/MiB", "lower"),
    ("pfs.seeks_per_mib", "1/MiB", "lower"),
    ("pfs.bytes_per_user_byte", "ratio", "lower"),
    ("pfs.busy_imbalance", "ratio", "lower"),
    ("pfs.readv_us", "us", "lower"),
    ("pfs.writev_us", "us", "lower"),
    ("mpi.collective_self_us", "us", "lower"),
    ("mpi.exchange_us", "us", "lower"),
    ("mpi.exchange_bytes_per_step", "B", "lower"),
    ("mpi.pack_us", "us", "lower"),
    ("mpi.barrier_wait_us", "us", "lower"),
    ("mpi.sieve_wasted_bytes_per_step", "B", "lower"),
    ("mpi.pfs_requests_per_collective", "count", "lower"),
    ("drxmp.zone_self_us", "us", "lower"),
    ("drxmp.filetype_us", "us", "lower"),
    ("serve.reply_gap_us", "us", "lower"),
    ("serve.ping_rtt_us", "us", "lower"),
    ("serve.dispatch_self_us", "us", "lower"),
    ("serve.apply_us", "us", "lower"),
    ("serve.admission_wait_us", "us", "lower"),
    ("serve.lock_wait_us", "us", "lower"),
    ("serve.journal_append_us", "us", "lower"),
    ("serve.journal_sync_us", "us", "lower"),
    ("serve.journal_syncs_per_commit", "ratio", "lower"),
    ("serve.journal_bytes_per_user_byte", "ratio", "lower"),
]

#: Entry points traced in a workload process: (module, attribute path,
#: span name).  Each patch lands where callers look the name up.
CLIENT_TARGETS = [
    ("repro.drx.drxfile", "DRXFile.read", "drx.file"),
    ("repro.drx.drxfile", "DRXFile.write", "drx.file"),
    ("repro.drx.drxfile", "DRXFile.read_slab", "drx.file"),
    ("repro.drx.drxfile", "DRXFile.extend", "drx.file"),
    # the chunk copy loop of the local path (its self time is the
    # scatter/gather work; the drx path does not call core.scatter)
    ("repro.drx.drxfile", "DRXFile._execute_read", "drx.execute"),
    ("repro.drx.drxfile", "DRXFile._execute_write", "drx.execute"),
    ("repro.drx.ioplan", "PlanCache.box", "drx.plan"),
    ("repro.drx.ioplan", "PlanCache.slab", "drx.plan"),
    ("repro.drx.mpool", "Mpool.get_many", "drx.mpool"),
    ("repro.drx.mpool", "Mpool.put_many", "drx.mpool"),
    ("repro.drx.mpool", "Mpool.get", "drx.mpool"),
    ("repro.drx.mpool", "Mpool.put", "drx.mpool"),
    ("repro.drx.mpool", "Mpool.flush", "drx.mpool"),
    ("repro.drx.mpool", "Mpool.drain_writebehind", "drx.mpool"),
    ("repro.drx.storage", "PFSByteStore.readv", "drx.store.readv"),
    ("repro.drx.storage", "PFSByteStore.writev", "drx.store.writev"),
    ("repro.drx.storage", "CompressedByteStore.readv", "drx.store.readv"),
    ("repro.drx.storage", "CompressedByteStore.writev",
     "drx.store.writev"),
    ("repro.drx.storage", "PFSByteStore.replace", "drx.meta_commit"),
    ("repro.pfs.pfile", "PFSFile.readv", "pfs.readv"),
    ("repro.pfs.pfile", "PFSFile.writev", "pfs.writev"),
    ("repro.pfs.pfile", "PFSFile.sieve_writev", "pfs.writev"),
    ("repro.mpi.file", "File.Read_at_all", "mpi.collective"),
    ("repro.mpi.file", "File.Write_at_all", "mpi.collective"),
    ("repro.mpi.file", "_pack_buf", "mpi.pack"),
    ("repro.mpi.file", "_unpack_buf", "mpi.pack"),
    ("repro.drxmp.api", "DRXMPFile.read_zone", "drxmp.zone"),
    ("repro.drxmp.api", "DRXMPFile.write_zone", "drxmp.zone"),
    ("repro.drxmp.subarray", "indexed_filetype", "drxmp.filetype"),
    ("repro.drxmp.subarray", "scatter_chunks", "core.scatter"),
    ("repro.drxmp.subarray", "gather_chunks", "core.scatter"),
    # tagged with the verb (the call's first argument)
    ("repro.serve.client", "DRXClient.request", "serve.client", 1),
]

#: Entry points traced inside the served daemon.
DAEMON_TARGETS = [
    ("repro.serve.server", "DRXServer._handle_request", "serve.dispatch"),
    ("repro.serve.server", "Admission.admit", "serve.admission"),
    ("repro.serve.locks", "ArrayRWLock.acquire_shared", "serve.lock"),
    ("repro.serve.locks", "ArrayRWLock.acquire_exclusive", "serve.lock"),
    ("repro.serve.locks", "ChunkLocks.acquire", "serve.lock"),
    ("repro.serve.journal", "Journal.begin", "serve.journal.append"),
    ("repro.serve.journal", "Journal.commit", "serve.journal.append"),
    ("repro.serve.journal", "Journal.sync", "serve.journal.sync"),
    ("repro.drx.drxfile", "DRXFile.read", "drx.file"),
    ("repro.drx.drxfile", "DRXFile.write", "drx.file"),
    ("repro.drx.drxfile", "DRXFile.extend", "drx.file"),
]


def _nbytes_of(args) -> int:
    for a in args:
        if isinstance(a, (bytes, bytearray, memoryview)):
            return len(a)
    return 0


class Tracer:
    """In-memory span recorder; spans are written out when a run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._tls = threading.local()
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def begin(self, name: str, tag=None, nbytes: int = 0) -> int:
        st = self._stack()
        parent = st[-1] if st else -1
        rec = [name, threading.get_ident(), 0, 0, parent, -1, tag, nbytes]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
            rec[RID] = self.spans[parent][RID] if parent >= 0 else idx
        st.append(idx)
        rec[T0] = perf_counter_ns()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][T1] = perf_counter_ns()
        st = self._stack()
        if st and st[-1] == idx:
            st.pop()

    def take(self) -> list[list]:
        """Hand over the recorded spans (parent and request ids index
        the returned list) and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        self._tls = threading.local()
        return spans

    # -- patching --------------------------------------------------------
    def wrap(self, fn, name: str, tag_arg: int | None = None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = args[tag_arg] if tag_arg is not None else None
            idx = tracer.begin(name, tag, _nbytes_of(args[1:3]))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)
        return traced

    def patch(self, module: str, path: str, name: str,
              tag_arg: int | None = None) -> None:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # a class attribute is read from the class's own dict when it has
        # one (keeps staticmethod wrappers), else the inherited function
        # is shadowed on this class only
        raw = owner.__dict__.get(attr, getattr(owner, attr)) \
            if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, name, tag_arg))
        else:
            new = self.wrap(raw, name, tag_arg)
        setattr(owner, attr, new)

    def install(self, targets) -> None:
        for module, path, name, *tag_arg in targets:
            self.patch(module, path, name, *tag_arg)


def write_spans(path, spans: list[list], meta: dict) -> None:
    """Write spans as gzip'd JSON: a name table plus one row per span."""
    names = sorted({s[NAME] for s in spans})
    ids = {n: i for i, n in enumerate(names)}
    rows = [[ids[s[NAME]], s[TID], s[T0], s[T1], s[PARENT], s[RID],
             s[TAG], s[NBYTES]] for s in spans]
    doc = {"meta": meta, "names": names,
           "fields": ["name", "thread", "start_ns", "end_ns", "parent",
                      "request", "tag", "nbytes"], "spans": rows}
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def read_spans(path) -> list[list]:
    with gzip.open(path, "rt") as fh:
        doc = json.load(fh)
    names = doc["names"]
    return [[names[r[0]], *r[1:]] for r in doc["spans"]]


class SpanSummary:
    """Per-name totals of a set of spans: count, summed duration, summed
    self time, summed byte arguments; plus the collective skew."""

    def __init__(self) -> None:
        self.count = defaultdict(int)
        self.dur = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.nbytes = defaultdict(int)
        self.by_tag = defaultdict(lambda: [0, 0])   # (name, tag) -> n, ns
        self.skew_ns = 0
        self.skew_n = 0

    def add(self, spans: list[list], lo: int, hi: int) -> None:
        """Fold in the spans that lie in ``[lo, hi]`` (ns).  Store spans
        count only when their parent is not a store span too (the
        compressed store calls the plain one)."""
        child = defaultdict(int)
        keep = []
        for i, s in enumerate(spans):
            if s[T1] == 0 or s[T0] < lo or s[T1] > hi:
                continue
            keep.append(i)
            p = s[PARENT]
            if p >= 0 and spans[p][TID] == s[TID]:
                child[p] += s[T1] - s[T0]
        for i in keep:
            s = spans[i]
            name = s[NAME]
            p = s[PARENT]
            if name.startswith("drx.store.") and p >= 0 and \
                    spans[p][NAME].startswith("drx.store."):
                continue
            d = s[T1] - s[T0]
            self.count[name] += 1
            self.dur[name] += d
            self.self_ns[name] += d - child[i]
            self.nbytes[name] += s[NBYTES]
            if s[TAG] is not None:
                bt = self.by_tag[(name, s[TAG])]
                bt[0] += 1
                bt[1] += d
        # collective skew: the n-th collective call of each rank thread
        # is one collective; its wait is last arrival minus first
        per_thread = defaultdict(list)
        for i in keep:
            s = spans[i]
            if s[NAME] == "mpi.collective":
                per_thread[s[TID]].append(s[T0])
        if len(per_thread) > 1:
            seqs = [sorted(v) for v in per_thread.values()]
            for starts in zip(*seqs):
                self.skew_ns += max(starts) - min(starts)
                self.skew_n += 1

    def mean_us(self, name: str, use_self: bool = False) -> float:
        n = self.count[name]
        total = self.self_ns[name] if use_self else self.dur[name]
        return total / n / 1e3 if n else 0.0

    def total_us(self, *names: str, use_self: bool = False) -> float:
        src = self.self_ns if use_self else self.dur
        return sum(src[n] for n in names) / 1e3


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(ss: SpanSummary, ds: SpanSummary, c: dict) -> dict:
    """Every per-layer metric from the client spans ``ss``, the daemon
    spans ``ds`` (empty unless served) and the counter deltas ``c``."""
    mib = 1 << 20
    ops = c.get("ops", 0)
    user = c.get("user_bytes", 0)
    drx_ops = ss.count["drx.file"] + ss.count["drxmp.zone"]
    mutating = c.get("mutating_ops", 0)
    served = ds.count["serve.dispatch"]
    m = {
        "core.scatter_us": _ratio(
            ss.total_us("drx.execute", use_self=True)
            + ss.total_us("core.scatter"), drx_ops),
        "core.scatter_dense_ratio": _ratio(
            c.get("dense_ops", 0),
            c.get("dense_ops", 0) + c.get("fallback_ops", 0)),
        "drx.file_self_us": ss.mean_us("drx.file", use_self=True),
        "drx.plan_us": _ratio(ss.total_us("drx.plan"), drx_ops),
        "drx.plan_hit_ratio": _ratio(
            c.get("plan_hits", 0),
            c.get("plan_hits", 0) + c.get("plan_misses", 0)),
        "drx.mpool_hit_ratio": _ratio(
            c.get("hits", 0), c.get("hits", 0) + c.get("misses", 0)),
        "drx.mpool_faults_per_op": _ratio(c.get("misses", 0), ops),
        "drx.mpool_evictions_per_op": _ratio(c.get("evictions", 0), ops),
        "drx.mpool_writebacks_per_op": _ratio(c.get("writebacks", 0), ops),
        "drx.mpool_prefetch_useful_ratio": _ratio(
            c.get("prefetch_hits", 0), c.get("prefetch_pages", 0)),
        "drx.mpool_writebehind_stalls": float(
            c.get("writebehind_stalls", 0)),
        "drx.codec_encode_us_per_mib": _ratio(
            c.get("encode_time", 0.0) * 1e6,
            c.get("encoded_bytes", 0) / mib),
        "drx.codec_decode_us_per_mib": _ratio(
            c.get("decode_time", 0.0) * 1e6,
            c.get("decoded_bytes", 0) / mib),
        "drx.codec_ratio": _ratio(c.get("raw_bytes", 0),
                                  c.get("stored_bytes", 0)),
        "drx.runs_per_request": _ratio(
            c.get("coalesced_runs", 0),
            c.get("readv_calls", 0) + c.get("writev_calls", 0)),
        "drx.store_calls_per_op": _ratio(
            c.get("readv_calls", 0) + c.get("writev_calls", 0), ops),
        "drx.store_bytes_per_call": _ratio(
            c.get("store_bytes", 0),
            c.get("readv_calls", 0) + c.get("writev_calls", 0)),
        "drx.store_readv_us": ss.mean_us("drx.store.readv"),
        "drx.store_writev_us": ss.mean_us("drx.store.writev"),
        "drx.meta_commit_us": ss.mean_us("drx.meta_commit"),
        "drx.meta_commit_bytes": _ratio(ss.nbytes["drx.meta_commit"],
                                        ss.count["drx.meta_commit"]),
        "pfs.requests_per_mib": _ratio(c.get("pfs_requests", 0),
                                       user / mib),
        "pfs.seeks_per_mib": _ratio(c.get("pfs_seeks", 0), user / mib),
        "pfs.bytes_per_user_byte": _ratio(c.get("pfs_bytes", 0), user),
        "pfs.busy_imbalance": _ratio(
            max(c.get("server_busy", [0.0])),
            _ratio(sum(c.get("server_busy", [0.0])),
                   len(c.get("server_busy", [0.0])))),
        "pfs.readv_us": ss.mean_us("pfs.readv"),
        "pfs.writev_us": ss.mean_us("pfs.writev"),
        "mpi.collective_self_us": ss.mean_us("mpi.collective",
                                             use_self=True),
        "mpi.exchange_us": _ratio(c.get("exchange_time", 0.0) * 1e6,
                                  c.get("collectives", 0)),
        "mpi.exchange_bytes_per_step": _ratio(c.get("exchange_bytes", 0),
                                              c.get("steps", 0)),
        "mpi.pack_us": _ratio(ss.total_us("mpi.pack"),
                              ss.count["mpi.collective"]),
        "mpi.barrier_wait_us": _ratio(ss.skew_ns / 1e3, ss.skew_n),
        "mpi.sieve_wasted_bytes_per_step": _ratio(
            c.get("wasted_bytes", 0), c.get("steps", 0)),
        "mpi.pfs_requests_per_collective": _ratio(
            c.get("requests_after", 0), c.get("collectives", 0)),
        "drxmp.zone_self_us": ss.mean_us("drxmp.zone", use_self=True),
        "drxmp.filetype_us": _ratio(ss.total_us("drxmp.filetype"),
                                    ss.count["drxmp.zone"]),
    }
    # served reads: the client's request time against the daemon's own
    # time from request frame received to reply sent (the transport
    # stall of a reply that carries a payload lies in the difference)
    cn, cns = ss.by_tag[("serve.client", "read")]
    dn, dns = ds.by_tag[("serve.request", "read")]
    pn, pns = ss.by_tag[("serve.client", "ping")]
    inner = ("serve.admission", "serve.lock", "serve.journal.append",
             "serve.journal.sync", "drx.file")
    m.update({
        "serve.reply_gap_us": max(0.0, _ratio(cns, cn) - _ratio(dns, dn))
        / 1e3,
        "serve.ping_rtt_us": _ratio(pns, pn) / 1e3,
        "serve.dispatch_self_us": _ratio(
            ds.total_us("serve.dispatch") - ds.total_us(*inner), served),
        "serve.apply_us": _ratio(ds.total_us("drx.file"), served),
        "serve.admission_wait_us": _ratio(
            ds.total_us("serve.admission"), served),
        "serve.lock_wait_us": _ratio(ds.total_us("serve.lock"), served),
        "serve.journal_append_us": _ratio(
            ds.total_us("serve.journal.append"), mutating),
        "serve.journal_sync_us": _ratio(
            ds.total_us("serve.journal.sync"), mutating),
        "serve.journal_syncs_per_commit": _ratio(
            c.get("journal_syncs", 0), c.get("journal_sync_requests", 0)),
        "serve.journal_bytes_per_user_byte": _ratio(
            c.get("journal_bytes", 0), c.get("user_bytes_written", 0)),
    })
    return m
