"""One workload run in a fresh process: set up, time, check, report.

Started by ``run.py`` with every ``DRX_*`` variable removed from the
environment.  A run is a fixed number of *episodes*, each a complete
set-up (file system or daemon, array, pre-fill, warm-up), a timed phase
of whole rounds of operations, and the checks that need the final
state.  Episodes keep the array's size the same from run to run, and
repeat the set-up so its median can be reported.  The result goes to
the file named by ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from oracle import (CheckFailed, check_final, check_no_data_write,  # noqa: E402
                    check_qos, check_read)
from spans import (CLIENT_TARGETS, PARENT, RID, SpanSummary,  # noqa: E402
                   Tracer, layer_metrics, read_spans, write_spans)

from repro.core.executor import configured_threads  # noqa: E402
from repro.core.scatter import SCATTER_STATS  # noqa: E402
from repro.drx import DRXFile  # noqa: E402
from repro.drxmp import DRXMPFile  # noqa: E402
from repro.mpi import mpiexec  # noqa: E402
from repro.pfs import ParallelFileSystem  # noqa: E402
from repro.serve import DRXClient  # noqa: E402

MIB = 1 << 20
NSERVERS = 4

#: Collective hints, given explicitly so no environment default applies.
HINTS = {
    "cb_nodes": 2,
    "cb_buffer_size": 4 << 20,
    "ind_rd_buffer_size": 4 << 20,
    "ind_wr_buffer_size": 512 << 10,
    "romio_cb_read": "enable",
    "romio_cb_write": "enable",
    "romio_ds_read": "auto",
    "romio_ds_write": "auto",
    "ds_hole_threshold": 4096,
}
MPI_TIMEOUT = 120.0
#: Whole episodes of spans are written to the spans file until this many
#: are kept; the per-layer metrics summarise every episode.
KEEP_SPANS = 200_000

#: Per workload: episodes per 10 s of --seconds, and the size of one
#: episode (full run / smoke run).
SIZES = {
    "local-hot-rw": dict(episodes=18, rounds=(48, 3), ops=100, warm=100),
    "ooc-scan-codec": dict(episodes=5, rounds=(96, 4), scans=3, warm=8),
    "served-rw": dict(episodes=3, rounds=(32, 4), extend_every=2, warm=1),
    "collective-zone": dict(episodes=10, rounds=(64, 8), extend_every=8,
                            warm=2, bounds=512, chunk=64),
}
CODEC = {"local-hot-rw": "none", "ooc-scan-codec": "zlib:1",
         "served-rw": "none", "collective-zone": "none"}
#: Workloads run on one CPU, the lowest-numbered one they may use.  The
#: two vCPUs ran a fixed Python loop at speeds up to 20 % apart, and which
#: one was faster changed over time, so a process the scheduler moved
#: between them measured a varying mix: over five seeds ooc-scan-codec's
#: latencies spread 0.09-0.16 unpinned and 0.02-0.06 pinned.  The two
#: rank threads of collective-zone never run Python at once (one
#: interpreter lock), and on two vCPUs each hand-over between them also
#: waited on a cross-CPU wake-up: one seed's per-episode read p50 moved
#: 7.6-14.6 ms on two CPUs, 6.3-8.2 ms on one.  served-rw is left to the
#: scheduler: its client and daemon are two processes, and pinning both
#: to one CPU did not narrow its spread.
PINNED = ("local-hot-rw", "ooc-scan-codec", "collective-zone")
#: Workloads whose file system and array run without executor threads.
#: With the default pools, two vCPUs and the interpreter lock made their
#: latencies swing by up to 2x between runs of one seed (see README).
SERIAL = ("ooc-scan-codec", "collective-zone")


# ---------------------------------------------------------------------------
# measurement record
# ---------------------------------------------------------------------------

class Run:
    """Latencies, byte and operation counts, counter deltas and span
    summaries of one run."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.lat: dict[str, list[int]] = defaultdict(list)
        self.attempted: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.bytes_read = 0
        self.bytes_written = 0
        self.timed_ns = 0
        self.setups: list[int] = []
        self.counters: dict = defaultdict(float)
        self.stored = 0
        self.logical = 0
        self.daemon_rss_kib = 0
        self.ss = SpanSummary()
        self.ds = SpanSummary()
        self.kept_spans: list[list] = []
        self.windows: list[tuple[int, int]] = []   # timed phases (ns)
        self.round_mib_s: list[float] = []         # one per timed round
        self._lock = threading.Lock()

    def round_mark(self) -> tuple[int, int]:
        """The clock and the user bytes moved so far, at a round's start."""
        return perf_counter_ns(), self.bytes_read + self.bytes_written

    def round_done(self, mark: tuple[int, int]) -> tuple[int, int]:
        """Record the throughput of the round begun at ``mark``; returns
        the mark of the next round."""
        now = self.round_mark()
        self.round_mib_s.append((now[1] - mark[1]) / MIB
                                / ((now[0] - mark[0]) / 1e9))
        return now

    def op(self, kind: str, fn, *args, nbytes: int | None = None, **kw):
        """Time one operation of ``kind``; reads count the bytes they
        return, writes the array arguments they send."""
        tr = self.tracer
        idx = tr.begin("op." + kind) if tr is not None else -1
        t0 = perf_counter_ns()
        try:
            out = fn(*args, **kw)
        except BaseException:
            with self._lock:
                self.attempted[kind] += 1
                self.failed[kind] += 1
            raise
        finally:
            if tr is not None:
                tr.end(idx)
        dt = perf_counter_ns() - t0
        if nbytes is None:
            arr = out if isinstance(out, np.ndarray) \
                else getattr(out, "array", None)     # zone memory handle
            if isinstance(arr, np.ndarray):
                nread, nwritten = arr.nbytes, 0
            else:
                nread = 0
                nwritten = sum(a.nbytes for a in args
                               if isinstance(a, np.ndarray))
        else:
            nread, nwritten = (nbytes, 0) if kind == "read" else (0, nbytes)
        with self._lock:
            self.attempted[kind] += 1
            self.lat[kind].append(dt)
            self.bytes_read += nread
            self.bytes_written += nwritten
        return out

    @staticmethod
    def untimed(kind: str, fn, *args, nbytes: int | None = None, **kw):
        return fn(*args, **kw)

    def add_counters(self, after: dict, before: dict) -> None:
        for k, v in after.items():
            if isinstance(v, list):
                old = self.counters.get(k) or [0.0] * len(v)
                self.counters[k] = [o + a - b for o, a, b
                                    in zip(old, v, before[k])]
            else:
                self.counters[k] += v - before.get(k, 0)

    def add_spans(self, lo: int, hi: int, daemon: list | None = None
                  ) -> None:
        """Summarise an episode's spans; keep them for the spans file
        while fewer than ``KEEP_SPANS`` are kept."""
        if self.tracer is None:
            return
        spans = self.tracer.take()
        self.ss.add(spans, lo, hi)
        if len(self.kept_spans) < KEEP_SPANS:
            # parent and request ids index the episode's list: re-base them
            base = len(self.kept_spans)
            for s in spans:
                if s[PARENT] >= 0:
                    s[PARENT] += base
                s[RID] += base
            self.kept_spans.extend(spans)
            self.windows.append((lo, hi))
        if daemon is not None:
            self.ds.add(daemon, lo, hi)


def counters(fs: ParallelFileSystem, handles=()) -> dict:
    """Counter snapshot of the layers a local workload reaches: each
    handle's Mpool, data store (captured through ``store_wrapper``) and
    codec, the file system and its collective engine, and the
    scatter kernels."""
    c: dict = defaultdict(float)
    for f, store in handles:
        for k in ("hits", "misses", "evictions", "writebacks",
                  "prefetch_pages", "prefetch_hits", "writebehind_stalls"):
            c[k] += getattr(f.cache_stats, k)
        s = store.stats.snapshot()
        c["readv_calls"] += s.readv_calls
        c["writev_calls"] += s.writev_calls
        c["coalesced_runs"] += s.coalesced_runs
        c["store_bytes"] += s.bytes_moved
        c["plan_hits"] += s.plan_hits
        c["plan_misses"] += s.plan_misses
        cs = f.codec_stats
        if cs is not None:
            nb = int(np.prod(f.chunk_shape)) * f.dtype.itemsize
            c["encoded_bytes"] += cs.encoded_chunks * nb
            c["decoded_bytes"] += cs.decoded_chunks * nb
            c["encode_time"] += cs.encode_time
            c["decode_time"] += cs.decode_time
            c["raw_bytes"] += cs.raw_bytes
            c["stored_bytes"] += cs.stored_bytes
    t = fs.total_stats()
    c["pfs_requests"] = t.requests
    c["pfs_seeks"] = t.seeks
    c["pfs_bytes"] = t.bytes_moved
    c["pfs_busy"] = t.busy_time
    c["server_busy"] = [s.busy_time for s in fs.per_server_stats()]
    cs = fs.collective_stats()
    for k in ("collectives", "exchange_bytes", "exchange_time",
              "wasted_bytes", "requests_after"):
        c[k] = getattr(cs, k)
    sc = SCATTER_STATS.snapshot()
    c["dense_ops"] = sc.dense_ops
    c["fallback_ops"] = sc.fallback_ops
    return dict(c)


def fs_bytes(fs: ParallelFileSystem) -> int:
    return sum(fs.open(n).size for n in fs.listdir())


def capture(stores: dict):
    """A ``store_wrapper`` that keeps a reference to each store (for its
    StoreStats) and returns it unchanged."""
    def wrapper(store, role):
        stores[role] = store
        return store
    return wrapper


def grow(model: np.ndarray, dim: int, by: int) -> np.ndarray:
    pad = [(0, 0)] * model.ndim
    pad[dim] = (0, by)
    return np.pad(model, pad)


# ---------------------------------------------------------------------------
# local-hot-rw
# ---------------------------------------------------------------------------

def hot_boxes(rng, shape) -> list[tuple]:
    """The boxes an extend epoch works on: an iterative caller revisits
    a few regions, so compiled plans are reused until the next extend
    invalidates them."""
    n0, n1 = shape
    boxes = []
    for kind, count, h, w in (("band", 4, 8, n1), ("tile", 4, 48, 48),
                              ("slab", 2, 46, 76), ("write", 2, 4, 96)):
        for _ in range(count):
            boxes.append((kind, int(rng.integers(0, n0 - h + 1)),
                          int(rng.integers(0, n1 - w + 1)), h, w))
    return boxes


def hot_op(call, a: DRXFile, M: np.ndarray, rng, boxes) -> None:
    """One operation of the read-mostly mix on a cached array."""
    kind, r, c, h, w = boxes[int(rng.integers(0, len(boxes)))]
    order = "F" if rng.random() < 0.5 else "C"
    if kind == "slab":                              # strided slab
        got = call("read", a.read_slab, (r, c), (3, 5), (16, 16), order)
        check_read(got, M[r:r + h:3, c:c + w:5], order, "slab read")
    elif kind == "write":                           # band write
        vals = rng.standard_normal((h, w))
        call("write", a.write, (r, c), vals)
        M[r:r + h, c:c + w] = vals
    else:                                           # row band or tile
        got = call("read", a.read, (r, c), (r + h, c + w), order)
        check_read(got, M[r:r + h, c:c + w], order, f"{kind} read")


def episode_local_hot(run: Run, rng, sz: dict, smoke: bool) -> None:
    t_setup = perf_counter_ns()
    fs = ParallelFileSystem(nservers=NSERVERS)
    stores: dict = {}
    a = DRXFile.create_pfs(fs, "hot", (256, 256), (32, 32), codec="none",
                           cache_pages=1024, store_wrapper=capture(stores))
    M = rng.standard_normal((256, 256))
    a.write((0, 0), M)
    boxes = hot_boxes(rng, M.shape)
    for _ in range(sz["warm"]):
        hot_op(run.untimed, a, M, rng, boxes)
    run.setups.append(perf_counter_ns() - t_setup)

    handles = [(a, stores["data"])]
    before = counters(fs, handles)
    t0 = perf_counter_ns()
    mark = run.round_mark()
    for r in range(sz["rounds"][smoke]):
        for _ in range(sz["ops"]):
            hot_op(run.op, a, M, rng, boxes)
        dim = r % 2
        written = stores["data"].stats.bytes_written
        run.op("extend", a.extend, dim, 16)
        check_no_data_write(stores["data"].stats.bytes_written - written,
                            "local-hot-rw extend")
        M = grow(M, dim, 16)
        boxes = hot_boxes(rng, M.shape)
        mark = run.round_done(mark)
    t1 = perf_counter_ns()
    run.timed_ns += t1 - t0
    run.add_counters(counters(fs, handles), before)
    run.add_spans(t0, t1)
    run.stored += fs_bytes(fs)
    run.logical += M.nbytes

    a.close()
    b = DRXFile.open_pfs(fs, "hot")
    check_final(b.read_all(), M, "local-hot-rw reopened array")
    b.close()


# ---------------------------------------------------------------------------
# ooc-scan-codec
# ---------------------------------------------------------------------------

OOC_COLS = 512


def field(rng, t0: int, rows: int) -> np.ndarray:
    """A smooth travelling wave plus quantised noise: chunks compress,
    but not trivially."""
    t = np.arange(t0, t0 + rows, dtype=np.float64)[:, None]
    x = np.arange(OOC_COLS, dtype=np.float64)[None, :]
    smooth = 40.0 * np.sin(2 * np.pi * (x / 171.0 + t / 97.0)) \
        + 10.0 * np.cos(2 * np.pi * x / 53.0)
    noise = np.round(rng.normal(0.0, 3.0, (rows, OOC_COLS))) / 16.0
    return np.round(smooth * 64.0) / 64.0 + noise


def ooc_scans(call, a: DRXFile, M: np.ndarray, rng, scans: int) -> None:
    """F-order tile reads anywhere in the history, then one strided
    hyperslab spanning all of it."""
    n0, n1 = M.shape
    for _ in range(scans):
        r = int(rng.integers(0, n0 - 64 + 1))
        c = int(rng.integers(0, n1 - 128 + 1))
        got = call("read", a.read, (r, c), (r + 64, c + 128), "F")
        check_read(got, M[r:r + 64, c:c + 128], "F", "F-order tile scan")
    st0 = max(1, (n0 - 1) // 31)
    c = int(rng.integers(0, n1 - 249 + 1))
    got = call("read", a.read_slab, (0, c), (st0, 8), (32, 32), "C")
    check_read(got, M[0:31 * st0 + 1:st0, c:c + 249:8], "C",
               "strided history slab")


def episode_ooc(run: Run, rng, sz: dict, smoke: bool) -> None:
    t_setup = perf_counter_ns()
    fs = ParallelFileSystem(nservers=NSERVERS, executor=None)  # SERIAL
    stores: dict = {}
    a = DRXFile.create_pfs(fs, "ooc", (128, OOC_COLS), (16, 64),
                           codec=CODEC["ooc-scan-codec"], cache_pages=64,
                           store_wrapper=capture(stores), executor=None)
    rounds = sz["rounds"][smoke]
    # the model is allocated at its final size once, so the process's
    # peak memory does not depend on how reallocations happened to fall
    full = np.zeros((128 + 16 * rounds, OOC_COLS))
    M = full[:128]
    M[...] = field(rng, 0, 128)
    a.write((0, 0), M)
    for _ in range(sz["warm"]):
        ooc_scans(run.untimed, a, M, rng, 1)
    run.setups.append(perf_counter_ns() - t_setup)

    handles = [(a, stores["data"])]
    before = counters(fs, handles)
    t0 = perf_counter_ns()
    mark = run.round_mark()
    for _ in range(rounds):
        t = M.shape[0]
        slab = field(rng, t, 16)
        run.op("extend", a.extend, 0, 16)
        run.op("write", a.write, (t, 0), slab)
        M = full[:t + 16]
        M[t:] = slab
        ooc_scans(run.op, a, M, rng, sz["scans"])
        mark = run.round_done(mark)
    t1 = perf_counter_ns()
    run.timed_ns += t1 - t0
    run.add_counters(counters(fs, handles), before)
    run.add_spans(t0, t1)
    run.stored += fs_bytes(fs)
    run.logical += M.nbytes

    a.close()
    b = DRXFile.open_pfs(fs, "ooc")
    check_final(b.read_all(), M, "ooc-scan-codec reopened array")
    b.close()


# ---------------------------------------------------------------------------
# served-rw
# ---------------------------------------------------------------------------

BAND = 16


class Daemon:
    """The stock daemon in its own process (``daemon.py``)."""

    def __init__(self, out_dir: Path, tag: str, trace: bool) -> None:
        self.report = out_dir / f"daemon-{tag}.json"
        self.spans = out_dir / f"daemon-{tag}.spans.json.gz"
        for p in (self.report, self.spans):
            p.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "daemon.py"),
               "--report", str(self.report)]
        if trace:
            cmd += ["--spans", str(self.spans)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     text=True)
        self.address = None
        for line in self.proc.stdout:
            if "listening on" in line:
                host, _, port = line.rsplit(None, 1)[-1].rpartition(":")
                self.address = (host, int(port))
                break
        if self.address is None:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("daemon did not start")

    def stop(self, grace: float = 30.0) -> tuple[dict, int]:
        """Drain with SIGTERM (SIGKILL after ``grace`` seconds); returns
        the daemon's report and its peak resident set in KiB."""
        self.proc.send_signal(signal.SIGTERM)
        deadline = perf_counter_ns() + int(grace * 1e9)
        try:
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                if perf_counter_ns() > deadline:
                    self.proc.kill()
                    _pid, status, usage = os.wait4(self.proc.pid, 0)
                    break
                time.sleep(0.02)
        finally:
            self.proc.stdout.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.proc.returncode != 0:
            raise RuntimeError(f"daemon exited {self.proc.returncode}")
        return json.loads(self.report.read_text()), usage.ru_maxrss


class SharedModel:
    """The served array's model; each tenant writes only its own bands,
    and an extend by either tenant grows it."""

    def __init__(self, M: np.ndarray) -> None:
        self.M = M


def tenant_round(call, cl: DRXClient, tenant: int, sm: SharedModel, rng,
                 r: int, extend_every: int) -> None:
    """Band writes into the tenant's own row bands, a read-back of the
    last one, a ping, and every few rounds an extend."""
    n0, n1 = sm.M.shape
    bands = [b for b in range(n0 // BAND) if b % 2 == tenant]
    for _ in range(3):
        b = bands[int(rng.integers(0, len(bands)))]
        c = int(rng.integers(0, n1 - 128 + 1))
        lo, hi = (b * BAND, c), ((b + 1) * BAND, c + 128)
        vals = rng.standard_normal((BAND, 128))
        call("write", cl.write, "shared", lo, vals)
        sm.M[lo[0]:hi[0], lo[1]:hi[1]] = vals
    got = call("read", cl.read, "shared", lo, hi)
    check_read(got, vals, "C", "served read-back")
    call("ping", cl.ping)
    if (r + 1) % extend_every == 0:
        dim = (r // extend_every) % 2
        call("extend", cl.extend, "shared", dim, 2 * BAND)
        sm.M = grow(sm.M, dim, 2 * BAND)


def served_counters(stats: dict) -> dict:
    pfs = stats["pfs"]
    j = stats["journal"]["shared"]["stats"]
    return {"pfs_requests": pfs["total"]["requests"],
            "pfs_seeks": pfs["total"]["seeks"],
            "pfs_bytes": pfs["total"]["bytes_moved"],
            "pfs_busy": pfs["total"]["busy_time"],
            "server_busy": [s["busy_time"] for s in pfs["per_server"]],
            "journal_bytes": j["bytes_appended"],
            "journal_syncs": j["syncs"],
            "journal_sync_requests": j["sync_requests"]}


def episode_served(run: Run, rng, sz: dict, smoke: bool, out_dir: Path,
                   tag: str) -> None:
    t_setup = perf_counter_ns()
    daemon = Daemon(out_dir, tag, run.tracer is not None)
    clients = []
    try:
        clients = [DRXClient(daemon.address, client_id=f"tenant{i}",
                             timeout=60.0, seed=i) for i in (0, 1)]
        clients[0].create("shared", (256, 512), (BAND, 64))
        sm = SharedModel(np.zeros((256, 512)))
        for b in range(256 // BAND):
            vals = rng.standard_normal((BAND, 512))
            clients[b % 2].write("shared", (b * BAND, 0), vals)
            sm.M[b * BAND:(b + 1) * BAND] = vals
        rngs = [np.random.default_rng([int(rng.integers(1 << 31)), i])
                for i in (0, 1)]
        for r in range(sz["warm"]):
            for i in (0, 1):
                tenant_round(run.untimed, clients[i], i, sm, rngs[i], r,
                             10 ** 9)
        run.setups.append(perf_counter_ns() - t_setup)

        s_before = clients[0].stats()
        # one caller drives both connections in turn: the daemon sees two
        # tenants, and no second client thread competes for the client's
        # interpreter lock while a request is timed
        t0 = perf_counter_ns()
        mark = run.round_mark()
        for r in range(sz["rounds"][smoke]):
            for i in (0, 1):
                tenant_round(run.op, clients[i], i, sm, rngs[i], r,
                             sz["extend_every"])
            mark = run.round_done(mark)
        t1 = perf_counter_ns()
        s_after = clients[0].stats()
        check_qos(s_after)
        run.timed_ns += t1 - t0
        run.add_counters(served_counters(s_after),
                         served_counters(s_before))
        journal_size = s_after["journal"]["shared"]["size"]
        with DRXClient(daemon.address, client_id="verifier",
                       timeout=60.0) as fresh:
            got = fresh.read("shared", (0, 0), sm.M.shape)
        check_final(got, sm.M, "served-rw fresh-connection read")
        run.logical += sm.M.nbytes
    finally:
        for cl in clients:
            cl.close()
        report, rss_kib = daemon.stop()
    run.daemon_rss_kib = max(run.daemon_rss_kib, rss_kib)
    run.stored += journal_size + sum(
        size for name, size in report["files"].items()
        if not name.endswith(".xj"))
    daemon_spans = read_spans(daemon.spans) \
        if run.tracer is not None else None
    run.add_spans(t0, t1, daemon_spans)


# ---------------------------------------------------------------------------
# collective-zone
# ---------------------------------------------------------------------------

def zone_update(x: np.ndarray, step: int, rank: int) -> np.ndarray:
    return x * 0.5 + float(step + rank)


def episode_collective(run: Run, rng, sz: dict, smoke: bool) -> None:
    t_setup = perf_counter_ns()
    fs = ParallelFileSystem(nservers=NSERVERS, executor=None)  # SERIAL
    n, ch = sz["bounds"], sz["chunk"]
    steps = sz["rounds"][smoke]
    # the model is allocated at its final size once (as in ooc-scan-codec)
    # and extends widen a view of it
    per_dim = (steps // sz["extend_every"] + 1) // 2   # extends alternate
    last = n + ch * per_dim
    full = np.zeros((last, last))
    holder = {"M": full[:n, :n]}
    holder["M"][...] = rng.standard_normal((n, n))
    marks: dict = {}

    def step(call, f: DRXMPFile, comm, s: int) -> None:
        # each collective starts from a barrier, so one rank's model
        # check is not timed as the other rank's wait inside the call
        order = "CF"[s % 2]
        comm.barrier()
        if comm.rank == 0 and s > 0 and call is run.op:
            marks["round"] = run.round_done(marks["round"])
        mem = call("read", f.read_zone, order=order)
        lo = mem.origin
        box = tuple(slice(o, o + k) for o, k in zip(lo, mem.array.shape))
        check_read(mem.array, holder["M"][box], order, "zone read")
        mem.array[...] = zone_update(mem.array, s, comm.rank)
        holder["M"][box] = zone_update(holder["M"][box], s, comm.rank)
        comm.barrier()
        call("write", f.write_zone, mem, nbytes=mem.array.nbytes)

    def extend(call, f: DRXMPFile, comm, dim: int) -> None:
        if comm.rank == 0:
            before = fs.total_stats().bytes_written
        comm.barrier()
        call("extend", f.extend, dim, ch)
        if comm.rank == 0:
            meta_bytes = fs.open("zone.xmd").size
            check_no_data_write(fs.total_stats().bytes_written - before
                                - meta_bytes, "collective-zone extend")
            shape = list(holder["M"].shape)
            shape[dim] += ch
            holder["M"] = full[:shape[0], :shape[1]]

    def body(comm) -> None:
        f = DRXMPFile.create(comm, fs, "zone", (n, n), (ch, ch),
                             info=HINTS)
        mem = f.read_zone()
        lo = mem.origin
        mem.array[...] = holder["M"][tuple(
            slice(o, o + k) for o, k in zip(lo, mem.array.shape))]
        f.write_zone(mem)
        for s in range(sz["warm"]):
            step(run.untimed, f, comm, s)
        comm.barrier()
        if comm.rank == 0:
            marks["setup"] = perf_counter_ns()
            marks["before"] = counters(fs)
            marks["t0"] = perf_counter_ns()
            marks["round"] = run.round_mark()
        comm.barrier()
        nx = 0
        for s in range(sz["rounds"][smoke]):
            step(run.op, f, comm, s)
            if (s + 1) % sz["extend_every"] == 0:
                extend(run.op, f, comm, nx % 2)
                nx += 1
        comm.barrier()
        if comm.rank == 0:
            run.round_done(marks["round"])
            marks["t1"] = perf_counter_ns()
        f.close()

    mpiexec(2, body, timeout=MPI_TIMEOUT)
    run.setups.append(marks["setup"] - t_setup)
    run.timed_ns += marks["t1"] - marks["t0"]
    after = counters(fs)
    after["steps"] = steps
    marks["before"]["steps"] = 0
    run.add_counters(after, marks["before"])
    run.add_spans(marks["t0"], marks["t1"])
    M = holder["M"]
    run.stored += fs_bytes(fs)
    run.logical += M.nbytes
    b = DRXFile.open_pfs(fs, "zone")
    check_final(b.read_all(), M, "collective-zone serial reopen")
    b.close()


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def tail(samples: list[int]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    ``(value_us, percentile, samples)``; the median when fewer than 40."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 0
    s = sorted(samples)
    if n < 40:
        return s[(n - 1) // 2] / 1e3, 50.0, n
    return s[n - 11] / 1e3, 100.0 * (n - 10) / n, n


def p50(samples: list[int]) -> float:
    return statistics.median(samples) / 1e3 if samples else 0.0


def peak_rss_mib(run: Run) -> float:
    if run.daemon_rss_kib:
        return run.daemon_rss_kib / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run, spawn_ns: int, first_setup_ns: int) -> dict:
    user = run.bytes_read + run.bytes_written
    c = run.counters
    r_tail, r_pct, r_n = tail(run.lat["read"])
    w_tail, w_pct, w_n = tail(run.lat["write"])
    setup = (first_setup_ns - spawn_ns) + statistics.median(run.setups)
    return {
        "setup_s": (setup / 1e9, "s"),
        "read_p50_us": (p50(run.lat["read"]), "us"),
        "write_p50_us": (p50(run.lat["write"]), "us"),
        "extend_p50_us": (p50(run.lat["extend"]), "us"),
        "throughput_mib_s": (statistics.median(run.round_mib_s), "MiB/s"),
        "sim_io_ms_per_mib": (c.get("pfs_busy", 0.0) * 1e3 / (user / MIB),
                              "ms/MiB"),
        "stored_bytes_per_user_byte": (run.stored / run.logical, "ratio"),
        "peak_rss_mib": (peak_rss_mib(run), "MiB"),
        "read_tail_us": (r_tail, "us", r_pct, r_n),
        "write_tail_us": (w_tail, "us", w_pct, w_n),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--spawn-ns", type=int, required=True,
                   help="perf_counter_ns when the parent started us")
    p.add_argument("--result", required=True)
    p.add_argument("--out-dir", required=True)
    args = p.parse_args(argv)
    first_setup = perf_counter_ns()
    if args.workload in PINNED:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    w = args.workload
    sz = SIZES[w]
    episodes = 1 if args.smoke else \
        max(1, round(sz["episodes"] * args.seconds / 10))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(CLIENT_TARGETS)
    run = Run(tracer)
    config = {"workload": w, "seed": args.seed, "episodes": episodes,
              "executor_threads": 0 if w in SERIAL
              else configured_threads(),
              "codec": CODEC[w], "nservers": NSERVERS,
              "hints": HINTS if w == "collective-zone" else None,
              "cpus": sorted(os.sched_getaffinity(0)),
              "smoke": args.smoke, "trace": bool(args.trace)}
    error = None
    try:
        for e in range(episodes):
            rng = np.random.default_rng([args.seed, e])
            if w == "local-hot-rw":
                episode_local_hot(run, rng, sz, args.smoke)
            elif w == "ooc-scan-codec":
                episode_ooc(run, rng, sz, args.smoke)
            elif w == "served-rw":
                episode_served(run, rng, sz, args.smoke, out_dir,
                               f"s{args.seed}-e{e}-t{args.trace}")
            else:
                episode_collective(run, rng, sz, args.smoke)
    except CheckFailed as exc:
        error = f"check failed: {exc}"
    except Exception as exc:                    # reported, not hidden
        import traceback
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
    result = {"config": config, "error": error,
              "attempted": dict(run.attempted), "failed": dict(run.failed),
              "timed_s": run.timed_ns / 1e9,
              "deciles_us": {k: [q / 1e3 for q in statistics.quantiles(
                  v, n=10)] for k, v in run.lat.items() if len(v) > 1}}
    if error is None:
        result["e2e"] = end_to_end(run, args.spawn_ns, first_setup)
        if tracer is not None:
            c = dict(run.counters)
            c["ops"] = sum(run.attempted.values())
            c["user_bytes"] = run.bytes_read + run.bytes_written
            c["user_bytes_written"] = run.bytes_written
            c["mutating_ops"] = run.attempted["write"] \
                + run.attempted["extend"]
            result["layers"] = layer_metrics(run.ss, run.ds, c)
            spans_path = out_dir / f"trace-{w}-s{args.seed}.json.gz"
            write_spans(spans_path, run.kept_spans,
                        {**config, "timed_windows_ns": run.windows})
            result["spans_file"] = str(spans_path)
    Path(args.result).write_text(json.dumps(result))
    return 0 if error is None else 1


if __name__ == "__main__":
    raise SystemExit(main())
