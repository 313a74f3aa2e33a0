package main

import (
	"runtime"
	"syscall"
	"time"

	"adcache"
	"adcache/client"
	"adcache/internal/metrics"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects metrics by name, and the sample count behind each
// timing, in the order they were added.
type metricSet struct {
	names   []string
	values  map[string]metric
	samples map[string]int64
}

func newMetricSet() *metricSet {
	return &metricSet{values: map[string]metric{}, samples: map[string]int64{}}
}

func (m *metricSet) add(name string, v float64, unit string) {
	m.names = append(m.names, name)
	m.values[name] = metric{Value: v, Unit: unit}
}

// timing adds a metric computed from n timed samples.
func (m *metricSet) timing(name string, v float64, unit string, n int64) {
	m.add(name, v, unit)
	m.samples[name] = n
}

// The engine's own latency histograms, read from DB.Registry() by name.
var lsmHists = []string{
	"lsm_get_nanos", "lsm_scan_nanos", "lsm_commit_nanos", "lsm_commit_wait_nanos",
	"lsm_stall_nanos", "lsm_flush_nanos", "lsm_compact_nanos", "lsm_write_group_ops",
}

// layerSnap is everything the benchmark reads from outside the program at
// one instant; per-layer metrics are differences of two of them.
type layerSnap struct {
	db      adcache.MetricsSnapshot
	hists   map[string]metrics.HistogramSnapshot
	io      [nFileKinds]ioSnapshot
	walSync histSnapshot
	rtNanos int64
	handler [nRoutes]histSnapshot
	non2xx  int64
	clients [workers]client.Stats
	mem     runtime.MemStats
	cpu     time.Duration
}

func snapLayers(st *stack, tr *tracer) *layerSnap {
	s := &layerSnap{db: st.db.Metrics(), hists: map[string]metrics.HistogramSnapshot{}}
	reg := st.db.Registry()
	for _, name := range lsmHists {
		s.hists[name] = reg.Histogram(name, "").Snapshot()
	}
	for k := range s.io {
		s.io[k] = st.fs.stats[k].snapshot()
	}
	s.walSync = tr.walSync.snapshot()
	if st.hooks != nil {
		s.rtNanos = st.hooks.rtNanos.Load()
		s.non2xx = st.hooks.non2xx.Load()
		for r := range s.handler {
			s.handler[r] = st.hooks.handler[r].snapshot()
		}
		for i, c := range st.clients {
			s.clients[i] = c.Stats()
		}
	}
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const (
	usPerNs = 1e-3
	sPerNs  = 1e-9
	mb      = 1 << 20
)

// layerInputs is the traced window as the run measured it.
type layerInputs struct {
	def                workloadDef
	a, b               *layerSnap // at the window's start and end
	d                  *driver
	window             time.Duration
	baseOps, tracedOps float64 // operations per second, untraced and traced window
	wire               wireCosts
	spaceAmp           float64
	dropped            int64
	memMean, memPeak   float64 // MB, sampled from warm-up to the end of the traced window
}

// layerMetrics turns the traced window — two snapshots, the workers' traced
// recorders and the untraced window's rate — into every per-layer metric. A
// layer that does no work on this workload reports zeros: the contract wants
// every name on every workload, and a zero is what that layer did.
func layerMetrics(in layerInputs) *metricSet {
	def, a, b, d, window, wire := in.def, in.a, in.b, in.d, in.window, in.wire
	m := newMetricSet()

	// The caller boundary: adcache.DB on embedded workloads, client on served.
	var lat [nOps]histSnapshot
	var perWorker [workers]histSnapshot
	for i, w := range d.workers {
		for k := range lat {
			h := w.rec[phaseTraced].lat[k].snapshot()
			lat[k].merge(h)
			perWorker[i].merge(h)
		}
	}
	var callerNanos, ops int64
	for k := range lat {
		callerNanos += lat[k].sum
		ops += lat[k].count
		m.timing("caller."+opNames[k]+"_mean_us", ratio(float64(lat[k].sum), float64(lat[k].count))*usPerNs, "us", lat[k].count)
	}
	fops := float64(ops)
	wall := float64(workers) * float64(window)
	m.add("caller.busy_share", ratio(float64(callerNanos), wall), "ratio")

	boundary := func(layer string, active bool, kinds ...opKind) {
		for _, k := range kinds {
			h := lat[k]
			if !active {
				h = histSnapshot{}
			}
			m.timing(layer+"."+opNames[k]+"_p50_us", h.quantile(0.50)*usPerNs, "us", h.count)
			m.timing(layer+"."+opNames[k]+"_p99_us", h.quantile(0.99)*usPerNs, "us", h.count)
		}
	}
	boundary("client", def.served, opGet, opPut, opScan, opBatch)
	for i, codec := range []string{"bin", "json"} {
		h := perWorker[i]
		if !def.served {
			h = histSnapshot{}
		}
		m.add("client."+codec+".ops_per_s", float64(h.count)/window.Seconds(), "1/s")
		m.timing("client."+codec+".op_mean_us", ratio(float64(h.sum), float64(h.count))*usPerNs, "us", h.count)
	}
	rt := float64(b.rtNanos - a.rtNanos)
	var handlerNanos float64
	var handler [nRoutes]histSnapshot
	var requests int64
	for r := range handler {
		handler[r] = b.handler[r].sub(a.handler[r])
		handlerNanos += float64(handler[r].sum)
		requests += handler[r].count
	}
	var self, transport float64 // nanoseconds over the window; zero when nothing is served
	if def.served {
		self, transport = float64(callerNanos)-rt, rt-handlerNanos
	}
	m.add("client.self_us_per_op", ratio(self, fops)*usPerNs, "us")
	m.add("client.transport_us_per_op", ratio(transport, fops)*usPerNs, "us")
	// self + transport + handler is the caller's time by construction,
	// unless a RoundTrip or handler span went missing.
	m.add("client.accounted_share", ratio(max(self, 0)+max(transport, 0)+handlerNanos, float64(callerNanos)), "ratio")
	var cs client.Stats
	for i := range b.clients {
		cs.RetryableErrors += b.clients[i].RetryableErrors - a.clients[i].RetryableErrors
		cs.TerminalErrors += b.clients[i].TerminalErrors - a.clients[i].TerminalErrors
		cs.WrongShardRetries += b.clients[i].WrongShardRetries - a.clients[i].WrongShardRetries
		cs.HedgedReads += b.clients[i].HedgedReads - a.clients[i].HedgedReads
	}
	m.add("client.retryable_errors", float64(cs.RetryableErrors), "count")
	m.add("client.terminal_errors", float64(cs.TerminalErrors), "count")
	m.add("client.wrong_shard_retries", float64(cs.WrongShardRetries), "count")
	m.add("client.hedged_reads", float64(cs.HedgedReads), "count")

	m.add("wire.encode_ns_per_entry", wire.bin.encodeNs, "ns")
	m.add("wire.decode_ns_per_entry", wire.bin.decodeNs, "ns")
	m.add("wire.bytes_per_entry", wire.bin.bytes, "B")
	m.add("wire.json.encode_ns_per_entry", wire.json.encodeNs, "ns")
	m.add("wire.json.decode_ns_per_entry", wire.json.decodeNs, "ns")
	m.add("wire.json.bytes_per_entry", wire.json.bytes, "B")

	for r, name := range routeNames[:routeOther] {
		m.add("server."+name+"_busy_s", float64(handler[r].sum)*sPerNs, "s")
		m.timing("server."+name+"_p50_us", handler[r].quantile(0.50)*usPerNs, "us", handler[r].count)
	}
	m.add("server.requests", float64(requests), "count")
	m.add("server.non2xx", float64(b.non2xx-a.non2xx), "count")

	// The engine's histograms over the same window.
	hsum := func(name string) float64 { return float64(b.hists[name].Sum - a.hists[name].Sum) }
	hcount := func(name string) float64 { return float64(b.hists[name].Count - a.hists[name].Count) }
	engineNanos := hsum("lsm_get_nanos") + hsum("lsm_scan_nanos") + hsum("lsm_commit_nanos")
	if !def.served {
		engineNanos = 0
	}
	m.add("server.self_us_per_op", ratio(handlerNanos-engineNanos, float64(requests))*usPerNs, "us")

	boundary("adcache", !def.served, opGet, opScan, opPut)
	for _, k := range []opKind{opGet, opScan, opPut} {
		busy := float64(lat[k].sum) * sPerNs
		if def.served {
			busy = 0
		}
		m.add("adcache."+opNames[k]+"_busy_s", busy, "s")
	}

	m.add("lsm.get_busy_s", hsum("lsm_get_nanos")*sPerNs, "s")
	m.add("lsm.scan_busy_s", hsum("lsm_scan_nanos")*sPerNs, "s")
	m.add("lsm.commit_busy_s", hsum("lsm_commit_nanos")*sPerNs, "s")
	m.add("lsm.commit_wait_s", hsum("lsm_commit_wait_nanos")*sPerNs, "s")
	m.add("lsm.stall_s", hsum("lsm_stall_nanos")*sPerNs, "s")
	m.add("lsm.compact_busy_s", hsum("lsm_compact_nanos")*sPerNs, "s")
	m.add("lsm.flush_busy_s", hsum("lsm_flush_nanos")*sPerNs, "s")
	ea, eb := a.db.Engine, b.db.Engine
	m.add("lsm.stall_slowdowns", float64(eb.StallSlowdowns-ea.StallSlowdowns), "count")
	m.add("lsm.stall_stops", float64(eb.StallStops-ea.StallStops), "count")
	m.add("lsm.flushes", float64(eb.Flushes-ea.Flushes), "count")
	m.add("lsm.compactions", float64(eb.Compactions-ea.Compactions), "count")
	m.add("lsm.subcompactions", float64(eb.Subcompactions-ea.Subcompactions), "count")
	m.add("lsm.write_group_ops_mean", ratio(hsum("lsm_write_group_ops"), hcount("lsm_write_group_ops")), "ops")
	flushed := float64(eb.FlushedBytes - ea.FlushedBytes)
	compOut := float64(eb.CompactionOutBytes - ea.CompactionOutBytes)
	user := float64(eb.UserBytes - ea.UserBytes)
	m.add("lsm.flushed_bytes", flushed, "B")
	m.add("lsm.compaction_in_bytes", float64(eb.CompactedBytes-ea.CompactedBytes), "B")
	m.add("lsm.compaction_out_bytes", compOut, "B")
	m.add("lsm.user_bytes", user, "B")
	m.add("lsm.write_amp", ratio(flushed+compOut, user), "x")
	m.add("lsm.space_amp", in.spaceAmp, "x")
	m.add("lsm.sst_reads_per_op", ratio(float64(b.db.SSTReads-a.db.SSTReads), fops), "reads")
	m.add("lsm.sorted_runs_end", float64(eb.SortedRuns), "count")
	m.add("lsm.l0_files_end", float64(eb.L0Files), "count")
	m.add("lsm.bg_retries", float64(eb.BgRetries-ea.BgRetries), "count")

	ca, cb := a.db.Cache, b.db.Cache
	hitRatio := func(hits, misses int64) float64 { return ratio(float64(hits), float64(hits+misses)) }
	m.add("blockcache.hit_ratio", hitRatio(cb.BlockHits-ca.BlockHits, cb.BlockMisses-ca.BlockMisses), "ratio")
	m.add("blockcache.evictions", float64(cb.BlockEvictions-ca.BlockEvictions), "count")
	m.add("blockcache.used_mb_end", float64(cb.BlockUsed)/mb, "MB")
	m.add("rangecache.get_hit_ratio", hitRatio(cb.RangeGetHits-ca.RangeGetHits, cb.RangeGetMisses-ca.RangeGetMisses), "ratio")
	m.add("rangecache.scan_hit_ratio", hitRatio(cb.RangeScanHits-ca.RangeScanHits, cb.RangeScanMisses-ca.RangeScanMisses), "ratio")
	m.add("rangecache.partials", float64(cb.RangePartials-ca.RangePartials), "count")
	m.add("rangecache.evictions", float64(cb.RangeEvictions-ca.RangeEvictions), "count")
	m.add("rangecache.used_mb_end", float64(cb.RangeUsed)/mb, "MB")

	ad := b.db.AdCache // every workload opens StrategyAdCache
	m.add("core.windows", float64(ad.Windows-a.db.AdCache.Windows), "count")
	m.add("core.range_ratio_end", ad.Params.RangeRatio, "ratio")
	m.add("core.point_threshold_end", ad.Params.PointThreshold, "score")
	m.add("core.scan_a_end", float64(ad.Params.ScanA), "keys")
	m.add("core.scan_b_end", ad.Params.ScanB, "ratio")
	m.add("core.reward_end", ad.Tuning.Reward, "reward")

	sst, wal := b.io[kindSST].sub(a.io[kindSST]), b.io[kindWAL].sub(a.io[kindWAL])
	walSync := b.walSync.sub(a.walSync)
	m.add("vfs.sst_read_ops", float64(sst[ioReadOps]), "count")
	m.add("vfs.sst_read_mb", float64(sst[ioReadBytes])/mb, "MB")
	m.add("vfs.sst_read_busy_s", float64(sst[ioReadNanos])*sPerNs, "s")
	m.add("vfs.sim_read_wait_s", float64(sst[ioSimNanos])*sPerNs, "s")
	m.add("vfs.wal_write_ops", float64(wal[ioWriteOps]), "count")
	m.add("vfs.wal_write_mb", float64(wal[ioWriteBytes])/mb, "MB")
	m.add("vfs.wal_sync_ops", float64(wal[ioSyncOps]), "count")
	m.add("vfs.wal_sync_busy_s", float64(wal[ioSyncNanos])*sPerNs, "s")
	m.timing("vfs.wal_sync_p50_us", walSync.quantile(0.50)*usPerNs, "us", walSync.count)
	m.add("vfs.sst_write_ops", float64(sst[ioWriteOps]), "count")
	m.add("vfs.sst_write_mb", float64(sst[ioWriteBytes])/mb, "MB")
	m.add("vfs.sst_write_busy_s", float64(sst[ioWriteNanos])*sPerNs, "s")

	m.add("proc.cpu_us_per_op", ratio(float64(b.cpu-a.cpu), fops)*usPerNs, "us")
	m.add("proc.allocs_per_op", ratio(float64(b.mem.Mallocs-a.mem.Mallocs), fops), "count")
	m.add("proc.alloc_bytes_per_op", ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), fops), "B")
	m.add("proc.gc_pause_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6, "ms")
	m.add("proc.mem_mean_mb", in.memMean, "MB")
	m.add("proc.mem_peak_mb", in.memPeak, "MB")

	m.add("trace.overhead_share", 1-ratio(in.tracedOps, in.baseOps), "ratio")
	m.add("trace.spans_dropped", float64(in.dropped), "count")
	return m
}
