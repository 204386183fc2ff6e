package main

import (
	"math"
	"runtime"
	"runtime/metrics"

	"charisma/internal/core"
)

// def names one reported metric and its unit. BENCHMARK.json lists the same
// names and units; the smoke test holds the two in step.
type def struct{ name, unit string }

// e2eDefs are the end-to-end metrics, measured with tracing off.
var e2eDefs = []def{
	{"wall_s", "s"},        // median wall time of one pass
	{"reps_per_s", "1/s"},  // replication results delivered per second
	{"sim_s_per_s", "s/s"}, // simulated cell-seconds delivered per second
	{"setup_s", "s"},       // median set-up time
	{"peak_rss_mb", "MB"},  // process peak resident set
}

// protoKeys maps each protocol to its metric-name suffix, in the paper's order.
var protoKeys = []string{"charisma", "dtdma-vr", "dtdma-fr", "drma", "rama", "rmav"}

func protoKey(name string) string {
	switch name {
	case core.ProtoDTDMAVR:
		return "dtdma-vr"
	case core.ProtoDTDMAFR:
		return "dtdma-fr"
	}
	return name
}

// protoLayer is the scheduler package a protocol's RunFrame lives in.
func protoLayer(key string) string {
	switch key {
	case "dtdma-vr", "dtdma-fr":
		return "mac-dtdma"
	}
	return "mac-" + key
}

// profGroups are the CPU-profile groups; their shares sum to 1.
var profGroups = []string{
	"channel", "phy", "traffic", "rng", "sim", "mac", "mac-charisma", "mac-dtdma", "mac-drma", "mac-rama",
	"mac-rmav", "multicell", "core", "grid", "experiments", "scengen", "stats", "mathx", "charisma-other", "bench",
	"encoding-json", "crypto-sha256", "net-http", "syscall", "runtime-gc", "runtime-other",
}

// perLayerDefs are the metrics of the traced run. A metric of a layer a
// workload does not reach reads 0 on that workload.
func perLayerDefs() []def {
	d := []def{
		{"mac.begin_frame_ns", "ns"}, {"mac.end_frame_ns", "ns"}, {"sim.engine_self_ns", "ns"},
	}
	for _, p := range protoKeys {
		d = append(d, def{"mac.run_frame_ns." + p, "ns"})
	}
	for _, p := range protoKeys {
		d = append(d, def{"core.rep_ms." + p, "ms"})
	}
	d = append(d,
		def{"core.build_us", "us"},
		def{"mac.frames", "count"}, def{"sim.engine_events", "count"},
		def{"mac.wheel_arms", "count"}, def{"mac.wheel_wakes", "count"}, def{"mac.wheel_cascades", "count"},
		def{"mac.epoch_bumps", "count"}, def{"mac.cand_lookups", "count"}, def{"mac.cand_hit_ratio", "ratio"},

		def{"grid.session_new_ms", "ms"}, def{"grid.complete_us.p50", "us"}, def{"grid.session_results_ms", "ms"},
		def{"grid.dispatch_wait_s", "s"}, def{"grid.worker_idle_frac", "ratio"}, def{"grid.tail_s", "s"},

		def{"grid.scenario_load_ms", "ms"}, def{"grid.spec_hash_us.p50", "us"}, def{"grid.repkey_us.p50", "us"},
		def{"grid.cache_get_us.p50", "us"}, def{"grid.cache_get_us.p99", "us"}, def{"grid.cache_hit_ratio", "ratio"},
		def{"grid.disk_get_us.p50", "us"}, def{"grid.disk_get_us.p99", "us"},
		def{"grid.disk_put_us.p50", "us"}, def{"grid.mem_put_us.p50", "us"},

		def{"grid.http.task_rtt_us.p50", "us"}, def{"grid.http.task_rtt_us.p99", "us"},
		def{"grid.http.result_rtt_us.p50", "us"}, def{"grid.http.result_rtt_us.p99", "us"},
		def{"grid.http.empty_polls", "count"}, def{"grid.http.claim_hit_ratio", "ratio"},
		def{"grid.server.task_us.p50", "us"}, def{"grid.server.result_us.p50", "us"},
		def{"grid.http.bytes_per_task", "B/task"},
		def{"grid.worker.exec_ms.p50", "ms"}, def{"grid.worker.exec_ms.p99", "ms"},

		def{"runtime.alloc_mb", "MB"}, def{"runtime.allocs_per_rep", "allocs/rep"},
		def{"runtime.gc_cycles", "count"}, def{"runtime.gc_cpu_frac", "ratio"},
	)
	for _, g := range profGroups {
		d = append(d, def{"prof.share." + g, "ratio"})
	}
	return append(d, def{"trace_overhead", "ratio"}, def{"acct.unattributed_frac", "ratio"})
}

// finish attaches units to values, reporting every defined metric (0 where
// a workload produced none) and nothing else.
func finish(values map[string]float64, defs []def) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metric{v, d.unit}
	}
	return out
}

// runtimeStats sums the Go runtime's counters over the inside of passes, so
// the collection forced between passes is not counted.
type runtimeStats struct {
	ms                     runtime.MemStats
	alloc0, mallocs0, gcs0 uint64
	gcCPU0, cpu0           float64
	alloc, mallocs, gcs    uint64
	gcCPU, cpu             float64 // GC and all CPU seconds
	passes, reps           int
}

// cpuSeconds reads the runtime's GC and total CPU-time estimates.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func (r *runtimeStats) begin() {
	runtime.ReadMemStats(&r.ms)
	r.alloc0, r.mallocs0, r.gcs0 = r.ms.TotalAlloc, r.ms.Mallocs, uint64(r.ms.NumGC)
	r.gcCPU0, r.cpu0 = cpuSeconds()
}

func (r *runtimeStats) end(reps int) {
	runtime.ReadMemStats(&r.ms)
	gcCPU, cpu := cpuSeconds()
	r.alloc += r.ms.TotalAlloc - r.alloc0
	r.mallocs += r.ms.Mallocs - r.mallocs0
	r.gcs += uint64(r.ms.NumGC) - r.gcs0
	r.gcCPU += gcCPU - r.gcCPU0
	r.cpu += cpu - r.cpu0
	r.passes++
	r.reps += reps
}

func (r *runtimeStats) values() map[string]float64 {
	passes := float64(max(1, r.passes))
	v := map[string]float64{
		"runtime.alloc_mb":       float64(r.alloc) / (1 << 20) / passes,
		"runtime.allocs_per_rep": float64(r.mallocs) / float64(max(1, r.reps)),
		"runtime.gc_cycles":      float64(r.gcs) / passes,
	}
	if r.cpu > 0 {
		v["runtime.gc_cpu_frac"] = r.gcCPU / r.cpu
	}
	return v
}
