package grid

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
)

// serveMetrics renders the coordinator's state in Prometheus text
// exposition format (hand-rolled: the repo takes no dependencies). The
// page combines three sources:
//
//   - the server's own protocol counters (tasks served, heartbeats,
//     results accepted/rejected),
//   - the attached session's scheduler state (executed, cache hits,
//     crash re-queues, live leases) via one locked read of its counters,
//   - the session's cache-stack traffic and the claim-to-completion
//     duration histogram.
//
// With no session attached only the protocol counters appear; series
// are cumulative across sessions of one coordinator process except the
// session-scoped ones, which carry a `session` label.
func (sv *Server) serveMetrics(w http.ResponseWriter) {
	var b strings.Builder

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("charisma_grid_tasks_served_total",
		"Tasks dispatched to workers via GET /task.", sv.tasksServed.Load())
	counter("charisma_grid_heartbeats_total",
		"Successful lease renewals via POST /heartbeat.", sv.heartbeats.Load())
	counter("charisma_grid_heartbeat_conflicts_total",
		"Heartbeats rejected 409 (lease or session superseded).", sv.beatConflicts.Load())
	counter("charisma_grid_results_accepted_total",
		"Results accepted via POST /result.", sv.resultsAccepted.Load())
	counter("charisma_grid_results_rejected_total",
		"Results rejected as stale or malformed.", sv.resultsRejected.Load())

	sess, id, _ := sv.current()
	if sess != nil {
		lbl := fmt.Sprintf("{session=%q}", id)
		scoped := func(name, typ, help string, v interface{}) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s%s %v\n",
				name, help, name, typ, name, lbl, v)
		}
		p := sess.counters()
		scoped("charisma_grid_executed_total", "counter",
			"Replications simulated by workers (cache misses executed).", p.Executed)
		scoped("charisma_grid_cache_hits_total", "counter",
			"Replications satisfied from the result cache.", p.CacheHits)
		scoped("charisma_grid_requeues_total", "counter",
			"Tasks re-queued after a worker lease expired.", p.Requeues)
		scoped("charisma_grid_leases", "gauge",
			"Tasks currently out under a live lease.", p.Leases)
		done := 0
		if p.Done {
			done = 1
		}
		scoped("charisma_grid_done", "gauge",
			"1 when the attached session has settled every point.", done)
		scoped("charisma_grid_audits_passed_total", "counter",
			"Remote results re-executed locally and verified byte-identical.", p.AuditsPassed)
		scoped("charisma_grid_audits_failed_total", "counter",
			"Remote results that diverged from local re-execution.", p.AuditsFailed)
		scoped("charisma_grid_workers_quarantined_total", "counter",
			"Workers quarantined after a divergent (byzantine) result.", p.Quarantined)

		if cs, ok := sess.CacheStats(); ok {
			counter("charisma_grid_cache_mem_hits_total",
				"Result-cache hits served from the in-memory tier.", cs.MemHits)
			counter("charisma_grid_cache_mem_misses_total",
				"Result-cache misses in the in-memory tier.", cs.MemMisses)
			counter("charisma_grid_cache_disk_hits_total",
				"Result-cache hits served from the on-disk tier.", cs.DiskHits)
			counter("charisma_grid_cache_disk_misses_total",
				"Result-cache misses falling through the on-disk tier.", cs.DiskMisses)
			counter("charisma_grid_cache_disk_corrupt_total",
				"On-disk cache entries that failed their checksum or layout check and were quarantined.", cs.DiskCorrupt)
			counter("charisma_grid_cache_disk_put_errors_total",
				"Failed on-disk cache writes (disk tier degrades after repeats).", cs.DiskPutErrors)
		}
		const hn = "charisma_grid_rep_duration_seconds"
		fmt.Fprintf(&b, "# HELP %s Worker claim-to-completion time per replication.\n# TYPE %s histogram\n", hn, hn)
		sess.repDur.writePrometheus(&b, hn)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// repDurBuckets are the upper bounds, in seconds, of the claim-to-completion
// histogram's buckets; a +Inf bucket follows them. Replications span ~10 ms
// loopback microsweeps to minutes-long million-station points.
var repDurBuckets = [...]float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}

// repDurHist is the claim-to-completion histogram (seconds from a task's
// claim to its accepted completion) in the Prometheus cumulative-bucket
// model. Completions observe it and /metrics handlers read it from any
// goroutine, so every field is atomic. The zero value is ready to use.
type repDurHist struct {
	counts  [len(repDurBuckets) + 1]atomic.Uint64 // per bucket, not cumulative; the last is +Inf
	sumBits atomic.Uint64                         // float64 bits of the running sum
}

// observe records one duration.
func (h *repDurHist) observe(v float64) {
	i := 0
	for i < len(repDurBuckets) && v > repDurBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// writePrometheus appends the histogram's samples under name; the caller
// writes the # HELP and # TYPE lines. The count is the +Inf bucket's.
func (h *repDurHist) writePrometheus(b *strings.Builder, name string) {
	cum := uint64(0)
	for i, bound := range repDurBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=\"%g\"} %d\n", name, bound, cum)
	}
	cum += h.counts[len(repDurBuckets)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %g\n", name, math.Float64frombits(h.sumBits.Load()))
	fmt.Fprintf(b, "%s_count %d\n", name, cum)
}
