package grid

import (
	"fmt"
	"net/http"
	"strings"
)

// serveMetrics renders the coordinator's state in Prometheus text
// exposition format (hand-rolled: the repo takes no dependencies). The
// page combines three sources:
//
//   - the server's own protocol counters (tasks served, heartbeats,
//     results accepted/rejected),
//   - the attached session's scheduler state (executed, cache hits,
//     crash re-queues, live leases) via one Progress snapshot,
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
		p := sess.Progress()
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
		if h := sess.RepDurations(); h != nil {
			const hn = "charisma_grid_rep_duration_seconds"
			fmt.Fprintf(&b, "# HELP %s Worker claim-to-completion time per replication.\n# TYPE %s histogram\n", hn, hn)
			h.WritePrometheus(&b, hn)
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
