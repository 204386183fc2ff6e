package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"charisma/internal/mac"
)

// Wire envelope types: the session id pins results to the sweep that
// issued the task, so a slow worker posting into a later sweep of the same
// coordinator process is rejected instead of corrupting it. wireTask
// carries a Task's fields and wireResult a TaskResult's, flat and in the
// order json.Marshal wrote them when the two embedded those types (the
// canonical plan has no field promotion), so every body keeps its bytes.
type wireTask struct {
	Session string
	// LeaseMS is the lease TTL in milliseconds. A positive value asks the
	// worker to heartbeat (POST /heartbeat) well within every window or
	// lose the task to re-queueing; zero means the lease never expires.
	LeaseMS int64 `json:",omitempty"`
	Point   int
	Rep     int
	Lease   int64
	Spec    JobSpec
}

type wireResult struct {
	Session string
	Point   int
	Rep     int
	Lease   int64  `json:",omitempty"`
	Err     string `json:",omitempty"`
	Result  mac.Result
}

// taskResult is the result as the session completes it.
func (r wireResult) taskResult() TaskResult {
	return TaskResult{Point: r.Point, Rep: r.Rep, Lease: r.Lease, Err: r.Err, Result: r.Result}
}

// wireBeat is one heartbeat: the worker renewing its lease on a task.
type wireBeat struct {
	Session string
	Lease   int64
}

// readBody reads one request or response body whole and decodes it into
// v, which holds its zero value: canonically when the body is exactly
// json.Marshal's bytes (json.Encoder's trailing newline allowed), and
// otherwise with encoding/json's lenient decode of the first value on the
// same bytes — unknown fields and anything after the value ignored. It
// answers as a json.Decoder reading r would: a read error (a body past
// its limit) is the error only where the bytes before it end inside the
// first value.
func readBody(r io.Reader, v any) error {
	b, rerr := io.ReadAll(r)
	if rerr == nil && decodeCanonical(bytes.TrimSuffix(b, []byte("\n")), v) {
		return nil
	}
	err := json.NewDecoder(bytes.NewReader(b)).Decode(v)
	if rerr != nil && (err == io.EOF || err == io.ErrUnexpectedEOF) {
		return rerr
	}
	return err
}

// maxResultBody bounds a posted result; a mac.Result is a few hundred
// bytes of JSON.
const maxResultBody = 1 << 20

// wireBufSize is the capacity a wire body is encoded into, so that one
// allocation holds it: a corpus task body is 1.1–2.1 KB, a result body
// under 1 KB.
const wireBufSize = 4 << 10

// Server exposes sessions to remote workers over HTTP — the
// coordinator/worker protocol:
//
//	GET  /task?worker=ID → 200 {Session, LeaseMS?, Lease, Point, Rep,
//	               Spec} | 204 no work right now (poll again) |
//	               410 coordinator closed (exit)
//	POST /heartbeat ← {Session, Lease} → 204 lease renewed | 409 lease or
//	               session superseded (abandon the task)
//	POST /result ← {Session, Lease, Point, Rep, Err?, Result} → 204
//	               (accepted or discarded as stale) | 400 malformed or
//	               lease-less result | 409 stale session
//	GET  /progress → 200 Progress snapshot | 204 no session attached
//	GET  /stats  → 200 {Executed, CacheHits, Requeues, Done}
//	GET  /metrics → 200 Prometheus text exposition (see metrics.go)
//
// One server outlives its sessions: a multi-sweep run attaches each
// sweep's session in turn and workers keep polling across the gaps.
//
// With a positive LeaseTTL every dispatched task can expire: a worker
// that crashes (or loses its network) stops heartbeating, its lease
// lapses, and the session re-queues the task for the surviving workers —
// the sweep completes with byte-identical results instead of stalling.
type Server struct {
	// LeaseTTL is the deadline granted on each dispatched task and on
	// each heartbeat renewal. Zero disables expiry: a crashed worker then
	// strands its in-flight tasks until the coordinator is cancelled.
	LeaseTTL time.Duration

	// Log receives structured protocol events (session attach, task
	// claims at debug level) when non-nil; set before serving. Attach
	// also propagates it to the session's scheduler events.
	Log *slog.Logger

	mu     sync.Mutex
	sess   *Session
	sessID string
	seq    int
	closed bool

	// Protocol counters exported by /metrics (atomics: handlers run on
	// arbitrary HTTP goroutines).
	tasksServed     atomic.Uint64 // tasks dispatched via GET /task
	heartbeats      atomic.Uint64 // successful lease renewals
	beatConflicts   atomic.Uint64 // heartbeats answered 409
	resultsAccepted atomic.Uint64 // POST /result answered 204
	resultsRejected atomic.Uint64 // POST /result answered 4xx
}

// NewServer returns a server with no session attached (workers poll 204
// until one arrives) and lease expiry disabled; set LeaseTTL before
// serving to enable crash re-queueing.
func NewServer() *Server { return &Server{} }

// Attach makes s the current session new tasks are served from. Results
// for previously attached sessions are rejected as stale.
func (sv *Server) Attach(s *Session) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sv.seq++
	sv.sess = s
	sv.sessID = "s" + strconv.Itoa(sv.seq)
	if sv.Log != nil {
		s.SetLogger(sv.Log)
		sv.Log.Info("session attached", "session", sv.sessID, "serial", s.Serial())
	}
}

// Close makes /task answer 410 so polling workers drain and exit.
func (sv *Server) Close() {
	sv.mu.Lock()
	sv.closed = true
	sv.mu.Unlock()
}

func (sv *Server) current() (s *Session, id string, closed bool) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.sess, sv.sessID, sv.closed
}

// ServeHTTP implements the protocol above.
func (sv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/task":
		sess, id, closed := sv.current()
		if closed {
			w.WriteHeader(http.StatusGone)
			return
		}
		if sess == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		worker := r.URL.Query().Get("worker")
		t, ok, _ := sess.TryClaim(worker, sv.LeaseTTL)
		if !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		sv.tasksServed.Add(1)
		if sv.Log != nil {
			sv.Log.Debug("task dispatched", "session", id, "worker", worker,
				"lease", t.Lease, "point", t.Point, "rep", t.Rep)
		}
		writeJSON(w, wireTask{Session: id, LeaseMS: sv.LeaseTTL.Milliseconds(),
			Point: t.Point, Rep: t.Rep, Lease: t.Lease, Spec: t.Spec})

	case r.Method == http.MethodPost && r.URL.Path == "/heartbeat":
		var hb wireBeat
		if err := readBody(http.MaxBytesReader(w, r.Body, maxResultBody), &hb); err != nil {
			http.Error(w, "bad heartbeat: "+err.Error(), http.StatusBadRequest)
			return
		}
		sess, id, _ := sv.current()
		if sess == nil || hb.Session != id || !sess.Renew(hb.Lease, sv.LeaseTTL) {
			sv.beatConflicts.Add(1)
			http.Error(w, "lease superseded", http.StatusConflict)
			return
		}
		sv.heartbeats.Add(1)
		w.WriteHeader(http.StatusNoContent)

	case r.Method == http.MethodPost && r.URL.Path == "/result":
		var res wireResult
		if err := readBody(http.MaxBytesReader(w, r.Body, maxResultBody), &res); err != nil {
			http.Error(w, "bad result: "+err.Error(), http.StatusBadRequest)
			return
		}
		sess, id, _ := sv.current()
		if sess == nil || res.Session != id {
			sv.resultsRejected.Add(1)
			http.Error(w, "stale session", http.StatusConflict)
			return
		}
		// A result under a superseded lease is discarded inside Complete;
		// the worker is answered 204 either way — there is nothing it
		// should retry. A result Complete rejects (no lease, unknown
		// point, negative rep) is answered 400.
		if err := sess.Complete(res.taskResult()); err != nil {
			sv.resultsRejected.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sv.resultsAccepted.Add(1)
		w.WriteHeader(http.StatusNoContent)

	case r.Method == http.MethodGet && r.URL.Path == "/progress":
		sess, _, _ := sv.current()
		if sess == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, sess.Progress())

	case r.Method == http.MethodGet && r.URL.Path == "/stats":
		sess, _, _ := sv.current()
		st := struct {
			Executed  int
			CacheHits int
			Requeues  int
			Done      bool
		}{}
		if sess != nil {
			p := sess.counters()
			st.Executed, st.CacheHits, st.Requeues, st.Done = p.Executed, p.CacheHits, p.Requeues, p.Done
		}
		writeJSON(w, st)

	case r.Method == http.MethodGet && r.URL.Path == "/metrics":
		sv.serveMetrics(w)

	default:
		http.NotFound(w, r)
	}
}

// ListenAndServe serves the coordinator on addr until the context is
// cancelled. The underlying http.Server is hardened against misbehaving
// and malicious clients: header/read/write deadlines bound every
// connection (a slow-loris client dribbling bytes is cut off instead of
// pinning a handler goroutine), idle keep-alives expire, and request
// bodies are capped (see maxResultBody) — the coordinator keeps serving
// honest workers no matter what else connects to the port.
func (sv *Server) ListenAndServe(ctx context.Context, addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           sv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    16 << 10,
	}
	stop := context.AfterFunc(ctx, func() { srv.Close() })
	defer stop()
	err := srv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		return ctx.Err()
	}
	return err
}

// writeJSON writes v as json.Encoder would: json.Marshal's bytes and a
// newline, or nothing when v cannot be encoded. A failed write means the
// client went away; there is no one left to tell.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if b, err := appendJSON(make([]byte, 0, wireBufSize), v); err == nil {
		w.Write(append(b, '\n'))
	}
}
