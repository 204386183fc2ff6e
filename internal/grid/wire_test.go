package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"charisma/internal/mac"
)

// embeddedTask and embeddedResult are the wire types as they were when
// they embedded Task and TaskResult; json.Marshal's bytes of them are the
// bodies every coordinator and worker built before the fields went flat.
type embeddedTask struct {
	Session string
	LeaseMS int64 `json:",omitempty"`
	Task
}

type embeddedResult struct {
	Session string
	TaskResult
}

// TestWireBodiesMatchEmbeddedEncoding: the flat wire types encode to the
// bytes json.Marshal wrote for the embedded ones, on a pinned body and on
// random values, and so do the bodies the server and the worker actually
// send: the task body (json.Encoder's newline included) and a result.
func TestWireBodiesMatchEmbeddedEncoding(t *testing.T) {
	const pinned = `{"Session":"s3","LeaseMS":1500,"Point":2,"Rep":5,"Lease":9,"Spec":{"Kind":"multicell"}}`
	got, err := appendJSON(nil, wireTask{Session: "s3", LeaseMS: 1500, Point: 2, Rep: 5, Lease: 9, Spec: JobSpec{Kind: KindMulticell}})
	if err != nil || string(got) != pinned {
		t.Fatalf("task body %s (%v), want %s", got, err, pinned)
	}
	r := rand.New(rand.NewPCG(26, 1))
	for i := 0; i < 500; i++ {
		var et embeddedTask
		fillRandom(r, reflect.ValueOf(&et).Elem(), canonLeaves)
		wt := wireTask{Session: et.Session, LeaseMS: et.LeaseMS, Point: et.Point, Rep: et.Rep, Lease: et.Lease, Spec: et.Spec}
		var er embeddedResult
		fillRandom(r, reflect.ValueOf(&er).Elem(), canonLeaves)
		wr := wireResult{Session: er.Session, Point: er.Point, Rep: er.Rep, Lease: er.Lease, Err: er.Err, Result: er.Result}
		for _, c := range [][2]any{{wt, et}, {wr, er}} {
			want, _ := json.Marshal(c[1])
			if got, _ := appendJSON(nil, c[0]); !bytes.Equal(got, want) {
				t.Fatalf("%T body\n%s\nembedded body\n%s", c[0], got, want)
			}
		}
		if wr.taskResult() != er.TaskResult {
			t.Fatalf("taskResult %+v, want %+v", wr.taskResult(), er.TaskResult)
		}
	}

	sess, err := NewSession(sweepPoints(1), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer()
	sv.LeaseTTL = 90 * time.Second
	sv.Attach(sess)
	rec := httptest.NewRecorder()
	sv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/task?worker=w", nil))
	var et embeddedTask
	if err := json.Unmarshal(rec.Body.Bytes(), &et); err != nil || et.Lease == 0 {
		t.Fatalf("task body %s: %v", rec.Body.Bytes(), err)
	}
	var encoded bytes.Buffer
	json.NewEncoder(&encoded).Encode(et)
	if !bytes.Equal(rec.Body.Bytes(), encoded.Bytes()) {
		t.Fatalf("server wrote\n%q\nembedded task encodes as\n%q", rec.Body.Bytes(), encoded.Bytes())
	}

	res, err := et.Spec.RunRep(et.Rep)
	if err != nil {
		t.Fatal(err)
	}
	er := embeddedResult{Session: et.Session, TaskResult: TaskResult{Point: et.Point, Rep: et.Rep, Lease: et.Lease, Result: res}}
	posted := make(chan []byte, 1)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		posted <- b
		w.WriteHeader(http.StatusNoContent)
	}))
	defer hs.Close()
	wr := wireResult{Session: er.Session, Point: er.Point, Rep: er.Rep, Lease: er.Lease, Result: res}
	if err := postResult(context.Background(), hs.Client(), hs.URL, wr); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(er)
	if got := <-posted; !bytes.Equal(got, want) {
		t.Fatalf("worker posted\n%s\nembedded result encodes as\n%s", got, want)
	}
}

// TestServerWireBodies pins what /result and /heartbeat answer for each
// kind of body: malformed JSON and a body whose value does not end within
// maxResultBody are 400, a stale session is 409, and the decode is
// lenient — an unknown field, trailing data after the value, and a value
// that ends before the limit however long the body, are all accepted.
// The bodies are raw bytes, so the cases pin the wire, not a Go type.
func TestServerWireBodies(t *testing.T) {
	sess, err := NewSession(sweepPoints(1), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer()
	sv.Attach(sess)
	hs := httptest.NewServer(sv)
	defer hs.Close()
	_, id, _ := sv.current()

	// Claim every task, so each accepted result below completes a real
	// lease, and the heartbeats renew one no result completes.
	var tasks []Task
	for {
		tk, ok, _ := sess.TryClaim("w", 0)
		if !ok {
			break
		}
		tasks = append(tasks, tk)
	}
	if len(tasks) < 3 {
		t.Fatalf("claimed %d tasks, want at least 3", len(tasks))
	}
	result := func(tk Task, extra string) string {
		return fmt.Sprintf(`{"Session":%q,"Point":%d,"Rep":%d,"Lease":%d%s,"Result":{"Protocol":"charisma"}}`,
			id, tk.Point, tk.Rep, tk.Lease, extra)
	}
	beat := fmt.Sprintf(`{"Session":%q,"Lease":%d}`, id, tasks[2].Lease)
	tooLong := `{"Session":"` + strings.Repeat("x", maxResultBody) + `"}`
	padded := strings.Repeat(" ", maxResultBody)

	for _, c := range []struct {
		name, path, body string
		want             int
	}{
		{"result malformed", "/result", `{"Session":`, http.StatusBadRequest},
		{"result not an object", "/result", `[1,2]`, http.StatusBadRequest},
		{"result value past the limit", "/result", tooLong, http.StatusBadRequest},
		{"result stale session", "/result", strings.Replace(result(tasks[0], ""), id, "s0", 1), http.StatusConflict},
		{"result unknown field", "/result", result(tasks[0], `,"Bogus":[true]`), http.StatusNoContent},
		{"result trailing data", "/result", result(tasks[1], "") + ` {"Session":"s0"} junk`, http.StatusNoContent},
		{"heartbeat malformed", "/heartbeat", `{"Lease":}`, http.StatusBadRequest},
		{"heartbeat value past the limit", "/heartbeat", tooLong, http.StatusBadRequest},
		{"heartbeat stale session", "/heartbeat", strings.Replace(beat, id, "s0", 1), http.StatusConflict},
		{"heartbeat", "/heartbeat", beat, http.StatusNoContent},
		{"heartbeat unknown field and trailing data", "/heartbeat", beat[:len(beat)-1] + `,"bogus":1}{`, http.StatusNoContent},
		{"heartbeat ending before the limit", "/heartbeat", beat + padded, http.StatusNoContent},
		{"heartbeat with a newline", "/heartbeat", beat + "\n", http.StatusNoContent},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(hs.URL+c.path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Fatalf("answered %d (%s), want %d", resp.StatusCode, strings.TrimSpace(string(msg)), c.want)
			}
		})
	}
	if n := sv.resultsAccepted.Load(); n != 2 {
		t.Fatalf("%d results accepted, want 2", n)
	}
	if n := sv.resultsRejected.Load(); n != 1 {
		t.Fatalf("%d results rejected, want 1 (the stale session)", n)
	}
}

// TestWorkerTaskBodies pins what the worker makes of a /task body: a
// garbled or cut-off body is a bad task payload, and the decode is lenient
// about unknown fields and trailing data.
func TestWorkerTaskBodies(t *testing.T) {
	const task = `{"Session":"s1","LeaseMS":30000,"Point":2,"Rep":5,"Lease":9,"Spec":{"Kind":"scenario","Scenario":{"Protocol":"rama","NumVoice":3}}}`
	for _, c := range []struct {
		name, body string
		ok         bool
	}{
		{"written task", task + "\n", true},
		{"no newline", task, true},
		{"unknown field and trailing data", strings.Replace(task, `"Rep":5`, `"Rep":5,"Bogus":{}`, 1) + "\n{]", true},
		{"garbled", `{"Session":"s1","Point":`, false},
		{"wrong type", strings.Replace(task, `"Rep":5`, `"Rep":"5"`, 1), false},
		{"value past the limit", `{"Session":"` + strings.Repeat("x", maxResultBody) + `"}`, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.WriteString(w, c.body)
			}))
			defer hs.Close()
			wt, status, err := Worker{ID: "w"}.fetchTask(context.Background(), hs.Client(), hs.URL)
			if status != http.StatusOK {
				t.Fatalf("status %d, want 200", status)
			}
			if !c.ok {
				if err == nil || !strings.Contains(err.Error(), "bad task payload") {
					t.Fatalf("err = %v, want a bad task payload", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			sc := wt.Spec.Scenario
			if wt.Session != "s1" || wt.LeaseMS != 30000 || wt.Point != 2 || wt.Rep != 5 || wt.Lease != 9 ||
				wt.Spec.Kind != KindScenario || sc == nil || sc.Protocol != "rama" || sc.NumVoice != 3 {
				t.Fatalf("decoded %+v", wt)
			}
		})
	}
}

// TestPostResultEncodeError: a result json.Marshal refuses is an encode
// error carrying encoding/json's message, and nothing is posted.
func TestPostResultEncodeError(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("a result that cannot be encoded was posted")
	}))
	defer hs.Close()
	var res wireResult
	res.Lease, res.Result = 1, mac.Result{VoiceLossRate: math.NaN()}
	err := postResult(context.Background(), hs.Client(), hs.URL, res)
	if err == nil || err.Error() != "grid: encode result: json: unsupported value: NaN" {
		t.Fatalf("err = %v", err)
	}
}
