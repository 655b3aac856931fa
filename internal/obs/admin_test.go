package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestAdminEndpoints(t *testing.T) {
	reg := New().Label("server", "fs1")
	reg.Counter("dlfm_links_total").Add(2)
	reg.Histogram("lock_wait_seconds").Observe(time.Millisecond)
	tr := NewTracerCfg(TracerConfig{})
	root := tr.StartRoot(7, "host", "commit")
	tr.StartSpan(root.Ctx(), "agent", "handle:Commit").End()
	tr.Emit(7, "2pc", "phase2_giveup", "commit")
	root.End()
	tr.Emit(8, "agent", "prepare_vote_no", "")

	admin := &Admin{
		Registries: []*Registry{reg},
		Tracer:     tr,
		LockDump:   func() any { return map[string]any{"held_total": 3} },
	}
	ts := httptest.NewServer(admin.Handler())
	defer ts.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("metrics content type = %q", ctype)
	}
	if !strings.Contains(metrics, `dlfm_links_total{server="fs1"} 2`) ||
		!strings.Contains(metrics, "lock_wait_seconds_bucket") {
		t.Fatalf("unexpected /metrics:\n%s", metrics)
	}

	// /debug/txn/<id> is the one place a transaction's record is read:
	// spans and marks on one timeline, attribution folded on request.
	var txn struct {
		Spans       []Span
		Timeline    []string
		Attribution Attribution
		Events      []any
	}
	body, _ := get("/debug/txn/7")
	if err := json.Unmarshal([]byte(body), &txn); err != nil {
		t.Fatalf("txn decode: %v", err)
	}
	if len(txn.Spans) != 3 || len(txn.Timeline) != 3 || txn.Events != nil || txn.Attribution.RootNS <= 0 {
		t.Fatalf("/debug/txn/7 = %s", body)
	}
	if last := txn.Spans[2]; !last.Mark || last.Op != "phase2_giveup" || !strings.Contains(txn.Timeline[2], "2pc/phase2_giveup detail=commit") {
		t.Fatalf("mark missing from the timeline: %s", body)
	}

	locks, _ := get("/debug/locks")
	var dump map[string]any
	if err := json.Unmarshal([]byte(locks), &dump); err != nil {
		t.Fatalf("locks decode: %v", err)
	}
	if dump["held_total"].(float64) != 3 {
		t.Fatalf("locks dump = %v", dump)
	}

	// A bad txn id is a 400, not a panic; the event-ring endpoint is gone.
	for path, want := range map[string]int{
		"/debug/txn/abc": http.StatusBadRequest,
		"/debug/traces":  http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s status = %d, want %d", path, resp.StatusCode, want)
		}
	}
}
