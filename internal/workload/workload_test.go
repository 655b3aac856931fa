package workload

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hostdb"
)

func testStack(t *testing.T, mutate ...func(*StackConfig)) *Stack {
	t.Helper()
	cfg := StackConfig{
		Servers: []string{"fs1"},
		MutateHost: func(h *hostdb.Config) {
			h.DB.LockTimeout = 2 * time.Second
		},
		MutateDLFM: func(_ string, c *core.Config) {
			c.DB.LockTimeout = 2 * time.Second
		},
	}
	for _, m := range mutate {
		m(&cfg)
	}
	st, err := NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

func TestStackConstruction(t *testing.T) {
	st := testStack(t, func(c *StackConfig) { c.Servers = []string{"fs1", "fs2"} })
	if len(st.DLFMs) != 2 || st.DLFMs["fs1"] == nil || st.DLFMs["fs2"] == nil {
		t.Fatal("stack incomplete")
	}
	if st.Host == nil {
		t.Fatal("no host")
	}
	if got := st.EngineStats(); got.Commits < 0 {
		t.Fatal("stats unreadable")
	}
}

func TestRunnerFixedOps(t *testing.T) {
	st := testStack(t)
	r, err := NewRunner(st, Config{
		Clients:      4,
		OpsPerClient: 25,
		Mix:          DefaultMix(),
		PreloadRows:  20,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 100 {
		t.Fatalf("ops = %d, want 100", res.Ops)
	}
	if res.Commits+res.Rollback != res.Ops {
		t.Fatalf("commits %d + rollbacks %d != ops %d", res.Commits, res.Rollback, res.Ops)
	}
	if res.Inserts == 0 {
		t.Fatal("no inserts in a default mix")
	}
	if res.LatencyP50 <= 0 || res.LatencyMax < res.LatencyP95 || res.LatencyP95 < res.LatencyP50 {
		t.Fatalf("latency percentiles inconsistent: %+v", res)
	}
	// Consistency: every host row's file must be linked on the DLFM, and
	// counts must match.
	s := st.Host.Session()
	defer s.Close()
	rows, err := s.Query(`SELECT doc FROM wl_files`)
	if err != nil {
		t.Fatal(err)
	}
	s.Commit()
	for _, row := range rows {
		_, path, err := hostdb.ParseURL(row[0].Text())
		if err != nil {
			t.Fatal(err)
		}
		status, err := st.DLFMs["fs1"].Upcaller().IsLinked(path)
		if err != nil {
			t.Fatal(err)
		}
		if !status.Linked {
			t.Fatalf("host references %s but DLFM says unlinked", path)
		}
	}
	c := st.DLFMs["fs1"].DB().Connect()
	n, _, err := c.QueryInt(`SELECT COUNT(*) FROM dlfm_file WHERE state = 'L'`)
	if err != nil {
		t.Fatal(err)
	}
	c.Commit()
	if n != int64(len(rows)) {
		t.Fatalf("DLFM has %d linked entries, host has %d rows", n, len(rows))
	}
}

func TestRunnerDurationMode(t *testing.T) {
	st := testStack(t)
	r, err := NewRunner(st, Config{
		Clients:     2,
		Duration:    150 * time.Millisecond,
		Mix:         DefaultMix(),
		PreloadRows: 5,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("duration run did nothing")
	}
	if res.Commits+res.Rollback+res.Shed != res.Ops {
		t.Fatalf("outcomes do not account for every op: %+v", res)
	}
}

func TestRunnerValidation(t *testing.T) {
	st := testStack(t)
	if _, err := NewRunner(st, Config{Server: "ghost"}); err == nil {
		t.Fatal("unknown server accepted")
	}
	r, err := NewRunner(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.cfg.Clients != 1 || r.cfg.OpsPerClient != 100 || r.cfg.Table == "" {
		t.Fatalf("defaults not applied: %+v", r.cfg)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Ops: 10, Commits: 8, Rollback: 1, Shed: 1}
	s := r.String()
	if s == "" {
		t.Fatal("empty result string")
	}
}

// TestStackAggregatesSumEveryField checks, field by field, that the stack's
// DLFM and engine aggregates equal the sum over its DLFMs.
func TestStackAggregatesSumEveryField(t *testing.T) {
	st := testStack(t, func(c *StackConfig) { c.Servers = []string{"fs1", "fs2"} })
	for i, server := range []string{"fs1", "fs2"} {
		r, err := NewRunner(st, Config{
			Clients: 2, OpsPerClient: 10, Mix: DefaultMix(), PreloadRows: 5,
			Server: server, Table: "wl_" + server, Seed: int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Prepare(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// The DLFMs' daemons keep counting in the background: compare only
	// reads that no daemon moved in between.
	read := func() (dlfms, engines []reflect.Value) {
		for _, name := range sortedNames(st.DLFMs) {
			d := st.DLFMs[name]
			dlfms = append(dlfms, reflect.ValueOf(d.Stats()))
			engines = append(engines, reflect.ValueOf(d.DB().Stats()))
		}
		return dlfms, engines
	}
	for attempt := 0; ; attempt++ {
		dlfms, engines := read()
		agg, eng := st.DLFMStats(), st.EngineStats()
		again, againEng := read()
		if !sameValues(dlfms, again) || !sameValues(engines, againEng) {
			if attempt == 100 {
				t.Fatal("DLFM counters never held still")
			}
			continue
		}
		checkSum(t, "DLFMStats", reflect.ValueOf(agg), dlfms)
		checkSum(t, "EngineStats", reflect.ValueOf(eng), engines)
		break
	}
	if st.DLFMStats().Links == 0 || st.EngineStats().Log.Syncs == 0 {
		t.Fatal("the runs did no work on the DLFMs")
	}
}

func sameValues(a, b []reflect.Value) bool {
	for i := range a {
		if a[i].Interface() != b[i].Interface() {
			return false
		}
	}
	return true
}

// checkSum compares each integer field of agg, nested structs included,
// with the sum of that field over parts.
func checkSum(t *testing.T, path string, agg reflect.Value, parts []reflect.Value) {
	t.Helper()
	for i := 0; i < agg.NumField(); i++ {
		name := path + "." + agg.Type().Field(i).Name
		switch f := agg.Field(i); f.Kind() {
		case reflect.Struct:
			sub := make([]reflect.Value, len(parts))
			for j, p := range parts {
				sub[j] = p.Field(i)
			}
			checkSum(t, name, f, sub)
		case reflect.Int, reflect.Int64:
			var sum int64
			for _, p := range parts {
				sum += p.Field(i).Int()
			}
			if f.Int() != sum {
				t.Errorf("%s = %d, want the sum over DLFMs %d", name, f.Int(), sum)
			}
		default:
			t.Errorf("%s: unexpected field kind %s", name, f.Kind())
		}
	}
}
