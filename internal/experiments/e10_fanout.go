package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hostdb"
	"repro/internal/value"
	"repro/internal/workload"
)

// e10RPCDelay models one network round trip per DLFM call. In-process
// pipes answer in microseconds, which hides the effect the experiment is
// about: the paper's DLFMs are separate machines, and the coordinator's
// cost per participant is a network round trip, not a function call.
const e10RPCDelay = time.Millisecond

// E10Report measures how commit latency scales with the number of DLFMs
// one transaction enlists. The sequential coordinator pays one
// prepare+commit round trip per participant, so latency grows linearly
// with participant count; the parallel fan-out overlaps the round trips
// and should flatten the curve (Gray & Lamport: phase 1 and phase 2 are
// independent per-participant exchanges). The shape to check: at >= 2
// participants the fanned-out commit beats the sequential one, and the
// gap widens with the count.
type E10Report struct {
	Rows []E10Row
}

// E10Row is one participant-count measurement.
type E10Row struct {
	Participants int
	SeqP50       time.Duration // CommitFanout=1 (the old pipeline)
	ParP50       time.Duration // default fan-out
	Speedup      float64       // SeqP50 / ParP50
}

// RunE10Fanout sweeps participant count 1 -> 8, committing transactions
// that link one file per DLFM, with the sequential and the parallel
// commit pipeline.
func RunE10Fanout(opt Options) (*E10Report, error) {
	rep := &E10Report{}
	// Every DLFM-handled RPC pays one simulated round trip; both pipelines
	// run under the same arming.
	fault.Default().Arm("rpc.server.handle", fault.Action{Delay: e10RPCDelay})
	defer fault.Default().Disarm("rpc.server.handle")
	for _, n := range []int{1, 2, 4, 8} {
		seq, err := e10Measure(n, 1, 0, opt.ops())
		if err != nil {
			return nil, fmt.Errorf("e10: %d participants sequential: %w", n, err)
		}
		par, err := e10Measure(n, 0, 0, opt.ops())
		if err != nil {
			return nil, fmt.Errorf("e10: %d participants parallel: %w", n, err)
		}
		row := E10Row{Participants: n, SeqP50: seq, ParP50: par}
		if par > 0 {
			row.Speedup = float64(seq) / float64(par)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// e10Measure returns the median commit latency over ops transactions that
// each enlist `servers` DLFMs, with the given CommitFanout, after warm
// untimed transactions of the same shape.
func e10Measure(servers, fanout, warm, ops int) (time.Duration, error) {
	names := make([]string, servers)
	for i := range names {
		names[i] = fmt.Sprintf("fs%d", i+1)
	}
	st, err := workload.NewStack(workload.StackConfig{
		Servers: names,
		MutateHost: func(h *hostdb.Config) {
			h.DB.LockTimeout = 10 * time.Second
			h.CommitFanout = fanout
		},
		MutateDLFM: func(_ string, c *core.Config) {
			c.DB.LockTimeout = 10 * time.Second
		},
	})
	if err != nil {
		return 0, err
	}
	defer st.Close()

	// One DATALINK column per server, so every insert enlists them all.
	var ddl strings.Builder
	ddl.WriteString("CREATE TABLE e10 (id BIGINT")
	cols := make([]hostdb.DatalinkCol, servers)
	for i := range names {
		fmt.Fprintf(&ddl, ", c%d VARCHAR", i+1)
		cols[i] = hostdb.DatalinkCol{Name: fmt.Sprintf("c%d", i+1)}
	}
	ddl.WriteString(")")
	if err := st.Host.CreateTable(ddl.String(), cols...); err != nil {
		return 0, err
	}
	for t := 0; t < warm+ops; t++ {
		for _, name := range names {
			if err := st.FS[name].Create(fmt.Sprintf("/e10/f%d", t), "app", []byte("x")); err != nil {
				return 0, err
			}
		}
	}

	insert := "INSERT INTO e10 (id"
	placeholders := ", ?"
	for i := range names {
		insert += fmt.Sprintf(", c%d", i+1)
		placeholders += ", ?"
	}
	insert += ") VALUES (" + placeholders[2:] + ")"

	s := st.Host.Session()
	defer s.Close()
	lats := make([]time.Duration, 0, ops)
	for t := 0; t < warm+ops; t++ {
		params := []value.Value{value.Int(int64(t))}
		for _, name := range names {
			params = append(params, value.Str(hostdb.URL(name, fmt.Sprintf("/e10/f%d", t))))
		}
		if _, err := s.Exec(insert, params...); err != nil {
			return 0, err
		}
		start := time.Now()
		if err := s.Commit(); err != nil {
			return 0, err
		}
		if t >= warm {
			lats = append(lats, time.Since(start))
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[len(lats)/2], nil
}

// String renders the report.
func (r *E10Report) String() string {
	t := &table{header: []string{"participants", "sequential p50", "parallel p50", "speedup", "shape check"}}
	for _, row := range r.Rows {
		check := "single participant: parity expected"
		if row.Participants > 1 {
			check = "parallel fan-out should win"
		}
		t.add(fmtI(int64(row.Participants)),
			row.SeqP50.Round(time.Microsecond).String(),
			row.ParP50.Round(time.Microsecond).String(),
			fmtF(row.Speedup), check)
	}
	return "E10 — commit latency vs participant count (sequential vs parallel 2PC fan-out)\n" + t.String()
}
