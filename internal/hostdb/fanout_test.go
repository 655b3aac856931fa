package hostdb

import (
	"errors"
	"testing"

	"repro/internal/rpc"
)

// TestSequentialFanoutStopsAfterFirstFailure: with CommitFanout = 1 the
// prepare fan-out is the sequential loop, and once one participant fails
// none after it may be asked — not just the next one.
func TestSequentialFanoutStopsAfterFirstFailure(t *testing.T) {
	db := &DB{cfg: Config{CommitFanout: 1}}
	parts := []*participant{{server: "a"}, {server: "b"}, {server: "c"}}
	var called []string
	outs := db.fanoutParts(parts, true, func(p *participant) (rpc.Response, error) {
		called = append(called, p.server)
		if p.server == "a" {
			return rpc.Response{}, errors.New("a is down")
		}
		return rpc.Response{}, nil
	})
	if len(called) != 1 || called[0] != "a" {
		t.Fatalf("called %v, want [a]", called)
	}
	for i, want := range []bool{false, true, true} {
		if outs[i].skipped != want {
			t.Errorf("outs[%d].skipped = %v, want %v", i, outs[i].skipped, want)
		}
	}
}
