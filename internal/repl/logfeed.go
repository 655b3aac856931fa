package repl

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rpc"
)

// LogFeed serves ReplFetch directly from a database's write-ahead log. It
// is the stand-in for the paper's shared durable log device: deployments
// wire the standby's dial to a LogFeed endpoint that outlives the primary
// process, so Promote's drain can still read records the primary hardened
// right before dying. Only ReplFetch and Ping are served — the feed is a
// log reader, not a DLFM.
type LogFeed struct {
	DB *engine.DB
}

// NewAgent implements rpc.AgentFactory. The feed is stateless, so every
// connection shares the one instance.
func (f *LogFeed) NewAgent() rpc.Agent { return logFeedAgent{f.DB} }

type logFeedAgent struct {
	db *engine.DB
}

func (a logFeedAgent) Handle(req any) rpc.Response {
	switch r := req.(type) {
	case rpc.PingReq:
		return rpc.Response{}
	case rpc.ReplFetchReq:
		return core.ServeReplFetch(a.db, r)
	default:
		return rpc.Response{Code: "error", Msg: fmt.Sprintf("logfeed: %s not served", rpc.Name(req))}
	}
}

func (a logFeedAgent) Close() {}
