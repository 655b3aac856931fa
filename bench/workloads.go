package main

import (
	"repro/internal/core"
	"repro/internal/hostdb"
	"repro/internal/workload"
)

// clients is the closed-loop client count: one goroutine and one
// hostdb.Session each. Two is nproc on the reference box; more clients than
// cores measures the Go scheduler, not the system.
const clients = 2

// workloadDef is one workload: a deployment and a transaction mix.
type workloadDef struct {
	name string       // BENCHMARK.json and README.md say why each exists
	mix  workload.Mix // percent; the remainder is reads
	// rowsPerTxn is how many DATALINK rows one insert transaction links.
	rowsPerTxn int
	// preload is how many rows the table holds before warm-up.
	preload int
	// fullControl makes the DATALINK column READ PERMISSION DB: every read
	// mints an access token.
	fullControl bool
	// paged puts host and DLFM tables in 4 KB pages behind a 64-frame pool
	// with a file WAL; client 0 checkpoints every checkpointEvery commits.
	paged           bool
	checkpointEvery int
	// cluster runs three DLFMs behind one placement map and commits with
	// Paxos Commit over three acceptors.
	cluster bool
}

// poolPages is paged_durable's buffer pool on each engine: 256 KB, far
// below the preloaded table plus its indexes.
const poolPages = 64

var workloads = []workloadDef{
	{
		name:       "link_insert",
		mix:        workload.Mix{InsertPct: 100},
		rowsPerTxn: 1,
	},
	{
		name:       "mixed_oltp",
		mix:        workload.DefaultMix(), // the paper's system test: 40/25/10, 25% reads
		rowsPerTxn: 1,
		preload:    5000,
	},
	{
		name:        "read_mostly",
		mix:         workload.Mix{UpdatePct: 5},
		rowsPerTxn:  1,
		preload:     5000,
		fullControl: true,
	},
	{
		name:            "paged_durable",
		mix:             workload.DefaultMix(),
		rowsPerTxn:      1,
		preload:         6000,
		paged:           true,
		checkpointEvery: 1000,
	},
	{
		name:       "cluster_paxos",
		mix:        workload.Mix{InsertPct: 100},
		rowsPerTxn: 2,
		cluster:    true,
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// stackConfig is the deployment of one workload. Everything not set here is
// the program's default configuration.
func (w *workloadDef) stackConfig(dataDir string) workload.StackConfig {
	cfg := workload.StackConfig{Servers: []string{"fs1"}}
	if w.paged {
		cfg.DataDir = dataDir
		cfg.MutateHost = func(c *hostdb.Config) { c.DB.PoolPages = poolPages }
		cfg.MutateDLFM = func(_ string, c *core.Config) { c.DB.PoolPages = poolPages }
	}
	if w.cluster {
		cfg.Servers = []string{"fs1", "fs2", "fs3"}
		cfg.Cluster = true
		cfg.PaxosAcceptors = 3
		cfg.MutateHost = func(c *hostdb.Config) { c.CommitProtocol = "paxos" }
	}
	return cfg
}
