package hostdb

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/rpc"
	"repro/internal/value"
)

// Indoubt resolution (Section 3.3): every unsettled transaction is settled
// by asking its decision point's authority (DB.outcome) and delivering the
// answer. Three sources feed it. The parked-indoubt list holds cheap
// in-memory hints for transactions the commit pipeline could not settle
// inline — a phase-2 answer that never came, a one-phase reply lost, an
// outcome that could not be learned. The host's own branches left prepared
// by a crash name their decision point in their prepare record. The sweep
// polls every DLFM for its prepared transactions, and for the outcomes it
// keeps whose connection ended before forgetting them. The list is bounded:
// losing a hint loses nothing durable — the decision is still where its
// decision point stored it, and the sweep finds it — so overflow drops the
// oldest entry and counts it on host_indoubt_dropped_total.

// indoubtCap bounds the parked-indoubt list.
const indoubtCap = 1024

// parkedTxn is one resolution hint.
type parkedTxn struct {
	txn    int64
	server string // the participant to drive; "" when none needs a directed retry
	dp     decisionPoint
}

// branch is the name a host branch is prepared under: the hint a restart
// needs to resolve it (parseBranch reads it back).
func (h parkedTxn) branch() string { return fmt.Sprintf("%d %d %s", h.dp, h.txn, h.server) }

// parseBranch reads a branch name back; ok is false for a branch the host
// did not name.
func parseBranch(name string) (h parkedTxn, ok bool) {
	var dp int
	n, _ := fmt.Sscan(name, &dp, &h.txn, &h.server)
	h.dp = decisionPoint(dp)
	return h, n >= 2
}

// parkIndoubt appends a hint, dropping the oldest beyond the cap.
func (db *DB) parkIndoubt(h parkedTxn) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if n := len(db.parked); n >= indoubtCap {
		drop := n - indoubtCap + 1
		db.parked = append(db.parked[:0], db.parked[drop:]...)
		db.stats.IndoubtDropped.Add(int64(drop))
	}
	db.parked = append(db.parked, h)
}

// takeParked removes and returns every parked hint.
func (db *DB) takeParked() []parkedTxn {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := db.parked
	db.parked = nil
	return out
}

// ParkedIndoubts reports how many hints are currently parked.
func (db *DB) ParkedIndoubts() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.parked)
}

// outcome asks the authority of decision point dp for txn's outcome:
// "commit", "abort", or "wait" while an XA branch's coordinator has not
// decided.
func (db *DB) outcome(dp decisionPoint, txn int64, server string) (string, error) {
	switch dp {
	case atAcceptors:
		return db.LearnOutcome(txn)
	case atParticipant:
		return db.queryOutcome1PC(server, txn)
	}
	// The host's own log: a dl_outcome row is a 2PC commit; otherwise an
	// XA branch's fate is in the engine log, found through dl_xa; with no
	// record anywhere, abort is presumed.
	c := db.eng.Connect()
	rows, err := c.QueryStmt(selOutcome, value.Int(txn))
	if err != nil {
		c.Rollback()
		return "", err
	}
	if err := c.Commit(); err != nil {
		return "", err
	}
	if len(rows) > 0 {
		return "commit", nil
	}
	branch, err := db.xaBranch(txn)
	if err != nil || branch == 0 {
		return "abort", err
	}
	fate, err := db.eng.TxnOutcome(branch)
	switch {
	case err != nil:
		return "", err
	case fate == "committed":
		return "commit", nil
	case fate == "prepared":
		return "wait", nil // the global coordinator has not decided
	}
	return "abort", nil
}

// callFresh sends req to server over a fresh connection of its own.
func (db *DB) callFresh(server string, req any) (rpc.Response, error) {
	dial, err := db.dialer(server)
	if err != nil {
		return rpc.Response{}, err
	}
	client, err := dial()
	if err != nil {
		return rpc.Response{}, err
	}
	defer client.Close()
	return client.Call(req)
}

// applied reports a phase-2 answer as an error unless the participant
// applied the decision.
func applied(resp rpc.Response, err error) error {
	if err == nil && !resp.OK() {
		err = fmt.Errorf("hostdb: phase 2: %s: %s", resp.Code, resp.Msg)
	}
	return err
}

// resolveParked retries every parked hint once, re-parking the ones that
// still cannot complete. Returns how many it settled. A hint without a
// server is settled once its outcome is known again (the sweep or the
// DLFMs' learners apply it); a one-phase participant applied its own
// decision, so knowing it is all there is to do.
func (db *DB) resolveParked() int {
	resolved := 0
	for _, h := range db.takeParked() {
		out, err := db.outcome(h.dp, h.txn, h.server)
		if err == nil && out != "wait" && h.server != "" && h.dp != atParticipant {
			err = applied(db.callFresh(h.server, phase2Req(h.txn, out)))
		}
		if err != nil || out == "wait" {
			db.parkIndoubt(h)
			continue
		}
		resolved++
		if h.server != "" {
			db.stats.IndoubtsResolved.Add(1)
		}
	}
	return resolved
}

// queryOutcome1PC resolves a one-phase commit whose reply was lost by
// asking the participant's durable transaction state, with capped backoff
// between attempts. "committed" maps to commit; "none" means the
// participant never committed and now never will (QueryOutcome recorded
// the abort) — abort. "prepared" and "inflight" mean the original request
// may still be executing: wait and ask again.
func (db *DB) queryOutcome1PC(server string, txn int64) (string, error) {
	bo := fault.Backoff{Base: 5 * time.Millisecond, Cap: 100 * time.Millisecond}
	var err error
	for attempt := 0; attempt < 6; attempt++ {
		if attempt > 0 {
			time.Sleep(bo.Delay(attempt - 1))
		}
		var resp rpc.Response
		resp, err = db.callFresh(server, rpc.QueryOutcomeReq{Txn: txn})
		switch {
		case err != nil:
		case !resp.OK():
			err = fmt.Errorf("hostdb: query outcome at %s: %s: %s", server, resp.Code, resp.Msg)
		case resp.Msg == "committed":
			return "commit", nil
		case resp.Msg == "none":
			return "abort", nil
		default: // "prepared"/"inflight": still in motion
			err = fmt.Errorf("hostdb: txn %d still %s at %s", txn, resp.Msg, server)
		}
	}
	return "", err
}

// ResolveIndoubts settles what the host can: parked hints first, then the
// host's own prepared branches, then every registered DLFM's prepared-but-
// unresolved transactions, each by its decision point's authority; last it
// forgets the one-phase outcomes DLFMs keep for transactions the host is
// done with. It returns how many transactions it resolved; an outcome that
// cannot be read now is left for a later pass, so the error is always nil.
// The paper's host runs this at restart and from a polling daemon while a
// DLFM is unreachable (Section 3.3).
func (db *DB) ResolveIndoubts() (int, error) {
	parked := db.resolveParked()
	branches := db.resolveBranches()
	// One goroutine per DLFM, bounded by the commit fan-out limit: a
	// server that is down (dial timing out) must not delay resolution on
	// the healthy ones.
	var (
		wg    sync.WaitGroup
		sem   = make(chan struct{}, db.fanLimit())
		total atomic.Int64
	)
	for _, server := range db.Servers() {
		wg.Add(1)
		go func(server string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			total.Add(int64(db.resolveServerIndoubts(server)))
		}(server)
	}
	wg.Wait()
	return parked + branches + int(total.Load()), nil
}

// resolveBranches settles the host's own branches a crash left prepared —
// or a coordinator that died in its commit handed to the engine — by the
// authority their names point at, and reports how many it settled.
func (db *DB) resolveBranches() int {
	resolved := 0
	for id, h := range db.preparedBranches() {
		out, err := db.outcome(h.dp, h.txn, h.server)
		if err == nil && out != "wait" && db.eng.ResolveIndoubt(id, out == "commit") == nil {
			resolved++
		}
	}
	return resolved
}

// preparedBranches maps each engine transaction the host left prepared
// without a session to the hint its name carries.
func (db *DB) preparedBranches() map[int64]parkedTxn {
	out := make(map[int64]parkedTxn)
	for _, id := range db.eng.IndoubtTxns() {
		if h, ok := parseBranch(db.eng.IndoubtBranch(id)); ok {
			out[id] = h
		}
	}
	return out
}

// resolveServerIndoubts settles one DLFM's prepared-but-unresolved
// transactions and forgets the one-phase outcomes it keeps that neither a
// live session nor a prepared host branch still needs. It reports how many
// transactions it resolved.
func (db *DB) resolveServerIndoubts(server string) int {
	dial, err := db.dialer(server)
	if err != nil {
		return 0
	}
	client, err := dial()
	if err != nil {
		db.noteDLFMFailure(server, err)
		return 0 // DLFM down; the daemon retries later
	}
	defer client.Close()
	resp, err := client.Call(rpc.ListIndoubtReq{})
	if err != nil {
		db.noteDLFMFailure(server, err)
		return 0
	}
	if !resp.OK() {
		return 0
	}
	db.noteDLFMSuccess(server)
	// Under Paxos the acceptors are the authority even for transactions
	// whose coordinator never hardened dl_outcome.
	dp := db.decisionPointFor(0)
	resolved := 0
	for _, txn := range resp.Txns {
		// A prepared transaction whose coordinator session is still alive
		// is not in doubt: the session will harden and drive its own
		// decision. Presuming abort here would race a live commit
		// (failover runs this mid-traffic against healthy DLFMs too).
		if db.txnActive(txn) {
			continue
		}
		out, err := db.outcome(dp, txn, "")
		if err != nil || out == "wait" {
			continue
		}
		if applied(client.Call(phase2Req(txn, out))) == nil {
			resolved++
			db.stats.IndoubtsResolved.Add(1)
		}
	}
	// A connection's next one-phase commit, or the Forget a closing session
	// sends, deletes the outcome it committed; these are the outcomes whose
	// connection ended first — a lost reply, a crash — and recorded aborts.
	resp, err = client.Call(rpc.ListIndoubtReq{Kept: true})
	if err != nil || !resp.OK() {
		return resolved
	}
	var done []int64
	for _, txn := range resp.Txns {
		if !db.txnActive(txn) {
			done = append(done, txn)
		}
	}
	// Read after the activity checks: a session hands its branch to the
	// engine before it stops being active, so none slips between the two.
	needed := make(map[int64]bool)
	for _, h := range db.preparedBranches() {
		needed[h.txn] = true
	}
	done = slices.DeleteFunc(done, func(txn int64) bool { return needed[txn] })
	if len(done) > 0 {
		client.Call(rpc.ForgetReq{Txns: done}) //nolint:errcheck // the next pass retries
	}
	return resolved
}

// StartIndoubtDaemon polls ResolveIndoubts on an interval until the
// returned stop function is called — the paper's dedicated indoubt-
// resolution daemon. A deployment runs it (or calls ResolveIndoubts at
// restart and periodically): the host branches a one-phase commit left to
// resolution hold their row locks, and the outcomes DLFMs keep for
// connections that ended early take a row each, until a pass settles them.
func (db *DB) StartIndoubtDaemon(interval time.Duration) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-quit:
				return
			case <-ticker.C:
				db.ResolveIndoubts() //nolint:errcheck
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
