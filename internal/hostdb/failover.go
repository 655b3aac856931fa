package hostdb

import (
	"fmt"
)

// failoverThreshold is how many consecutive transport failures (or phase-2
// give-ups) against a DLFM trigger failover to its registered standby.
const failoverThreshold = 3

// standbyEntry is one registered hot standby: where to reach it once
// promoted, and how to promote it. done flips exactly once, when a
// promotion has succeeded and the dialer swap is in place.
type standbyEntry struct {
	dial       Dialer
	promote    func() error
	inProgress bool
	done       bool
}

// RegisterStandby registers a hot standby for a DLFM server. When the host
// sees failoverThreshold consecutive transport failures (or phase-2
// give-ups) against the primary, it calls promote, swaps the server's
// dialer to the standby, and re-resolves indoubt transactions against it.
// Sessions keep using the same server name throughout.
func (db *DB) RegisterStandby(server string, dial Dialer, promote func() error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.standbys[server] = &standbyEntry{dial: dial, promote: promote}
}

// FailedOver reports whether the server's standby has been promoted and is
// now serving its traffic.
func (db *DB) FailedOver(server string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	sb := db.standbys[server]
	return sb != nil && sb.done
}

// noteDLFMFailure records one failed interaction with a DLFM. Failures only
// count when a standby is registered; failoverThreshold consecutive ones
// trigger Failover. A failure can be a transport error (dial refused, call
// error, call timeout) or a phase-2 "severe" give-up response — both mean
// the primary cannot make progress.
func (db *DB) noteDLFMFailure(server string, cause error) {
	db.mu.Lock()
	sb := db.standbys[server]
	if sb == nil || sb.done || sb.inProgress {
		db.mu.Unlock()
		return
	}
	db.failCount[server]++
	n := db.failCount[server]
	db.mu.Unlock()
	db.tracer.Emitf(0, "host", "dlfm_failure", "%s: %d/%d: %v", server, n, failoverThreshold, cause)
	if n >= failoverThreshold {
		db.Failover(server) //nolint:errcheck // a failed promote retries on the next threshold trip
	}
}

// noteDLFMSuccess resets the server's consecutive-failure count.
func (db *DB) noteDLFMSuccess(server string) {
	db.mu.Lock()
	if db.failCount[server] != 0 {
		db.failCount[server] = 0
	}
	db.mu.Unlock()
}

// Failover promotes the server's registered standby and routes the server's
// traffic to it. Idempotent: once a promotion has succeeded, further calls
// return nil immediately; while one is in flight, concurrent calls return
// nil and let it finish. A failed promotion leaves the entry armed so a
// later call (or the next failure-threshold trip) retries.
//
// After the dialer swap the host re-resolves indoubt transactions: the
// standby re-materialized the primary's prepared transactions from the
// replicated log, and the outcome table decides them (commit if a decision
// row exists, presumed abort otherwise).
func (db *DB) Failover(server string) error {
	db.mu.Lock()
	sb := db.standbys[server]
	if sb == nil {
		db.mu.Unlock()
		return fmt.Errorf("hostdb: no standby registered for %q", server)
	}
	if sb.done || sb.inProgress {
		db.mu.Unlock()
		return nil
	}
	sb.inProgress = true
	db.mu.Unlock()

	db.tracer.Emitf(0, "host", "failover", "%s: promoting standby", server)
	err := sb.promote()

	db.mu.Lock()
	sb.inProgress = false
	if err == nil {
		sb.done = true
		db.dialers[server] = sb.dial
		db.failCount[server] = 0
	}
	db.mu.Unlock()
	if err != nil {
		db.tracer.Emitf(0, "host", "failover_failed", "%s: %v", server, err)
		return fmt.Errorf("hostdb: failover of %q: promote: %w", server, err)
	}
	db.stats.Failovers.Add(1)
	db.tracer.Emitf(0, "host", "failover_done", "%s", server)
	// Settle what the crash left prepared, now against the promoted standby.
	if _, rerr := db.ResolveIndoubts(); rerr != nil {
		db.tracer.Emitf(0, "host", "failover_resolve_error", "%s: %v", server, rerr)
	}
	return nil
}
