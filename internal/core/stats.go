package core

import "repro/internal/obs"

// Stats counts DLFM-level events. All fields are cumulative and safe to
// read concurrently. The same counters back the server's obs registry
// (dlfm_* metric names), so Stats() snapshots and /metrics scrapes can
// never disagree.
type Stats struct {
	Links           obs.Counter // LinkFile operations applied
	Unlinks         obs.Counter // UnlinkFile operations applied
	Backouts        obs.Counter // in_backout link/unlink requests
	Prepares        obs.Counter // successful prepare votes
	PrepareFails    obs.Counter // prepare votes of "no"
	Commits         obs.Counter // phase-2 commits completed
	Aborts          obs.Counter // aborts completed (either phase)
	Phase2Retries   obs.Counter // phase-2 commit/abort attempts retried
	Phase2Giveups   obs.Counter // phase-2 retry caps hit (txn left for resolution)
	Compensations   obs.Counter // delayed-update rollbacks after local commit
	BatchCommits    obs.Counter // intermediate local commits of batched txns
	ArchiveCopies   obs.Counter // files copied to the archive server
	Retrievals      obs.Counter // files restored from the archive server
	ChownOps        obs.Counter // takeover/release operations
	Upcalls         obs.Counter // IsLinked upcalls served
	GroupsDeleted   obs.Counter // groups fully unlinked by the daemon
	FilesGCed       obs.Counter // unlinked entries garbage collected
	BackupsGCed     obs.Counter // backup rows aged out
	StatsRepairs    obs.Counter // stats-guard re-installations
	IndoubtReports  obs.Counter // ListIndoubt calls answered
	DaemonLogFulls  obs.Counter // log-full errors hit by daemons (E8)
	ReplFetches     obs.Counter // replication fetches served to a standby
	Promotes        obs.Counter // standby-to-primary promotions
	MigratedIn      obs.Counter // linked entries installed by slot migration
	MigratedOut     obs.Counter // linked entries removed by slot migration
	ReadOnlyVotes   obs.Counter // prepare fast path: read-only votes cast
	OnePhaseCommits obs.Counter // fused single-participant commits served
	SelfResolved    obs.Counter // prepared txns resolved by the outcome learner
}

// register exposes every counter on reg under its dlfm_* metric name.
func (st *Stats) register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCounter("dlfm_links_total", &st.Links)
	reg.RegisterCounter("dlfm_unlinks_total", &st.Unlinks)
	reg.RegisterCounter("dlfm_backouts_total", &st.Backouts)
	reg.RegisterCounter("dlfm_prepares_total", &st.Prepares)
	reg.RegisterCounter("dlfm_prepare_fails_total", &st.PrepareFails)
	reg.RegisterCounter("dlfm_commits_total", &st.Commits)
	reg.RegisterCounter("dlfm_aborts_total", &st.Aborts)
	reg.RegisterCounter("dlfm_phase2_retries_total", &st.Phase2Retries)
	reg.RegisterCounter("dlfm_phase2_giveups_total", &st.Phase2Giveups)
	reg.RegisterCounter("dlfm_compensations_total", &st.Compensations)
	reg.RegisterCounter("dlfm_batch_commits_total", &st.BatchCommits)
	reg.RegisterCounter("dlfm_archive_copies_total", &st.ArchiveCopies)
	reg.RegisterCounter("dlfm_retrievals_total", &st.Retrievals)
	reg.RegisterCounter("dlfm_chown_ops_total", &st.ChownOps)
	reg.RegisterCounter("dlfm_upcalls_total", &st.Upcalls)
	reg.RegisterCounter("dlfm_groups_deleted_total", &st.GroupsDeleted)
	reg.RegisterCounter("dlfm_files_gced_total", &st.FilesGCed)
	reg.RegisterCounter("dlfm_backups_gced_total", &st.BackupsGCed)
	reg.RegisterCounter("dlfm_stats_repairs_total", &st.StatsRepairs)
	reg.RegisterCounter("dlfm_indoubt_reports_total", &st.IndoubtReports)
	reg.RegisterCounter("dlfm_daemon_log_fulls_total", &st.DaemonLogFulls)
	reg.RegisterCounter("dlfm_repl_fetches_total", &st.ReplFetches)
	reg.RegisterCounter("dlfm_promotes_total", &st.Promotes)
	reg.RegisterCounter("dlfm_migrated_in_total", &st.MigratedIn)
	reg.RegisterCounter("dlfm_migrated_out_total", &st.MigratedOut)
	reg.RegisterCounter("dlfm_readonly_votes_total", &st.ReadOnlyVotes)
	reg.RegisterCounter("dlfm_one_phase_commits_total", &st.OnePhaseCommits)
	reg.RegisterCounter("dlfm_self_resolved_total", &st.SelfResolved)
}

// Snapshot is a point-in-time copy of Stats for reporting.
type Snapshot struct {
	Links, Unlinks, Backouts                int64
	Prepares, PrepareFails, Commits, Aborts int64
	Phase2Retries, Phase2Giveups            int64
	Compensations                           int64
	BatchCommits                            int64
	ArchiveCopies, Retrievals               int64
	ChownOps, Upcalls                       int64
	GroupsDeleted, FilesGCed, BackupsGCed   int64
	StatsRepairs, IndoubtReports            int64
	DaemonLogFulls                          int64
	ReplFetches, Promotes                   int64
	MigratedIn, MigratedOut                 int64
	ReadOnlyVotes, OnePhaseCommits          int64
	SelfResolved                            int64
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Snapshot {
	return Snapshot{
		Links:           s.stats.Links.Load(),
		Unlinks:         s.stats.Unlinks.Load(),
		Backouts:        s.stats.Backouts.Load(),
		Prepares:        s.stats.Prepares.Load(),
		PrepareFails:    s.stats.PrepareFails.Load(),
		Commits:         s.stats.Commits.Load(),
		Aborts:          s.stats.Aborts.Load(),
		Phase2Retries:   s.stats.Phase2Retries.Load(),
		Phase2Giveups:   s.stats.Phase2Giveups.Load(),
		Compensations:   s.stats.Compensations.Load(),
		BatchCommits:    s.stats.BatchCommits.Load(),
		ArchiveCopies:   s.stats.ArchiveCopies.Load(),
		Retrievals:      s.stats.Retrievals.Load(),
		ChownOps:        s.stats.ChownOps.Load(),
		Upcalls:         s.stats.Upcalls.Load(),
		GroupsDeleted:   s.stats.GroupsDeleted.Load(),
		FilesGCed:       s.stats.FilesGCed.Load(),
		BackupsGCed:     s.stats.BackupsGCed.Load(),
		StatsRepairs:    s.stats.StatsRepairs.Load(),
		IndoubtReports:  s.stats.IndoubtReports.Load(),
		DaemonLogFulls:  s.stats.DaemonLogFulls.Load(),
		ReplFetches:     s.stats.ReplFetches.Load(),
		Promotes:        s.stats.Promotes.Load(),
		MigratedIn:      s.stats.MigratedIn.Load(),
		MigratedOut:     s.stats.MigratedOut.Load(),
		ReadOnlyVotes:   s.stats.ReadOnlyVotes.Load(),
		OnePhaseCommits: s.stats.OnePhaseCommits.Load(),
		SelfResolved:    s.stats.SelfResolved.Load(),
	}
}
