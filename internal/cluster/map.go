package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Store persists placement tables. The host database implements it against
// the dl_cluster/dl_placement tables so placement survives a host restart
// with the same durability as the dl_cols registry it lives beside.
type Store interface {
	SaveTable(name string, t Table) error
	// LoadTable returns the persisted table and whether one exists.
	LoadTable(name string) (Table, bool, error)
}

// Config tunes one placement map.
type Config struct {
	// Slots is the ring size; zero means DefaultSlots.
	Slots int
	// FenceTimeout bounds both a writer's wait on a fenced slot and the
	// mover's wait for in-flight writers to drain. Zero means 10s.
	FenceTimeout time.Duration
	// Store persists table versions; nil keeps placement in memory only.
	Store Store
	// Obs receives the cluster_* metrics. Nil disables them.
	Obs *obs.Registry
	// Tracer receives migration spans. Nil disables them.
	Tracer *obs.Tracer
}

// moveState is one in-flight slot migration.
type moveState struct {
	mv     Move
	fenced bool
	// unfenced is closed when the move commits or aborts; writers blocked
	// on the fence wake and re-route against the new table.
	unfenced chan struct{}
	// drained is closed when the slot's in-flight writer count hits zero
	// while fenced; nil when nobody is waiting.
	drained chan struct{}
	started time.Time
}

// Map is one logical namespace's routing state: the current placement
// table, the registered member set, and the per-slot move/fence machinery.
// All methods are safe for concurrent use.
type Map struct {
	name string
	cfg  Config

	mu       sync.Mutex
	table    Table
	members  map[string]bool
	moving   map[int]*moveState
	inflight []int // per-slot writers currently holding a route

	routes        obs.Counter
	fenceWaits    obs.Counter
	fenceTimeouts obs.Counter
	moves         obs.Counter
	moveFails     obs.Counter
	movedFiles    obs.Counter
	moveHist      *obs.Histogram
}

// New creates (or, when cfg.Store holds a table under this name, recovers)
// a placement map. A recovered table re-derives its member set from the
// slot owners; members that owned nothing must be re-added by the caller.
func New(name string, cfg Config) (*Map, error) {
	if cfg.Slots <= 0 {
		cfg.Slots = DefaultSlots
	}
	if cfg.FenceTimeout <= 0 {
		cfg.FenceTimeout = 10 * time.Second
	}
	m := &Map{
		name:     name,
		cfg:      cfg,
		table:    Table{Slots: cfg.Slots, Owners: make([]string, cfg.Slots)},
		members:  make(map[string]bool),
		moving:   make(map[int]*moveState),
		moveHist: obs.NewHistogram(),
	}
	if cfg.Store != nil {
		t, ok, err := cfg.Store.LoadTable(name)
		if err != nil {
			return nil, fmt.Errorf("cluster %s: load placement: %w", name, err)
		}
		if ok {
			if t.Slots != cfg.Slots && t.Slots > 0 {
				// The persisted ring wins: slot hashing must stay
				// consistent with the owners on disk.
				cfg.Slots = t.Slots
				m.cfg.Slots = t.Slots
			}
			m.table = t.clone()
			for _, o := range t.Members() {
				m.members[o] = true
			}
		}
	}
	m.inflight = make([]int, m.table.Slots)
	m.register(cfg.Obs)
	return m, nil
}

func (m *Map) register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("cluster_members", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.members))
	})
	reg.GaugeFunc("cluster_table_version", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.table.Version)
	})
	reg.GaugeFunc("cluster_moves_inflight", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.moving))
	})
	reg.RegisterCounter("cluster_routes_total", &m.routes)
	reg.RegisterCounter("cluster_fence_waits_total", &m.fenceWaits)
	reg.RegisterCounter("cluster_fence_timeouts_total", &m.fenceTimeouts)
	reg.RegisterCounter("cluster_moves_total", &m.moves)
	reg.RegisterCounter("cluster_move_failures_total", &m.moveFails)
	reg.RegisterCounter("cluster_migrated_files_total", &m.movedFiles)
	reg.RegisterHistogram("cluster_move_seconds", m.moveHist)
}

// Name returns the logical server name this map routes.
func (m *Map) Name() string { return m.name }

// Slots returns the ring size.
func (m *Map) Slots() int { return m.table.Slots }

// Version returns the current table version.
func (m *Map) Version() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.table.Version
}

// Members returns the sorted registered member set.
func (m *Map) Members() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.members))
	for s := range m.members {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// HasMember reports membership.
func (m *Map) HasMember(server string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.members[server]
}

// Snapshot returns a copy of the current table.
func (m *Map) Snapshot() Table {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.table.clone()
}

// Owner returns the member currently owning path (no fence interaction,
// for read paths and diagnostics).
func (m *Map) Owner(path string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.table.Owners[SlotOf(path, m.table.Slots)]
}

// ReadOwners returns every member that may hold path's link state right
// now: the current owner, plus the move target while the path's slot is
// mid-migration (dual read). Consistency checking accepts either side
// during a move.
func (m *Map) ReadOwners(path string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	slot := SlotOf(path, m.table.Slots)
	owners := []string{m.table.Owners[slot]}
	if ms := m.moving[slot]; ms != nil && ms.mv.To != owners[0] {
		owners = append(owners, ms.mv.To)
	}
	return owners
}

// WriteOwner routes a link/unlink for path: it blocks while the path's
// slot is fenced for cutover (bounded by FenceTimeout), registers the
// caller as an in-flight writer, and returns the owning member plus a
// release callback the caller must invoke once its DLFM call returns.
func (m *Map) WriteOwner(path string) (string, func(), error) {
	slot := SlotOf(path, m.table.Slots)
	deadline := time.Now().Add(m.cfg.FenceTimeout)
	m.mu.Lock()
	for {
		ms := m.moving[slot]
		if ms == nil || !ms.fenced {
			break
		}
		ch := ms.unfenced
		m.mu.Unlock()
		m.fenceWaits.Inc()
		select {
		case <-ch:
		case <-time.After(time.Until(deadline)):
			m.fenceTimeouts.Inc()
			return "", nil, fmt.Errorf("cluster %s: slot %d fenced for cutover too long (%s -> %s)",
				m.name, slot, ms.mv.From, ms.mv.To)
		}
		m.mu.Lock()
	}
	owner := m.table.Owners[slot]
	if owner == "" {
		m.mu.Unlock()
		return "", nil, fmt.Errorf("cluster %s has no members", m.name)
	}
	m.inflight[slot]++
	m.mu.Unlock()
	m.routes.Inc()
	var once sync.Once
	release := func() {
		once.Do(func() {
			m.mu.Lock()
			m.inflight[slot]--
			if ms := m.moving[slot]; ms != nil && ms.fenced && m.inflight[slot] == 0 && ms.drained != nil {
				close(ms.drained)
				ms.drained = nil
			}
			m.mu.Unlock()
		})
	}
	return owner, release, nil
}

// Join registers a new member and returns the slot moves that hand it its
// rendezvous share. The first member bootstraps the whole table with no
// moves. Routing keeps using the old owners until each move commits.
func (m *Map) Join(server string) ([]Move, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.members[server] {
		return nil, fmt.Errorf("cluster %s: member %s already joined", m.name, server)
	}
	m.members[server] = true
	if len(m.members) == 1 {
		for s := range m.table.Owners {
			m.table.Owners[s] = server
		}
		m.table.Version++
		if err := m.persistLocked(); err != nil {
			return nil, err
		}
		return nil, nil
	}
	target := assign(m.memberListLocked(), m.table.Slots)
	return movesTo(m.table.Owners, target), nil
}

// DrainPlan returns the moves that empty a member (each of its slots goes
// to its rendezvous winner among the remaining members). The member stays
// registered — and keeps receiving routes for its not-yet-moved slots —
// until RemoveMember.
func (m *Map) DrainPlan(server string) ([]Move, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.members[server] {
		return nil, fmt.Errorf("cluster %s: %s is not a member", m.name, server)
	}
	rest := make([]string, 0, len(m.members)-1)
	for s := range m.members {
		if s != server {
			rest = append(rest, s)
		}
	}
	if len(rest) == 0 {
		return nil, fmt.Errorf("cluster %s: cannot drain the last member %s", m.name, server)
	}
	sort.Strings(rest)
	var out []Move
	for slot, o := range m.table.Owners {
		if o == server {
			out = append(out, Move{Slot: slot, From: server, To: bestOwner(rest, slot)})
		}
	}
	return out, nil
}

// PlanMove pins one slot onto an explicit member — the hot-group rebalance
// primitive. The pin survives until the next membership change recomputes
// the slot's rendezvous owner.
func (m *Map) PlanMove(slot int, to string) (Move, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if slot < 0 || slot >= m.table.Slots {
		return Move{}, fmt.Errorf("cluster %s: slot %d out of range [0,%d)", m.name, slot, m.table.Slots)
	}
	if !m.members[to] {
		return Move{}, fmt.Errorf("cluster %s: %s is not a member", m.name, to)
	}
	from := m.table.Owners[slot]
	if from == to {
		return Move{}, fmt.Errorf("cluster %s: slot %d already on %s", m.name, slot, to)
	}
	return Move{Slot: slot, From: from, To: to}, nil
}

// PlanRebalance returns the moves that take the table to the pure
// rendezvous assignment for the current member set — the retry after a
// partially failed join, and the cleanup for stale PlanMove pins.
func (m *Map) PlanRebalance() []Move {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.members) == 0 {
		return nil
	}
	return movesTo(m.table.Owners, assign(m.memberListLocked(), m.table.Slots))
}

// RemoveMember deregisters a drained member. It refuses while the member
// still owns slots (run the drain first).
func (m *Map) RemoveMember(server string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.members[server] {
		return fmt.Errorf("cluster %s: %s is not a member", m.name, server)
	}
	for slot, o := range m.table.Owners {
		if o == server {
			return fmt.Errorf("cluster %s: %s still owns slot %d; drain it first", m.name, server, slot)
		}
	}
	delete(m.members, server)
	return nil
}

func (m *Map) memberListLocked() []string {
	out := make([]string, 0, len(m.members))
	for s := range m.members {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func (m *Map) persistLocked() error {
	if m.cfg.Store == nil {
		return nil
	}
	if err := m.cfg.Store.SaveTable(m.name, m.table); err != nil {
		return fmt.Errorf("cluster %s: persist placement v%d: %w", m.name, m.table.Version, err)
	}
	return nil
}

// beginMove claims a slot for migration. Routing still sends writers to
// the old owner (unfenced) until fence.
func (m *Map) beginMove(mv Move) (*moveState, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur := m.table.Owners[mv.Slot]; cur != mv.From {
		return nil, fmt.Errorf("cluster %s: slot %d owned by %s, not %s", m.name, mv.Slot, cur, mv.From)
	}
	if !m.members[mv.To] {
		return nil, fmt.Errorf("cluster %s: move target %s is not a member", m.name, mv.To)
	}
	if _, busy := m.moving[mv.Slot]; busy {
		return nil, fmt.Errorf("cluster %s: slot %d already migrating", m.name, mv.Slot)
	}
	ms := &moveState{mv: mv, unfenced: make(chan struct{}), started: time.Now()}
	m.moving[mv.Slot] = ms
	return ms, nil
}

// fence blocks new writers for the slot and waits for in-flight ones to
// release, bounded by FenceTimeout.
func (m *Map) fence(ms *moveState) error {
	m.mu.Lock()
	ms.fenced = true
	var drained chan struct{}
	if m.inflight[ms.mv.Slot] > 0 {
		drained = make(chan struct{})
		ms.drained = drained
	}
	m.mu.Unlock()
	if drained == nil {
		return nil
	}
	select {
	case <-drained:
		return nil
	case <-time.After(m.cfg.FenceTimeout):
		m.fenceTimeouts.Inc()
		return fmt.Errorf("cluster %s: slot %d writers did not drain within %v", m.name, ms.mv.Slot, m.cfg.FenceTimeout)
	}
}

// commitMove flips the slot's owner, bumps and persists the table version,
// and unfences. files is the migrated-entry count, for the metrics.
func (m *Map) commitMove(ms *moveState, files int) error {
	m.mu.Lock()
	m.table.Owners[ms.mv.Slot] = ms.mv.To
	m.table.Version++
	if err := m.persistLocked(); err != nil {
		// The flip is not visible without its persisted version: revert.
		m.table.Owners[ms.mv.Slot] = ms.mv.From
		m.table.Version--
		m.mu.Unlock()
		return err
	}
	delete(m.moving, ms.mv.Slot)
	close(ms.unfenced)
	m.mu.Unlock()
	m.moves.Inc()
	m.movedFiles.Add(int64(files))
	m.moveHist.Observe(time.Since(ms.started))
	return nil
}

// abortMove releases the slot claim and unfences; ownership is unchanged.
func (m *Map) abortMove(ms *moveState) {
	m.mu.Lock()
	delete(m.moving, ms.mv.Slot)
	close(ms.unfenced)
	m.mu.Unlock()
	m.moveFails.Inc()
}

// Describe renders the /debug/cluster payload.
func (m *Map) Describe() any {
	m.mu.Lock()
	defer m.mu.Unlock()
	perMember := map[string][]int{}
	for slot, o := range m.table.Owners {
		perMember[o] = append(perMember[o], slot)
	}
	var moving []map[string]any
	for _, ms := range m.moving {
		moving = append(moving, map[string]any{
			"slot": ms.mv.Slot, "from": ms.mv.From, "to": ms.mv.To,
			"fenced": ms.fenced, "elapsed": time.Since(ms.started).String(),
		})
	}
	inflight := 0
	for _, n := range m.inflight {
		inflight += n
	}
	return map[string]any{
		"cluster":          m.name,
		"version":          m.table.Version,
		"slots":            m.table.Slots,
		"members":          m.memberListLocked(),
		"slots_by_member":  perMember,
		"moving":           moving,
		"inflight_writers": inflight,
		"routes":           m.routes.Load(),
		"moves":            m.moves.Load(),
		"move_failures":    m.moveFails.Load(),
		"migrated_files":   m.movedFiles.Load(),
	}
}
