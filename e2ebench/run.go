package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"rapid"
	"rapid/internal/cluster"
	"rapid/internal/obs"
)

// counters are the registry series read around every program call. Their
// deltas give the simulated cost of exactly that call.
type counters struct {
	cycles, dmsRead, dmsWrite, tilesPruned, netBytes, actNJ, idleNJ, netNJ *obs.Counter
}

func newCounters(reg *obs.Registry) counters {
	return counters{
		cycles:      reg.Counter("rapid_dpcore_cycles_total"),
		dmsRead:     reg.Counter("rapid_dms_read_bytes_total"),
		dmsWrite:    reg.Counter("rapid_dms_write_bytes_total"),
		tilesPruned: reg.Counter("rapid_tiles_pruned_total"),
		netBytes:    reg.Counter("rapid_net_bytes_total"),
		actNJ:       reg.Counter("rapid_activity_energy_nanojoules_total"),
		idleNJ:      reg.Counter("rapid_idle_energy_nanojoules_total"),
		netNJ:       reg.Counter("rapid_net_energy_nanojoules_total"),
	}
}

// cost is one call's simulated and counted figures.
type cost struct {
	cycles, dmsRead, dmsWrite, tilesPruned, netBytes, actNJ, idleNJ, netNJ int64
}

func (c counters) read() cost {
	return cost{c.cycles.Value(), c.dmsRead.Value(), c.dmsWrite.Value(), c.tilesPruned.Value(),
		c.netBytes.Value(), c.actNJ.Value(), c.idleNJ.Value(), c.netNJ.Value()}
}

func (a cost) minus(b cost) cost {
	return cost{a.cycles - b.cycles, a.dmsRead - b.dmsRead, a.dmsWrite - b.dmsWrite, a.tilesPruned - b.tilesPruned,
		a.netBytes - b.netBytes, a.actNJ - b.actNJ, a.idleNJ - b.idleNJ, a.netNJ - b.netNJ}
}

func (c cost) energyNJ() int64 { return c.actNJ + c.idleNJ + c.netNJ }

// record is one program call of a run: a query or a write batch with its
// checkpoint.
type record struct {
	round  int // -1 for the warm-up round
	name   string
	write  bool
	table  string // written table (write records)
	rows   int    // rows written (write records)
	status string // cache status (query records)
	reload bool   // tray query that rebuilds shards of a table written before it
	start  time.Time
	wall   time.Duration
	// dmlWall is the part of a write record's wall spent in the DML calls;
	// the rest is the checkpoint.
	dmlWall time.Duration
	// queueWait is the scheduler admission wait of a host-path query.
	queueWait time.Duration
	sim       float64 // Result.SimulatedSeconds: the tray makespan on the tray
	cost      cost
	digest    uint64
}

// figure names one reproducible value of a record for the determinism gate.
type figure struct {
	name  string
	value string
	exact bool // false: derived from dpCore cycles, which the engine does not yet reproduce (README)
}

func (r *record) figures() []figure {
	i := func(v int64) string { return fmt.Sprint(v) }
	return []figure{
		{"cache status", r.status, true},
		{"result digest", fmt.Sprintf("%016x", r.digest), true},
		{"tiles pruned", i(r.cost.tilesPruned), true},
		{"net bytes", i(r.cost.netBytes), true},
		{"DMS read bytes", i(r.cost.dmsRead), true},
		{"DMS write bytes", i(r.cost.dmsWrite), true},
		{"dpCore cycles", i(r.cost.cycles), false},
		{"simulated seconds", fmt.Sprintf("%x", math.Float64bits(r.sim)), false},
		{"activity nJ", i(r.cost.actNJ), false},
		{"idle nJ", i(r.cost.idleNJ), false},
		{"net nJ", i(r.cost.netNJ), true},
	}
}

func (r *record) label() string {
	if r.round < 0 {
		return fmt.Sprintf("warm-up %s", r.name)
	}
	return fmt.Sprintf("round %d %s", r.round, r.name)
}

// gateResult is the outcome of comparing two runs of one seed.
type gateResult struct {
	exactDiverged int    // exact figures that differ: each fails the run
	cycleDiverged int    // cycle-derived figures that differ (reported)
	firstExact    string // first diverging exact figure
	firstCycle    string // first diverging cycle-derived figure
}

// compareRuns is the determinism gate: two runs of the same seed must
// produce the same figures, call by call.
func compareRuns(a, b []record) gateResult {
	var g gateResult
	if len(a) != len(b) {
		g.exactDiverged++
		g.firstExact = fmt.Sprintf("call count: %d vs %d", len(a), len(b))
		return g
	}
	for i := range a {
		fa, fb := a[i].figures(), b[i].figures()
		for j := range fa {
			if fa[j].value == fb[j].value {
				continue
			}
			msg := fmt.Sprintf("%s: %s %s vs %s", a[i].label(), fa[j].name, fa[j].value, fb[j].value)
			if fa[j].exact {
				if g.exactDiverged == 0 {
					g.firstExact = msg
				}
				g.exactDiverged++
			} else {
				if g.cycleDiverged == 0 {
					g.firstCycle = msg
				}
				g.cycleDiverged++
			}
		}
	}
	return g
}

// digest hashes a result as a multiset of rendered rows, so engines that
// agree on content but not on the order of unordered rows compare equal.
func digest(rows, cols int, cell func(r, c int) string) uint64 {
	lines := make([]string, rows)
	var sb strings.Builder
	for r := 0; r < rows; r++ {
		sb.Reset()
		for c := 0; c < cols; c++ {
			sb.WriteString(cell(r, c))
			sb.WriteByte('|')
		}
		lines[r] = sb.String()
	}
	sort.Strings(lines)
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\n", cols)
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func resultDigest(res *rapid.Result) uint64 {
	return digest(res.Rows(), res.NumCols(), res.Get)
}

// checks counts operations attempted and failed, keeping the first few
// failure messages for the report.
type checks struct {
	attempted, failed int
	msgs              []string
}

func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.msgs) < 5 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// runner drives one DB instance through a workload's item stream.
type runner struct {
	w     *workload
	db    *rapid.DB
	ctr   counters
	chk   *checks
	dirty map[string]bool // tray: tables written since a tray query last read them

	// trayQuery, when set, replaces the rapid.DB call with the Tray.QueryCtx
	// call it makes, so the traced run sees the tray's Result split.
	trayQuery func(sql string) (*cluster.Result, error)
	lastTray  *cluster.Result

	oracleN, oracleFailed int
	oracleTime            time.Duration
	oracleAlloc           uint64

	// Dashboard stale-hit check: calls are numbered in issue order; the
	// call at which each panel last executed and each table was last written.
	seq       int
	panelRun  map[string]int
	written   map[string]int
	roundHits []int // per measured round: panels served from the cache
}

func newRunner(w *workload, db *rapid.DB, chk *checks) *runner {
	return &runner{
		w: w, db: db, ctr: newCounters(db.Metrics()), chk: chk,
		dirty: map[string]bool{}, panelRun: map[string]int{}, written: map[string]int{},
	}
}

// write applies a batch and checkpoints its table.
func (r *runner) write(b *dmlBatch, round int) record {
	r.chk.attempted++
	rec := record{round: round, name: "write " + b.table, write: true, table: b.table, rows: b.rows(), start: time.Now()}
	err := b.apply(r.db)
	rec.dmlWall = time.Since(rec.start)
	if err == nil {
		err = r.db.Checkpoint(b.table)
	}
	rec.wall = time.Since(rec.start)
	if err != nil {
		r.chk.fail("%s: %v", rec.label(), err)
	}
	r.seq++
	r.written[b.table] = r.seq
	r.dirty[b.table] = true
	return rec
}

// view is a query result as rendered cells.
type view struct {
	rows, cols int
	cell       func(r, c int) string
}

func (v view) digest() uint64 { return digest(v.rows, v.cols, v.cell) }

// query issues q on the simulated DPU through rapid.DB (or, when trayQuery
// is set, through the tray it wraps) and applies the structural cache
// checks. ok is false when the call failed.
func (r *runner) query(q query, round int) (rec record, v view, ok bool) {
	r.chk.attempted++
	rec = record{round: round, name: q.name}
	before := r.ctr.read()
	rec.start = time.Now()
	var err error
	if r.trayQuery != nil {
		var tr *cluster.Result
		tr, err = r.trayQuery(q.sql)
		rec.wall = time.Since(rec.start)
		if err == nil {
			r.lastTray = tr
			rec.status, rec.sim = tr.Cache, tr.SimSeconds
			v = view{tr.Rel.Rows(), tr.Rel.NumCols(), tr.Rel.Render}
		}
	} else {
		var res *rapid.Result
		res, err = r.db.QueryWith(q.sql, rapid.Options{Engine: rapid.EngineRapidDPU})
		rec.wall = time.Since(rec.start)
		if err == nil {
			rec.status, rec.sim = res.CacheStatus(), res.SimulatedSeconds()
			rec.queueWait = res.QueueWait()
			v = view{res.Rows(), res.NumCols(), res.Get}
		}
	}
	rec.cost = r.ctr.read().minus(before)
	for _, t := range q.tables {
		if r.dirty[t] {
			rec.reload = r.w.nodes > 0
			delete(r.dirty, t)
		}
	}
	if err != nil {
		r.chk.fail("%s: %v", rec.label(), err)
		return rec, v, false
	}
	r.checkStatus(q, &rec)
	return rec, v, true
}

// checkStatus enforces the cache's structural contract: a stream that never
// repeats a statement sees no hits, and no dashboard panel whose table was
// written since it last executed is served as a hit.
func (r *runner) checkStatus(q query, rec *record) {
	if r.w.kind != kindDashboard {
		if rec.status == "hit" {
			r.chk.fail("%s: cache hit on a statement issued for the first time", rec.label())
		}
		return
	}
	r.seq++
	if rec.status == "hit" {
		last, ran := r.panelRun[q.sql]
		for _, t := range q.tables {
			if w, ok := r.written[t]; ok && (!ran || w > last) {
				r.chk.fail("%s: served as a hit although %s was written after the panel last ran", rec.label(), t)
				break
			}
		}
		return
	}
	r.panelRun[q.sql] = r.seq
}

// round runs one round's items and returns their records and the round's
// wall time: the sum of its program calls, bookkeeping between them left
// out. With check set, every answered
// query is compared against the oracle right after it ran, before any later
// write, and outside the round's wall time.
func (r *runner) round(items []item, round int, check bool) ([]record, time.Duration) {
	if round >= 0 {
		r.roundHits = append(r.roundHits, 0)
	}
	recs := make([]record, len(items))
	views := make([]view, len(items))
	var wall time.Duration
	for i, it := range items {
		if it.dml != nil {
			recs[i] = r.write(it.dml, round)
			wall += recs[i].wall
			continue
		}
		var ok bool
		recs[i], views[i], ok = r.query(it.q, round)
		wall += recs[i].wall
		if round >= 0 && recs[i].status == "hit" {
			r.roundHits[len(r.roundHits)-1]++
		}
		if ok && check {
			recs[i].digest = views[i].digest()
			r.oracle(it.q, recs[i])
		}
	}
	for i, v := range views {
		if v.cell != nil && !check {
			recs[i].digest = v.digest()
		}
	}
	return recs, wall
}

// oracle compares an answered query against the host row engine with the
// cache bypassed, on the same data, and counts a mismatch as a failed
// operation. Its time and allocations are tallied so that timed runs can
// leave them out.
func (r *runner) oracle(q query, rec record) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	r.oracleN++
	want, err := r.db.QueryWith(q.sql, rapid.Options{Engine: rapid.EngineHost, NoCache: true})
	switch {
	case err != nil:
		r.oracleFailed++
		r.chk.fail("%s: oracle: %v", rec.label(), err)
	case resultDigest(want) != rec.digest:
		r.oracleFailed++
		r.chk.fail("%s: result differs from the host row engine (%d rows there)", rec.label(), want.Rows())
	}
	r.oracleTime += time.Since(start)
	runtime.ReadMemStats(&b)
	r.oracleAlloc += b.TotalAlloc - a.TotalAlloc
}

// fixedPopulation runs the warm-up and the seed-fixed rounds: the part of
// a run that the determinism gate replays.
func fixedPopulation(r *runner, g *generator) []record {
	recs, _ := r.round(g.warmup(), -1, false)
	for i := 0; i < r.w.fixed; i++ {
		rs, _ := r.round(g.next(), i, false)
		recs = append(recs, rs...)
	}
	return recs
}
