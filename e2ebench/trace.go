package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rapid"
	"rapid/internal/cluster"
	"rapid/internal/hostdb"
	"rapid/internal/obs"
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/qcomp"
	"rapid/internal/qef"
	"rapid/internal/sched"
	"rapid/internal/sqlparse"
	"rapid/internal/storage"
)

// traceDir is where the traced run writes its span file, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/traces"

// span is one timed call: name, start, end, the span that caused it, and
// the request it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"` // request spans: what was issued
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(name string, parent, req int, start time.Time, d time.Duration) int {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: s, End: s + d.Nanoseconds()})
	return len(t.spans)
}

// timed runs f and records it as a span.
func (t *tracer) timed(name string, parent, req int, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	t.add(name, parent, req, start, d)
	return d
}

func (t *tracer) setEnd(id int, end time.Time) { t.spans[id-1].End = end.Sub(t.t0).Nanoseconds() }

// finish computes self time: each span minus the part its children cover.
// Children of one span never overlap (one request runs at a time).
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent > 0 {
			t.spans[s.Parent-1].Self -= s.End - s.Start
		}
	}
}

// durations lists the durations of the spans with a name, in ns.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += float64(s.Self) / 1e6
	}
	b, err := json.Marshal(struct {
		Spans    []span             `json:"spans"`
		SelfMsBy map[string]float64 `json:"self_ms_by_name"`
	}{t.spans, self})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// hostCatalog binds against the loaded RAPID replicas, the way the host
// path's own catalog does.
type hostCatalog struct{ h *hostdb.Database }

func (c hostCatalog) Lookup(name string) (*storage.Table, error) {
	t, err := c.h.Table(name)
	if err != nil {
		return nil, err
	}
	if rt := t.Rapid(); rt != nil {
		return rt, nil
	}
	return nil, fmt.Errorf("table %q not loaded", name)
}

// layerStats are the counted figures of one layer-by-layer request.
type layerStats struct {
	total                   time.Duration
	tilesPruned, tilesTotal int64
	workUnits, poolGrows    int64
}

// layered drives one query through the host path's public functions one
// layer at a time, each call a span under parent.
func layered(tr *tracer, db *rapid.DB, reg *obs.Registry, sql string, parent, req int) (view, layerStats, error) {
	var st layerStats
	h := db.Host()
	var (
		stmt     *sqlparse.SelectStmt
		node     plan.Node
		compiled *qcomp.Compiled
		qctx     *qef.Context
		adm      *sched.Admission
		rel      *ops.Relation
		err      error
	)
	units0, grows0 := reg.Counter("qef_work_units_total").Value(), reg.Counter("qef_pool_grows_total").Value()
	start := time.Now()
	steps := []struct {
		name string
		f    func()
	}{
		{"sqlparse.normalize", func() { _, err = sqlparse.Normalize(sql) }},
		{"sqlparse.parse", func() { stmt, err = sqlparse.Parse(sql) }},
		{"sqlparse.bind", func() { node, err = sqlparse.Bind(stmt, hostCatalog{h}, h.CurrentSCN()) }},
		{"qcomp.cost", func() { qcomp.OffloadBenefit(node) }},
		{"qcomp.compile", func() { compiled, err = qcomp.Compile(node) }},
		{"qef.context", func() { qctx = qef.NewContext(qef.ModeDPU) }},
		{"sched.admit", func() {
			adm, err = h.Scheduler().Admit(context.Background(), sched.Request{Cores: qctx.Workers()})
		}},
		{"qef.execute", func() {
			qctx.Metrics = reg
			qctx.Exec = adm
			rel, err = compiled.Execute(qctx)
		}},
		{"sched.release", func() { adm.Release() }},
	}
	for _, s := range steps {
		tr.timed(s.name, parent, req, s.f)
		if err != nil {
			if adm != nil {
				adm.Release()
			}
			return view{}, st, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	st.total = time.Since(start)
	st.tilesPruned = qctx.TilesPruned()
	st.workUnits = reg.Counter("qef_work_units_total").Value() - units0
	st.poolGrows = reg.Counter("qef_pool_grows_total").Value() - grows0
	walkScans(node, func(s *plan.Scan) { st.tilesTotal += int64(len(s.Table.Snapshot(s.SCN).Chunks())) })
	return view{rel.Rows(), rel.NumCols(), rel.Render}, st, nil
}

func walkScans(n plan.Node, fn func(*plan.Scan)) {
	if s, ok := n.(*plan.Scan); ok {
		fn(s)
		return
	}
	for _, c := range n.Children() {
		walkScans(c, fn)
	}
}

// contextKB measures the bytes one qef.NewContext allocates.
func contextKB() float64 {
	const n = 8
	keep := make([]*qef.Context, n)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := range keep {
		keep[i] = qef.NewContext(qef.ModeDPU)
	}
	runtime.ReadMemStats(&b)
	runtime.KeepAlive(keep)
	return float64(b.TotalAlloc-a.TotalAlloc) / 1024 / n
}

// tracedPass accumulates the traced pass: spans plus the per-layer tallies.
type tracedPass struct {
	w     *workload
	db    *rapid.DB
	r     *runner
	tr    *tracer
	reg   *obs.Registry // layer-by-layer counters, kept off the DB's registry
	fixed []record      // records of the warm-up and seed-fixed rounds

	req, layerN, dbQueries, dmlRows, trayN int
	lay                                    layerStats
	lifecycle                              []float64 // us, host path
	dbCost                                 cost
	queueWait, dmlWall                     time.Duration
	netBytes, shardsPruned                 int64
	nodeSim, netSim, coordSim              float64
	// Program calls, and whole traced requests, of the seed-fixed rounds
	// (warm-up excluded).
	fixedCalls, fixedRequests time.Duration
}

// item runs one request as a root span with the program call(s) under it,
// then checks a query's result against the host row engine, untimed.
func (p *tracedPass) item(it item, round int) {
	p.req++
	start := time.Now()
	root := p.tr.add("request", 0, p.req, start, 0)
	var rec record
	var calls time.Duration
	ok := false
	if it.dml != nil {
		rec, calls = p.write(it.dml, round, root)
	} else {
		rec, ok = p.query(it.q, round, root)
		calls = rec.wall
	}
	end := time.Now()
	p.tr.setEnd(root, end)
	p.tr.spans[root-1].Label = rec.label()
	if round < p.w.fixed {
		p.fixed = append(p.fixed, rec)
	}
	if round >= 0 && round < p.w.fixed {
		p.fixedCalls += calls
		p.fixedRequests += end.Sub(start)
	}
	if ok {
		p.r.oracle(it.q, rec)
	}
}

func (p *tracedPass) write(b *dmlBatch, round, root int) (record, time.Duration) {
	rec := p.r.write(b, round)
	p.tr.add("hostdb.dml", root, p.req, rec.start, rec.dmlWall)
	p.tr.add("storage.checkpoint", root, p.req, rec.start.Add(rec.dmlWall), rec.wall-rec.dmlWall)
	p.dmlWall += rec.dmlWall
	p.dmlRows += rec.rows
	calls := rec.wall
	if p.w.nodes > 0 {
		// The shard reload the next tray query reading the table would pay,
		// timed on its own.
		calls += p.tr.timed("cluster.reload", root, p.req, func() {
			if err := p.db.Tray().Load(b.table, nil); err != nil {
				p.r.chk.fail("%s: tray reload: %v", rec.label(), err)
			}
		})
		delete(p.r.dirty, b.table)
	}
	return rec, calls
}

func (p *tracedPass) query(q query, round, root int) (record, bool) {
	rec, v, ok := p.r.query(q, round)
	name := "rapid.query"
	switch {
	case rec.status == "hit":
		name = "qcache.hit"
	case p.w.nodes > 0:
		name = "cluster.query"
	}
	p.tr.add(name, root, p.req, rec.start, rec.wall)
	p.dbQueries++
	p.dbCost = p.dbCost.plus(rec.cost)
	p.queueWait += rec.queueWait
	if !ok {
		return rec, false
	}
	rec.digest = v.digest()
	if t := p.r.lastTray; p.w.nodes > 0 {
		p.trayN++
		p.netBytes += t.NetBytes
		p.shardsPruned += int64(t.ShardsPruned)
		p.nodeSim += t.NodeSimSeconds
		p.netSim += t.NetSeconds
		p.coordSim += t.CoordSimSeconds
		p.queueWait += t.QueueWait
	}
	if rec.status == "hit" {
		return rec, true
	}
	lv, st, err := layered(p.tr, p.db, p.reg, q.sql, root, p.req)
	switch {
	case err != nil:
		p.r.chk.fail("%s: layer by layer: %v", rec.label(), err)
	case lv.digest() != rec.digest:
		p.r.chk.fail("%s: layer-by-layer result differs from the rapid.DB result", rec.label())
	default:
		p.layerN++
		p.lay = p.lay.plus(st)
		if p.w.nodes == 0 {
			p.lifecycle = append(p.lifecycle, float64(rec.wall-st.total)/1e3)
		}
	}
	return rec, true
}

// traced is the per-layer run. It replays the warm-up and seed-fixed
// rounds twice, each on a fresh instance: once untraced, then traced, where
// every request not answered by the cache is also driven layer by layer on
// the host path, and every result is checked against the rapid.DB result
// and the host row engine. The traced pass then continues with further
// rounds until the measured time has passed. The two passes are the
// determinism gate, and their wall times give the tracing overhead.
func traced(w *workload, seed int64, dur time.Duration) (output, error) {
	chk := &checks{}
	data := generate(seed)
	dom := newDomains(data)
	cfg := rapid.Config{Nodes: w.nodes}

	// Both passes run with the generated rows released, so the live heap,
	// and with it the GC's share of the time, is the same in each.
	dbA, _, err := setup(cfg, data)
	if err != nil {
		return output{}, err
	}
	data = nil
	runtime.GC()
	recsA := fixedPopulation(newRunner(w, dbA, chk), newGenerator(w, seed, dom))
	dbA.Close()
	var untraced time.Duration
	for _, r := range recsA {
		if r.round >= 0 {
			untraced += r.wall
		}
	}

	runtime.GC()
	db, _, err := setup(cfg, generate(seed))
	if err != nil {
		return output{}, err
	}
	defer db.Close()
	runtime.GC()

	p := &tracedPass{w: w, db: db, r: newRunner(w, db, chk), tr: &tracer{t0: time.Now()}, reg: obs.NewRegistry()}
	if w.nodes > 0 {
		p.r.trayQuery = func(sql string) (*cluster.Result, error) {
			return db.Tray().QueryCtx(context.Background(), sql, cluster.QueryOptions{Mode: qef.ModeDPU})
		}
	}
	g := newGenerator(w, seed, dom)
	cache0 := db.CacheStats()
	for _, it := range g.warmup() {
		p.item(it, -1)
	}
	start := time.Now()
	for round := 0; round < w.fixed || time.Since(start)-p.r.oracleTime < dur; round++ {
		for _, it := range g.next() {
			p.item(it, round)
		}
	}
	p.tr.finish()
	cache1 := db.CacheStats()

	gate := compareRuns(recsA, p.fixed)
	if gate.exactDiverged > 0 {
		chk.failed += gate.exactDiverged
		chk.msgs = append(chk.msgs, "determinism gate: "+gate.firstExact)
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := p.tr.write(path); err != nil {
		return output{}, fmt.Errorf("write spans: %w", err)
	}

	us := func(name string) float64 { return median(p.tr.durations(name)) / 1e3 }
	per := func(v float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	q := int64(p.dbQueries)
	contexts := 1.0 // qef contexts per query
	if w.nodes > 0 {
		contexts = float64(w.nodes + 1)
	}
	planLookups := cache1.PlanHits - cache0.PlanHits + cache1.PlanMisses - cache0.PlanMisses
	m := map[string]metric{
		"sqlparse.normalize_us":       {us("sqlparse.normalize"), "us"},
		"sqlparse.parse_us":           {us("sqlparse.parse"), "us"},
		"sqlparse.bind_us":            {us("sqlparse.bind"), "us"},
		"qcache.hit_ratio":            {per(float64(cache1.Hits-cache0.Hits), q), "ratio"},
		"qcache.stale_ratio":          {per(float64(cache1.Stale-cache0.Stale), q), "ratio"},
		"qcache.plan_hit_ratio":       {per(float64(cache1.PlanHits-cache0.PlanHits), planLookups), "ratio"},
		"qcache.hit_us":               {us("qcache.hit"), "us"},
		"qcache.resident_mb":          {float64(cache1.ResidentBytes) / (1 << 20), "MB"},
		"qcache.evictions":            {float64(cache1.Evictions - cache0.Evictions), "count"},
		"qcomp.cost_us":               {us("qcomp.cost"), "us"},
		"qcomp.compile_us":            {us("qcomp.compile"), "us"},
		"qef.context_us":              {us("qef.context"), "us"},
		"qef.context_kb":              {contextKB() * contexts, "KB"},
		"qef.execute_ms":              {us("qef.execute") / 1e3, "ms"},
		"qef.work_units_per_query":    {per(float64(p.lay.workUnits), int64(p.layerN)), "count"},
		"mem.pool_grows_per_query":    {per(float64(p.lay.poolGrows), int64(p.layerN)), "count"},
		"sched.admit_us":              {us("sched.admit"), "us"},
		"sched.queue_wait_ms":         {per(ms(p.queueWait), q), "ms"},
		"dpu.cycles_per_query":        {per(float64(p.dbCost.cycles), q), "cycles"},
		"dms.read_kb_per_query":       {per(float64(p.dbCost.dmsRead)/1024, q), "KB"},
		"dms.write_kb_per_query":      {per(float64(p.dbCost.dmsWrite)/1024, q), "KB"},
		"power.activity_uj_per_query": {per(float64(p.dbCost.actNJ)/1e3, q), "uJ"},
		"power.idle_uj_per_query":     {per(float64(p.dbCost.idleNJ)/1e3, q), "uJ"},
		"storage.tiles_pruned_ratio":  {per(float64(p.lay.tilesPruned), p.lay.tilesTotal), "ratio"},
		"storage.checkpoint_ms":       {us("storage.checkpoint") / 1e3, "ms"},
		"hostdb.dml_us_per_row":       {per(float64(p.dmlWall)/1e3, int64(p.dmlRows)), "us"},
		"hostdb.lifecycle_us":         {mean(p.lifecycle), "us"},
		"cluster.query_ms":            {us("cluster.query") / 1e3, "ms"},
		"cluster.net_kb_per_query":    {per(float64(p.netBytes)/1024, int64(p.trayN)), "KB"},
		"cluster.node_sim_ms":         {per(p.nodeSim*1e3, int64(p.trayN)), "ms"},
		"cluster.net_sim_ms":          {per(p.netSim*1e3, int64(p.trayN)), "ms"},
		"cluster.coord_sim_ms":        {per(p.coordSim*1e3, int64(p.trayN)), "ms"},
		"cluster.shards_pruned_ratio": {per(float64(p.shardsPruned), int64(p.trayN*w.nodes)), "ratio"},
		"cluster.reload_ms":           {us("cluster.reload") / 1e3, "ms"},
		"trace.calls_wall_ratio":      {float64(p.fixedCalls) / float64(untraced), "ratio"},
		"trace.requests_wall_ratio":   {float64(p.fixedRequests) / float64(untraced), "ratio"},
		"determinism.exact_divergent": {float64(gate.exactDiverged), "count"},
		"determinism.cycle_divergent": {float64(gate.cycleDiverged), "count"},
	}

	fmt.Printf("traced: %d requests (%d driven layer by layer), %d spans in %s\n", p.req, p.layerN, len(p.tr.spans), path)
	fmt.Printf("tracing overhead over the seed-fixed rounds: traced program calls %.3f s vs untraced %.3f s (x%.3f); whole traced requests x%.3f\n",
		p.fixedCalls.Seconds(), untraced.Seconds(), m["trace.calls_wall_ratio"].Value, m["trace.requests_wall_ratio"].Value)
	printGate(gate, len(p.fixed))
	fmt.Printf("oracle: %d queries checked against the host row engine, %d failed\n", p.r.oracleN, p.r.oracleFailed)
	printChecks(chk)
	return output{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: m}, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func (a cost) plus(b cost) cost {
	return cost{a.cycles + b.cycles, a.dmsRead + b.dmsRead, a.dmsWrite + b.dmsWrite, a.tilesPruned + b.tilesPruned,
		a.netBytes + b.netBytes, a.actNJ + b.actNJ, a.idleNJ + b.idleNJ, a.netNJ + b.netNJ}
}

func (a layerStats) plus(b layerStats) layerStats {
	return layerStats{a.total + b.total, a.tilesPruned + b.tilesPruned, a.tilesTotal + b.tilesTotal,
		a.workUnits + b.workUnits, a.poolGrows + b.poolGrows}
}
