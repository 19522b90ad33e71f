package main

import (
	"fmt"
	"math/rand"
	"time"
)

// query is one generated statement and the tables it reads.
type query struct {
	name   string
	sql    string
	tables []string
}

// item is one step of a workload: a DML batch (plus checkpoint) or a query.
type item struct {
	dml *dmlBatch
	q   query
}

// lit draws TPC-H-style substitution parameters from a seeded source.
// With strata > 1 every draw falls in the stratum-th of strata equal slices
// of its range: the dashboard draws each panel kind's filter values one per
// slice, so every seed's page spans the literal ranges alike and the page's
// cost varies little from seed to seed.
type lit struct {
	rng             *rand.Rand
	d               domains
	stratum, strata int
}

// intn returns a seeded integer in [0, n), within the stratum.
func (l lit) intn(n int) int {
	r := l.rng.Intn(n)
	if l.strata > 1 {
		r = (l.stratum*n + r) / l.strata
	}
	return r
}

// day returns DATE 'from + n days' with n in [0, span).
func (l lit) day(from string, span int) string {
	t, _ := time.Parse("2006-01-02", from)
	return "DATE '" + t.AddDate(0, 0, l.intn(span)).Format("2006-01-02") + "'"
}

func (l lit) pick(vals []string) string { return vals[l.intn(len(vals))] }

func (l lit) between(lo, hi int) int { return lo + l.intn(hi-lo+1) }

var (
	tLineitem = []string{"lineitem"}
	tOrdersLI = []string{"orders", "lineitem"}
	tLIPart   = []string{"lineitem", "part"}
	tCustOrdL = []string{"customer", "orders", "lineitem"}
)

// template renders one TPC-H query with fresh literals. The ORDER BY of
// every LIMIT query ends in a key, so engines cannot disagree on ties.
type template struct {
	name   string
	tables []string
	render func(l lit) string
}

// tpchTemplates are the repo's 11 TPC-H queries (internal/tpch) with their
// literals drawn per statement, day-granular for dates.
var tpchTemplates = []template{
	{"Q1", tLineitem, func(l lit) string {
		return fmt.Sprintf(`SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,
  SUM(l_extendedprice) AS sum_base_price, SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
  SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, AVG(l_quantity) AS avg_qty,
  AVG(l_extendedprice) AS avg_price, AVG(l_discount) AS avg_disc, COUNT(*) AS count_order
FROM lineitem WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '%d' DAY
GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`, l.between(60, 720))
	}},
	{"Q3", tCustOrdL, func(l lit) string {
		d := l.day("1995-01-01", 181)
		return fmt.Sprintf(`SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, o_orderdate, o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = '%s' AND c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate < %s AND l_shipdate > %s
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate, l_orderkey LIMIT 10`, l.pick(l.d.segments), d, d)
	}},
	{"Q4", tOrdersLI, func(l lit) string {
		d := l.day("1993-01-01", 1734)
		return fmt.Sprintf(`SELECT o_orderpriority, COUNT(*) AS order_count FROM orders
WHERE o_orderdate >= %s AND o_orderdate < %s + INTERVAL '3' MONTH
  AND o_orderkey IN (SELECT l_orderkey FROM lineitem WHERE l_commitdate < l_receiptdate)
GROUP BY o_orderpriority ORDER BY o_orderpriority`, d, d)
	}},
	{"Q5", []string{"customer", "orders", "lineitem", "supplier", "nation", "region"}, func(l lit) string {
		d := l.day("1993-01-01", 1461)
		return fmt.Sprintf(`SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = '%s' AND o_orderdate >= %s AND o_orderdate < %s + INTERVAL '1' YEAR
GROUP BY n_name ORDER BY revenue DESC, n_name`, l.pick(l.d.regions), d, d)
	}},
	{"Q6", tLineitem, func(l lit) string {
		d := l.day("1993-01-01", 1461)
		disc := l.between(2, 9)
		return fmt.Sprintf(`SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem
WHERE l_shipdate >= %s AND l_shipdate < %s + INTERVAL '1' YEAR
  AND l_discount BETWEEN 0.%02d AND 0.%02d AND l_quantity < %d`, d, d, disc-1, disc+1, l.between(24, 25))
	}},
	{"Q10", []string{"customer", "orders", "lineitem", "nation"}, func(l lit) string {
		d := l.day("1993-02-01", 700)
		return fmt.Sprintf(`SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue, c_acctbal, n_name
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate >= %s AND o_orderdate < %s + INTERVAL '3' MONTH
  AND l_returnflag = 'R' AND c_nationkey = n_nationkey
GROUP BY c_custkey, c_name, c_acctbal, n_name ORDER BY revenue DESC, c_custkey LIMIT 20`, d, d)
	}},
	{"Q12", tOrdersLI, func(l lit) string {
		m1 := l.pick(l.d.shipmodes)
		m2 := m1
		for m2 == m1 {
			m2 = l.pick(l.d.shipmodes)
		}
		d := l.day("1993-01-01", 1461)
		return fmt.Sprintf(`SELECT l_shipmode,
  SUM(CASE WHEN o_orderpriority = '1-URGENT' THEN 1 ELSE CASE WHEN o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END END) AS high_line_count,
  SUM(CASE WHEN o_orderpriority = '1-URGENT' THEN 0 ELSE CASE WHEN o_orderpriority = '2-HIGH' THEN 0 ELSE 1 END END) AS low_line_count
FROM orders, lineitem
WHERE o_orderkey = l_orderkey AND l_shipmode IN ('%s', '%s')
  AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
  AND l_receiptdate >= %s AND l_receiptdate < %s + INTERVAL '1' YEAR
GROUP BY l_shipmode ORDER BY l_shipmode`, m1, m2, d, d)
	}},
	{"Q14", tLIPart, func(l lit) string {
		d := l.day("1993-01-01", 1796)
		return fmt.Sprintf(`SELECT 100.00 * SUM(CASE WHEN p_type LIKE 'PROMO%%' THEN l_extendedprice * (1 - l_discount) ELSE 0 END)
  / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
FROM lineitem, part
WHERE l_partkey = p_partkey AND l_shipdate >= %s AND l_shipdate < %s + INTERVAL '1' MONTH`, d, d)
	}},
	{"Q18", tCustOrdL, func(l lit) string {
		return fmt.Sprintf(`SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, SUM(l_quantity) AS total_qty
FROM customer, orders, lineitem
WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem GROUP BY l_orderkey HAVING SUM(l_quantity) > %d)
  AND c_custkey = o_custkey AND o_orderkey = l_orderkey
GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
ORDER BY o_totalprice DESC, o_orderdate, o_orderkey LIMIT %d`, l.between(200, 225), l.between(90, 110))
	}},
	{"Q19", tLIPart, func(l lit) string {
		q1, q2, q3 := l.between(1, 10), l.between(10, 20), l.between(20, 30)
		return fmt.Sprintf(`SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue FROM lineitem, part
WHERE l_partkey = p_partkey
  AND ((p_brand = '%s' AND l_quantity BETWEEN %d AND %d AND p_size BETWEEN 1 AND 5)
    OR (p_brand = '%s' AND l_quantity BETWEEN %d AND %d AND p_size BETWEEN 1 AND 10)
    OR (p_brand = '%s' AND l_quantity BETWEEN %d AND %d AND p_size BETWEEN 1 AND 15))
  AND l_shipmode IN ('AIR', 'REG AIR') AND l_shipinstruct = 'DELIVER IN PERSON'`,
			l.pick(l.d.brands), q1, q1+10, l.pick(l.d.brands), q2, q2+10, l.pick(l.d.brands), q3, q3+10)
	}},
	{"Q21lite", []string{"supplier", "lineitem", "orders", "nation"}, func(l lit) string {
		return fmt.Sprintf(`SELECT s_name, COUNT(*) AS numwait FROM supplier, lineitem, orders, nation
WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey AND o_orderstatus = 'F'
  AND l_receiptdate > l_commitdate AND s_nationkey = n_nationkey AND n_name = '%s'
GROUP BY s_name ORDER BY numwait DESC, s_name LIMIT %d`, l.pick(l.d.nations), l.between(90, 110))
	}},
}

// panelTemplates are the dashboard's eight panel kinds. They spread over
// the write rotation so each written table makes a different share of the
// page stale: lineitem 15 of 24 panels, orders 9, customer 6, part 6.
var panelTemplates = []template{
	tpchTemplates[0], // Q1
	tpchTemplates[4], // Q6
	tpchTemplates[6], // Q12
	tpchTemplates[7], // Q14
	tpchTemplates[1], // Q3
	{"orders_by_priority", []string{"orders"}, func(l lit) string {
		d := l.day("1993-01-01", 1734)
		return fmt.Sprintf(`SELECT o_orderpriority, COUNT(*) AS order_count, SUM(o_totalprice) AS total
FROM orders WHERE o_orderdate >= %s AND o_orderdate < %s + INTERVAL '3' MONTH
GROUP BY o_orderpriority ORDER BY o_orderpriority`, d, d)
	}},
	{"customers_by_nation", []string{"customer"}, func(l lit) string {
		return fmt.Sprintf(`SELECT c_nationkey, COUNT(*) AS customers, SUM(c_acctbal) AS balance
FROM customer WHERE c_mktsegment = '%s' GROUP BY c_nationkey ORDER BY c_nationkey`, l.pick(l.d.segments))
	}},
	{"parts_by_brand", []string{"part"}, func(l lit) string {
		return fmt.Sprintf(`SELECT p_brand, COUNT(*) AS parts, SUM(p_retailprice) AS list_value
FROM part WHERE p_size <= %d GROUP BY p_brand ORDER BY p_brand`, l.between(10, 40))
	}},
}

// panelsPerTemplate is the number of filter values each panel kind shows.
const panelsPerTemplate = 3

// generator yields a workload's seeded item stream, round by round.
// Rounds depend only on the seed and on the rounds drawn before them, so a
// fresh generator on the same seed replays the same stream.
type generator struct {
	w    *workload
	l    lit
	dml  *dmlGen
	seen map[string]bool // statements already issued: fresh streams never repeat
	page []query         // the dashboard's fixed page
	nq   int             // queries drawn so far (tray write cadence)
	nw   int             // write batches drawn so far (rotation position)
}

func newGenerator(w *workload, seed int64, d domains) *generator {
	g := &generator{
		w:    w,
		l:    lit{rng: rand.New(rand.NewSource(seed ^ 0x5EED)), d: d},
		dml:  newDMLGen(seed, d),
		seen: map[string]bool{},
	}
	if w.kind == kindDashboard {
		for _, t := range panelTemplates {
			for i := 0; i < panelsPerTemplate; i++ {
				l := g.l
				l.stratum, l.strata = i, panelsPerTemplate
				g.page = append(g.page, g.fresh(t, l))
			}
		}
	}
	return g
}

// fresh renders t with literals drawn by l that were not used before in
// this stream.
func (g *generator) fresh(t template, l lit) query {
	for {
		sql := t.render(l)
		if !g.seen[sql] {
			g.seen[sql] = true
			return query{name: t.name, sql: sql, tables: t.tables}
		}
	}
}

// writeRotation is the order write batches visit the tables. lineitem takes
// two slots of five, so the populations of round (and reload) cost are
// unequal and no reported percentile falls on the seam between two.
var writeRotation = []string{"lineitem", "orders", "lineitem", "customer", "part"}

func (g *generator) write() item {
	t := writeRotation[g.nw%len(writeRotation)]
	g.nw++
	return item{dml: g.dml.batch(t)}
}

// warmup is the untimed round every DB instance runs first: the page once
// (cold cache fill) on dashboard, one fresh pass of the templates elsewhere.
func (g *generator) warmup() []item {
	if g.w.kind == kindDashboard {
		return g.pageItems()
	}
	return g.pass(false)
}

func (g *generator) pageItems() []item {
	items := make([]item, len(g.page))
	for i, q := range g.page {
		items[i] = item{q: q}
	}
	return items
}

// pass draws each TPC-H template once, in seeded order, with fresh
// literals; with writes on, a write batch precedes every trayWriteEvery-th
// query.
func (g *generator) pass(writes bool) []item {
	var items []item
	for _, i := range g.l.rng.Perm(len(tpchTemplates)) {
		if writes && g.nq%trayWriteEvery == 0 {
			items = append(items, g.write())
		}
		items = append(items, item{q: g.fresh(tpchTemplates[i], g.l)})
		g.nq++
	}
	return items
}

// next draws the next measured round.
func (g *generator) next() []item {
	switch g.w.kind {
	case kindDashboard:
		return append([]item{g.write()}, g.pageItems()...)
	case kindTray:
		return g.pass(true)
	default:
		return g.pass(false)
	}
}
