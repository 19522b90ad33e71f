package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"rapid"
	"rapid/internal/tpch"
)

// scaleFactor sizes the shared dataset: ~120k lineitem rows, where the
// TPC-H templates run in 1-300 ms through rapid.DB on a 2-core host.
const scaleFactor = 0.02

// generate builds the seeded TPC-H dataset. lineitem arrives in l_shipdate
// order, the way time-ordered facts reach a real fact table, so zone-map
// pruning works on the date-range templates and not on the others.
func generate(seed int64) *tpch.Data {
	return tpch.Generate(tpch.Config{ScaleFactor: scaleFactor, Seed: seed, ClusterByShipDate: true})
}

// setup loads the dataset through the public API: CreateTable, Insert and
// Load per table (Load also builds the tray shards when the DB has one).
// The returned duration covers exactly those calls.
func setup(cfg rapid.Config, data *tpch.Data) (*rapid.DB, time.Duration, error) {
	db := rapid.OpenWith(cfg)
	schemas := tpch.Schemas()
	start := time.Now()
	for _, name := range tpch.TableNames() {
		s := schemas[name]
		cols := make([]rapid.Column, s.NumCols())
		for i := range cols {
			cols[i] = s.Col(i)
		}
		if err := db.CreateTable(name, cols...); err != nil {
			db.Close()
			return nil, 0, fmt.Errorf("create %s: %w", name, err)
		}
		if err := db.Insert(name, data.Tables[name]); err != nil {
			db.Close()
			return nil, 0, fmt.Errorf("insert %s: %w", name, err)
		}
		if err := db.Load(name); err != nil {
			db.Close()
			return nil, 0, fmt.Errorf("load %s: %w", name, err)
		}
	}
	return db, time.Since(start), nil
}

// domains are the literal value sets the statement generators draw from,
// read off the generated data so every drawn literal exists in it.
type domains struct {
	regions, nations, segments, shipmodes, brands []string
	rows                                          map[string]int // base row count per table
}

func newDomains(data *tpch.Data) domains {
	distinct := func(table string, col int) []string {
		seen := map[string]bool{}
		for _, r := range data.Tables[table] {
			seen[r[col].Str] = true
		}
		out := make([]string, 0, len(seen))
		for s := range seen {
			out = append(out, s)
		}
		sort.Strings(out)
		return out
	}
	d := domains{
		regions:   distinct("region", 1),
		nations:   distinct("nation", 1),
		segments:  distinct("customer", 4),
		shipmodes: distinct("lineitem", 14),
		brands:    distinct("part", 2),
		rows:      map[string]int{},
	}
	for name, rows := range data.Tables {
		d.rows[name] = len(rows)
	}
	return d
}

// dmlBatch is one small write transaction on one table, followed by an
// explicit Checkpoint of that table.
type dmlBatch struct {
	table   string
	updates []cellUpdate
	inserts [][]rapid.Value
	deletes []int
}

type cellUpdate struct {
	row, col int
	val      rapid.Value
}

// rows is the number of rows the batch touches.
func (b *dmlBatch) rows() int { return len(b.updates) + len(b.inserts) + len(b.deletes) }

// dmlGen draws seeded DML batches. Updates and deletes target only rows
// present at load time and never a row it already deleted; inserted rows
// get fresh keys.
type dmlGen struct {
	rng     *rand.Rand
	rows    map[string]int
	deleted map[string]map[int]bool
	nextKey map[string]int64
}

func newDMLGen(seed int64, d domains) *dmlGen {
	g := &dmlGen{
		rng:     rand.New(rand.NewSource(seed ^ 0xD31)),
		rows:    d.rows,
		deleted: map[string]map[int]bool{},
		nextKey: map[string]int64{},
	}
	for _, t := range rotationTables {
		g.deleted[t] = map[int]bool{}
		g.nextKey[t] = int64(d.rows[t]) + 1
	}
	return g
}

// rotationTables are the tables the write rotations cycle over.
var rotationTables = []string{"lineitem", "orders", "customer", "part"}

// liveRow draws a load-time row of table that has not been deleted.
func (g *dmlGen) liveRow(table string) int {
	for {
		r := g.rng.Intn(g.rows[table])
		if !g.deleted[table][r] {
			return r
		}
	}
}

func (g *dmlGen) money(lo, hi int64) rapid.Value {
	u := lo + g.rng.Int63n(hi-lo+1)
	return rapid.Decimal(fmt.Sprintf("%d.%02d", u/100, u%100))
}

func (g *dmlGen) date(from string, spanDays int) rapid.Value {
	t, _ := time.Parse("2006-01-02", from)
	t = t.AddDate(0, 0, g.rng.Intn(spanDays))
	return rapid.Date(t.Year(), int(t.Month()), t.Day())
}

// batch draws four cell updates, one insert and one delete on table.
func (g *dmlGen) batch(table string) *dmlBatch {
	b := &dmlBatch{table: table}
	upd := func(col int, val rapid.Value) {
		b.updates = append(b.updates, cellUpdate{row: g.liveRow(table), col: col, val: val})
	}
	key := g.nextKey[table]
	g.nextKey[table]++
	for i := 0; i < 2; i++ {
		switch table {
		case "lineitem":
			upd(4, rapid.Int(int64(g.rng.Intn(50)+1)))                   // l_quantity
			upd(6, rapid.Decimal(fmt.Sprintf("0.%02d", g.rng.Intn(11)))) // l_discount
		case "orders":
			upd(3, g.money(100000, 50000000)) // o_totalprice
			upd(6, rapid.Int(int64(g.rng.Intn(2))))
		case "customer":
			upd(3, g.money(0, 1000000)) // c_acctbal
			upd(2, rapid.Int(int64(g.rng.Intn(25))))
		case "part":
			upd(4, rapid.Int(int64(g.rng.Intn(50)+1))) // p_size
			upd(6, g.money(90000, 110000))
		}
	}
	switch table {
	case "lineitem":
		qty := int64(g.rng.Intn(50) + 1)
		b.inserts = append(b.inserts, []rapid.Value{
			rapid.Int(int64(g.rng.Intn(g.rows["orders"]) + 1)),
			rapid.Int(int64(g.rng.Intn(g.rows["part"]) + 1)),
			rapid.Int(int64(g.rng.Intn(g.rows["supplier"]) + 1)),
			rapid.Int(8 + key%1000),
			rapid.Int(qty),
			g.money(qty*900, qty*1100),
			rapid.Decimal(fmt.Sprintf("0.%02d", g.rng.Intn(11))),
			rapid.Decimal(fmt.Sprintf("0.%02d", g.rng.Intn(9))),
			rapid.String("N"), rapid.String("O"),
			g.date("1992-01-02", 2400), g.date("1992-01-31", 2400), g.date("1992-01-03", 2450),
			rapid.String("NONE"), rapid.String("MAIL"),
		})
	case "orders":
		b.inserts = append(b.inserts, []rapid.Value{
			rapid.Int(key), rapid.Int(int64(g.rng.Intn(g.rows["customer"]) + 1)),
			rapid.String("O"), g.money(100000, 50000000), g.date("1992-01-01", 2400),
			rapid.String("3-MEDIUM"), rapid.Int(0),
		})
	case "customer":
		b.inserts = append(b.inserts, []rapid.Value{
			rapid.Int(key), rapid.String(fmt.Sprintf("Customer#%09d", key)),
			rapid.Int(int64(g.rng.Intn(25))), g.money(0, 1000000), rapid.String("BUILDING"),
		})
	case "part":
		b.inserts = append(b.inserts, []rapid.Value{
			rapid.Int(key), rapid.String("azure blue"), rapid.String("Brand#23"),
			rapid.String("PROMO PLATED TIN"), rapid.Int(int64(g.rng.Intn(50) + 1)),
			rapid.String("SM BOX"), g.money(90000, 110000),
		})
	}
	del := g.liveRow(table)
	g.deleted[table][del] = true
	b.deletes = append(b.deletes, del)
	return b
}

// apply runs the batch's DML calls; the caller checkpoints the table.
func (b *dmlBatch) apply(db *rapid.DB) error {
	for _, u := range b.updates {
		if err := db.Update(b.table, u.row, u.col, u.val); err != nil {
			return fmt.Errorf("update %s row %d: %w", b.table, u.row, err)
		}
	}
	if err := db.Insert(b.table, b.inserts); err != nil {
		return fmt.Errorf("insert %s: %w", b.table, err)
	}
	for _, r := range b.deletes {
		if err := db.Delete(b.table, r); err != nil {
			return fmt.Errorf("delete %s row %d: %w", b.table, r, err)
		}
	}
	return nil
}
