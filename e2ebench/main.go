// Command e2ebench is the repository's end-to-end benchmark: seeded,
// single-client, closed-loop streams of SQL and DML sent through the public
// rapid.DB API, with results checked against the host row engine. See
// README.md for the workloads, metrics and the traced per-layer run.
//
//	bash e2ebench/run.sh --workload adhoc --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"rapid"
)

type kind int

const (
	kindAdhoc kind = iota
	kindDashboard
	kindTray
)

// workload is one named traffic mix.
type workload struct {
	name  string
	kind  kind
	nodes int // tray size; 0 runs on the host path
	// fixed is the number of measured rounds whose population the seed
	// fixes exactly: the simulated metrics are taken over them, and the
	// determinism gate and the traced run replay them.
	fixed int
	// oracleRounds is the number of leading timed rounds whose every query
	// is checked against the host row engine.
	oracleRounds int
}

// trayWriteEvery is the tray's write cadence in queries. One write in four
// queries makes reload-bearing queries ~25% of the stream and lineitem
// reloads ~10%, well above the ~4% tail share of a 15 s run, so the tail
// sample sits inside the lineitem-reload population.
const trayWriteEvery = 4

var workloads = []*workload{
	{name: "adhoc", kind: kindAdhoc, fixed: 4, oracleRounds: 2},
	{name: "dashboard", kind: kindDashboard, fixed: 10, oracleRounds: len(writeRotation)},
	{name: "tray", kind: kindTray, nodes: 4, fixed: 4, oracleRounds: 2},
}

// setupRepeats is how many times a timed run sets the database up; setup_s
// is the median.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: adhoc, dashboard or tray")
	seed := flag.Int64("seed", 1, "seed for data, literals, panels and writes")
	seconds := flag.Int("seconds", 15, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: traced per-layer run instead of the timed run")
	flag.Parse()

	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload adhoc|dashboard|tray --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	fmt.Printf("e2ebench workload=%s seed=%d seconds=%d trace=%d nodes=%d sf=%g GOMAXPROCS=%d\n",
		w.name, *seed, *seconds, *trace, w.nodes, scaleFactor, runtime.GOMAXPROCS(0))

	var out output
	var err error
	if *trace == 1 {
		out, err = traced(w, *seed, time.Duration(*seconds)*time.Second)
	} else {
		out, err = timed(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// timed is the untraced run behind the end-to-end metrics.
func timed(w *workload, seed int64, dur time.Duration) (output, error) {
	chk := &checks{}
	data := generate(seed)
	dom := newDomains(data)
	cfg := rapid.Config{Nodes: w.nodes}

	// Set up several times and keep the last instance for the measured
	// phase. The first instance replays the seed-fixed rounds, untimed, for
	// the determinism gate.
	var setups []float64
	var replay []record
	var db *rapid.DB
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		d, took, err := setup(cfg, data)
		if err != nil {
			return output{}, err
		}
		setups = append(setups, took.Seconds())
		if i == 0 {
			replay = fixedPopulation(newRunner(w, d, chk), newGenerator(w, seed, dom))
		}
		if i < setupRepeats-1 {
			d.Close()
		} else {
			db = d
		}
	}
	defer db.Close()
	data = nil
	runtime.GC()

	r := newRunner(w, db, chk)
	g := newGenerator(w, seed, dom)
	fixed, _ := r.round(g.warmup(), -1, false)

	var (
		lat             samples // one QueryWith call, or one refresh round on dashboard
		queries         int
		busy            time.Duration
		before, after   runtime.MemStats
		fixedSim        float64
		fixedNJ, fixedQ int64
		pop             = newPopulations(w)
		rounds          int
		windows         [][2]float64 // per round: busy seconds at its end, queries
	)
	runtime.ReadMemStats(&before)
	start := time.Now()
	for ; rounds < w.fixed || time.Since(start)-r.oracleTime < dur; rounds++ {
		recs, wall := r.round(g.next(), rounds, rounds < w.oracleRounds)
		busy += wall
		windows = append(windows, [2]float64{busy.Seconds(), 0})
		for _, rec := range recs {
			if rec.write {
				continue
			}
			queries++
			windows[len(windows)-1][1]++
			if w.kind != kindDashboard {
				lat.add(ms(rec.wall), pop.label(rec))
			}
			if rounds < w.fixed {
				fixedSim += rec.sim
				fixedNJ += rec.cost.energyNJ()
				fixedQ++
			}
		}
		if w.kind == kindDashboard {
			lat.add(ms(wall), pop.roundLabel(recs))
		}
		pop.round(recs, r.roundHits[len(r.roundHits)-1])
		if rounds < w.fixed {
			fixed = append(fixed, recs...)
		}
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc - r.oracleAlloc
	runtime.GC()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	gate := compareRuns(replay, fixed)
	if gate.exactDiverged > 0 {
		chk.failed += gate.exactDiverged
		chk.msgs = append(chk.msgs, "determinism gate: "+gate.firstExact)
	}

	setupMed := median(setups)
	p50, tail, tailRank := lat.percentiles()
	fmt.Printf("setup_s: %d set-ups %.4f, median %.4f s\n", len(setups), setups, setupMed)
	fmt.Printf("measured: %d rounds, %d queries, %.3f s busy (%.3f s of oracle checks excluded)\n",
		rounds, queries, busy.Seconds(), r.oracleTime.Seconds())
	what := "one QueryWith call"
	if w.kind == kindDashboard {
		what = "one refresh round: first DML call to last panel result"
	}
	fmt.Printf("latency_*_ms sample: %s; n=%d\n", what, len(lat.v))
	fmt.Printf("  p50 %.4f ms at rank %d/%d: %s\n", p50, len(lat.v)/2+1, len(lat.v), lat.around(len(lat.v)/2))
	fmt.Printf("  tail %.4f ms = p%.2f (10 samples beyond it) at rank %d/%d: %s\n",
		tail, 100*float64(tailRank+1)/float64(len(lat.v)), tailRank+1, len(lat.v), lat.around(tailRank))
	pop.print()
	fmt.Printf("qps by fifth of the measured phase: %s\n", fifths(windows))
	fmt.Printf("simulated metrics over the seed-fixed population: %d rounds, %d queries\n", w.fixed, fixedQ)
	printGate(gate, len(fixed))
	fmt.Printf("oracle: %d queries of the first %d rounds checked against the host row engine, %d failed\n",
		r.oracleN, w.oracleRounds, r.oracleFailed)
	printChecks(chk)

	return output{
		Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed,
		Metrics: map[string]metric{
			"setup_s":            {setupMed, "s"},
			"qps":                {float64(queries) / busy.Seconds(), "1/s"},
			"latency_p50_ms":     {p50, "ms"},
			"latency_tail_ms":    {tail, "ms"},
			"sim_ms_per_query":   {fixedSim * 1e3 / float64(fixedQ), "ms"},
			"sim_uj_per_query":   {float64(fixedNJ) / 1e3 / float64(fixedQ), "uJ"},
			"alloc_kb_per_query": {float64(alloc) / 1024 / float64(queries), "KB"},
			"heap_mb":            {float64(live.HeapAlloc) / (1 << 20), "MB"},
		},
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func printGate(g gateResult, calls int) {
	if g.exactDiverged == 0 {
		fmt.Printf("determinism gate: %d calls replayed on a second instance; every exact figure identical\n", calls)
	} else {
		fmt.Printf("determinism gate: FAILED, %d exact figures diverged; first: %s\n", g.exactDiverged, g.firstExact)
	}
	if g.cycleDiverged == 0 {
		fmt.Println("determinism gate: cycle-derived figures identical")
	} else {
		fmt.Printf("determinism gate: %d cycle-derived figures diverged (known engine defect, see README); first: %s\n",
			g.cycleDiverged, g.firstCycle)
	}
}

func printChecks(c *checks) {
	fmt.Printf("checks: %d operations attempted, %d failed\n", c.attempted, c.failed)
	for _, m := range c.msgs {
		fmt.Println("  FAIL", m)
	}
}

// fifths splits the measured phase into five equal spans of program time
// and returns the query rate of each, so drift within a run shows.
func fifths(rounds [][2]float64) string {
	if len(rounds) == 0 {
		return ""
	}
	total := rounds[len(rounds)-1][0]
	var q [5]float64
	for _, r := range rounds {
		i := int(5 * r[0] / total)
		if i > 4 {
			i = 4
		}
		q[i] += r[1]
	}
	out := ""
	for _, n := range q {
		out += fmt.Sprintf(" %.1f", n/(total/5))
	}
	return out[1:]
}
