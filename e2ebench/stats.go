package main

import (
	"fmt"
	"sort"
	"strings"
)

// samples are latency samples, each tagged with the population it belongs
// to, so the report can show where a percentile falls.
type samples struct {
	v   []float64
	pop []string
}

func (s *samples) add(v float64, pop string) {
	s.v = append(s.v, v)
	s.pop = append(s.pop, pop)
}

// order returns sample indices in ascending value order.
func (s *samples) order() []int {
	idx := make([]int, len(s.v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.v[idx[a]] < s.v[idx[b]] })
	return idx
}

// percentiles returns the median and the tail: the highest percentile with
// at least ten samples beyond it, i.e. the 11th-largest sample, and its
// 0-based rank.
func (s *samples) percentiles() (p50, tail float64, tailRank int) {
	n := len(s.v)
	if n == 0 {
		return 0, 0, 0
	}
	p50 = median(s.v)
	tailRank = n - 11
	if tailRank < 0 {
		tailRank = n - 1
	}
	return p50, s.v[s.order()[tailRank]], tailRank
}

// around lists the populations of the samples ranked next to rank.
func (s *samples) around(rank int) string {
	idx := s.order()
	var parts []string
	for r := rank - 3; r <= rank+3; r++ {
		if r < 0 || r >= len(idx) {
			continue
		}
		p := s.pop[idx[r]]
		if r == rank {
			p = "[" + p + "]"
		}
		parts = append(parts, p)
	}
	return "neighbours " + strings.Join(parts, " ")
}

// populations counts the seed-fixed populations behind the latency
// samples: templates, reload-bearing tray queries, and per written table
// the dashboard's hits and re-executions per round.
type populations struct {
	w       *workload
	size    map[string]int
	rounds  map[string]int
	hits    map[string]int
	reexecs map[string]int
}

func newPopulations(w *workload) *populations {
	return &populations{w: w, size: map[string]int{}, rounds: map[string]int{}, hits: map[string]int{}, reexecs: map[string]int{}}
}

func (p *populations) label(rec record) string {
	l := rec.name
	if rec.reload {
		l = "reload:" + rec.name
	}
	p.size[l]++
	return l
}

func (p *populations) roundLabel(recs []record) string {
	l := "plain"
	for _, r := range recs {
		if r.write {
			l = r.table
		}
	}
	p.size[l]++
	return l
}

func (p *populations) round(recs []record, hits int) {
	if p.w.kind != kindDashboard {
		return
	}
	l := "plain"
	queries := 0
	for _, r := range recs {
		if r.write {
			l = r.table
		} else {
			queries++
		}
	}
	p.rounds[l]++
	p.hits[l] += hits
	p.reexecs[l] += queries - hits
}

func (p *populations) print() {
	names := make([]string, 0, len(p.size))
	for n := range p.size {
		names = append(names, n)
	}
	sort.Strings(names)
	if p.w.kind == kindDashboard {
		fmt.Println("populations (refresh rounds by written table):")
		for _, n := range names {
			r := float64(p.rounds[n])
			fmt.Printf("  %-9s %4d rounds, %.1f panels re-executed + %.1f cache hits per round\n",
				n, p.rounds[n], float64(p.reexecs[n])/r, float64(p.hits[n])/r)
		}
		return
	}
	reload, plain := 0, 0
	var parts []string
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s %d", n, p.size[n]))
		if strings.HasPrefix(n, "reload:") {
			reload += p.size[n]
		} else {
			plain += p.size[n]
		}
	}
	fmt.Printf("populations (queries): %s\n", strings.Join(parts, ", "))
	if p.w.nodes > 0 {
		fmt.Printf("  reload-bearing %d vs plain %d (%.1f%% reload-bearing)\n",
			reload, plain, 100*float64(reload)/float64(reload+plain))
	}
}
