package main

import "fmt"

// costs is one job's modeled cost. The timing model makes it a
// function of the request alone, so every rerun of a request must
// repeat it exactly.
type costs struct {
	modeledNs float64 // batch critical path, DRAM-ns
	energyPJ  float64
	commands  float64
}

// book records each pool entry's modeled cost on its first run and
// fails any later run that differs. Entries are partitioned among
// clients, so no two goroutines touch one entry.
type book struct {
	entries []costs
	seen    []bool
}

func newBook(n int) *book { return &book{entries: make([]costs, n), seen: make([]bool, n)} }

func (b *book) check(e int, c costs) error {
	if !b.seen[e] {
		b.entries[e], b.seen[e] = c, true
		return nil
	}
	if b.entries[e] != c {
		return fmt.Errorf("pool entry %d: modeled cost %+v, an earlier run of it %+v", e, c, b.entries[e])
	}
	return nil
}

// mean averages the cost over the entries run so far. Called after
// warm-up, that set is fixed by the seed, so the mean is exact.
func (b *book) mean() costs {
	var sum costs
	n := 0
	for e, ok := range b.seen {
		if ok {
			sum.modeledNs += b.entries[e].modeledNs
			sum.energyPJ += b.entries[e].energyPJ
			sum.commands += b.entries[e].commands
			n++
		}
	}
	if n == 0 {
		return costs{}
	}
	return costs{sum.modeledNs / float64(n), sum.energyPJ / float64(n), sum.commands / float64(n)}
}
