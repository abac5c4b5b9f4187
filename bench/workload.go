package main

import (
	"fmt"
	"time"
)

// workload is one traffic mix the benchmark drives.
type workload interface {
	clients() int
	// warmJobs is the default untimed warm-up length, in jobs.
	warmJobs() int
	// setup builds the system under test and brings it to ready for
	// its first timed job: what setup_s measures.
	setup() error
	job(c int) (time.Duration, float64, error)
	// exact is the modeled per-job cost averaged over the requests run
	// so far; taken right after warm-up it is exact for the seed.
	exact() costs
	// layers runs the traced run's measured window(s) and adds the
	// per-layer metrics only the workload itself can observe.
	layers(o options, res *result) error
	// ledgerIn is what the ledger times the layers on.
	ledgerIn() (ledgerIn, error)
	close()
}

var workloadNames = []string{"serve-hot", "serve-adhoc", "replay", "cluster4"}

func knownWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// newWorkload generates the workload's inputs from o.seed — before any
// timing; setupOnly generates only what set-up needs.
func newWorkload(o options, setupOnly bool) (workload, error) {
	switch o.workload {
	case "serve-hot":
		return newServe(o, false, setupOnly)
	case "serve-adhoc":
		return newServe(o, true, setupOnly)
	case "replay":
		return newReplay(o), nil
	case "cluster4":
		return newCluster(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}
