// kNN: the paper's machine-learning kernel — classify digits by nearest
// neighbor with all L1 distance arithmetic (subtract, abs, accumulate)
// running in DRAM across every training point at once.
package main

import (
	"fmt"
	"log"

	"simdram/internal/kernels"
	"simdram/internal/workload"

	"simdram"
)

func main() {
	sys, err := simdram.New(simdram.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	const trainN, queryN, dims = 2000, 20, 32
	all, labels := workload.Digits(trainN+queryN, dims, 3)
	train, trainLabels := all[:trainN], labels[:trainN]
	queries, queryLabels := all[trainN:], labels[trainN:]

	correct := 0
	var total simdram.Stats
	for q, query := range queries {
		label, st, err := kernels.KNNClassify(sys, train, trainLabels, query)
		if err != nil {
			log.Fatal(err)
		}
		if want := hostClassify(train, trainLabels, query); label != want {
			log.Fatalf("query %d: dram label %d, host %d", q, label, want)
		}
		total.Commands += st.Commands
		total.LatencyNs += st.LatencyNs
		total.EnergyPJ += st.EnergyPJ
		if label == queryLabels[q] {
			correct++
		}
	}
	fmt.Printf("kNN: %d training digits × %d dims, %d queries\n", trainN, dims, queryN)
	fmt.Printf("accuracy: %d/%d\n", correct, queryN)
	fmt.Printf("in-DRAM distance cost: %d commands, %.2f ms, %.1f µJ\n",
		total.Commands, total.LatencyNs/1e6, total.EnergyPJ/1e6)
}

// hostClassify is the host reference: the label of the training digit
// at the smallest L1 distance (the first one on a tie, like
// kernels.Argmin).
func hostClassify(train [][]uint64, labels []int, query []uint64) int {
	dist := make([]uint64, len(train))
	for j, p := range train {
		for i := range p {
			if p[i] > query[i] {
				dist[j] += p[i] - query[i]
			} else {
				dist[j] += query[i] - p[i]
			}
		}
	}
	return labels[kernels.Argmin(dist)]
}
