package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// parseRatio extracts the float from a "3.14×" cell.
func parseRatio(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "×"), 64)
	if err != nil {
		t.Fatalf("bad ratio cell %q: %v", cell, err)
	}
	return v
}

func TestE1SIMDRAMAlwaysAtLeastAsFast(t *testing.T) {
	tab, err := E1CommandCounts([]int{8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 16*3 {
		t.Fatalf("expected 48 rows, have %d", len(tab.Rows))
	}
	maxRatio := 0.0
	for _, row := range tab.Rows {
		r := parseRatio(t, row[len(row)-1])
		if r < 1.0 {
			t.Errorf("%s/%s: SIMDRAM slower than Ambit (%.2f×)", row[0], row[1], r)
		}
		if r > maxRatio {
			maxRatio = r
		}
	}
	// Paper headline: up to 5.1× over Ambit. Accept the [2, 8] band.
	if maxRatio < 2 || maxRatio > 8 {
		t.Errorf("max speedup vs Ambit = %.2f×, want within [2, 8] (paper: 5.1×)", maxRatio)
	}
}

func TestE2ThroughputShape(t *testing.T) {
	tab, err := E2Throughput(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 16 {
		t.Fatalf("expected 16 rows, have %d", len(tab.Rows))
	}
	geoCPU, geoAmbit := 1.0, 1.0
	for _, row := range tab.Rows {
		vsCPU := parseRatio(t, row[7])
		vsAmbit := parseRatio(t, row[9])
		geoCPU *= vsCPU
		geoAmbit *= vsAmbit
		if vsAmbit < 1.0 {
			t.Errorf("%s: slower than Ambit", row[0])
		}
	}
	geoCPU = math.Pow(geoCPU, 1.0/16)
	geoAmbit = math.Pow(geoAmbit, 1.0/16)
	if geoCPU < 10 {
		t.Errorf("geomean vs CPU = %.1f×, expected ≫ 10× at 16 banks", geoCPU)
	}
	if geoAmbit < 1.3 {
		t.Errorf("geomean vs Ambit = %.2f×, expected ≥ 1.3×", geoAmbit)
	}
}

func TestE3EnergyShape(t *testing.T) {
	tab, err := E3Energy(32)
	if err != nil {
		t.Fatal(err)
	}
	geoCPU, geoGPU := 1.0, 1.0
	for _, row := range tab.Rows {
		geoCPU *= parseRatio(t, row[5])
		geoGPU *= parseRatio(t, row[6])
	}
	geoCPU = math.Pow(geoCPU, 1.0/16)
	geoGPU = math.Pow(geoGPU, 1.0/16)
	// Paper: 257× vs CPU and 31× vs GPU. Accept the order of magnitude.
	if geoCPU < 50 {
		t.Errorf("geomean energy vs CPU = %.0f×, expected ≥ 50× (paper 257×)", geoCPU)
	}
	if geoGPU < 5 {
		t.Errorf("geomean energy vs GPU = %.1f×, expected ≥ 5× (paper 31×)", geoGPU)
	}
}

func TestE4KernelShape(t *testing.T) {
	tab, err := E4Kernels()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("expected 7 kernels, have %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if parseRatio(t, row[5]) < 1.0 {
			t.Errorf("%s: SIMDRAM slower than CPU", row[0])
		}
		vsAmbit := parseRatio(t, row[7])
		if vsAmbit < 1.0 || vsAmbit > 5.0 {
			t.Errorf("%s: vs Ambit = %.2f×, expected [1, 5] (paper: up to 2.5×)", row[0], vsAmbit)
		}
	}
}

func TestE5ReliabilityShape(t *testing.T) {
	tab := E5Reliability(20000)
	if len(tab.Rows) != 4 {
		t.Fatalf("expected 4 nodes, have %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		zero, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if zero != 0 {
			t.Errorf("%s: nonzero failure rate at σ=0", row[0])
		}
		last, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		first, _ := strconv.ParseFloat(row[3], 64)
		if last < first {
			t.Errorf("%s: failure rate not increasing with σ", row[0])
		}
	}
}

func TestE6AreaUnderOnePercent(t *testing.T) {
	tab := E6Area()
	total := tab.Rows[len(tab.Rows)-1][3]
	if !strings.Contains(total, "%") {
		t.Fatalf("total row malformed: %q", total)
	}
	// Extract the percentage.
	i := strings.Index(total, "(")
	j := strings.Index(total, "%")
	pct, err := strconv.ParseFloat(total[i+1:j], 64)
	if err != nil {
		t.Fatal(err)
	}
	if pct >= 1.0 {
		t.Errorf("area overhead %.3f%% ≥ 1%%", pct)
	}
}

func TestE7WidthScalingShape(t *testing.T) {
	tab, err := E7WidthScaling()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		ratio, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatal(err)
		}
		switch row[0] {
		case "addition", "greater", "bitcount":
			if ratio < 1.5 || ratio > 3.5 {
				t.Errorf("%s: 64/32 ratio %.2f, expected ≈2 (linear)", row[0], ratio)
			}
		case "division":
			if ratio < 3 || ratio > 6 {
				t.Errorf("%s: 64/32 ratio %.2f, expected ≈4 (quadratic)", row[0], ratio)
			}
		case "multiplication":
			// 64-bit multiplication truncates to the low half, cutting
			// the quadratic growth roughly in two.
			if ratio < 1.4 || ratio > 4.5 {
				t.Errorf("%s: 64/32 ratio %.2f, expected in [1.4, 4.5]", row[0], ratio)
			}
		}
	}
}

func TestE8TranspositionSmall(t *testing.T) {
	tab, err := E8Transposition()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		share, err := strconv.ParseFloat(strings.TrimSuffix(row[4], "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if share > 20 {
			t.Errorf("transposition share %.1f%% of pipeline, expected small", share)
		}
	}
}

func TestAllRendersEveryTable(t *testing.T) {
	tables, err := all()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) < 8 {
		t.Fatalf("expected ≥8 tables, have %d", len(tables))
	}
	for _, tab := range tables {
		s := tab.String()
		if !strings.Contains(s, tab.ID) || len(tab.Rows) == 0 {
			t.Errorf("table %s renders badly or is empty", tab.ID)
		}
	}
}

// all regenerates every experiment.
func all() ([]Table, error) {
	var tables []Table
	e1, err := E1CommandCounts([]int{8, 16, 32})
	if err != nil {
		return nil, err
	}
	tables = append(tables, e1)
	for _, w := range []int{16, 32} {
		e2, err := E2Throughput(w)
		if err != nil {
			return nil, err
		}
		tables = append(tables, e2)
	}
	e3, err := E3Energy(32)
	if err != nil {
		return nil, err
	}
	tables = append(tables, e3)
	e4, err := E4Kernels()
	if err != nil {
		return nil, err
	}
	tables = append(tables, e4)
	tables = append(tables, E5Reliability(40000), E6Area())
	e7, err := E7WidthScaling()
	if err != nil {
		return nil, err
	}
	tables = append(tables, e7)
	e8, err := E8Transposition()
	if err != nil {
		return nil, err
	}
	tables = append(tables, e8)
	e9, err := E9Ablation(16)
	if err != nil {
		return nil, err
	}
	tables = append(tables, e9)
	e9b, err := E9Groups(16)
	if err != nil {
		return nil, err
	}
	tables = append(tables, e9b)
	e10, err := E10RowHammer()
	if err != nil {
		return nil, err
	}
	tables = append(tables, e10)
	return tables, nil
}
