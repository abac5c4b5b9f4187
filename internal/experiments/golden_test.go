package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from the current tables")

// TestTablesMatchGolden pins every paper table byte for byte. A change
// that moves a table must regenerate the golden file
// (go test ./internal/experiments -run TestTablesMatchGolden -update)
// and explain the diff; see docs/reproduction.md.
func TestTablesMatchGolden(t *testing.T) {
	tables, err := all()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tab := range tables {
		sb.WriteString(tab.String())
		sb.WriteString("\n")
	}
	got := sb.String()
	path := filepath.Join("testdata", "tables.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("tables differ from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update if the change is intended)", path, i+1, g, w)
			}
		}
	}
}
