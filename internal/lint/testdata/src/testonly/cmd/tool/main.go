// Command tool is the fixture's production caller.
package main

import (
	"fmt"

	"simdram/internal/lint/testdata/src/testonly/internal/lib"
)

func main() {
	var m lib.Meter
	fmt.Println(lib.Used(), lib.Stale(), m.Count(), &m)
}
