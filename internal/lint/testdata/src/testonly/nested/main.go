// Command nested stands for a nested module, such as bench/, whose
// calls count as production use.
package main

import (
	"fmt"

	"simdram/internal/lint/testdata/src/testonly/internal/lib"
)

func main() { fmt.Println(lib.FromNested()) }
